"""``repro.core.vectorized`` — array-backed variation fast path.

PR 2 vectorized fitness *evaluation*; this package vectorizes the other
half of every generation: the selection-crossover-mutation cycle the
survey puts at the heart of all (P)GAs ("there is always a
selection-crossover-mutation cycle as in GAs", §1.1).  Instead of
threading one :class:`~repro.core.individual.Individual` at a time
through Python-object operator calls, the fast path works on an
``(n, L)`` genome matrix and applies each operator to whole offspring
blocks with per-row probability masks.

Layout
------
:mod:`~repro.core.vectorized.population`
    :class:`ArrayPopulation` — the array-backed representation,
    losslessly convertible to/from :class:`~repro.core.population.Population`.
    This is the object boundary, the one module allowed to loop over
    individuals.
:mod:`~repro.core.vectorized.kernels`
    Batched NumPy kernels: block crossover and block mutation, plus the
    operator → kernel registries.  Loop-free by contract (enforced by
    ``scripts/check_engine_contract.py``).  Selection needs no kernel:
    every built-in selection operator's ``indices`` method already picks
    row indices from a fitness vector.
:mod:`~repro.core.vectorized.variation`
    :func:`vector_offspring` — the whole cycle on parent blocks,
    producing *exactly* the requested offspring count.  Loop-free by the
    same contract.

The fast path is opt-in via ``GAConfig(vectorized_variation=True)`` and
is distributionally — not bit-for-bit — equivalent to the scalar cycle:
it draws random numbers in blocks, so rng streams diverge while operator
semantics (cut distributions, per-gene rates, selection pressure) match.
With the toggle off only the kernels' block arithmetic runs, fed the
operators' own per-pair draws by the stream-exact breeder
(:func:`repro.core.variation.breed`), and every fingerprint is
byte-identical to the per-pair cycle.
"""

from .kernels import (
    crossover_kernel,
    mutation_kernel,
    supports_vectorized_variation,
)
from .population import ArrayPopulation
from .variation import vector_offspring

__all__ = [
    "ArrayPopulation",
    "crossover_kernel",
    "mutation_kernel",
    "supports_vectorized_variation",
    "vector_offspring",
]
