"""GA configuration: the knobs the survey says every (P)GA exposes.

Bundles operator choices and rates so every model — sequential engine,
island deme, cellular cell, master-slave farm — is configured the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .operators.crossover import Crossover, crossover_for_spec
from .operators.mutation import Mutation, mutation_for_spec
from .operators.replacement import Replacement, ReplaceWorstIfBetter
from .operators.selection import Selection, TournamentSelection

__all__ = ["GAConfig"]


def require_integer(name: str, value) -> None:
    """Reject a count that is not a real integer (``bool``, ``2.5``, ``nan``)
    where it is given, not where it is first used as one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass
class GAConfig:
    """Configuration shared by all evolution engines.

    Parameters
    ----------
    population_size:
        Members per population (per *deme* in multi-population models).
    selection, crossover, mutation:
        Operator instances; ``crossover``/``mutation`` of ``None`` are
        resolved per genome spec by :meth:`resolved_for`.
    crossover_prob:
        Probability a selected pair is recombined (otherwise cloned).
    mutation_prob:
        Probability the mutation operator is applied to an offspring.
        (Per-gene rates live inside the mutation operator itself.)
    elitism:
        Number of best parents copied unchanged into the next generation
        (generational engines only).
    replacement:
        Steady-state victim policy (steady-state engines only).
    vectorized_variation:
        Opt-in fast path: run the selection-crossover-mutation cycle on
        ``(n, L)`` genome blocks via :mod:`repro.core.vectorized` instead
        of per-individual operator calls.  Distributionally equivalent to
        the scalar cycle but consumes the rng stream differently, so
        same-seed runs differ bit-for-bit; with the default ``False``
        nothing changes.  Engines fall back to the scalar cycle when an
        operator has no batch kernel.
    """

    population_size: int = 100
    selection: Selection = field(default_factory=TournamentSelection)
    crossover: Optional[Crossover] = None
    mutation: Optional[Mutation] = None
    crossover_prob: float = 0.9
    mutation_prob: float = 1.0
    elitism: int = 1
    replacement: Replacement = field(default_factory=ReplaceWorstIfBetter)
    vectorized_variation: bool = False

    def __post_init__(self) -> None:
        require_integer("population_size", self.population_size)
        require_integer("elitism", self.elitism)
        if self.population_size < 2:
            raise ValueError(
                f"population_size must be >= 2, got {self.population_size}"
            )
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError(f"crossover_prob must be in [0,1], got {self.crossover_prob}")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError(f"mutation_prob must be in [0,1], got {self.mutation_prob}")
        if self.elitism < 0:
            raise ValueError(f"elitism must be >= 0, got {self.elitism}")
        if self.elitism >= self.population_size:
            raise ValueError(
                f"elitism ({self.elitism}) must be below population_size "
                f"({self.population_size})"
            )

    def resolved_for(self, spec) -> "GAConfig":
        """Fill in default operators appropriate for ``spec``."""
        cx = self.crossover if self.crossover is not None else crossover_for_spec(spec)
        mut = self.mutation if self.mutation is not None else mutation_for_spec(spec)
        return replace(self, crossover=cx, mutation=mut)

    def with_population_size(self, n: int) -> "GAConfig":
        """Copy with a different population size (deme partitioning)."""
        return replace(self, population_size=n, elitism=min(self.elitism, max(0, n - 1)))
