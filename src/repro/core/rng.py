"""Deterministic random-number management for sequential and parallel GAs.

Every stochastic component in :mod:`repro` draws from a
:class:`numpy.random.Generator`.  Parallel models need *independent*
streams per deme/worker that are nevertheless reproducible from a single
seed; we use NumPy's ``SeedSequence.spawn`` mechanism, which guarantees
statistically independent child streams.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ensure_rng", "spawn_rngs", "spawn_seeds", "derive_rng"]


def ensure_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh nondeterministic generator), an ``int`` seed, or an
        existing generator (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: int | np.random.SeedSequence | None, n: int) -> list[np.random.Generator]:
    """Create ``n`` independent generators derived from one root seed.

    The streams are independent in the cryptographic-hash sense provided by
    :class:`numpy.random.SeedSequence`, so demes seeded this way do not share
    correlated randomness.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in root.spawn(n)]


def spawn_seeds(seed: int | None, n: int) -> list[np.random.SeedSequence]:
    """Spawn ``n`` child seed sequences (picklable, for multiprocessing)."""
    if n < 0:
        raise ValueError(f"cannot spawn {n} seeds")
    return np.random.SeedSequence(seed).spawn(n)


def derive_rng(rng: np.random.Generator) -> np.random.Generator:
    """Fork one additional independent generator off an existing one.

    Used when a component must hand private randomness to a sub-component
    without perturbing its own stream consumption pattern.
    """
    seed = rng.integers(0, 2**63 - 1, dtype=np.int64)
    return np.random.default_rng(int(seed))

