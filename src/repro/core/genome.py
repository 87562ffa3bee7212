"""Genome specifications: the search-space half of a GA problem.

The survey's applications use binary strings (classic GAs, feature
selection), real vectors (wing design, Doppler filters — "ARGA had both
binary and real value representations"), permutations (TSP, scheduling) and
bounded integer strings (reactor-core zone enrichments).  A
:class:`GenomeSpec` bundles sampling, validation and repair for one such
representation so operators and engines stay representation-agnostic.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GenomeSpec",
    "BinarySpec",
    "RealVectorSpec",
    "PermutationSpec",
    "IntegerVectorSpec",
]


def _as_block(genomes: np.ndarray) -> np.ndarray:
    G = np.asarray(genomes)
    if G.ndim != 2:
        raise ValueError(f"genome block must be 2-D (m, L), got ndim={G.ndim}")
    return G


class GenomeSpec(abc.ABC):
    """Abstract description of one chromosome representation."""

    #: number of genes in the chromosome
    length: int

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one uniformly random genome."""

    @abc.abstractmethod
    def is_valid(self, genome: np.ndarray) -> bool:
        """Check that ``genome`` lies in the representation's domain."""

    def repair(self, genome: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Project an out-of-domain genome back into the domain.

        Default implementation returns the genome unchanged; bounded
        representations override this with clipping / re-normalisation.
        """
        return genome

    def repair_batch(
        self, genomes: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Repair a whole ``(m, L)`` block of genomes row-wise.

        Default implementation loops over :meth:`repair`; the built-in
        specs override it with a single array operation so the vectorized
        variation path stays allocation- and dispatch-free.  Must be
        distributionally equivalent to row-wise :meth:`repair`.
        """
        G = _as_block(genomes)
        if G.shape[0] == 0:
            return G.copy()
        return np.stack([self.repair(g, rng) for g in G])

    def sample_population(self, rng: np.random.Generator, n: int) -> list[np.ndarray]:
        """Draw ``n`` independent random genomes."""
        return [self.sample(rng) for _ in range(n)]


@dataclass(frozen=True)
class BinarySpec(GenomeSpec):
    """Fixed-length bit string; the survey's 'mostly binary' chromosome.

    ``density`` biases initial sampling: each bit is 1 with that
    probability (0.5 = classic uniform).  Sparse-solution problems such as
    large-scale feature selection initialise at low density so the GA
    grows masks instead of pruning from 50%.
    """

    length: int
    density: float = 0.5

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"binary genome length must be positive, got {self.length}")
        if not 0.0 < self.density < 1.0:
            raise ValueError(f"density must be in (0,1), got {self.density}")

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return (rng.random(self.length) < self.density).astype(np.int8)

    def is_valid(self, genome: np.ndarray) -> bool:
        return (
            genome.shape == (self.length,)
            and bool(np.all((genome == 0) | (genome == 1)))
        )

    def repair(self, genome: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if genome.dtype.kind in "iu":
            # per offspring on the scalar cycle: min/max instead of np.clip
            # (same values, less dispatch); rint of an integer is a no-op
            return np.minimum(np.maximum(genome, 0), 1).astype(np.int8, copy=False)
        return np.clip(np.rint(genome), 0, 1).astype(np.int8)

    def repair_batch(
        self, genomes: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        G = _as_block(genomes)
        # integer blocks (the common case on the hot variation path) skip
        # np.rint, which would promote the whole block to float64; min/max
        # as in repair (same values as np.clip, less dispatch)
        if not np.issubdtype(G.dtype, np.integer):
            G = np.rint(G)
        return np.minimum(np.maximum(G, 0), 1).astype(np.int8, copy=False)


@dataclass(frozen=True)
class RealVectorSpec(GenomeSpec):
    """Real-valued vector with per-gene (or scalar) box bounds."""

    length: int
    lower: float | np.ndarray = 0.0
    upper: float | np.ndarray = 1.0

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"real genome length must be positive, got {self.length}")
        lo, hi = self.bounds()
        if np.any(lo >= hi):
            raise ValueError("lower bounds must be strictly below upper bounds")

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Bounds broadcast to full-length read-only float arrays, built
        once per spec (repair, sampling and validation all read them)."""
        cached = self.__dict__.get("_bounds")
        if cached is None:
            cached = tuple(
                np.broadcast_to(np.asarray(b, dtype=float), (self.length,))
                for b in (self.lower, self.upper)
            )
            self.__dict__["_bounds"] = cached  # frozen: bypass __setattr__
        return cached

    def __getstate__(self) -> dict:
        # the cached bounds are derived: pickle the fields only
        return {k: v for k, v in self.__dict__.items() if k != "_bounds"}

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        lo, hi = self.bounds()
        return rng.uniform(lo, hi)

    def is_valid(self, genome: np.ndarray) -> bool:
        if genome.shape != (self.length,):
            return False
        lo, hi = self.bounds()
        return bool(np.all(genome >= lo) and np.all(genome <= hi))

    def repair(self, genome: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        lo, hi = self.bounds()
        return np.clip(genome.astype(float), lo, hi)

    def repair_batch(
        self, genomes: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        lo, hi = self.bounds()
        return np.clip(_as_block(genomes).astype(float), lo, hi)

    @property
    def span(self) -> np.ndarray:
        lo, hi = self.bounds()
        return hi - lo


@dataclass(frozen=True)
class PermutationSpec(GenomeSpec):
    """Permutation of ``0..length-1`` (tours, schedules, orderings)."""

    length: int

    def __post_init__(self) -> None:
        if self.length <= 1:
            raise ValueError(f"permutation length must exceed 1, got {self.length}")

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.permutation(self.length).astype(np.int64)

    def is_valid(self, genome: np.ndarray) -> bool:
        return (
            genome.shape == (self.length,)
            and bool(np.array_equal(np.sort(genome), np.arange(self.length)))
        )

    def repair(self, genome: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Rebuild a valid permutation preserving the relative order of the
        first occurrence of each valid city and appending missing ones.

        A genome that already is an integer permutation comes back as an
        int64 copy; the rebuild would shuffle an empty list of missing
        cities, which draws nothing, so the stream is the same either way.
        """
        genome = np.asarray(genome)
        if genome.dtype.kind in "iu" and self.is_valid(genome):
            return genome.astype(np.int64)
        seen: set[int] = set()
        out: list[int] = []
        for g in np.asarray(genome, dtype=np.int64):
            v = int(g)
            if 0 <= v < self.length and v not in seen:
                seen.add(v)
                out.append(v)
        missing = [v for v in range(self.length) if v not in seen]
        rng.shuffle(missing)
        out.extend(missing)
        return np.asarray(out[: self.length], dtype=np.int64)

    def repair_batch(
        self, genomes: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Vectorized first-occurrence rebuild of a whole block.

        For each row, scatter the first column index of every valid value
        into a ``(m, L)`` position table (``L`` = "absent" sentinel), give
        absent values random sort keys past the sentinel, and argsort the
        keys: values ordered by first occurrence, then missing values in
        random order — the same distribution as row-wise :meth:`repair`,
        with no Python loop.
        """
        G = _as_block(genomes)
        m, L = G.shape
        if m == 0:
            return G.astype(np.int64)
        vals = G.astype(np.int64)
        valid = (vals >= 0) & (vals < self.length)
        pos = np.full((m, self.length), L, dtype=np.int64)
        rr, cc = np.nonzero(valid)
        np.minimum.at(pos, (rr, vals[rr, cc]), cc)
        # absent values sort after every first-occurrence column, ordered
        # by an independent uniform key (= a random shuffle of the missing)
        key = np.where(pos < L, pos.astype(float), L + rng.random((m, self.length)))
        return np.argsort(key, axis=1).astype(np.int64)


@dataclass(frozen=True)
class IntegerVectorSpec(GenomeSpec):
    """Bounded integer string (e.g. reactor zone enrichment indices)."""

    length: int
    low: int = 0
    high: int = 1  # inclusive

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"integer genome length must be positive, got {self.length}")
        if self.low > self.high:
            raise ValueError(f"low ({self.low}) must not exceed high ({self.high})")

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(self.low, self.high + 1, size=self.length, dtype=np.int64)

    def is_valid(self, genome: np.ndarray) -> bool:
        return (
            genome.shape == (self.length,)
            and bool(np.all(genome >= self.low) and np.all(genome <= self.high))
        )

    def repair(self, genome: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.clip(np.rint(genome), self.low, self.high).astype(np.int64)

    def repair_batch(
        self, genomes: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        G = _as_block(genomes)
        if not np.issubdtype(G.dtype, np.integer):
            G = np.rint(G)
        return np.clip(G, self.low, self.high).astype(np.int64, copy=False)

    @property
    def cardinality(self) -> int:
        """Number of distinct values one gene can take."""
        return self.high - self.low + 1
