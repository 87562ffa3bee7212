"""Crossover (recombination) operators.

The survey: "After choosing randomly a pair of individuals, crossover
executes an exchange of the substring within the pair with some
probability.  There are many types of crossovers defined …" — this module
is that catalogue.  Every operator is a callable
``(rng, parent_a, parent_b) -> (child_a, child_b)`` over raw genome arrays;
parents are never modified.  Operators whose randomness depends on the
genome length alone also expose ``draw(rng, n)``, the random values of one
call in the order the call consumes them; ``__call__`` draws through it, and
the stream-exact block breeder (:func:`repro.core.variation.breed`) draws
through it too, then applies the matching block arithmetic.

Discrete-string operators (one-point, two-point, k-point, uniform) apply to
binary and integer genomes; SBX / BLX / arithmetic apply to real vectors;
PMX / OX / CX preserve permutation validity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

__all__ = [
    "Crossover",
    "OnePointCrossover",
    "TwoPointCrossover",
    "KPointCrossover",
    "UniformCrossover",
    "ArithmeticCrossover",
    "BlendCrossover",
    "SimulatedBinaryCrossover",
    "PartiallyMappedCrossover",
    "OrderCrossover",
    "CycleCrossover",
    "TwoDimensionalCrossover",
    "crossover_for_spec",
]


class Crossover(Protocol):
    """Callable protocol all crossover operators satisfy."""

    def __call__(
        self, rng: np.random.Generator, a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]: ...


def _check_parents(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"parent shapes differ: {a.shape} vs {b.shape}")
    if a.ndim != 1:
        raise ValueError(f"genomes must be 1-D, got ndim={a.ndim}")


@dataclass(frozen=True)
class OnePointCrossover:
    """Classic single cut point exchange (Holland 1975)."""

    def draw(self, rng: np.random.Generator, n: int) -> int:
        """The cut: genes from it on are exchanged (``n``, no draw, if n < 2)."""
        return n if n < 2 else int(rng.integers(1, n))

    def __call__(
        self, rng: np.random.Generator, a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        _check_parents(a, b)
        n = a.shape[0]
        if n < 2:
            return a.copy(), b.copy()
        cut = self.draw(rng, n)
        ca = np.concatenate([a[:cut], b[cut:]])
        cb = np.concatenate([b[:cut], a[cut:]])
        return ca, cb


@dataclass(frozen=True)
class TwoPointCrossover:
    """Exchange the segment between two cut points."""

    def draw(self, rng: np.random.Generator, n: int) -> tuple[int, int]:
        """The exchanged segment ``[i, j)``: two distinct cuts in ``1..n-1``.

        Below three genes this is one-point crossover's cut, to the end.
        Otherwise it consumes exactly the draws of
        ``rng.choice(n - 1, 2, replace=False)`` without that call's
        overhead.  That call is Floyd's algorithm: two bounded draws, then
        a shuffle of the pair that takes one 32-bit draw, as a bounded
        draw below 2 does.  Sorting the cuts makes the shuffle moot, but
        its draw is still taken.
        """
        if n < 3:
            return OnePointCrossover().draw(rng, n), n
        m = n - 1
        integers = rng.integers
        v1 = integers(0, m - 1)
        v2 = integers(0, m)
        integers(0, 2)
        if v2 == v1:
            v2 = m - 1
        return (v1 + 1, v2 + 1) if v1 < v2 else (v2 + 1, v1 + 1)

    def __call__(
        self, rng: np.random.Generator, a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        _check_parents(a, b)
        n = a.shape[0]
        if n < 3:
            return OnePointCrossover()(rng, a, b)
        i, j = self.draw(rng, n)
        ca, cb = a.copy(), b.copy()
        ca[i:j], cb[i:j] = b[i:j], a[i:j]
        return ca, cb


@dataclass(frozen=True)
class KPointCrossover:
    """Generalised multi-cut crossover alternating segments."""

    k: int = 4

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    def __call__(
        self, rng: np.random.Generator, a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        _check_parents(a, b)
        n = a.shape[0]
        k = min(self.k, n - 1)
        if k < 1:
            return a.copy(), b.copy()
        cuts = np.sort(rng.choice(np.arange(1, n), size=k, replace=False))
        mask = np.zeros(n, dtype=bool)
        toggle = False
        prev = 0
        for cut in list(cuts) + [n]:
            mask[prev:cut] = toggle
            toggle = not toggle
            prev = cut
        ca = np.where(mask, b, a)
        cb = np.where(mask, a, b)
        return ca.astype(a.dtype), cb.astype(b.dtype)


@dataclass(frozen=True)
class UniformCrossover:
    """Per-gene coin flip exchange (Syswerda 1989)."""

    swap_prob: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.swap_prob <= 1.0:
            raise ValueError(f"swap_prob must be in [0,1], got {self.swap_prob}")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Per-gene uniforms; genes under ``swap_prob`` are exchanged."""
        return rng.random(n)

    def __call__(
        self, rng: np.random.Generator, a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        _check_parents(a, b)
        mask = self.draw(rng, a.shape[0]) < self.swap_prob
        ca = np.where(mask, b, a).astype(a.dtype)
        cb = np.where(mask, a, b).astype(b.dtype)
        return ca, cb


@dataclass(frozen=True)
class ArithmeticCrossover:
    """Whole-arithmetic recombination for real vectors: convex mix."""

    alpha: float | None = None  # None → random per mating

    def __call__(
        self, rng: np.random.Generator, a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        _check_parents(a, b)
        w = self.alpha if self.alpha is not None else float(rng.random())
        ca = w * a + (1.0 - w) * b
        cb = (1.0 - w) * a + w * b
        return ca, cb


@dataclass(frozen=True)
class BlendCrossover:
    """BLX-α (Eshelman & Schaffer): children sampled from an expanded box."""

    alpha: float = 0.5

    def __call__(
        self, rng: np.random.Generator, a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        _check_parents(a, b)
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        spread = hi - lo
        low = lo - self.alpha * spread
        high = hi + self.alpha * spread
        ca = rng.uniform(low, high)
        cb = rng.uniform(low, high)
        return ca, cb


@dataclass(frozen=True)
class SimulatedBinaryCrossover:
    """SBX (Deb & Agrawal 1995), the real-coded analogue of one-point."""

    eta: float = 15.0
    per_gene_prob: float = 0.5

    def draw(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-gene spread uniforms, then per-gene apply uniforms."""
        return rng.random(n), rng.random(n)

    def __call__(
        self, rng: np.random.Generator, a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        _check_parents(a, b)
        u, v = self.draw(rng, a.shape[0])
        beta = np.where(
            u <= 0.5,
            (2.0 * u) ** (1.0 / (self.eta + 1.0)),
            (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (self.eta + 1.0)),
        )
        apply = v < self.per_gene_prob
        beta = np.where(apply, beta, 1.0)
        ca = 0.5 * ((1.0 + beta) * a + (1.0 - beta) * b)
        cb = 0.5 * ((1.0 - beta) * a + (1.0 + beta) * b)
        return ca, cb


@dataclass(frozen=True)
class PartiallyMappedCrossover:
    """PMX (Goldberg & Lingle 1985) for permutations."""

    def __call__(
        self, rng: np.random.Generator, a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        _check_parents(a, b)
        n = a.shape[0]
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        j += 1  # make slice inclusive of second point

        def pmx(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
            child = -np.ones(n, dtype=p1.dtype)
            child[i:j] = p1[i:j]
            placed = set(int(x) for x in p1[i:j])
            pos2 = {int(v): k for k, v in enumerate(p2)}
            for k in range(i, j):
                v = int(p2[k])
                if v in placed:
                    continue
                # follow the mapping chain out of the copied segment
                slot = k
                while i <= slot < j:
                    slot = pos2[int(p1[slot])]
                child[slot] = v
                placed.add(v)
            remaining = [int(v) for v in p2 if int(v) not in placed]
            child[child == -1] = remaining
            return child

        return pmx(a, b), pmx(b, a)


@dataclass(frozen=True)
class OrderCrossover:
    """OX1 (Davis 1985): copy a slice, fill the rest in the other's order."""

    def __call__(
        self, rng: np.random.Generator, a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        _check_parents(a, b)
        n = a.shape[0]
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        j += 1

        def ox(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
            child = -np.ones(n, dtype=p1.dtype)
            child[i:j] = p1[i:j]
            used = set(int(x) for x in p1[i:j])
            fill = [int(v) for v in np.roll(p2, -j) if int(v) not in used]
            idx = [k % n for k in range(j, j + n - (j - i))]
            for k, v in zip(idx, fill):
                child[k] = v
            return child

        return ox(a, b), ox(b, a)


@dataclass(frozen=True)
class CycleCrossover:
    """CX (Oliver et al. 1987): alternate cycles between parents."""

    def __call__(
        self, rng: np.random.Generator, a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        _check_parents(a, b)
        n = a.shape[0]
        ca = -np.ones(n, dtype=a.dtype)
        cb = -np.ones(n, dtype=b.dtype)
        pos_a = {int(v): k for k, v in enumerate(a)}
        visited = np.zeros(n, dtype=bool)
        take_from_a = True
        for start in range(n):
            if visited[start]:
                continue
            # trace the cycle containing `start`
            cycle = []
            k = start
            while not visited[k]:
                visited[k] = True
                cycle.append(k)
                k = pos_a[int(b[k])]
            for k in cycle:
                if take_from_a:
                    ca[k], cb[k] = a[k], b[k]
                else:
                    ca[k], cb[k] = b[k], a[k]
            take_from_a = not take_from_a
        return ca, cb


@dataclass(frozen=True)
class TwoDimensionalCrossover:
    """2-D block crossover (Kwon & Moon 2003's neuro-genetic encoding).

    Interprets the flat genome as a ``rows x cols`` matrix and exchanges a
    random rectangular sub-block — crossovers that respect 2-D locality are
    the survey-cited innovation of the stock-prediction model.
    """

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("rows and cols must be positive")

    def __call__(
        self, rng: np.random.Generator, a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        _check_parents(a, b)
        if a.shape[0] != self.rows * self.cols:
            raise ValueError(
                f"genome length {a.shape[0]} != rows*cols = {self.rows * self.cols}"
            )
        A = a.reshape(self.rows, self.cols).copy()
        B = b.reshape(self.rows, self.cols).copy()
        r0 = int(rng.integers(0, self.rows))
        r1 = int(rng.integers(r0 + 1, self.rows + 1))
        c0 = int(rng.integers(0, self.cols))
        c1 = int(rng.integers(c0 + 1, self.cols + 1))
        block_a = A[r0:r1, c0:c1].copy()
        A[r0:r1, c0:c1] = B[r0:r1, c0:c1]
        B[r0:r1, c0:c1] = block_a
        return A.ravel(), B.ravel()


def crossover_for_spec(spec) -> Crossover:
    """Sensible default crossover for a genome spec (used by quickstart)."""
    from ..genome import BinarySpec, IntegerVectorSpec, PermutationSpec, RealVectorSpec

    if isinstance(spec, (BinarySpec, IntegerVectorSpec)):
        return TwoPointCrossover()
    if isinstance(spec, RealVectorSpec):
        return SimulatedBinaryCrossover()
    if isinstance(spec, PermutationSpec):
        return OrderCrossover()
    raise TypeError(f"no default crossover for spec type {type(spec).__name__}")
