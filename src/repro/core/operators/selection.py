"""Parent-selection operators.

The survey: "Selection identifies the fittest individuals.  The higher the
fitness, the bigger the probability to become a parent in the next
generation.  There are different types of selection, but the basic
functionality is the same."

Every operator is a callable
``(rng, population, n, maximize) -> list[Individual]`` drawing ``n``
parents *with replacement*.  Returned individuals are references (not
copies); engines copy before modifying.

The built-in schemes subclass :class:`IndexSelection` and are written
once, on arrays: ``indices(rng, fitnesses, n, maximize)`` picks ``n`` row
indices from a fitness vector, and the shared ``__call__`` is that pick
mapped back to members.  Both entry points draw the same random numbers
in the same order, so they pick the same parents from the same state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from ..individual import Individual

__all__ = [
    "Selection",
    "IndexSelection",
    "TournamentSelection",
    "RouletteWheelSelection",
    "LinearRankSelection",
    "StochasticUniversalSampling",
    "TruncationSelection",
    "BoltzmannSelection",
    "RandomSelection",
    "BestSelection",
]


class Selection(Protocol):
    """Callable protocol all selection operators satisfy."""

    def __call__(
        self,
        rng: np.random.Generator,
        individuals: Sequence[Individual],
        n: int,
        maximize: bool,
    ) -> list[Individual]: ...


class IndexSelection:
    """A selection scheme written on a fitness vector.

    Subclasses implement ``_pick(rng, f, n, maximize)``, returning ``n``
    row indices of ``f``; :meth:`indices` checks the pool first, so every
    scheme and both entry points share one guard.
    """

    def indices(
        self, rng: np.random.Generator, fitnesses: np.ndarray, n: int, maximize: bool
    ) -> np.ndarray:
        """``n`` row indices of ``fitnesses`` (int64), drawn with replacement."""
        f = np.asarray(fitnesses, dtype=float)
        if f.ndim != 1 or f.shape[0] == 0:
            raise ValueError(
                f"selection needs a non-empty 1-D fitness vector, got shape {f.shape}"
            )
        # np.argmax over a score matrix containing NaN returns the NaN's
        # position, so one bad fitness would silently win every tournament
        # it enters (defence in depth behind the Individual.fitness guard).
        if not np.all(np.isfinite(f)):
            bad = np.nonzero(~np.isfinite(f))[0].tolist()
            raise ValueError(f"non-finite fitness in selection pool at positions {bad}")
        return np.asarray(self._pick(rng, f, n, maximize), dtype=np.int64)

    def _pick(
        self, rng: np.random.Generator, f: np.ndarray, n: int, maximize: bool
    ) -> np.ndarray:
        raise NotImplementedError

    def __call__(
        self,
        rng: np.random.Generator,
        individuals: Sequence[Individual],
        n: int,
        maximize: bool,
    ) -> list[Individual]:
        f = [ind.require_fitness() for ind in individuals]
        return [individuals[i] for i in self.indices(rng, f, n, maximize).tolist()]


#: share of probability mass spread uniformly so the worst member never has
#: exactly zero selection chance after the min-shift
_FLOOR = 0.05


def _minimization_to_weights(f: np.ndarray, maximize: bool) -> np.ndarray:
    """Shift fitnesses into selection probabilities, respecting direction.

    Uses the classic min-shift (so weights are scale-invariant) blended with
    a small uniform floor: pure min-shifting gives the worst member exactly
    zero probability, which starves small populations.
    """
    n = f.shape[0]
    if maximize:
        w = f - f.min()
    else:
        w = f.max() - f
    total = w.sum()
    if total <= 0.0:  # all equal — uniform weights
        return np.full(n, 1.0 / n)
    return (1.0 - _FLOOR) * (w / total) + _FLOOR / n


@dataclass(frozen=True)
class TournamentSelection(IndexSelection):
    """Pick the best of ``size`` uniform random contestants, ``n`` times.

    Tournament size controls selection pressure; size 2 is the survey-era
    default and the one Giacobini et al.'s cellular pressure study builds on
    ("binary tournament").
    """

    size: int = 2

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"tournament size must be >= 1, got {self.size}")

    def _pick(self, rng, f, n, maximize):
        m = f.shape[0]
        contestants = rng.integers(0, m, size=(n, min(self.size, m)))
        scores = f[contestants]
        winners = np.argmax(scores, axis=1) if maximize else np.argmin(scores, axis=1)
        return contestants[np.arange(n), winners]


@dataclass(frozen=True)
class RouletteWheelSelection(IndexSelection):
    """Fitness-proportionate selection (Holland's original scheme)."""

    def _pick(self, rng, f, n, maximize):
        probs = _minimization_to_weights(f, maximize)
        return rng.choice(f.shape[0], size=n, replace=True, p=probs)


@dataclass(frozen=True)
class LinearRankSelection(IndexSelection):
    """Rank-based probabilities with selection bias ``sp`` in [1, 2]."""

    sp: float = 1.7

    def __post_init__(self) -> None:
        if not 1.0 <= self.sp <= 2.0:
            raise ValueError(f"selection pressure sp must be in [1,2], got {self.sp}")

    def _pick(self, rng, f, n, maximize):
        m = f.shape[0]
        order = np.argsort(f) if maximize else np.argsort(-f)
        # rank 0 = worst … rank m-1 = best
        ranks = np.empty(m, dtype=float)
        ranks[order] = np.arange(m, dtype=float)
        if m > 1:
            probs = (2.0 - self.sp) / m + 2.0 * ranks * (self.sp - 1.0) / (m * (m - 1.0))
        else:
            probs = np.ones(1)
        probs = probs / probs.sum()
        return rng.choice(m, size=n, replace=True, p=probs)


@dataclass(frozen=True)
class StochasticUniversalSampling(IndexSelection):
    """SUS (Baker 1987): one spin, ``n`` equally spaced pointers — lower
    variance than roulette for the same expected counts."""

    def _pick(self, rng, f, n, maximize):
        cum = np.cumsum(_minimization_to_weights(f, maximize))
        start = rng.random() / n
        pointers = start + np.arange(n) / n
        idx = np.clip(np.searchsorted(cum, pointers, side="right"), 0, f.shape[0] - 1)
        # SUS traditionally shuffles the mating pool afterwards
        rng.shuffle(idx)
        return idx


@dataclass(frozen=True)
class TruncationSelection(IndexSelection):
    """Select uniformly from the top ``fraction`` of the population."""

    fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0,1], got {self.fraction}")

    def _pick(self, rng, f, n, maximize):
        order = np.argsort(-f) if maximize else np.argsort(f)
        k = max(1, int(np.ceil(self.fraction * f.shape[0])))
        return order[rng.integers(0, k, size=n)]


@dataclass(frozen=True)
class BoltzmannSelection(IndexSelection):
    """Softmax selection with temperature ``temperature``.

    High temperature → near-uniform; low temperature → near-greedy.  The
    classic annealing-flavoured scheme from the survey's operator theory
    thread.
    """

    temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")

    def _pick(self, rng, f, n, maximize):
        z = f if maximize else -f
        z = (z - z.max()) / self.temperature  # stabilised softmax
        w = np.exp(z)
        return rng.choice(f.shape[0], size=n, replace=True, p=w / w.sum())


@dataclass(frozen=True)
class RandomSelection(IndexSelection):
    """Uniform random parents — the zero-pressure control."""

    def _pick(self, rng, f, n, maximize):
        return rng.integers(0, f.shape[0], size=n)


@dataclass(frozen=True)
class BestSelection(IndexSelection):
    """Deterministically return the single best individual ``n`` times.

    Used for migrant selection ("send your best") and as the maximal
    pressure control in takeover-time studies.
    """

    def _pick(self, rng, f, n, maximize):
        return np.full(n, np.argmax(f) if maximize else np.argmin(f), dtype=np.int64)
