"""Population container with summary statistics.

A :class:`Population` is the unit the survey calls a *generation* when
time-indexed, and a *deme* when it lives on one node of a parallel model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .individual import Individual, best_of, sort_by_fitness, worst_of

__all__ = ["Population", "PopulationStats"]


@dataclass(frozen=True)
class PopulationStats:
    """Snapshot statistics of an evaluated population."""

    size: int
    best: float
    worst: float
    mean: float
    std: float
    median: float

    def as_dict(self) -> dict[str, float]:
        return {
            "size": self.size,
            "best": self.best,
            "worst": self.worst,
            "mean": self.mean,
            "std": self.std,
            "median": self.median,
        }


class Population:
    """A mutable collection of :class:`Individual` objects.

    Parameters
    ----------
    individuals:
        Initial members (the list is copied; the individuals are not).
    maximize:
        Direction of improvement, shared by all statistics helpers.
    """

    def __init__(self, individuals: list[Individual], *, maximize: bool = True) -> None:
        self.individuals: list[Individual] = list(individuals)
        self.maximize = maximize

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self.individuals)

    def __iter__(self) -> Iterator[Individual]:
        return iter(self.individuals)

    def __getitem__(self, idx: int) -> Individual:
        return self.individuals[idx]

    def __setitem__(self, idx: int, ind: Individual) -> None:
        self.individuals[idx] = ind

    def append(self, ind: Individual) -> None:
        self.individuals.append(ind)

    def extend(self, inds: list[Individual]) -> None:
        self.individuals.extend(inds)

    # -- evaluation state ----------------------------------------------------
    @property
    def all_evaluated(self) -> bool:
        return all(ind.evaluated for ind in self.individuals)

    def unevaluated(self) -> list[Individual]:
        """Members whose fitness is stale or missing."""
        return [ind for ind in self.individuals if not ind.evaluated]

    # -- statistics -----------------------------------------------------------
    def fitness_array(self) -> np.ndarray:
        """All fitness values as a float array (requires full evaluation)."""
        return np.asarray([ind.require_fitness() for ind in self.individuals], dtype=float)

    def best(self) -> Individual:
        return best_of(self.individuals, self.maximize)

    def worst(self) -> Individual:
        return worst_of(self.individuals, self.maximize)

    def sorted(self) -> list[Individual]:
        """Members sorted best-first."""
        return sort_by_fitness(self.individuals, self.maximize)

    def best_index(self) -> int:
        f = self.fitness_array()
        return int(np.argmax(f) if self.maximize else np.argmin(f))

    def worst_index(self) -> int:
        f = self.fitness_array()
        return int(np.argmin(f) if self.maximize else np.argmax(f))

    def stats(self) -> PopulationStats:
        """Best/worst/mean/std/median, equal by value to ``f.mean()``,
        ``f.std()`` and ``np.median(f)`` (this runs every generation).

        Mean and variance reduce with ``np.add.reduce`` and divide by the
        count, as NumPy's own ``mean``/``var`` do.  The median averages the
        middle of ``np.partition`` the same way ``np.median`` does, so a
        ``-0.0`` tie comes out as ``0.0`` there too.
        """
        f = self.fitness_array()
        n = f.size
        if n == 0:
            raise ValueError("cannot compute stats of empty population")
        lo, hi = float(f.min()), float(f.max())
        mean = np.add.reduce(f) / n
        dev = f - mean
        half = n // 2
        middle = np.partition(f, half if n % 2 else [half - 1, half])[
            half - 1 + n % 2 : half + 1
        ]
        return PopulationStats(
            size=n,
            best=hi if self.maximize else lo,
            worst=lo if self.maximize else hi,
            mean=float(mean),
            std=math.sqrt(np.add.reduce(dev * dev) / n),
            median=float(np.add.reduce(middle) / middle.size),
        )

    # -- transformation -------------------------------------------------------
    def copy(self) -> "Population":
        """Deep copy (individuals and genomes cloned)."""
        return Population([ind.copy() for ind in self.individuals], maximize=self.maximize)

    def replace_worst(self, newcomer: Individual) -> Individual:
        """Replace the worst member with ``newcomer``; return the evictee."""
        idx = self.worst_index()
        evicted = self.individuals[idx]
        self.individuals[idx] = newcomer
        return evicted

    def truncate(self, n: int) -> None:
        """Keep only the ``n`` best members."""
        if n < 0:
            raise ValueError(f"cannot truncate to negative size {n}")
        self.individuals = self.sorted()[:n]

    def map_genomes(self, fn: Callable[[np.ndarray], np.ndarray]) -> None:
        """Apply ``fn`` in place to each genome, invalidating fitness."""
        for ind in self.individuals:
            ind.genome = fn(ind.genome)
            ind.invalidate()
