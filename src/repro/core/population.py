"""Population container.

A :class:`Population` is the unit the survey calls a *generation* when
time-indexed, and a *deme* when it lives on one node of a parallel model.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .individual import Individual, best_of, sort_by_fitness

__all__ = ["Population"]


class Population:
    """A mutable collection of :class:`Individual` objects.

    Parameters
    ----------
    individuals:
        Initial members (the list is copied; the individuals are not).
    maximize:
        Direction of improvement, shared by the ranking helpers.
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

    # -- evaluation state ----------------------------------------------------
    def unevaluated(self) -> list[Individual]:
        """Members whose fitness is stale or missing."""
        return [ind for ind in self.individuals if not ind.evaluated]

    # -- ranking -----------------------------------------------------------
    def fitness_array(self) -> np.ndarray:
        """All fitness values as a float array (requires full evaluation)."""
        return np.asarray([ind.require_fitness() for ind in self.individuals], dtype=float)

    def best(self) -> Individual:
        return best_of(self.individuals, self.maximize)

    def sorted(self) -> list[Individual]:
        """Members sorted best-first."""
        return sort_by_fitness(self.individuals, self.maximize)

    def worst_index(self) -> int:
        f = self.fitness_array()
        return int(np.argmin(f) if self.maximize else np.argmax(f))

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
