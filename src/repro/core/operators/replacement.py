"""Replacement (survivor-selection) policies.

Generational engines replace the whole population (optionally keeping an
elite); steady-state engines insert offspring one at a time, evicting a
victim chosen by one of these policies.  The survey's island studies (Alba &
Troya) compare *generational* and *steady-state* reproduction loops, which
differ exactly here.  Migration's "whom they replace" is the same question,
so :func:`repro.migration.policy.integrate_immigrants` applies these rules
too, and they are the only code that picks an evictee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from ..individual import Individual
from ..population import Population

__all__ = [
    "Replacement",
    "ReplaceWorst",
    "ReplaceRandom",
    "ReplaceOldest",
    "ReplaceWorstIfBetter",
    "ReplaceSimilar",
    "replace_worst_ranked",
    "elitist_merge",
]


class Replacement(Protocol):
    """Insert ``newcomer`` into ``population``; return the evicted individual
    (or ``None`` when the newcomer was rejected)."""

    def __call__(
        self,
        rng: np.random.Generator,
        population: Population,
        newcomer: Individual,
    ) -> Individual | None: ...


@dataclass(frozen=True)
class ReplaceWorst:
    """Always evict the current worst member."""

    def __call__(
        self, rng: np.random.Generator, population: Population, newcomer: Individual
    ) -> Individual | None:
        return population.replace_worst(newcomer)


@dataclass(frozen=True)
class ReplaceWorstIfBetter:
    """Evict the worst member only when the newcomer improves on it.

    The classic steady-state insertion used in Alba & Troya's island
    experiments: a deme never gets worse.
    """

    def __call__(
        self, rng: np.random.Generator, population: Population, newcomer: Individual
    ) -> Individual | None:
        idx = population.worst_index()
        worst = population[idx]
        nf, wf = newcomer.require_fitness(), worst.require_fitness()
        improves = nf > wf if population.maximize else nf < wf
        if not improves:
            return None
        population[idx] = newcomer
        return worst


@dataclass(frozen=True)
class ReplaceRandom:
    """Evict a uniformly random member (no elitist pressure)."""

    def __call__(
        self, rng: np.random.Generator, population: Population, newcomer: Individual
    ) -> Individual | None:
        idx = int(rng.integers(0, len(population)))
        evicted = population[idx]
        population[idx] = newcomer
        return evicted


@dataclass(frozen=True)
class ReplaceOldest:
    """Evict the member with the smallest birth generation (FIFO ageing)."""

    def __call__(
        self, rng: np.random.Generator, population: Population, newcomer: Individual
    ) -> Individual | None:
        idx = min(
            range(len(population)),
            key=lambda i: (population[i].birth_generation, population[i].uid),
        )
        evicted = population[idx]
        population[idx] = newcomer
        return evicted


@dataclass(frozen=True)
class ReplaceSimilar:
    """Evict the genotypically nearest member (L1 distance, first on ties),
    and only when the newcomer is at least as fit: crowding, as in a
    restricted tournament."""

    def __call__(
        self, rng: np.random.Generator, population: Population, newcomer: Individual
    ) -> Individual | None:
        genomes = np.stack([ind.genome.astype(float) for ind in population])
        target = newcomer.genome.astype(float)
        idx = int(np.argmin(np.abs(genomes - target[None, :]).sum(axis=1)))
        nearest = population[idx]
        nf, vf = newcomer.require_fitness(), nearest.require_fitness()
        at_least_as_good = nf >= vf if population.maximize else nf <= vf
        if not at_least_as_good:
            return None
        population[idx] = newcomer
        return nearest


def replace_worst_ranked(
    population: Population, newcomers: Sequence[Individual]
) -> list[Individual]:
    """Write ``newcomers`` over the worst members, ranked once before any
    is written (the first over the worst, ties by position), so unlike
    :class:`ReplaceWorst` per newcomer no newcomer evicts another.
    Returns the evictees."""
    f = population.fitness_array()
    worst_first = sorted(range(len(f)), key=f.__getitem__, reverse=not population.maximize)
    evicted = []
    for idx, newcomer in zip(worst_first, newcomers):
        evicted.append(population[idx])
        population[idx] = newcomer
    return evicted


def elitist_merge(
    old: Population,
    offspring: Sequence[Individual],
    elite_count: int,
) -> list[Individual]:
    """Build the next generation: copies of the ``elite_count`` best
    parents survive unconditionally, the rest of the slots are filled by
    offspring.

    Offspring are assumed evaluated.  Raises if there are not enough
    offspring to fill the remainder.
    """
    if elite_count < 0:
        raise ValueError(f"elite_count must be >= 0, got {elite_count}")
    n = len(old)
    elite_count = min(elite_count, n)
    needed = n - elite_count
    if len(offspring) < needed:
        raise ValueError(
            f"need {needed} offspring to fill generation, got {len(offspring)}"
        )
    elite = [ind.copy() for ind in old.sorted()[:elite_count]]
    return elite + list(offspring[:needed])
