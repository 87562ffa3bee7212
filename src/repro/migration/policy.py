"""Migration policies: which individuals leave, and who they replace.

"Migration … is a new process which describes how many migrants will be
exchanged between the demes, when there is the right time for migration and
which type of the migration schemes is useful." — survey §1.1.

A :class:`MigrationPolicy` answers the *which* questions; schedules
(:mod:`repro.migration.schedule`) answer *when*; synchrony
(:mod:`repro.migration.synchrony`) answers *how* the exchange is timed.
Alba & Troya (2000) found migrant selection (best vs random) and the
replacement rule to be key knobs — exactly the fields here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from ..core.individual import Individual
from ..core.population import Population

__all__ = ["MigrationPolicy", "select_migrants", "integrate_immigrants"]

MigrantSelection = Literal["best", "random", "roulette", "worst"]
ImmigrantReplacement = Literal["worst", "random", "worst-if-better", "similar"]


@dataclass(frozen=True)
class MigrationPolicy:
    """Everything about a migration event except its timing.

    Parameters
    ----------
    rate:
        Migrants sent per event per outgoing link.
    selection:
        How emigrants are chosen: ``"best"`` (elitist — the common choice),
        ``"random"`` (diversity-preserving), ``"roulette"``
        (fitness-proportional), ``"worst"`` (a pathological control).
    replacement:
        How immigrants enter: ``"worst"`` (displace the worst locals),
        ``"random"``, ``"worst-if-better"`` (only accept improving
        immigrants), ``"similar"`` (displace the genotypically closest —
        crowding-flavoured).

    Emigrants are copies: the source deme keeps its own (pollination
    model).
    """

    rate: int = 1
    selection: MigrantSelection = "best"
    replacement: ImmigrantReplacement = "worst-if-better"

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError(f"migration rate must be >= 0, got {self.rate}")


def select_migrants(
    rng: np.random.Generator,
    population: Population,
    policy: MigrationPolicy,
) -> list[Individual]:
    """Choose ``policy.rate`` emigrant *copies* from ``population``."""
    k = min(policy.rate, len(population))
    if k == 0:
        return []
    if policy.selection == "best":
        chosen = population.sorted()[:k]
    elif policy.selection == "worst":
        chosen = population.sorted()[-k:]
    elif policy.selection == "random":
        idx = rng.choice(len(population), size=k, replace=False)
        chosen = [population[int(i)] for i in idx]
    elif policy.selection == "roulette":
        f = population.fitness_array()
        w = f - f.min() if population.maximize else f.max() - f
        total = w.sum()
        probs = (w / total) if total > 0 else np.full(len(population), 1.0 / len(population))
        idx = rng.choice(len(population), size=k, replace=False, p=probs)
        chosen = [population[int(i)] for i in idx]
    else:
        raise ValueError(f"unknown migrant selection {policy.selection!r}")
    return [ind.copy() for ind in chosen]


def integrate_immigrants(
    rng: np.random.Generator,
    population: Population,
    immigrants: list[Individual],
    policy: MigrationPolicy,
    *,
    source: int | None = None,
) -> int:
    """Insert ``immigrants`` into ``population`` per the replacement rule.

    Returns the number actually accepted.  Immigrants must be evaluated.
    """
    accepted = 0
    for imm in immigrants:
        imm = imm.copy(origin=f"migrant:{source}" if source is not None else "migrant")
        if policy.replacement == "worst":
            population.replace_worst(imm)
            accepted += 1
        elif policy.replacement == "random":
            idx = int(rng.integers(0, len(population)))
            population[idx] = imm
            accepted += 1
        elif policy.replacement == "worst-if-better":
            worst = population.worst()
            fi, fw = imm.require_fitness(), worst.require_fitness()
            improves = fi > fw if population.maximize else fi < fw
            if improves:
                population.replace_worst(imm)
                accepted += 1
        elif policy.replacement == "similar":
            # displace the genotypically nearest member (restricted tournament)
            genomes = np.stack([ind.genome.astype(float) for ind in population])
            target = imm.genome.astype(float)
            d = np.abs(genomes - target[None, :]).sum(axis=1)
            idx = int(np.argmin(d))
            fi, fv = imm.require_fitness(), population[idx].require_fitness()
            at_least_as_good = fi >= fv if population.maximize else fi <= fv
            if at_least_as_good:
                population[idx] = imm
                accepted += 1
        else:
            raise ValueError(f"unknown immigrant replacement {policy.replacement!r}")
    return accepted
