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
from typing import Literal, get_args

import numpy as np

from ..core.individual import Individual
from ..core.operators.replacement import (
    Replacement,
    ReplaceRandom,
    ReplaceSimilar,
    ReplaceWorst,
    ReplaceWorstIfBetter,
)
from ..core.population import Population

__all__ = ["MigrationPolicy", "select_migrants", "integrate_immigrants"]

MigrantSelection = Literal["best", "random", "roulette", "worst"]
ImmigrantReplacement = Literal["worst", "random", "worst-if-better", "similar"]

MIGRANT_SELECTIONS = get_args(MigrantSelection)

#: each immigrant replacement name and the survivor rule that applies it
IMMIGRANT_REPLACEMENTS: dict[str, Replacement] = {
    "worst": ReplaceWorst(),
    "random": ReplaceRandom(),
    "worst-if-better": ReplaceWorstIfBetter(),
    "similar": ReplaceSimilar(),
}
if tuple(IMMIGRANT_REPLACEMENTS) != get_args(ImmigrantReplacement):
    raise TypeError("IMMIGRANT_REPLACEMENTS must key exactly the ImmigrantReplacement names")


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
        if self.selection not in MIGRANT_SELECTIONS:
            raise ValueError(
                f"selection: unknown migrant selection {self.selection!r}; "
                f"choose from {MIGRANT_SELECTIONS}"
            )
        if self.replacement not in IMMIGRANT_REPLACEMENTS:
            raise ValueError(
                f"replacement: unknown immigrant replacement {self.replacement!r}; "
                f"choose from {tuple(IMMIGRANT_REPLACEMENTS)}"
            )


def select_migrants(
    rng: np.random.Generator,
    population: Population,
    policy: MigrationPolicy,
) -> list[Individual]:
    """Choose ``policy.rate`` emigrant *copies* from ``population``
    (roulette sends fewer when fewer members weigh more than the worst)."""
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
    else:  # "roulette"
        f = population.fitness_array()
        w = f - f.min() if population.maximize else f.max() - f
        total = w.sum()
        if total > 0:
            # the worst members weigh 0: send no more than can be drawn
            k = min(k, int(np.count_nonzero(w)))
            probs = w / total
        else:
            probs = np.full(len(population), 1.0 / len(population))
        idx = rng.choice(len(population), size=k, replace=False, p=probs)
        chosen = [population[int(i)] for i in idx]
    return [ind.copy() for ind in chosen]


def integrate_immigrants(
    rng: np.random.Generator,
    population: Population,
    immigrants: list[Individual],
    policy: MigrationPolicy,
    *,
    source: int | None = None,
) -> int:
    """Insert ``immigrants`` into ``population`` with the policy's
    replacement rule (:data:`IMMIGRANT_REPLACEMENTS`).

    Returns the number accepted: those for which the rule evicted a
    member.  Immigrants must be evaluated.
    """
    rule = IMMIGRANT_REPLACEMENTS[policy.replacement]
    origin = f"migrant:{source}" if source is not None else "migrant"
    accepted = 0
    for imm in immigrants:
        if rule(rng, population, imm.copy(origin=origin)) is not None:
            accepted += 1
    return accepted
