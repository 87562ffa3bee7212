"""The survey's PGA taxonomy, as data.

"parallel genetic algorithms can be divided into *global*, *fine-grained*,
*coarse-grained* and *hybrid* models.  The classifications are also based
on a walk strategy (single, multiple) and on the type of (parallel)
computing machinery used." — survey §1.2.

Every model class in :mod:`repro.parallel` carries a
:class:`ModelClassification` so the experiment harness can regenerate a
taxonomy table mechanically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "GrainModel",
    "WalkStrategy",
    "ParallelismKind",
    "ProgrammingModel",
    "ModelClassification",
]


class GrainModel(enum.Enum):
    """The four-way model split of the survey's classifications."""

    GLOBAL = "global"            # single panmictic population, parallel evaluation
    COARSE_GRAINED = "coarse"    # few large demes (island model)
    FINE_GRAINED = "fine"        # one individual per cell (cellular model)
    HYBRID = "hybrid"            # compositions of the above


class WalkStrategy(enum.Enum):
    """Single vs multiple concurrent search threads through problem space."""

    SINGLE = "single"
    MULTIPLE = "multiple"


class ParallelismKind(enum.Enum):
    """Data vs control parallelism (survey §1.2, after Freitas)."""

    DATA = "data"        # same procedure over partitioned data (fitness farm)
    CONTROL = "control"  # different concurrent procedures (independent demes)
    HYBRID = "hybrid"


class ProgrammingModel(enum.Enum):
    """Centralised (master-slave) vs distributed (message exchange) — §3.3."""

    CENTRALIZED = "centralized"
    DISTRIBUTED = "distributed"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class ModelClassification:
    """Where one PGA model sits in the survey's taxonomy."""

    grain: GrainModel
    walk: WalkStrategy
    parallelism: ParallelismKind
    programming: ProgrammingModel
