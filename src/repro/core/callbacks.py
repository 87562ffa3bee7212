"""The per-generation observer hook.

Engines call each of their ``callbacks`` once per generation, generation 0
included, with the current
:class:`~repro.core.termination.EvolutionState` and population.  A run's
record is the engine's :class:`~repro.core.termination.EvolutionState` and
its result; a caller that wants a per-generation curve collects it here.
"""

from __future__ import annotations

from typing import Protocol

from .population import Population
from .termination import EvolutionState

__all__ = ["Callback"]


class Callback(Protocol):
    """Per-generation observer hook."""

    def on_generation(self, state: EvolutionState, population: Population) -> None: ...
