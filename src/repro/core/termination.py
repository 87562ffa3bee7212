"""Termination criteria, composable with & (all) and | (any).

Engines consult a criterion after every step with an :class:`EvolutionState`
snapshot.  The survey's experiments stop on target fitness (efficacy runs),
evaluation budgets (fair cross-model comparisons) or generation counts.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

__all__ = [
    "EvolutionState",
    "Termination",
    "MaxGenerations",
    "MaxEvaluations",
    "TargetFitness",
    "Stagnation",
    "Never",
    "AnyOf",
    "AllOf",
]


@dataclass
class EvolutionState:
    """What a termination criterion is allowed to see."""

    generation: int = 0
    evaluations: int = 0
    best_fitness: float | None = None
    maximize: bool = True
    #: generations since the best fitness last improved
    stagnant_generations: int = 0


class Termination(abc.ABC):
    """Predicate over :class:`EvolutionState`."""

    @abc.abstractmethod
    def should_stop(self, state: EvolutionState) -> bool: ...

    def reason(self) -> str:
        return type(self).__name__

    def __or__(self, other: "Termination") -> "AnyOf":
        return AnyOf(self, other)

    def __and__(self, other: "Termination") -> "AllOf":
        return AllOf(self, other)


@dataclass
class MaxGenerations(Termination):
    """Stop after ``limit`` generations."""

    limit: int

    def __post_init__(self) -> None:
        if self.limit < 0:
            raise ValueError(f"generation limit must be >= 0, got {self.limit}")

    def should_stop(self, state: EvolutionState) -> bool:
        return state.generation >= self.limit


@dataclass
class MaxEvaluations(Termination):
    """Stop once ``limit`` fitness evaluations have been spent."""

    limit: int

    def __post_init__(self) -> None:
        if self.limit < 0:
            raise ValueError(f"evaluation limit must be >= 0, got {self.limit}")

    def should_stop(self, state: EvolutionState) -> bool:
        return state.evaluations >= self.limit


@dataclass
class TargetFitness(Termination):
    """Stop when the best fitness reaches ``target`` (direction-aware)."""

    target: float
    tol: float = 1e-9

    def should_stop(self, state: EvolutionState) -> bool:
        if state.best_fitness is None:
            return False
        if state.maximize:
            return state.best_fitness >= self.target - self.tol
        return state.best_fitness <= self.target + self.tol


@dataclass
class Stagnation(Termination):
    """Stop after ``patience`` generations without improvement."""

    patience: int

    def __post_init__(self) -> None:
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")

    def should_stop(self, state: EvolutionState) -> bool:
        return state.stagnant_generations >= self.patience


@dataclass
class Never(Termination):
    """Never stop (combine with an external controller)."""

    def should_stop(self, state: EvolutionState) -> bool:
        return False


class AnyOf(Termination):
    """Stop when any sub-criterion fires."""

    def __init__(self, *criteria: Termination) -> None:
        if not criteria:
            raise ValueError("AnyOf requires at least one criterion")
        self.criteria = list(criteria)
        self._fired: Termination | None = None

    def should_stop(self, state: EvolutionState) -> bool:
        for c in self.criteria:
            if c.should_stop(state):
                self._fired = c
                return True
        return False

    def reason(self) -> str:
        return self._fired.reason() if self._fired is not None else "AnyOf"


class AllOf(Termination):
    """Stop only when every sub-criterion fires."""

    def __init__(self, *criteria: Termination) -> None:
        if not criteria:
            raise ValueError("AllOf requires at least one criterion")
        self.criteria = list(criteria)

    def should_stop(self, state: EvolutionState) -> bool:
        return all(c.should_stop(state) for c in self.criteria)

    def reason(self) -> str:
        return "AllOf(" + ", ".join(c.reason() for c in self.criteria) + ")"
