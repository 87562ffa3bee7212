"""Individuals: a genome plus its (lazy) fitness and bookkeeping metadata.

The survey defines an *individual* as a chromosome whose quality is measured
by a fitness function; parallel models additionally track provenance (which
deme an immigrant came from) and age (for steady-state replacement).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["Individual", "best_of", "sort_by_fitness"]

_id_counter = itertools.count()
_set = object.__setattr__


def _check_fitness(value: Any, uid: Any) -> None:
    # Fitness flows straight into selection arithmetic; a NaN there
    # silently wins every np.argmax tournament, so reject non-finite
    # values at the source instead of corrupting selection later.
    if value is not None and not math.isfinite(value):
        raise ValueError(
            f"fitness must be finite or None, got {value!r} (individual uid={uid})"
        )


@dataclass(init=False)
class Individual:
    """One member of a population.

    Attributes
    ----------
    genome:
        The chromosome, always a 1-D :class:`numpy.ndarray`.
    fitness:
        ``None`` until evaluated.  Raw problem value; direction of
        improvement is carried separately (``maximize`` flags).
    birth_generation:
        Generation index at which the individual was created.
    origin:
        Free-form provenance tag — e.g. ``"init"``, ``"cx"``, ``"mut"``,
        ``"migrant:3"`` for an immigrant from deme 3.
    """

    genome: np.ndarray
    fitness: float | None = None
    birth_generation: int = 0
    origin: str = "init"
    uid: int = field(default_factory=lambda: next(_id_counter))

    def __init__(
        self,
        genome: np.ndarray,
        fitness: float | None = None,
        birth_generation: int = 0,
        origin: str = "init",
        uid: int | None = None,
    ) -> None:
        # one Individual per offspring: set the fields (in field order)
        # with object.__setattr__ instead of five trips through the guarded
        # __setattr__.  Not self.__dict__.update: touching __dict__ gives
        # every instance a separate dict object, doubling the GC's work.
        # The uid is drawn first so a rejected fitness names it.
        if uid is None:
            uid = next(_id_counter)
        if fitness is not None:
            _check_fitness(fitness, uid)
        _set(self, "genome", genome)
        _set(self, "fitness", fitness)
        _set(self, "birth_generation", birth_generation)
        _set(self, "origin", origin)
        _set(self, "uid", uid)

    def __setattr__(self, name: str, value: Any) -> None:
        if name == "fitness":
            _check_fitness(value, getattr(self, "uid", "?"))
        super().__setattr__(name, value)

    @property
    def evaluated(self) -> bool:
        return self.fitness is not None

    def copy(self, *, origin: str | None = None) -> "Individual":
        """Deep-copy the genome; fitness and provenance are carried over."""
        return Individual(
            genome=self.genome.copy(),
            fitness=self.fitness,
            birth_generation=self.birth_generation,
            origin=self.origin if origin is None else origin,
        )

    def require_fitness(self) -> float:
        if self.fitness is None:
            raise ValueError(f"individual {self.uid} has not been evaluated")
        return self.fitness

    def __repr__(self) -> str:  # compact, genome elided for large chromosomes
        g = np.array2string(self.genome, threshold=8)
        return f"Individual(uid={self.uid}, fitness={self.fitness}, genome={g})"


def best_of(individuals: list[Individual], maximize: bool) -> Individual:
    """Best evaluated individual of a non-empty sequence."""
    if not individuals:
        raise ValueError("cannot take best of empty sequence")
    key = (lambda i: i.require_fitness()) if maximize else (lambda i: -i.require_fitness())
    return max(individuals, key=key)


def sort_by_fitness(
    individuals: list[Individual], maximize: bool
) -> list[Individual]:
    """Individuals sorted best-first (stable)."""
    return sorted(
        individuals,
        key=lambda i: i.require_fitness(),
        reverse=maximize,
    )
