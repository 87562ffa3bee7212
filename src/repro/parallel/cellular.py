"""Fine-grained (cellular) parallel GA.

One individual per grid cell; mating is restricted to a small overlapping
neighbourhood, so good genes spread by diffusion (Manderick & Spiessens
1989; massively parallel SIMD machines held one individual per processor).

Giacobini, Alba & Tomassini (2003) studied *selection pressure* under
asynchronous cell-update policies; we implement their five canonical
orders:

- ``synchronous``      — all cells compute offspring from the *old* grid,
  the grid flips at once (SIMD lock-step).
- ``line-sweep``       — cells updated in fixed row-major order, each seeing
  earlier updates immediately.
- ``fixed-random-sweep`` — one random permutation drawn at start, reused
  every sweep.
- ``new-random-sweep``  — a fresh random permutation every sweep.
- ``uniform-choice``    — n cells drawn with replacement per sweep (some
  cells may update twice, some not at all).
"""

from __future__ import annotations

from typing import Literal, Sequence

import numpy as np

from ..core.config import GAConfig
from ..core.engine import EvolutionEngine
from ..core.individual import Individual
from ..core.population import Population
from ..core.problem import Problem
from ..core.variation import offspring_pair
from ..topology.neighborhood import Neighborhood, VonNeumannNeighborhood
from .classification import (
    GrainModel,
    ModelClassification,
    ParallelismKind,
    ProgrammingModel,
    WalkStrategy,
)

__all__ = ["CellularGA", "UpdatePolicy", "UPDATE_POLICIES"]

UpdatePolicy = Literal[
    "synchronous",
    "line-sweep",
    "fixed-random-sweep",
    "new-random-sweep",
    "uniform-choice",
]

UPDATE_POLICIES: tuple[str, ...] = (
    "synchronous",
    "line-sweep",
    "fixed-random-sweep",
    "new-random-sweep",
    "uniform-choice",
)


class CellularGA(EvolutionEngine):
    """Toroidal-grid cellular GA: the third sequential reproduction loop.

    It runs on :class:`~repro.core.engine.EvolutionEngine`'s lifecycle,
    like the generational and steady-state loops: the grid is
    ``population`` (row-major cells), one sweep is one generation, and
    ``run()`` returns an :class:`~repro.core.engine.EvolutionResult`.

    Parameters
    ----------
    problem, config:
        Standard configuration; ``config.population_size`` is ignored in
        favour of ``rows * cols``.
    rows, cols:
        Grid shape (torus).
    neighborhood:
        Mating neighbourhood (von Neumann by default, à la Giacobini).
    update:
        One of :data:`UPDATE_POLICIES`.

    A cell only adopts an offspring that improves on it (the usual
    elitist cGA rule).
    """

    classification = ModelClassification(
        grain=GrainModel.FINE_GRAINED,
        walk=WalkStrategy.MULTIPLE,
        parallelism=ParallelismKind.DATA,
        programming=ProgrammingModel.DISTRIBUTED,
    )

    def __init__(
        self,
        problem: Problem,
        config: GAConfig | None = None,
        *,
        rows: int = 16,
        cols: int = 16,
        neighborhood: Neighborhood | None = None,
        update: str = "synchronous",
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if rows < 2 or cols < 2:
            raise ValueError(f"grid must be at least 2x2, got {rows}x{cols}")
        if update not in UPDATE_POLICIES:
            raise ValueError(
                f"unknown update policy {update!r}; choose from {UPDATE_POLICIES}"
            )
        super().__init__(problem, config, seed=seed)
        self.rows, self.cols = rows, cols
        self.n_cells = rows * cols
        self.neighborhood = neighborhood or VonNeumannNeighborhood()
        self.update = update
        self._fixed_order: np.ndarray | None = None

    def initialize(self, individuals: Sequence[Individual] | None = None) -> Population:
        """Sample (or adopt) one individual per cell and evaluate them."""
        if individuals is None:
            genomes = self.problem.spec.sample_population(self.rng, self.n_cells)
            individuals = [Individual(genome=g) for g in genomes]
        if len(individuals) != self.n_cells:
            raise ValueError(
                f"grid needs exactly {self.n_cells} individuals, got {len(individuals)}"
            )
        return super().initialize(individuals)

    # -- stepping ------------------------------------------------------------------
    def _cell_order(self) -> np.ndarray:
        n = self.n_cells
        if self.update in ("synchronous", "line-sweep"):
            return np.arange(n)
        if self.update == "fixed-random-sweep":
            if self._fixed_order is None:
                self._fixed_order = self.rng.permutation(n)
            return self._fixed_order
        if self.update == "new-random-sweep":
            return self.rng.permutation(n)
        # uniform choice: n draws with replacement
        return self.rng.integers(0, n, size=n)

    def _offspring_for_cell(
        self, idx: int, source: list[Individual], *, evaluate: bool = True
    ) -> Individual:
        """Local selection + variation for one cell.

        With ``evaluate=False`` the child is returned unevaluated; the
        synchronous sweep defers fitness to one stacked batch evaluation
        (evaluation is pure and consumes no RNG, so the trajectory is
        unchanged).
        """
        nbr_idx = self.neighborhood.neighbor_indices(idx, self.rows, self.cols)
        pool = [source[j] for j in nbr_idx] + [source[idx]]
        parents = self.config.selection(
            self.rng, pool, 2, self.problem.maximize
        )
        a, b = offspring_pair(
            self.rng,
            self.config,
            self.problem.spec,
            parents[0],
            parents[1],
            generation=self.state.generation + 1,
        )
        child = a if self.rng.random() < 0.5 else b
        if evaluate:
            self._evaluate([child])
        return child

    def _maybe_replace(self, idx: int, child: Individual, target: list[Individual]) -> None:
        incumbent = target[idx]
        cf, pf = child.require_fitness(), incumbent.require_fitness()
        improves = cf > pf if self.problem.maximize else cf < pf
        if improves:
            target[idx] = child

    def _advance(self) -> None:
        """One sweep: every cell position gets one update opportunity."""
        assert self.population is not None
        grid = self.population.individuals
        if self.update == "synchronous":
            old = list(grid)  # offspring all computed against the old grid
            new = list(grid)
            order = self._cell_order()
            children = [
                self._offspring_for_cell(int(idx), old, evaluate=False)
                for idx in order
            ]
            self._evaluate(children)  # one (n_cells, L) stacked evaluation
            for idx, child in zip(order, children):
                self._maybe_replace(int(idx), child, new)
            self.population.individuals = new
        else:
            for idx in self._cell_order():
                child = self._offspring_for_cell(int(idx), grid)
                self._maybe_replace(int(idx), child, grid)

    def fitness_grid(self) -> np.ndarray:
        """Current fitnesses as a (rows, cols) array — for diffusion plots."""
        assert self.population is not None
        return self.population.fitness_array().reshape(self.rows, self.cols)
