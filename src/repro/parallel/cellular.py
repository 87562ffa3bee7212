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

from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from ..cluster.trace import Trace
from ..core.config import GAConfig
from ..core.individual import Individual, best_of
from ..core.problem import Problem
from ..core.rng import ensure_rng
from ..core.termination import EvolutionState, MaxGenerations, Termination
from ..core.variation import offspring_pair
from ..runtime.deme import emit_generation
from ..topology.neighborhood import Neighborhood, VonNeumannNeighborhood
from .classification import (
    GrainModel,
    ModelClassification,
    ParallelismKind,
    ProgrammingModel,
    WalkStrategy,
)

__all__ = ["CellularGA", "CellularResult", "UpdatePolicy", "UPDATE_POLICIES"]

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


@dataclass
class CellularResult:
    """Outcome of a cellular run."""

    best: Individual
    evaluations: int
    sweeps: int
    solved: bool
    stop_reason: str
    best_curve: list[float] = field(repr=False, default_factory=list)
    mean_curve: list[float] = field(repr=False, default_factory=list)

    @property
    def best_fitness(self) -> float:
        return self.best.require_fitness()


class CellularGA:
    """Toroidal-grid cellular GA.

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
        trace: Trace | None = None,
    ) -> None:
        if rows < 2 or cols < 2:
            raise ValueError(f"grid must be at least 2x2, got {rows}x{cols}")
        if update not in UPDATE_POLICIES:
            raise ValueError(
                f"unknown update policy {update!r}; choose from {UPDATE_POLICIES}"
            )
        self.problem = problem
        self.config = (config or GAConfig()).resolved_for(problem.spec)
        self.rows, self.cols = rows, cols
        self.n_cells = rows * cols
        self.neighborhood = neighborhood or VonNeumannNeighborhood()
        self.update = update
        self.rng = ensure_rng(seed)
        self.trace = trace
        self.grid: list[Individual] = []
        self.evaluations = 0
        self.sweeps = 0
        self.best_curve: list[float] = []
        self.mean_curve: list[float] = []
        self._fixed_order: np.ndarray | None = None
        self._best_so_far: Individual | None = None

    # -- setup ---------------------------------------------------------------------
    def initialize(self, individuals: Sequence[Individual] | None = None) -> None:
        if individuals is None:
            genomes = self.problem.spec.sample_population(self.rng, self.n_cells)
            individuals = [Individual(genome=g) for g in genomes]
        if len(individuals) != self.n_cells:
            raise ValueError(
                f"grid needs exactly {self.n_cells} individuals, got {len(individuals)}"
            )
        self.grid = list(individuals)
        self._evaluate_batch([ind for ind in self.grid if not ind.evaluated])
        self._track()

    def _evaluate_batch(self, individuals: Sequence[Individual]) -> None:
        """Fill in fitnesses for ``individuals`` with one stacked evaluation."""
        if not individuals:
            return
        fitnesses = self.problem.evaluate_many([ind.genome for ind in individuals])
        for ind, f in zip(individuals, fitnesses):
            ind.fitness = float(f)
        self.evaluations += len(individuals)

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
            generation=self.sweeps + 1,
        )
        child = a if self.rng.random() < 0.5 else b
        if evaluate:
            child.fitness = self.problem.evaluate(child.genome)
            self.evaluations += 1
        return child

    def _maybe_replace(self, idx: int, child: Individual, target: list[Individual]) -> None:
        incumbent = target[idx]
        cf, pf = child.require_fitness(), incumbent.require_fitness()
        improves = cf > pf if self.problem.maximize else cf < pf
        if improves:
            target[idx] = child

    def step(self) -> None:
        """One sweep: every cell position gets one update opportunity."""
        if not self.grid:
            self.initialize()
        if self.update == "synchronous":
            old = list(self.grid)  # offspring all computed against the old grid
            new = list(self.grid)
            order = self._cell_order()
            children = [
                self._offspring_for_cell(int(idx), old, evaluate=False)
                for idx in order
            ]
            self._evaluate_batch(children)  # one (n_cells, L) stacked evaluation
            for idx, child in zip(order, children):
                self._maybe_replace(int(idx), child, new)
            self.grid = new
        else:
            for idx in self._cell_order():
                child = self._offspring_for_cell(int(idx), self.grid)
                self._maybe_replace(int(idx), child, self.grid)
        self.sweeps += 1
        self._track()

    # -- monitoring -----------------------------------------------------------------
    def _track(self) -> None:
        best = best_of(self.grid, self.problem.maximize)
        if self._best_so_far is None or self.problem.is_improvement(
            best.require_fitness(), self._best_so_far.require_fitness()
        ):
            self._best_so_far = best.copy()
        f = np.asarray([ind.require_fitness() for ind in self.grid])
        self.best_curve.append(self._best_so_far.require_fitness())
        self.mean_curve.append(float(f.mean()))
        emit_generation(
            self.trace,
            float(self.sweeps),
            deme=0,
            generation=self.sweeps,
            best=float(self._best_so_far.require_fitness()),
        )

    @property
    def best_so_far(self) -> Individual:
        if self._best_so_far is None:
            raise RuntimeError("cellular GA not initialised")
        return self._best_so_far

    def fitness_grid(self) -> np.ndarray:
        """Current fitnesses as a (rows, cols) array — for diffusion plots."""
        f = np.asarray([ind.require_fitness() for ind in self.grid])
        return f.reshape(self.rows, self.cols)

    def _solved(self) -> bool:
        return self._best_so_far is not None and self.problem.is_solved(
            self._best_so_far.require_fitness()
        )

    def run(self, termination: Termination | int | None = None) -> CellularResult:
        if termination is None:
            termination = MaxGenerations(100)
        elif isinstance(termination, int):
            termination = MaxGenerations(termination)
        if not self.grid:
            self.initialize()
        while not termination.should_stop(self._state()) and not self._solved():
            self.step()
        solved = self._solved()
        return CellularResult(
            best=self.best_so_far.copy(),
            evaluations=self.evaluations,
            sweeps=self.sweeps,
            solved=solved,
            stop_reason="solved" if solved else termination.reason(),
            best_curve=self.best_curve,
            mean_curve=self.mean_curve,
        )

    def _state(self) -> EvolutionState:
        return EvolutionState(
            generation=self.sweeps,
            evaluations=self.evaluations,
            best_fitness=(
                self._best_so_far.require_fitness() if self._best_so_far else None
            ),
            maximize=self.problem.maximize,
        )
