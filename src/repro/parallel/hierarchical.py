"""Hierarchical Genetic Algorithm (Sefrioui & Périaux 2000).

"HGAs with multi-layered hierarchical topology and multiple models for
optimization problems.  The architecture allowed mix of a simple and
complex models, but it achieved the same quality as reached by only complex
models … three times faster" (survey §2).

The architecture is a tree of demes.  The single top deme refines with the
*most faithful* (most expensive) model; lower layers explore with
progressively cheaper models.  Periodically the best solutions migrate *up*
one layer (re-evaluated under the destination's model, since fitnesses from
different fidelities are not comparable) and random solutions migrate
*down* to keep exploration stocked with diversity.

Cost accounting is in *work units* (evaluations × fidelity cost), which is
how the "same quality, ~3x faster" claim is measured in E7.
"""

from __future__ import annotations

from ..cluster.trace import Trace
from ..core.config import GAConfig
from ..core.engine import GenerationalEngine
from ..core.individual import Individual
from ..core.rng import spawn_rngs
from ..problems.multifidelity import MultiFidelityProblem
from ..runtime.deme import EpochLoop, emit_generation
from .base import ParallelEngine, RunReport
from .classification import (
    GrainModel,
    ModelClassification,
    ParallelismKind,
    ProgrammingModel,
    WalkStrategy,
)

__all__ = ["HierarchicalGA"]


class HierarchicalGA(EpochLoop, ParallelEngine):
    """Tree of demes over a multi-fidelity objective.

    Parameters
    ----------
    problem:
        A :class:`~repro.problems.multifidelity.MultiFidelityProblem`;
        layer ``l`` (0 = top) uses fidelity ``n_fidelities - 1 - l`` (the
        top layer gets the truth model).  With more layers than fidelities
        the deepest layers share the cheapest model.
    layers:
        Number of tree levels.
    branching:
        Children per node; layer ``l`` holds ``branching**l`` demes.
    migration_interval:
        Epochs between up/down exchanges.
    up_count / down_count:
        Migrants promoted per child per exchange / demoted per child.
    """

    engine_name = "hierarchical"

    classification = ModelClassification(
        grain=GrainModel.HYBRID,
        walk=WalkStrategy.MULTIPLE,
        parallelism=ParallelismKind.HYBRID,
        programming=ProgrammingModel.HYBRID,
    )

    def __init__(
        self,
        problem: MultiFidelityProblem,
        config: GAConfig | None = None,
        *,
        layers: int = 3,
        branching: int = 2,
        migration_interval: int = 5,
        up_count: int = 2,
        down_count: int = 1,
        seed: int | None = None,
        trace: Trace | None = None,
    ) -> None:
        if layers < 1:
            raise ValueError(f"need >= 1 layer, got {layers}")
        if branching < 1:
            raise ValueError(f"branching must be >= 1, got {branching}")
        if migration_interval < 1:
            raise ValueError(f"migration_interval must be >= 1, got {migration_interval}")
        self.problem = problem
        self.layers = layers
        self.branching = branching
        self.migration_interval = migration_interval
        self.up_count = up_count
        self.down_count = down_count
        cfg = (config or GAConfig()).resolved_for(problem.spec)

        # layer l gets fidelity max(0, highest - l)
        top = problem.highest_fidelity()
        self.layer_fidelity = [max(0, top - l) for l in range(layers)]
        n_demes = sum(branching ** l for l in range(layers))
        rngs = spawn_rngs(seed, n_demes + 1)
        self.rng = rngs[-1]

        self.demes: list[list[GenerationalEngine]] = []
        k = 0
        for l in range(layers):
            layer_demes = []
            for _ in range(branching ** l):
                view = problem.view(self.layer_fidelity[l])
                layer_demes.append(GenerationalEngine(view, cfg, seed=rngs[k]))
                k += 1
            self.demes.append(layer_demes)
        self.epoch = 0
        self.trace = trace
        self.best_curve: list[float] = []
        self.work_curve: list[float] = []

    # -- structure helpers -----------------------------------------------------------
    def _children_of(self, layer: int, idx: int) -> list[int]:
        """Indices (in layer+1) of the children of deme ``idx`` in ``layer``."""
        if layer + 1 >= self.layers:
            return []
        return list(range(idx * self.branching, (idx + 1) * self.branching))

    def work_units(self) -> float:
        total = 0.0
        for l, layer in enumerate(self.demes):
            cost = float(self.problem.costs[self.layer_fidelity[l]])
            total += cost * sum(d.state.evaluations for d in layer)
        return total

    def total_evaluations(self) -> int:
        return sum(d.state.evaluations for layer in self.demes for d in layer)

    def top_best(self) -> Individual:
        return self.demes[0][0].best_so_far

    # -- evolution ----------------------------------------------------------------------
    def initialize(self) -> None:
        for layer in self.demes:
            for deme in layer:
                deme.initialize()
        self._track()

    # -- standard lifecycle (step layers, exchange up/down, track curves) --------
    def _lifecycle_initialized(self) -> bool:
        return self.demes[0][0].population is not None

    def _lifecycle_step(self) -> None:
        for layer in self.demes:
            for deme in layer:
                deme.step()

    def _lifecycle_exchange(self) -> None:
        if self.epoch % self.migration_interval == 0:
            self._exchange()

    def _lifecycle_record(self) -> None:
        self._track()

    def _exchange(self) -> None:
        """Promote bests upward (with re-evaluation), demote randoms downward."""
        for l in range(self.layers - 1, 0, -1):  # bottom-up promotion
            parent_layer = l - 1
            for p_idx, parent in enumerate(self.demes[parent_layer]):
                for c_idx in self._children_of(parent_layer, p_idx):
                    child = self.demes[l][c_idx]
                    assert child.population is not None and parent.population is not None
                    # up: child's best, re-evaluated under parent's model
                    ups = child.population.sorted()[: self.up_count]
                    for ind in ups:
                        promoted = ind.copy(origin=f"promoted:L{l}")
                        promoted.fitness = parent.problem.evaluate(promoted.genome)
                        parent.state.evaluations += 1
                        self._accept(parent, promoted)
                    # down: random members of the parent, re-evaluated cheaply
                    if self.down_count > 0 and len(parent.population) > 0:
                        idx = self.rng.choice(
                            len(parent.population), size=self.down_count, replace=False
                        )
                        for i in idx:
                            demoted = parent.population[int(i)].copy(
                                origin=f"demoted:L{parent_layer}"
                            )
                            demoted.fitness = child.problem.evaluate(demoted.genome)
                            child.state.evaluations += 1
                            self._accept(child, demoted)

    @staticmethod
    def _accept(deme: GenerationalEngine, newcomer: Individual) -> None:
        """Replace the deme's worst member if the newcomer improves on it."""
        pop = deme.population
        assert pop is not None
        worst = pop.worst()
        nf, wf = newcomer.require_fitness(), worst.require_fitness()
        improves = nf > wf if pop.maximize else nf < wf
        if improves:
            pop.replace_worst(newcomer)
            # keep the engine's best-so-far tracking honest
            bsf = deme.best_so_far.require_fitness()
            better = nf > bsf if pop.maximize else nf < bsf
            if better:
                deme._best_so_far = newcomer.copy()
                deme.state.best_fitness = nf

    def _track(self) -> None:
        self.best_curve.append(self.top_best().require_fitness())
        self.work_curve.append(self.work_units())
        # one record per deme, flattened breadth-first (top deme = 0)
        k = 0
        for layer in self.demes:
            for deme in layer:
                emit_generation(
                    self.trace,
                    float(self.epoch),
                    deme=k,
                    generation=deme.state.generation,
                    best=float(deme.best_so_far.require_fitness()),
                )
                k += 1

    def _solved(self) -> bool:
        top_view = self.demes[0][0].problem
        return top_view.is_solved(self.top_best().require_fitness())

    def run(
        self,
        max_epochs: int = 100,
        *,
        work_budget: float | None = None,
    ) -> RunReport:
        """Run until solved, ``max_epochs`` or the work budget is spent."""
        self.run_epochs(
            max_epochs,
            done=lambda: self._solved()
            or (work_budget is not None and self.work_units() >= work_budget),
        )
        solved = self._solved()
        return self._report(
            best=self.top_best().copy(),
            evaluations=self.total_evaluations(),
            epochs=self.epoch,
            solved=solved,
            stop_reason="solved" if solved else "max_epochs",
            deme_bests=[
                d.best_so_far.require_fitness() for layer in self.demes for d in layer
            ],
            extras={
                "work_units": self.work_units(),
                "best_curve": self.best_curve,
                "work_curve": self.work_curve,
            },
        )
