"""Hybrid PGA models: compositions of the three pure grains.

"At present, hybrid parallelism approaches are also published to … employ
advantages of both streams" (survey §1.2) and "With the advent of clusters
of SMP machines, many research works implemented a hybrid model — a
centralized model within each SMP machine, but running under a distributed
model within machines in the cluster" (§3.3).

Two canonical hybrids:

:class:`CellularIslandModel`
    Coarse-grained ring of demes where each deme is itself a *cellular* GA
    (Alba & Troya's "structured-population (cellular) GAs for the islands").

:class:`MasterSlaveIslandModel`
    Island model in which each deme farms its fitness evaluations to a
    local executor — the distributed-between / centralized-within SMP
    cluster pattern.
"""

from __future__ import annotations

import math

from ..cluster.trace import Trace
from ..core.config import GAConfig
from ..core.engine import FitnessEvaluator
from ..core.individual import Individual, best_of
from ..core.problem import Problem
from ..core.rng import spawn_rngs
from ..migration.policy import MigrationPolicy
from ..migration.schedule import MigrationSchedule, PeriodicSchedule
from ..runtime.deme import EpochLoop, emit_generation
from ..topology.static import RingTopology, Topology
from .base import ParallelEngine, RunReport
from .cellular import CellularGA
from .classification import (
    GrainModel,
    ModelClassification,
    ParallelismKind,
    ProgrammingModel,
    WalkStrategy,
)
from .island import IslandModel, SimulatedIslandModel

__all__ = [
    "CellularIslandModel",
    "MasterSlaveIslandModel",
    "SimulatedMasterSlaveIslandModel",
]


class CellularIslandModel(EpochLoop, ParallelEngine):
    """Ring (or arbitrary topology) of cellular-GA demes.

    Migration sends each deme's best cells to its neighbours, where they
    replace the worst cells — preserving the cellular structure inside each
    island while adding the island model's coarse-grained diversity.  Only
    ``policy.rate`` is free: a policy with another selection or
    replacement is rejected.
    """

    engine_name = "cellular-island"

    classification = ModelClassification(
        grain=GrainModel.HYBRID,
        walk=WalkStrategy.MULTIPLE,
        parallelism=ParallelismKind.HYBRID,
        programming=ProgrammingModel.DISTRIBUTED,
    )

    def __init__(
        self,
        problem: Problem,
        n_islands: int,
        config: GAConfig | None = None,
        *,
        rows: int = 8,
        cols: int = 8,
        topology: Topology | None = None,
        policy: MigrationPolicy | None = None,
        schedule: MigrationSchedule | None = None,
        update: str = "synchronous",
        seed: int | None = None,
        trace: Trace | None = None,
    ) -> None:
        if n_islands < 1:
            raise ValueError(f"need >= 1 island, got {n_islands}")
        self.problem = problem
        self.trace = trace
        self.topology = topology or RingTopology(n_islands)
        if self.topology.size != n_islands:
            raise ValueError("topology size must equal n_islands")
        self.policy = policy or MigrationPolicy(rate=2, replacement="worst")
        if (self.policy.selection, self.policy.replacement) != ("best", "worst"):
            raise ValueError(
                "engine.params.policy: cellular-island migrates best cells over worst "
                f"cells only, got selection={self.policy.selection!r}, "
                f"replacement={self.policy.replacement!r}"
            )
        self.schedule = schedule or PeriodicSchedule(5)
        rngs = spawn_rngs(seed, n_islands + 1)
        self.rng = rngs[-1]
        self.demes = [
            CellularGA(
                problem,
                config,
                rows=rows,
                cols=cols,
                update=update,
                seed=rngs[i],
            )
            for i in range(n_islands)
        ]
        self.epoch = 0
        self.migrants_sent = 0
        self.migrants_accepted = 0

    def initialize(self) -> None:
        for deme in self.demes:
            deme.initialize()

    # -- standard lifecycle (step grids, swap best cells, record) ---------------
    def _lifecycle_initialized(self) -> bool:
        return self.demes[0].population is not None

    def _lifecycle_step(self) -> None:
        for deme in self.demes:
            deme.step()

    def _lifecycle_exchange(self) -> None:
        for i, deme in enumerate(self.demes):
            if self.schedule.should_migrate(i, self.epoch, self.rng):
                ranked = sorted(
                    range(deme.n_cells),
                    key=lambda c: deme.population[c].require_fitness(),
                    reverse=self.problem.maximize,
                )
                for dst in self.topology.neighbors_out(i):
                    migrants = [
                        deme.population[c].copy() for c in ranked[: self.policy.rate]
                    ]
                    self.migrants_sent += len(migrants)
                    self.migrants_accepted += self._place_migrants(
                        self.demes[dst], migrants
                    )

    def _lifecycle_record(self) -> None:
        for i, deme in enumerate(self.demes):
            emit_generation(
                self.trace,
                float(self.epoch),
                deme=i,
                generation=deme.state.generation,
                best=float(deme.best_so_far.require_fitness()),
            )

    def _place_migrants(self, deme: CellularGA, migrants: list[Individual]) -> int:
        """Immigrants replace the destination's worst cells in place;
        returns how many cells they took."""
        ranked = sorted(
            range(deme.n_cells),
            key=lambda c: deme.population[c].require_fitness(),
            reverse=not self.problem.maximize,  # worst first
        )
        for cell, migrant in zip(ranked, migrants):
            deme.population[cell] = migrant.copy(origin="migrant")
        return min(len(ranked), len(migrants))

    def global_best(self) -> Individual:
        return best_of([d.best_so_far for d in self.demes], self.problem.maximize)

    def total_evaluations(self) -> int:
        return sum(d.state.evaluations for d in self.demes)

    def _solved(self) -> bool:
        return self.problem.is_solved(self.global_best().require_fitness())

    def run(self, epochs: int = 100) -> RunReport:
        self.run_epochs(epochs, done=self._solved)
        solved = self._solved()
        return self._report(
            best=self.global_best().copy(),
            evaluations=self.total_evaluations(),
            epochs=self.epoch,
            solved=solved,
            stop_reason="solved" if solved else "max_epochs",
            deme_bests=[d.best_so_far.require_fitness() for d in self.demes],
            migrants_sent=self.migrants_sent,
            migrants_accepted=self.migrants_accepted,
        )


class MasterSlaveIslandModel(IslandModel):
    """Island model whose demes farm evaluations to local executors.

    Functionally identical to :class:`~repro.parallel.island.IslandModel`
    (the genetics are unchanged); the difference is that each deme engine
    evaluates through ``executor`` — the centralized-within-distributed
    SMP-cluster composition.
    """

    engine_name = "master-slave-island"

    classification = ModelClassification(
        grain=GrainModel.HYBRID,
        walk=WalkStrategy.MULTIPLE,
        parallelism=ParallelismKind.HYBRID,
        programming=ProgrammingModel.HYBRID,
    )

    def __init__(self, *args, executor: FitnessEvaluator | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if executor is not None:
            for deme in self.demes:
                deme.evaluator = executor


class SimulatedMasterSlaveIslandModel(SimulatedIslandModel):
    """Cluster-timed SMP hybrid: islands whose demes farm locally.

    Each deme behaves like an island of the timed driver, but its fitness
    evaluations are farmed across ``local_workers`` co-located cores (an
    SMP node), so a generation's simulated compute shrinks by that factor
    while everything on the wire — migration, reliable delivery,
    heartbeats, checkpoints, recovery — is exactly the shared runtime's.
    This is the composition payoff of the deme-runtime layer: the hybrid
    inherits every resilience capability without one line of fault code.
    """

    engine_name = "sim-master-slave-island"

    classification = ModelClassification(
        grain=GrainModel.HYBRID,
        walk=WalkStrategy.MULTIPLE,
        parallelism=ParallelismKind.HYBRID,
        programming=ProgrammingModel.HYBRID,
    )

    def __init__(self, *args, local_workers: int = 4, **kwargs) -> None:
        if local_workers < 1:
            raise ValueError(f"local_workers must be >= 1, got {local_workers}")
        self.local_workers = local_workers
        super().__init__(*args, **kwargs)

    def _step_work(self, i: int, evaluations: int) -> float:
        """A deme's evaluation batch runs ``local_workers``-wide: the
        simulated generation time is the longest lane's share."""
        lanes = math.ceil(evaluations / self.local_workers)
        return lanes * self.eval_cost
