"""Hybrid PGA models: compositions of the three pure grains.

"At present, hybrid parallelism approaches are also published to … employ
advantages of both streams" (survey §1.2) and "With the advent of clusters
of SMP machines, many research works implemented a hybrid model — a
centralized model within each SMP machine, but running under a distributed
model within machines in the cluster" (§3.3).

Two canonical hybrids, both :class:`~repro.parallel.island.IslandModel`
subclasses that change only what a deme is:

:class:`CellularIslandModel`
    Coarse-grained ring of demes where each deme is itself a *cellular* GA
    (Alba & Troya's "structured-population (cellular) GAs for the islands"),
    built through the island model's ``engine`` keyword; migration follows
    the island's :class:`~repro.migration.policy.MigrationPolicy`.

:class:`MasterSlaveIslandModel`
    Island model in which each deme farms its fitness evaluations to a
    local executor — the distributed-between / centralized-within SMP
    cluster pattern.
"""

from __future__ import annotations

import math
from functools import partial

from ..cluster.trace import Trace
from ..core.config import GAConfig
from ..core.engine import FitnessEvaluator
from ..core.operators.replacement import replace_worst_ranked
from ..core.problem import Problem
from ..migration.policy import MigrationPolicy, integrate_immigrants
from ..migration.schedule import MigrationSchedule
from ..topology.static import Topology
from .base import RunReport
from .cellular import CellularGA
from .classification import (
    GrainModel,
    ModelClassification,
    ParallelismKind,
    ProgrammingModel,
    WalkStrategy,
)
from .island import BestSoFarDemes, IslandModel, SimulatedIslandModel

__all__ = [
    "CellularIslandModel",
    "MasterSlaveIslandModel",
    "SimulatedMasterSlaveIslandModel",
]


class CellularIslandModel(BestSoFarDemes, IslandModel):
    """Ring (or arbitrary topology) of cellular-GA demes.

    An :class:`~repro.parallel.island.IslandModel` of
    :class:`~repro.parallel.cellular.CellularGA` grids, preserving the
    cellular structure inside each island while adding the island model's
    coarse-grained diversity.  Migration follows ``policy`` (default: each
    deme's two best cells replace the destination's two worst); a parcel
    enters its destination grid as it is sent.  ``replacement="worst"``
    ranks the destination once (:func:`replace_worst_ranked`), so no
    migrant evicts another.  :meth:`deme_bests`, ``records`` and the trace
    follow each grid's best-so-far; :meth:`run` takes an epoch count, and
    :meth:`partitioned` is refused (``rows`` x ``cols`` size a grid).
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
        super().__init__(
            problem,
            n_islands,
            config,
            topology=topology,
            policy=policy or MigrationPolicy(rate=2, replacement="worst"),
            schedule=schedule,
            engine=partial(CellularGA, rows=rows, cols=cols, update=update),
            seed=seed,
            trace=trace,
        )

    @classmethod
    def partitioned(cls, *args, **kwargs):
        raise TypeError("CellularIslandModel grids are sized by rows x cols")

    def _emigrate(self, deme_idx: int, now: int) -> None:
        """Each parcel enters its destination grid as it is sent."""
        for dst in self.topology.neighbors_out(deme_idx):
            migrants = self._select_parcel(deme_idx)
            grid = self.demes[dst].population
            if self.policy.replacement == "worst":
                arrivals = [m.copy(origin="migrant") for m in migrants]
                self.migrants_accepted += len(replace_worst_ranked(grid, arrivals))
            else:
                self.migrants_accepted += integrate_immigrants(
                    self.rng, grid, migrants, self.policy
                )

    def run(self, epochs: int = 100) -> RunReport:
        self.run_epochs(epochs, done=self._solved)
        return self._island_report("max_epochs", epochs=self.epoch)


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
