"""Hierarchical Genetic Algorithm (Sefrioui & Périaux 2000).

"HGAs with multi-layered hierarchical topology and multiple models for
optimization problems.  The architecture allowed mix of a simple and
complex models, but it achieved the same quality as reached by only complex
models … three times faster" (survey §2).

The architecture is a tree of demes: an
:class:`~repro.parallel.island.IslandModel` on a
:class:`~repro.topology.static.TreeTopology`.  The single top deme refines
with the *most faithful* (most expensive) model; lower layers explore with
progressively cheaper models.  Periodically the best solutions migrate *up*
one layer and random solutions migrate *down* to keep exploration stocked
with diversity.  Every arrival is re-evaluated under its destination's
model, since fitnesses from different fidelities are not comparable — the
island base does that for any deme with its own objective.

Cost accounting is in *work units* (evaluations × fidelity cost), which is
how the "same quality, ~3x faster" claim is measured in E7.
"""

from __future__ import annotations

from ..cluster.trace import Trace
from ..core.config import GAConfig
from ..core.individual import Individual
from ..migration.policy import MigrationPolicy
from ..migration.schedule import PeriodicSchedule
from ..problems.multifidelity import FidelityView, MultiFidelityProblem
from ..topology.static import TreeTopology
from .base import RunReport
from .classification import (
    GrainModel,
    ModelClassification,
    ParallelismKind,
    ProgrammingModel,
    WalkStrategy,
)
from .island import BestSoFarDemes, IslandModel

__all__ = ["HierarchicalGA"]

#: a parent sends one random member down to each child
DEMOTION = MigrationPolicy(rate=1, selection="random")


class HierarchicalGA(BestSoFarDemes, IslandModel):
    """Tree of demes over a multi-fidelity objective.

    Deme ``i`` sits in heap layout (``topology`` is a
    :class:`~repro.topology.static.TreeTopology`): deme 0 is the top, and
    ``demes``, ``deme_bests``, ``records`` and the trace list the demes
    breadth-first.  ``global_best`` is the top deme's best-so-far.

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
        Epochs between exchanges, in which each child promotes its two
        best members to its parent and receives one random member of the
        parent in return, each replacing the worst member it beats.
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
        seed: int | None = None,
        trace: Trace | None = None,
    ) -> None:
        tree = TreeTopology(layers, branching)
        top = problem.highest_fidelity()
        self.layer_fidelity = [max(0, top - l) for l in range(layers)]
        self.work_curve: list[float] = []
        super().__init__(
            problem,
            tree.size,
            config,
            topology=tree,
            policy=MigrationPolicy(rate=2, selection="best", replacement="worst-if-better"),
            schedule=PeriodicSchedule(migration_interval),
            seed=seed,
            trace=trace,
        )

    @classmethod
    def partitioned(cls, *args, **kwargs):
        raise TypeError("HierarchicalGA demes are counted by layers and branching")

    def _deme_problem(self, i: int) -> FidelityView:
        return self.problem.view(self.layer_fidelity[self.topology.layer_of(i)])

    def work_units(self) -> float:
        return sum(d.problem.cost * d.state.evaluations for d in self.demes)

    def global_best(self) -> Individual:
        """The top deme's best-so-far: only it scores at the truth model."""
        return self.demes[0].best_so_far

    def _solved(self) -> bool:
        return self.demes[0].problem.is_solved(self.global_best().require_fitness())

    # -- lifecycle: the island model's, with the survey's exchange ----------------
    def initialize(self) -> None:
        """Initialise every deme and record epoch 0, where the curves start."""
        super().initialize()
        self._lifecycle_begin()
        self._lifecycle_record()

    def _lifecycle_exchange(self) -> None:
        """Bottom-up, by parent, by child: the child's two best go up, then
        one random member of the parent comes down."""
        if not self.schedule.should_migrate(0, self.epoch, self.rng):
            return
        tree = self.topology
        for l in range(tree.layers - 1, 0, -1):
            for child in tree.layer(l):
                parent = tree.parent(child)
                self._integrate_parcel(parent, child, self._select_parcel(child))
                self._integrate_parcel(child, parent, self._select_parcel(parent, DEMOTION))

    def _integrate_parcel(self, i: int, src: int, migrants: list[Individual]) -> None:
        """Re-score and integrate as every island does; then an arrival
        that beats the deme's best-so-far becomes it at once."""
        super()._integrate_parcel(i, src, migrants)
        deme = self.demes[i]
        for m in migrants:
            if deme.offer_best(m):
                deme.best_so_far.origin = f"migrant:{src}"

    def _lifecycle_record(self) -> None:
        super()._lifecycle_record()
        self.work_curve.append(self.work_units())

    def run(self, max_epochs: int = 100) -> RunReport:
        """Run until the top deme solves the problem or ``max_epochs``."""
        self.run_epochs(max_epochs, done=self._solved)
        return self._island_report(
            "max_epochs",
            epochs=self.epoch,
            extras={
                "work_units": self.work_units(),
                "best_curve": [r.global_best for r in self.records],
                "work_curve": self.work_curve,
            },
        )
