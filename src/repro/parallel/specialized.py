"""Specialized Island Model (Xiao & Armstrong 2003).

"a new model of parallel evolutionary algorithms … derived from the island
model, in which an EA is divided into several subEAs that exchange
individuals among themselves.  In SIM, each subEA is responsible for
optimizing the subset of objective functions in the initial problem.  Seven
scenarios of the model with a different number of subEAs, communication
topology and specialization are tested and the results are compared."
(survey §2)

Each subEA here is a deme whose engine optimises one *weighted subset* of a
:class:`~repro.problems.multiobjective.MultiObjectiveProblem`'s objectives.
Every individual ever evaluated is also scored on the full objective vector
and folded into a global non-dominated archive; scenario quality is the
archive's hypervolume.  The classic seven scenarios are provided as
:func:`standard_scenarios`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..cluster.machine import SimulatedCluster
from ..cluster.trace import Trace
from ..core.config import GAConfig
from ..core.individual import Individual
from ..migration.policy import MigrationPolicy
from ..migration.schedule import PeriodicSchedule
from ..problems.multiobjective import (
    MultiObjectiveProblem,
    ScalarizedObjective,
    hypervolume_2d,
    pareto_front,
)
from ..runtime.deme import TimedDemeRuntime
from ..topology.static import CompleteTopology, RingTopology
from .base import RunReport
from .island import BestSoFarDemes, IslandModel

__all__ = [
    "SpecializedIslandModel",
    "SimulatedSpecializedIslandModel",
    "SIMScenario",
    "standard_scenarios",
]

#: the Pareto archive is thinned to this many points along the first
#: objective whenever it grows past it
ARCHIVE_CAPACITY = 200


@dataclass(frozen=True)
class SIMScenario:
    """One SIM configuration: subEA count, weights per subEA, topology name.

    ``weights`` holds one weight vector per subEA; a one-hot vector means
    that subEA is fully specialised to a single objective, a uniform vector
    means it optimises the whole aggregate (no specialisation).
    """

    name: str
    weights: tuple[tuple[float, ...], ...]
    topology: str = "complete"
    migration_interval: int = 5

    @property
    def n_subeas(self) -> int:
        return len(self.weights)


def standard_scenarios(n_objectives: int = 2) -> list[SIMScenario]:
    """The seven comparison scenarios (two-objective formulation).

    S1: 1 subEA, aggregate only (the non-specialised control = plain GA).
    S2: 2 subEAs, both aggregate (island model, no specialisation).
    S3: 2 subEAs, one per objective, ring.
    S4: 2 subEAs, one per objective, complete.
    S5: 3 subEAs: one per objective + one aggregate, ring.
    S6: 3 subEAs: one per objective + one aggregate, complete.
    S7: 4 subEAs: objective specialists + two mixed weightings, complete.
    """
    if n_objectives != 2:
        raise NotImplementedError("standard scenarios are defined for 2 objectives")
    o1, o2 = (1.0, 0.0), (0.0, 1.0)
    half = (0.5, 0.5)
    return [
        SIMScenario("S1-aggregate", (half,)),
        SIMScenario("S2-island-no-spec", (half, half)),
        SIMScenario("S3-spec-ring", (o1, o2), topology="ring"),
        SIMScenario("S4-spec-complete", (o1, o2), topology="complete"),
        SIMScenario("S5-spec+agg-ring", (o1, o2, half), topology="ring"),
        SIMScenario("S6-spec+agg-complete", (o1, o2, half), topology="complete"),
        SIMScenario(
            "S7-four-mixed",
            (o1, o2, (0.75, 0.25), (0.25, 0.75)),
            topology="complete",
        ),
    ]


class SpecializedIslandModel(BestSoFarDemes, IslandModel):
    """SIM driver over a 2+-objective problem.

    An :class:`~repro.parallel.island.IslandModel` whose deme *i* optimises
    ``ScalarizedObjective(problem, scenario.weights[i])``, on the
    scenario's topology, migrating every ``scenario.migration_interval``
    epochs (default policy: each subEA's two best replace the
    destination's two worst).  Since each subEA scores its own weighted
    sum, the island base re-scalarises every immigrant under the
    destination's weights.  What is SIM's own: the Pareto archive every
    evaluated individual is folded into, its hypervolume as the quality,
    per-subEA best-so-far as :meth:`deme_bests` and no subEA ever
    "solves".  :meth:`run` takes an epoch count, and :meth:`partitioned`
    is refused (a scenario sets the subEA count).

    Parameters
    ----------
    problem:
        The multiobjective problem.
    scenario:
        SubEA weights/topology/migration configuration.
    config:
        Per-subEA GA configuration.
    hv_reference:
        Reference point for hypervolume (2-objective only); defaults to the
        per-objective maxima observed in the archive plus 10%.
    """

    engine_name = "specialized"

    def __init__(
        self,
        problem: MultiObjectiveProblem,
        scenario: SIMScenario,
        config: GAConfig | None = None,
        *,
        policy: MigrationPolicy | None = None,
        hv_reference: Sequence[float] | None = None,
        seed: int | None = None,
        trace: Trace | None = None,
    ) -> None:
        self.scenario = scenario
        self.hv_reference = None if hv_reference is None else np.asarray(hv_reference, float)
        self._archive: list[tuple[np.ndarray, np.ndarray]] = []  # (genome, objectives)
        n = scenario.n_subeas
        super().__init__(
            problem,
            n,
            config,
            topology=CompleteTopology(n) if scenario.topology == "complete" else RingTopology(n),
            policy=policy or MigrationPolicy(rate=2, selection="best", replacement="worst"),
            schedule=PeriodicSchedule(scenario.migration_interval),
            seed=seed,
            trace=trace,
        )

    @classmethod
    def partitioned(cls, *args, **kwargs):
        raise TypeError("SpecializedIslandModel subEAs are counted by the scenario")

    # -- the per-deme seams ---------------------------------------------------------
    def _deme_problem(self, i: int) -> ScalarizedObjective:
        return ScalarizedObjective(self.problem, self.scenario.weights[i])

    def _after_step(self, i: int) -> None:
        self._archive_population(self.demes[i].population.individuals)

    # -- archive ---------------------------------------------------------------------
    def _archive_population(self, individuals: Sequence[Individual]) -> None:
        for ind in individuals:
            objs = self.problem.evaluate_objectives(ind.genome)
            self._archive.append((ind.genome.copy(), objs))
        self._prune_archive()

    def _prune_archive(self) -> None:
        if not self._archive:
            return
        objs = np.stack([o for _, o in self._archive])
        keep = pareto_front(objs)
        self._archive = [self._archive[i] for i in keep]
        if len(self._archive) > ARCHIVE_CAPACITY:
            # thin uniformly along the first objective to cap memory
            order = np.argsort([o[0] for _, o in self._archive])
            idx = np.linspace(0, len(order) - 1, ARCHIVE_CAPACITY).astype(int)
            self._archive = [self._archive[order[i]] for i in idx]

    def _archive_summary(self) -> tuple[np.ndarray, float]:
        """The non-dominated front and its hypervolume."""
        objs = (
            np.stack([o for _, o in self._archive])
            if self._archive
            else np.empty((0, self.problem.n_objectives))
        )
        ref = self.hv_reference
        if ref is None and objs.shape[0] and objs.shape[1] == 2:
            ref = objs.max(axis=0) * 1.1 + 1e-9
        hv = (
            hypervolume_2d(objs, ref)
            if ref is not None and objs.shape[1] == 2 and objs.shape[0]
            else float("nan")
        )
        return objs, hv

    def _sim_report(self, **fields) -> RunReport:
        """Assemble the archive-valued report both SIM drivers share."""
        objs, hv = self._archive_summary()
        return self._report(
            best=None,
            evaluations=self.total_evaluations(),
            solved=False,
            stop_reason="max_epochs",
            deme_bests=self.deme_bests(),
            migrants_sent=self.migrants_sent,
            migrants_accepted=self.migrants_accepted,
            extras={
                "scenario": self.scenario,
                "archive_objectives": objs,
                "hypervolume": hv,
                "archive_genomes": [g for g, _ in self._archive],
            },
            **fields,
        )

    def run(self, epochs: int = 50) -> RunReport:
        self.run_epochs(epochs)
        return self._sim_report(epochs=self.epoch)


class SimulatedSpecializedIslandModel(TimedDemeRuntime, SpecializedIslandModel):
    """Cluster-timed SIM driver: one subEA coroutine per node.

    Runs the specialized island model on the shared deme runtime, so the
    subEAs stall through node downtime instead of silently computing
    (``Node.finish_time`` semantics — the gap the untimed driver cannot
    model), migrants pay network transit, and the reliable channel /
    supervision capabilities are available exactly as for islands.
    Archiving is the untimed model's own; everything else is the
    runtime's and the island base's.
    """

    engine_name = "sim-specialized"

    def __init__(
        self,
        problem: MultiObjectiveProblem,
        scenario: SIMScenario,
        config: GAConfig | None = None,
        *,
        cluster: SimulatedCluster | None = None,
        eval_cost: float = 1e-3,
        migration_payload: float = 100.0,
        max_epochs: int = 50,
        reliable_migration: bool = False,
        supervised: bool = False,
        checkpoint_every: int = 5,
        heartbeat_grace: float | None = None,
        **kwargs,
    ) -> None:
        super().__init__(problem, scenario, config, **kwargs)
        self._init_timed_runtime(
            cluster or SimulatedCluster(scenario.n_subeas),
            eval_cost=eval_cost,
            migration_payload=migration_payload,
            max_epochs=max_epochs,
            # archive quality is the objective; no deme ever "solves"
            stop_when_any_solves=False,
            reliable_migration=reliable_migration,
            supervised=supervised,
            checkpoint_every=checkpoint_every,
            heartbeat_grace=heartbeat_grace,
        )

    def _deme_solved(self, i: int) -> bool:
        return False

    def run(self) -> RunReport:
        self._setup_runtime()
        self.cluster.run()
        return self._sim_report(
            epochs=max(d.state.generation for d in self.demes),
            **self._runtime_report_fields(),
        )
