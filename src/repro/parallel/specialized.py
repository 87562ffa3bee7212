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
from ..core.engine import GenerationalEngine
from ..core.individual import Individual
from ..core.rng import spawn_rngs
from ..migration.policy import MigrationPolicy, integrate_immigrants, select_migrants
from ..migration.schedule import PeriodicSchedule
from ..problems.multiobjective import (
    MultiObjectiveProblem,
    ScalarizedObjective,
    hypervolume_2d,
    pareto_front,
)
from ..runtime.deme import (
    EpochLoop,
    TimedDemeRuntime,
    emit_generation,
)
from ..topology.static import CompleteTopology, RingTopology, Topology
from .base import ParallelEngine, RunReport
from .classification import (
    GrainModel,
    ModelClassification,
    ParallelismKind,
    ProgrammingModel,
    WalkStrategy,
)

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


class SpecializedIslandModel(EpochLoop, ParallelEngine):
    """SIM driver over a 2+-objective problem.

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

    classification = ModelClassification(
        grain=GrainModel.COARSE_GRAINED,
        walk=WalkStrategy.MULTIPLE,
        parallelism=ParallelismKind.CONTROL,
        programming=ProgrammingModel.DISTRIBUTED,
    )

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
        self.problem = problem
        self.scenario = scenario
        self.policy = policy or MigrationPolicy(rate=2, selection="best", replacement="worst")
        self.hv_reference = None if hv_reference is None else np.asarray(hv_reference, float)
        n = scenario.n_subeas
        self.topology: Topology = (
            CompleteTopology(n) if scenario.topology == "complete" else RingTopology(n)
        )
        rngs = spawn_rngs(seed, n + 1)
        self.rng = rngs[-1]
        cfg = config or GAConfig()
        self.subeas: list[GenerationalEngine] = []
        for i, w in enumerate(scenario.weights):
            sub_problem = ScalarizedObjective(problem, w)
            sub_cfg = cfg.resolved_for(sub_problem.spec)
            self.subeas.append(GenerationalEngine(sub_problem, sub_cfg, seed=rngs[i]))
        self.epoch = 0
        self.migrants_sent = 0
        self.migrants_accepted = 0
        self.trace = trace
        self._archive: list[tuple[np.ndarray, np.ndarray]] = []  # (genome, objectives)

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

    # -- evolution --------------------------------------------------------------------
    def initialize(self) -> None:
        for sub in self.subeas:
            sub.initialize()
            self._archive_population(sub.population.individuals)

    # -- standard lifecycle (step + archive, migrate, record) --------------------
    def _lifecycle_initialized(self) -> bool:
        return self.subeas[0].population is not None

    def _lifecycle_step(self) -> None:
        for sub in self.subeas:
            sub.step()
            self._archive_population(sub.population.individuals)

    def _lifecycle_exchange(self) -> None:
        if self.epoch % self.scenario.migration_interval == 0:
            self._migrate()

    def _lifecycle_record(self) -> None:
        for i, sub in enumerate(self.subeas):
            emit_generation(
                self.trace,
                float(self.epoch),
                deme=i,
                generation=sub.state.generation,
                best=float(sub.best_so_far.require_fitness()),
            )

    def _migrate(self) -> None:
        """Exchange individuals between subEAs, re-scalarising on arrival.

        An immigrant's fitness under the destination's weights differs from
        its fitness at home, so it is re-evaluated (counted on the
        destination subEA's meter).
        """
        parcels: list[tuple[int, int, list[Individual]]] = []
        for i, sub in enumerate(self.subeas):
            for dst in self.topology.neighbors_out(i):
                migrants = select_migrants(self.rng, sub.population, self.policy)
                parcels.append((i, dst, migrants))
                self.migrants_sent += len(migrants)
        for src, dst, migrants in parcels:
            dst_sub = self.subeas[dst]
            for m in migrants:
                m.fitness = dst_sub.problem.evaluate(m.genome)
                dst_sub.state.evaluations += 1
            self.migrants_accepted += integrate_immigrants(
                self.rng, dst_sub.population, migrants, self.policy, source=src
            )

    def total_evaluations(self) -> int:
        return sum(s.state.evaluations for s in self.subeas)

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
        return self._sim_report(
            epochs=self.epoch,
            stop_reason="max_epochs",
            deme_bests=[s.best_so_far.require_fitness() for s in self.subeas],
            migrants_sent=self.migrants_sent,
            migrants_accepted=self.migrants_accepted,
        )


class SimulatedSpecializedIslandModel(TimedDemeRuntime, SpecializedIslandModel):
    """Cluster-timed SIM driver: one subEA coroutine per node.

    Runs the specialized island model on the shared deme runtime, so the
    subEAs stall through node downtime instead of silently computing
    (``Node.finish_time`` semantics — the gap the untimed driver cannot
    model), migrants pay network transit, and the reliable channel /
    supervision capabilities are available exactly as for islands.

    The destination subEA re-scalarises every immigrant on arrival (its
    weights differ from the sender's), which is the SIM-specific
    :meth:`_integrate_parcel` override — everything else is the runtime's.
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
        self.n_islands = scenario.n_subeas
        self.demes = self.subeas
        self.config = self.subeas[0].config
        self.schedule = PeriodicSchedule(scenario.migration_interval)
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

    def _after_step(self, i: int) -> None:
        self._archive_population(self.subeas[i].population.individuals)

    def _deme_solved(self, i: int) -> bool:
        return False

    def _integrate_parcel(self, i: int, src: int, migrants) -> None:
        dst_sub = self.subeas[i]
        for m in migrants:
            m.fitness = dst_sub.problem.evaluate(m.genome)
            dst_sub.state.evaluations += 1
        self.migrants_accepted += integrate_immigrants(
            self.rng, dst_sub.population, migrants, self.policy, source=src
        )

    def run(self) -> RunReport:
        self._setup_runtime()
        self.cluster.run()
        return self._sim_report(
            epochs=max(s.state.generation for s in self.subeas),
            stop_reason="max_epochs",
            deme_bests=[s.best_so_far.require_fitness() for s in self.subeas],
            migrants_sent=self.migrants_sent,
            migrants_accepted=self.migrants_accepted,
            **self._runtime_report_fields(),
        )
