"""Coarse-grained (island / distributed) parallel GA.

The model Tanese (1989) and Pettey (1987) pioneered and the survey treats
as the default PGA: "we can split the population into several
sub-populations and run them in the parallel way" with *demes*, *migration*
and a *topology* (survey §1.1).

Two drivers are provided:

:class:`IslandModel`
    Logical driver: demes advance in rounds (synchronous barrier) or with
    stale, buffered migrant delivery (asynchronous).  Measures quality and
    *evaluations to solution* — the machine-independent cost measure of the
    super-linear-speedup literature.

:class:`SimulatedIslandModel`
    Timed driver: each deme is a coroutine pinned to a node of a
    :class:`~repro.cluster.machine.SimulatedCluster`; generations cost
    simulated seconds proportional to evaluations and node speed, and
    migrants ride the simulated network.  Measures *time to solution* for
    speedup tables (E3).  The timed machinery itself lives in
    :class:`~repro.runtime.deme.TimedDemeRuntime` — the island model is
    its reference tenant, not its owner.
"""

from __future__ import annotations

from typing import Sequence, Type

import numpy as np

from ..cluster.machine import SimulatedCluster
from ..cluster.trace import Trace
from ..core.config import GAConfig
from ..core.engine import (
    EvolutionEngine,
    GenerationalEngine,
    SteadyStateEngine,
)
from ..core.individual import Individual, best_of
from ..core.problem import Problem
from ..core.rng import spawn_rngs
from ..core.termination import EvolutionState, MaxGenerations, Termination
from ..migration.policy import MigrationPolicy, integrate_immigrants, select_migrants
from ..migration.schedule import MigrationSchedule, PeriodicSchedule
from ..migration.synchrony import MigrationBuffer, Synchrony
from ..runtime.deme import (
    EpochLoop,
    RuntimeCapabilities,
    TimedDemeRuntime,
    emit_generation,
)
from ..topology.dynamic import DynamicTopology
from ..topology.static import RingTopology, Topology
from .base import EpochRecord, ParallelEngine, RunReport
from .classification import (
    GrainModel,
    ModelClassification,
    ParallelismKind,
    ProgrammingModel,
    WalkStrategy,
)

__all__ = ["IslandModel", "SimulatedIslandModel", "EpochRecord", "engine_class_by_name"]


def engine_class_by_name(name: str) -> Type[EvolutionEngine]:
    """Resolve Alba & Troya's reproduction-loop names to engine classes.

    ``"generational"`` | ``"steady-state"`` — the cellular loop is a model
    of its own (:mod:`repro.parallel.cellular`) and plugs in via
    :class:`~repro.parallel.hybrid.CellularIslandModel`.
    """
    name = name.lower()
    if name == "generational":
        return GenerationalEngine
    if name == "steady-state":
        return SteadyStateEngine
    raise ValueError(f"unknown engine name {name!r}")


class _IslandBase(ParallelEngine):
    """Deme construction and migration bookkeeping shared by both drivers."""

    classification = ModelClassification(
        grain=GrainModel.COARSE_GRAINED,
        walk=WalkStrategy.MULTIPLE,
        parallelism=ParallelismKind.CONTROL,
        programming=ProgrammingModel.DISTRIBUTED,
    )

    def __init__(
        self,
        problem: Problem,
        n_islands: int,
        config: GAConfig | None = None,
        *,
        topology: Topology | None = None,
        policy: MigrationPolicy | None = None,
        schedule: MigrationSchedule | None = None,
        synchrony: Synchrony | None = None,
        engine: str | Type[EvolutionEngine] = "generational",
        seed: int | None = None,
        trace: Trace | None = None,
    ) -> None:
        if n_islands < 1:
            raise ValueError(f"need >= 1 island, got {n_islands}")
        self.problem = problem
        self.trace = trace
        self.n_islands = n_islands
        self.config = (config or GAConfig()).resolved_for(problem.spec)
        self.topology = topology or RingTopology(n_islands)
        if self.topology.size != n_islands:
            raise ValueError(
                f"topology size {self.topology.size} != n_islands {n_islands}"
            )
        self.policy = policy or MigrationPolicy()
        self.schedule = schedule or PeriodicSchedule(5)
        self.synchrony = synchrony or Synchrony(synchronous=True)
        engine_cls = engine_class_by_name(engine) if isinstance(engine, str) else engine
        rngs = spawn_rngs(seed, n_islands + 1)
        self.rng = rngs[-1]  # model-level randomness (schedules etc.)
        self.demes: list[EvolutionEngine] = [
            engine_cls(problem, self.config, seed=rngs[i]) for i in range(n_islands)
        ]
        self.buffers: list[MigrationBuffer] = [
            self.synchrony.make_buffer() for _ in range(n_islands)
        ]
        self.migrants_sent = 0
        self.migrants_accepted = 0
        self.records: list[EpochRecord] = []
        self.epoch = 0

    @classmethod
    def partitioned(
        cls,
        problem: Problem,
        total_population: int,
        n_islands: int,
        config: GAConfig | None = None,
        **kwargs,
    ):
        """Split one global population of ``total_population`` evenly across
        ``n_islands`` demes — the constant-total-cost setting speedup
        studies require."""
        per_deme = total_population // n_islands
        if per_deme < 2:
            raise ValueError(
                f"{total_population} individuals cannot fill {n_islands} demes "
                "with >= 2 each"
            )
        cfg = (config or GAConfig()).with_population_size(per_deme)
        return cls(problem, n_islands, cfg, **kwargs)

    # -- migration plumbing ------------------------------------------------------
    def _emigrate(self, deme_idx: int, now: int) -> None:
        """Send one parcel per outgoing link from deme ``deme_idx``."""
        targets = self.topology.neighbors_out(deme_idx)
        if not targets or self.policy.rate == 0:
            return
        deme = self.demes[deme_idx]
        assert deme.population is not None
        for dst in targets:
            migrants = select_migrants(self.rng, deme.population, self.policy)
            if not self.policy.copy:
                # emigrants genuinely leave: remove them from home deme by
                # resampling replacements (keeps deme size constant)
                for m in migrants:
                    idx = next(
                        i for i, ind in enumerate(deme.population.individuals)
                        if ind.uid == m.uid or np.array_equal(ind.genome, m.genome)
                    )
                    fresh_genome = self.problem.spec.sample(self.rng)
                    fresh = Individual(genome=fresh_genome, origin="refill")
                    fresh.fitness = self.problem.evaluate(fresh_genome)
                    deme.state.evaluations += 1
                    deme.population.individuals[idx] = fresh
            self.buffers[dst].post(migrants, source=deme_idx, sent_at=now)
            self.migrants_sent += len(migrants)

    def _immigrate(self, deme_idx: int, now: int) -> int:
        """Drain deme ``deme_idx``'s mailbox and integrate arrivals."""
        deme = self.demes[deme_idx]
        assert deme.population is not None
        accepted = 0
        for source, migrants in self.buffers[deme_idx].collect(now):
            accepted += integrate_immigrants(
                self.rng, deme.population, migrants, self.policy, source=source
            )
        self.migrants_accepted += accepted
        return accepted

    # -- global state ---------------------------------------------------------------
    def global_best(self) -> Individual:
        bests = [d.best_so_far for d in self.demes if d.population is not None]
        if not bests:
            raise RuntimeError("no deme has been initialised")
        return best_of(bests, self.problem.maximize)

    def total_evaluations(self) -> int:
        return sum(d.state.evaluations for d in self.demes)

    def deme_bests(self) -> list[float]:
        return [
            d.population.best().require_fitness()
            for d in self.demes
            if d.population is not None
        ]

    def _solved(self) -> bool:
        try:
            return self.problem.is_solved(self.global_best().require_fitness())
        except RuntimeError:
            return False

    def _record_epoch(self, sent_before: int, accepted_before: int) -> None:
        deme_bests = self.deme_bests()
        self.records.append(
            EpochRecord(
                epoch=self.epoch,
                evaluations=self.total_evaluations(),
                global_best=self.global_best().require_fitness(),
                deme_bests=deme_bests,
                migrants_sent=self.migrants_sent - sent_before,
                migrants_accepted=self.migrants_accepted - accepted_before,
            )
        )
        for i, best in enumerate(deme_bests):
            emit_generation(
                self.trace,
                float(self.epoch),
                deme=i,
                generation=self.demes[i].state.generation,
                best=float(best),
            )

    def _advance_topology(self) -> None:
        if isinstance(self.topology, DynamicTopology):
            self.topology.advance()


class IslandModel(EpochLoop, _IslandBase):
    """Logical (untimed) island driver: rounds of step + migrate.

    In synchronous mode every deme completes generation *g* before any
    migrant from generation *g* is delivered (barrier semantics).  In
    asynchronous mode parcels carry ``synchrony.delay`` epochs of staleness
    and demes may skip steps (heterogeneous progress) via ``step_prob``.
    """

    engine_name = "island"

    def __init__(self, *args, step_prob: float | Sequence[float] = 1.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        probs = np.broadcast_to(np.asarray(step_prob, dtype=float), (self.n_islands,))
        if np.any(probs <= 0) or np.any(probs > 1):
            raise ValueError("step_prob values must be in (0, 1]")
        if self.synchrony.synchronous and not np.all(probs == 1.0):
            raise ValueError("synchronous islands cannot have step_prob < 1")
        self.step_prob = probs.copy()

    def initialize(self) -> None:
        for deme in self.demes:
            deme.initialize()

    # -- standard lifecycle (one round: step, migrate, integrate, record) --------
    def _lifecycle_initialized(self) -> bool:
        return self.demes[0].population is not None

    def _lifecycle_begin(self) -> None:
        self._sent_before = self.migrants_sent
        self._accepted_before = self.migrants_accepted

    def _lifecycle_step(self) -> None:
        self._stepped = [
            self.step_prob[i] >= 1.0 or self.rng.random() < self.step_prob[i]
            for i in range(self.n_islands)
        ]
        for i, deme in enumerate(self.demes):
            if self._stepped[i]:
                deme.step()

    def _lifecycle_exchange(self) -> None:
        for i, deme in enumerate(self.demes):
            if self._stepped[i] and self.schedule.should_migrate(
                i,
                self.epoch,
                self.rng,
                stagnant_generations=deme.state.stagnant_generations,
            ):
                self._emigrate(i, now=self.epoch)
        for i in range(self.n_islands):
            self._immigrate(i, now=self.epoch)
        self._advance_topology()

    def _lifecycle_record(self) -> None:
        self._record_epoch(self._sent_before, self._accepted_before)

    def run(self, termination: Termination | int | None = None) -> RunReport:
        if termination is None:
            termination = MaxGenerations(100)
        elif isinstance(termination, int):
            termination = MaxGenerations(termination)
        self.run_epochs(
            done=lambda: termination.should_stop(self._global_state()) or self._solved()
        )
        solved = self._solved()
        best = self.global_best()
        return self._report(
            best=best.copy(),
            evaluations=self.total_evaluations(),
            epochs=self.epoch,
            solved=solved,
            stop_reason="solved" if solved else termination.reason(),
            deme_bests=self.deme_bests(),
            records=self.records,
            migrants_sent=self.migrants_sent,
            migrants_accepted=self.migrants_accepted,
        )

    def _global_state(self) -> EvolutionState:
        best = self.global_best().require_fitness() if self.epoch >= 0 else None
        return EvolutionState(
            generation=self.epoch,
            evaluations=self.total_evaluations(),
            best_fitness=best,
            maximize=self.problem.maximize,
        )


class SimulatedIslandModel(TimedDemeRuntime, _IslandBase):
    """Cluster-timed island driver (one deme coroutine per node).

    Parameters
    ----------
    cluster:
        The simulated machine; must have >= ``n_islands`` nodes.  Deme *i*
        starts on node *i*; its generation time is
        ``evaluations_in_step * eval_cost / node.speed``, and downtime on
        the node *suspends* the computation until the node repairs (a
        permanent crash silences the deme for good).
    eval_cost:
        Simulated seconds of work per fitness evaluation on a speed-1 node.
    migration_payload:
        Simulated message size per migrant (drives bandwidth cost).
    stop_when_any_solves:
        Default True: the whole ensemble stops once any deme reaches the
        optimum (time-to-first-solution studies).  False: each deme runs
        until *it* solves or epochs exhaust (ensemble-resilience studies,
        where the question is how many demes deliver).
    reliable_migration:
        Opt-in :class:`~repro.parallel.reliable.ReliableChannel` transport
        for migrants: sequence numbers, acks, backoff retransmission and
        receiver dedup — at-least-once delivery, exactly-once application.
        Off by default; the default wire behaviour (and trace) is exactly
        the fire-and-forget driver's.
    supervised:
        Opt-in heartbeat supervision and checkpoint recovery (see
        :class:`~repro.parallel.supervisor.IslandSupervisor`).  Requires a
        cluster with at least ``n_islands + 1`` nodes: node ``n_islands``
        hosts the supervisor and any nodes beyond it are recovery spares.
    checkpoint_every:
        Generations between checkpoint shipments when supervised.
    heartbeat_grace:
        Silence threshold before the supervisor intervenes; default is
        ten expected generation times.
    """

    engine_name = "sim-island"

    def __init__(
        self,
        problem: Problem,
        n_islands: int,
        config: GAConfig | None = None,
        *,
        cluster: SimulatedCluster | None = None,
        eval_cost: float = 1e-3,
        migration_payload: float = 100.0,
        max_epochs: int = 100,
        stop_when_any_solves: bool = True,
        reliable_migration: bool = False,
        rto_factor: float = 3.0,
        max_retransmits: int = 8,
        supervised: bool = False,
        checkpoint_every: int = 5,
        heartbeat_grace: float | None = None,
        **kwargs,
    ) -> None:
        super().__init__(problem, n_islands, config, **kwargs)
        self._init_timed_runtime(
            cluster or SimulatedCluster(n_islands),
            eval_cost=eval_cost,
            migration_payload=migration_payload,
            max_epochs=max_epochs,
            stop_when_any_solves=stop_when_any_solves,
            capabilities=RuntimeCapabilities(
                reliable=reliable_migration,
                rto_factor=rto_factor,
                max_retransmits=max_retransmits,
                supervised=supervised,
                checkpoint_every=checkpoint_every,
                heartbeat_grace=heartbeat_grace,
            ),
        )

    def run(self) -> RunReport:
        """Simulate until some deme solves the problem or epochs exhaust."""
        self._setup_runtime()
        self.cluster.run()
        solved = self._solved()
        best = self.global_best()
        return self._report(
            best=best.copy(),
            evaluations=self.total_evaluations(),
            epochs=max(d.state.generation for d in self.demes),
            solved=solved,
            stop_reason="solved" if solved else "max_epochs",
            deme_bests=self.deme_bests(),
            records=self.records,
            migrants_sent=self.migrants_sent,
            migrants_accepted=self.migrants_accepted,
            **self._runtime_report_fields(),
        )
