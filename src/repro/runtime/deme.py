"""Shared deme runtime: one lifecycle, one timed driver, opt-in resilience.

The taxonomy's models differ in *what* a deme is (a generational engine, a
cellular grid, a scalarized subEA) and *how* demes exchange individuals —
but the driver skeleton is the same everywhere.  This module extracts that
skeleton so every engine in :mod:`repro.parallel` runs on it:

:class:`EpochLoop`
    The untimed lifecycle template.  ``step_epoch`` drives the standard
    ``setup → step → exchange → record`` sequence through four overridable
    hooks, and ``run_epochs`` is the standard driver loop with a
    termination callback.

:class:`TimedDemeRuntime`
    The simulated-cluster driver: one coroutine per deme pinned to a node,
    generations charged in simulated seconds, migrants on the simulated
    network.  This is the machinery PR 3 built for the island model, now
    hoisted so *any* engine inherits it — including the resilience
    capabilities (:class:`~repro.parallel.reliable.ReliableChannel`
    transport, :class:`~repro.parallel.supervisor.IslandSupervisor`
    heartbeat recovery, and :meth:`~repro.cluster.node.Node.finish_time`
    downtime stalls), switched on by the host's keywords.

:func:`emit_generation`
    The single emission path for per-deme ``generation`` trace events, so
    every engine's trace speaks the schema the :mod:`repro.verify`
    invariants audit.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..cluster.sim import Timeout
from ..cluster.trace import Trace
from ..obs.session import current_obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.machine import SimulatedCluster

__all__ = [
    "EpochLoop",
    "TimedDemeRuntime",
    "emit_generation",
]


def emit_generation(
    trace: Trace | None,
    time: float,
    *,
    deme: int,
    generation: int,
    best: float | None,
    **extra,
) -> None:
    """Record one per-deme ``generation`` event on ``trace`` (no-op when
    untraced).  Every engine emits through here, so the event schema the
    streaming invariants consume (``deme``, ``generation``, ``best``) is
    uniform across the whole taxonomy."""
    if trace is None:
        return
    trace.record(time, "generation", deme=deme, generation=generation, best=best, **extra)


class EpochLoop:
    """Standardized untimed deme lifecycle.

    Hosts provide an ``epoch`` counter, ``initialize()``, and the four
    lifecycle hooks; :meth:`step_epoch` sequences them identically for
    every model: ``begin → step → exchange → record``.
    """

    epoch: int

    # -- lifecycle hooks ---------------------------------------------------------
    def _lifecycle_initialized(self) -> bool:
        """Whether :meth:`initialize` has run."""
        raise NotImplementedError

    def _lifecycle_begin(self) -> None:
        """Capture any per-epoch bookkeeping before the demes advance."""

    def _lifecycle_step(self) -> None:
        """Advance every deme one step."""
        raise NotImplementedError

    def _lifecycle_exchange(self) -> None:
        """Exchange individuals between demes (migration / promotion)."""

    def _lifecycle_record(self) -> None:
        """Record per-epoch statistics and trace events."""

    # -- driver ---------------------------------------------------------------------
    def step_epoch(self) -> None:
        """One epoch of the standard lifecycle."""
        if not self._lifecycle_initialized():
            self.initialize()
        self._lifecycle_begin()
        self.epoch += 1
        self._lifecycle_step()
        self._lifecycle_exchange()
        self._lifecycle_record()

    def run_epochs(self, max_epochs: int | None = None, *, done=None) -> None:
        """Drive :meth:`step_epoch` until ``max_epochs`` or ``done()``."""
        if not self._lifecycle_initialized():
            self.initialize()
        while (max_epochs is None or self.epoch < max_epochs) and (
            done is None or not done()
        ):
            self.step_epoch()


class TimedDemeRuntime:
    """Cluster-timed deme driver (one deme coroutine per node).

    A host mixes this in and supplies ``demes`` (evolution engines with
    ``state`` / ``population`` / ``step()``), ``n_islands``, ``topology``,
    ``schedule``, ``policy``, ``rng``, ``problem`` and ``config``, plus the
    three per-deme steps it shares with its untimed driver:
    ``_after_step(i)``, ``_select_parcel(i)`` and
    ``_integrate_parcel(i, src, migrants)``
    (:class:`~repro.parallel.island.IslandModel`'s base defines them).  The
    runtime owns node placement, downtime stalls, migrant transport and
    (opt-in) reliable delivery and supervised recovery.  Demes are
    conventionally called *islands* here after the model that pioneered
    the machinery, but any engine with deme-shaped parts qualifies —
    hybrids and the specialized island model run on the very same code.
    """

    def _init_timed_runtime(
        self,
        cluster: "SimulatedCluster",
        *,
        eval_cost: float,
        migration_payload: float,
        max_epochs: int,
        stop_when_any_solves: bool,
        reliable_migration: bool,
        supervised: bool,
        checkpoint_every: int,
        heartbeat_grace: float | None,
    ) -> None:
        """``reliable_migration`` transports migrants over a
        :class:`~repro.parallel.reliable.ReliableChannel` (sequence
        numbers, acks, backoff retransmission, receiver dedup);
        ``supervised`` adds heartbeat supervision with checkpoint recovery
        onto spare nodes (:class:`~repro.parallel.supervisor.IslandSupervisor`)
        and needs one dedicated supervisor node beyond the demes.  A
        ``heartbeat_grace`` of None means ten expected generation times."""
        n_islands = self.n_islands
        if cluster.n_nodes < n_islands:
            raise ValueError(
                f"cluster has {cluster.n_nodes} nodes for {n_islands} islands"
            )
        if eval_cost <= 0:
            raise ValueError(f"eval_cost must be positive, got {eval_cost}")
        if supervised and cluster.n_nodes < n_islands + 1:
            raise ValueError(
                "supervision needs a dedicated supervisor node: cluster has "
                f"{cluster.n_nodes} nodes for {n_islands} islands + supervisor"
            )
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        self.cluster = cluster
        self.eval_cost = eval_cost
        self.migration_payload = migration_payload
        self.max_epochs = max_epochs
        self.stop_when_any_solves = stop_when_any_solves
        self.reliable_migration = reliable_migration
        self.supervised = supervised
        self.checkpoint_every = checkpoint_every
        if heartbeat_grace is None:
            heartbeat_grace = 10.0 * self.config.population_size * eval_cost
        self.heartbeat_grace = heartbeat_grace
        self._stop = False
        self._channel = None
        self._supervisor = None
        self._obs = None
        # deme placement / liveness bookkeeping (rebuilt by _setup_runtime)
        self._deme_node = list(range(n_islands))
        self._incarnation = [0] * n_islands
        self._deme_done = [False] * n_islands
        self._deme_crashed = [False] * n_islands
        self._routes: list[list[int]] = [
            list(self.topology.neighbors_out(i)) for i in range(n_islands)
        ]

    # -- tunable seams (defaults preserve the island model's behaviour) ----------
    def _step_work(self, i: int, evaluations: int) -> float:
        """Simulated seconds deme ``i`` spends on ``evaluations`` fitness
        evaluations (before node speed).  Engines that farm evaluations
        inside a deme (the SMP-hybrid composition) override this."""
        return evaluations * self.eval_cost

    def _deme_solved(self, i: int) -> bool:
        """Whether deme ``i`` has reached the problem's optimum."""
        return self.problem.is_solved(
            self.demes[i].population.best().require_fitness()
        )

    # -- routing -----------------------------------------------------------------
    def _route_targets(self, i: int) -> list[int]:
        """Current outgoing migration targets of deme ``i``.

        Unsupervised runs read the topology directly (exact legacy
        behaviour); supervised runs read the supervisor-maintained route
        overlay, which splices around abandoned demes.
        """
        if self.supervised:
            return self._routes[i]
        return list(self.topology.neighbors_out(i))

    def _rebuild_routes(self, abandoned: set[int]) -> None:
        """Rewire the migration overlay around ``abandoned`` demes: each
        deme's dead out-neighbours are transitively replaced by *their*
        out-neighbours, so a severed ring contracts to a smaller ring."""
        for j in range(self.n_islands):
            if j in abandoned:
                self._routes[j] = []
                continue
            targets: list[int] = []
            seen = {j}
            frontier = list(self.topology.neighbors_out(j))
            while frontier:
                d = frontier.pop(0)
                if d in seen:
                    continue
                seen.add(d)
                if d in abandoned:
                    frontier.extend(self.topology.neighbors_out(d))
                else:
                    targets.append(d)
            self._routes[j] = targets

    # -- observability -----------------------------------------------------------
    def _obs_track(self, i: int, incarnation: int = 0) -> str:
        """Timeline track of deme ``i``: recovered incarnations get their
        own lane so a deme's pre- and post-crash lifetimes don't overlap."""
        return f"deme-{i}" if incarnation == 0 else f"deme-{i}#inc{incarnation}"

    # -- deme lifecycle -----------------------------------------------------------
    def _record_deme_generation(self, i: int, incarnation: int = 0) -> None:
        deme = self.demes[i]
        assert deme.population is not None
        extra = {"incarnation": incarnation} if self.supervised else {}
        emit_generation(
            self.cluster.trace,
            self.cluster.sim.now,
            deme=i,
            generation=deme.state.generation,
            best=float(deme.population.best().require_fitness()),
            **extra,
        )

    def _busy(self, i: int, incarnation: int, work: float):
        """Charge ``work`` units of compute on deme ``i``'s current node,
        suspending (not losing) progress across repairable downtime.

        Returns True if the deme may carry on; False if the node crashed
        permanently mid-computation or a supervisor recovery fenced this
        incarnation off while it was suspended.
        """
        node = self.cluster.node(self._deme_node[i])
        now = self.cluster.sim.now
        finish = node.finish_time(now, node.compute_time(work))
        if math.isinf(finish):
            self._deme_crashed[i] = True
            return False
        yield Timeout(finish - now)
        return self._incarnation[i] == incarnation

    def _after_generation(self, i: int, incarnation: int) -> None:
        self._record_deme_generation(i, incarnation)
        if self._supervisor is not None:
            self._supervisor.heartbeat(i, incarnation)
            if self.demes[i].state.generation % self.checkpoint_every == 0:
                self._supervisor.checkpoint(i, incarnation)

    def _apply_parcel(self, i: int, item) -> None:
        if self._channel is not None:
            _, src, seq, _ = item
            migrants = self._channel.on_parcel(i, item)
            if migrants is None:
                return  # duplicate, discarded
            self.cluster.record(
                "migrant-apply", src=src, dst=i, seq=seq, count=len(migrants)
            )
        else:
            src, migrants = item
        if self._obs is not None:
            now = self.cluster.sim.now
            self._obs.spans.record(
                "migrate-recv", now, now,
                track=self._obs_track(i, self._incarnation[i]),
                deme=i, src=src, count=len(migrants),
            )
        self._integrate_parcel(i, src, migrants)

    def _send_migrants(self, i: int) -> None:
        for dst in self._route_targets(i):
            migrants = self._select_parcel(i)
            if not migrants:
                continue
            size = self.migration_payload * len(migrants)
            if self._channel is not None:
                self._channel.send(i, dst, migrants, size)
            else:
                self.cluster.send(
                    self._deme_node[i],
                    self._deme_node[dst],
                    self._inboxes[dst],
                    (i, migrants),
                    size=size,
                    kind="migration",
                )
            if self._obs is not None:
                now = self.cluster.sim.now
                self._obs.spans.record(
                    "migrate-send", now, now,
                    track=self._obs_track(i, self._incarnation[i]),
                    deme=i, dst=dst, count=len(migrants),
                )

    def _deme_process(self, i: int, incarnation: int = 0, resume: bool = False):
        deme = self.demes[i]
        inbox = self._inboxes[i]
        obs = self._obs
        track = self._obs_track(i, incarnation)
        if resume:
            # restored from a checkpoint on a spare: announce liveness,
            # then pick the evolution up where the snapshot left it
            self._after_generation(i, incarnation)
        else:
            # initialisation costs one population evaluation
            before = deme.state.evaluations
            deme.initialize()
            self._after_step(i)
            t0 = self.cluster.sim.now
            alive = yield from self._busy(
                i, incarnation, self._step_work(i, deme.state.evaluations - before)
            )
            if not alive:
                return
            if obs is not None:
                obs.spans.record(
                    "evaluate", t0, self.cluster.sim.now, track=track,
                    deme=i, generation=deme.state.generation, phase="init",
                )
            self._after_generation(i, incarnation)
        while deme.state.generation < self.max_epochs and not self._stop:
            frame = (
                obs.spans.begin(
                    "generation", t0=self.cluster.sim.now, track=track,
                    deme=i, generation=deme.state.generation + 1,
                )
                if obs is not None
                else None
            )
            before = deme.state.evaluations
            deme.step()
            self._after_step(i)
            epoch = deme.state.generation
            t0 = self.cluster.sim.now
            alive = yield from self._busy(
                i, incarnation, self._step_work(i, deme.state.evaluations - before)
            )
            if not alive:
                return  # frame left open; the session closes it at export
            if frame is not None:
                obs.spans.record(
                    "evaluate", t0, self.cluster.sim.now, track=track,
                    deme=i, generation=epoch,
                )
            # drain any migrants that arrived while computing
            while len(inbox):
                item = (yield inbox)
                if self._incarnation[i] != incarnation:
                    return
                self._apply_parcel(i, item)
            self._after_generation(i, incarnation)
            if self.schedule.should_migrate(
                i, epoch, self.rng,
                stagnant_generations=deme.state.stagnant_generations,
            ):
                self._send_migrants(i)
            if frame is not None:
                obs.spans.end(frame, self.cluster.sim.now)
            if self._deme_solved(i):
                if self.stop_when_any_solves:
                    self._stop = True
                break
        if self._incarnation[i] == incarnation:
            self._deme_done[i] = True
            self._finish_times[i] = self.cluster.sim.now

    # -- driver setup / teardown ----------------------------------------------------
    def _setup_runtime(self) -> None:
        """Build inboxes, transport, supervision and deme coroutines.

        Order matters for replay stability: the supervisor process is
        created *before* the deme processes, exactly as the island model
        always did.
        """
        from ..parallel.reliable import ReliableChannel
        from ..parallel.supervisor import IslandSupervisor

        n = self.n_islands
        self._obs = current_obs()
        self._inboxes = [self.cluster.inbox(f"deme-{i}") for i in range(n)]
        self._finish_times = [0.0] * n
        self._deme_node = list(range(n))
        self._incarnation = [0] * n
        self._deme_done = [False] * n
        self._deme_crashed = [False] * n
        self._routes = [list(self.topology.neighbors_out(i)) for i in range(n)]
        if self.reliable_migration:
            self._channel = ReliableChannel(
                self.cluster,
                node_of=lambda d: self._deme_node[d],
                inbox_of=lambda d: self._inboxes[d],
                is_stopped=lambda: self._stop,
                is_done=lambda d: self._deme_done[d],
                # a receiver only drains its inbox between generations, so
                # the retransmit timeout must cover that application delay too
                min_rto=2.0 * self.config.population_size * self.eval_cost,
            )
        if self.supervised:
            self._supervisor = IslandSupervisor(
                self,
                node_id=n,
                spares=list(range(n + 1, self.cluster.n_nodes)),
                grace=self.heartbeat_grace,
                # a checkpoint ships a whole population
                snapshot_payload=(
                    self.migration_payload * self.config.population_size
                ),
            )
            self.cluster.sim.process(self._supervisor.process(), name="supervisor")
        self._procs = [
            self.cluster.sim.process(self._deme_process(i), name=f"deme-{i}")
            for i in range(n)
        ]

    def _runtime_report_fields(self) -> dict:
        """The resilience/timing counters every timed report carries."""
        plain = self._channel is None and self._supervisor is None
        return {
            # trailing retransmit/sweep timers outlive the work itself, so
            # protected runs report the last deme completion as wall time
            "sim_time": self.cluster.sim.now if plain else max(self._finish_times),
            "retransmits": self._channel.stats.retransmits if self._channel else 0,
            "dup_discards": self._channel.stats.dup_discards if self._channel else 0,
            "recoveries": self._supervisor.recoveries if self._supervisor else 0,
            "abandoned_demes": (
                len(self._supervisor.abandoned) if self._supervisor else 0
            ),
            "finish_times": list(self._finish_times),
        }
