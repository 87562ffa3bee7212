"""Heartbeat supervision and checkpoint recovery for simulated islands.

Gagné et al.'s *robustness* requirement, applied to the coarse-grained
model: a deme pinned to a workstation that crashes should not silently
vanish from the ensemble.  The supervisor realises the standard recipe —

* every deme sends a small **heartbeat** to the supervisor node after
  each generation, and ships a full **checkpoint**
  (:class:`~repro.core.checkpoint.EngineSnapshot`) every few generations;
* the supervisor sweeps on a timer and declares a deme *silent* once no
  heartbeat has arrived for a **grace period**;
* a silent deme with a checkpoint is **recovered**: its snapshot is
  shipped to a spare node (paying realistic transfer time on the
  simulated network), restored, and resumed under a bumped
  ``incarnation`` number that *fences off* the old coroutine — if the
  "dead" deme was merely partitioned away and comes back, its stale
  incarnation notices and exits instead of split-braining the ensemble;
* a silent deme with no checkpoint (or no spare left) is **abandoned**
  and the migration topology is **rewired around it**, splicing its
  in-neighbours to its out-neighbours so a severed ring degrades to a
  smaller ring instead of starving.

An abandoned deme that turns out to be alive (its heartbeats resume
after a partition heals) **rejoins**: routes are rebuilt with it back in.

Everything — timers, transfers, detection — runs on the simulation
clock, so supervised runs are exactly as replayable as plain ones.  The
supervisor node and its spares must be failure-free in the fault plan
(``sample_fault_plan(spare_nodes=...)``): a recovery service that dies
with its wards models nothing useful.
"""

from __future__ import annotations

import math

from ..cluster.sim import Timeout
from ..core.checkpoint import EngineSnapshot, restore_engine, snapshot_engine
from .reliable import CallbackSink

__all__ = ["IslandSupervisor"]

#: simulated size of one heartbeat message
HEARTBEAT_PAYLOAD = 4.0


class IslandSupervisor:
    """Failure detector + recovery manager for a ``SimulatedIslandModel``.

    Parameters
    ----------
    model:
        The owning island model (provides demes, inboxes, routes,
        incarnations and the cluster).
    node_id:
        The supervisor's own (failure-free) node.
    spares:
        Failure-free standby nodes consumed one per recovery.
    grace:
        Silence threshold in simulated seconds; must exceed the slowest
        deme's per-generation time or healthy demes get "recovered"
        (safe thanks to fencing, but wasteful).  The detector timer
        sweeps every ``grace / 4``.
    snapshot_payload:
        Simulated checkpoint size (a whole population); a heartbeat costs
        ``HEARTBEAT_PAYLOAD``.
    """

    def __init__(
        self,
        model,
        *,
        node_id: int,
        spares: list[int],
        grace: float,
        snapshot_payload: float = 1.0,
    ) -> None:
        if grace <= 0:
            raise ValueError(f"grace must be positive, got {grace}")
        self.model = model
        self.node_id = node_id
        self.spares = list(spares)
        self.grace = grace
        self.snapshot_payload = snapshot_payload
        self.sink = CallbackSink(self._on_message)
        self._last_seen: dict[int, float] = {}
        self._snapshots: dict[int, EngineSnapshot] = {}
        #: deme -> (spare node, incarnation) of an in-flight restore
        self._pending: dict[int, tuple[int, int]] = {}
        self.abandoned: set[int] = set()
        self.recoveries = 0
        #: deme -> open observability span for an in-flight recovery
        self._recover_spans: dict[int, object] = {}

    # -- deme-side hooks (called from deme coroutines) -------------------------
    def heartbeat(self, deme: int, incarnation: int) -> None:
        model = self.model
        model.cluster.send(
            model._deme_node[deme],
            self.node_id,
            self.sink,
            ("hb", deme, incarnation, model.demes[deme].state.generation),
            size=HEARTBEAT_PAYLOAD,
            kind="heartbeat",
        )

    def checkpoint(self, deme: int, incarnation: int) -> None:
        model = self.model
        snap = snapshot_engine(model.demes[deme])
        model.cluster.send(
            model._deme_node[deme],
            self.node_id,
            self.sink,
            ("ckpt", deme, incarnation, snap),
            size=self.snapshot_payload,
            kind="checkpoint",
        )

    # -- supervisor process ----------------------------------------------------
    def process(self):
        """Detector coroutine: periodic sweep until the ensemble settles."""
        model = self.model
        sim = model.cluster.sim
        for i in range(model.n_islands):
            self._last_seen[i] = sim.now  # full grace from the start
        while not model._stop and not self._settled():
            yield Timeout(self.grace / 4.0)
            if model._stop:
                break
            now = sim.now
            for i in range(model.n_islands):
                if (
                    model._deme_done[i]
                    or i in self.abandoned
                    or now - self._last_seen[i] <= self.grace
                ):
                    continue
                self._handle_silent(i)

    def _settled(self) -> bool:
        return all(
            self.model._deme_done[i] or i in self.abandoned
            for i in range(self.model.n_islands)
        )

    # -- message handling (delivered via the sink, no coroutine) ---------------
    def _on_message(self, item) -> None:
        tag, deme, incarnation = item[0], item[1], item[2]
        if incarnation != self.model._incarnation[deme]:
            return  # stale incarnation: fenced off
        self._last_seen[deme] = self.model.cluster.sim.now
        if tag == "ckpt":
            self._snapshots[deme] = item[3]
        elif tag == "hb" and deme in self.abandoned:
            # a partitioned-away deme proved it is alive after all
            self.abandoned.discard(deme)
            self.model._rebuild_routes(self.abandoned)
            self.model.cluster.record("deme-rejoined", deme=deme)

    # -- detection and recovery ------------------------------------------------
    def _handle_silent(self, deme: int) -> None:
        model = self.model
        if deme in self._pending:
            # the restore itself may have been lost; re-ship, paced by the
            # grace period rather than every sweep
            self._last_seen[deme] = model.cluster.sim.now
            self._ship(deme)
            return
        snap = self._snapshots.get(deme)
        if snap is None:
            self._abandon(deme, reason="no-checkpoint")
            return
        spare = self._take_spare()
        if spare is None:
            self._abandon(deme, reason="no-spare")
            return
        incarnation = model._incarnation[deme] + 1
        model._incarnation[deme] = incarnation  # fence the old coroutine now
        model._deme_node[deme] = spare
        self._pending[deme] = (spare, incarnation)
        self._last_seen[deme] = model.cluster.sim.now  # clock the restore
        model.cluster.record(
            "recovery-start",
            deme=deme,
            node=spare,
            incarnation=incarnation,
            generation=snap.generation,
        )
        obs = getattr(model, "_obs", None)
        if obs is not None:
            now = model.cluster.sim.now
            stale = self._recover_spans.pop(deme, None)
            if stale is not None:
                obs.spans.end(stale, now)
            self._recover_spans[deme] = obs.spans.begin(
                "recover", t0=now, track=f"supervisor/deme-{deme}",
                deme=deme, node=spare, incarnation=incarnation,
            )
        self._ship(deme)

    def _take_spare(self) -> int | None:
        now = self.model.cluster.sim.now
        for idx, node in enumerate(self.spares):
            if self.model.cluster.node(node).is_up(now):
                return self.spares.pop(idx)
        return None

    def _ship(self, deme: int) -> None:
        """Send the checkpoint to the spare; delivery starts the new
        incarnation (the transfer pays network time and may be lost —
        the next silent sweep re-ships it)."""
        spare, incarnation = self._pending[deme]
        snap = self._snapshots[deme]
        self.model.cluster.send(
            self.node_id,
            spare,
            CallbackSink(lambda _item, d=deme: self._on_restored(d)),
            ("restore", deme, incarnation, snap),
            size=self.snapshot_payload,
            kind="restore",
        )

    def _on_restored(self, deme: int) -> None:
        model = self.model
        pending = self._pending.pop(deme, None)
        if pending is None:
            return
        spare, incarnation = pending
        if incarnation != model._incarnation[deme]:
            return
        snap = self._snapshots[deme]
        restore_engine(model.demes[deme], snap)
        self._last_seen[deme] = model.cluster.sim.now
        self.recoveries += 1
        model.cluster.record(
            "recovery",
            deme=deme,
            node=spare,
            incarnation=incarnation,
            generation=snap.generation,
        )
        obs = getattr(model, "_obs", None)
        if obs is not None:
            handle = self._recover_spans.pop(deme, None)
            if handle is not None:
                obs.spans.end(handle, model.cluster.sim.now)
        model.cluster.sim.process(
            model._deme_process(deme, incarnation=incarnation, resume=True),
            name=f"deme-{deme}-inc{incarnation}",
        )

    def _abandon(self, deme: int, reason: str) -> None:
        self.abandoned.add(deme)
        self.model._rebuild_routes(self.abandoned)
        self.model.cluster.record("deme-abandoned", deme=deme, reason=reason)
