"""Reliable migration transport over the lossy simulated network.

The plain island driver fires migrants at its neighbours and forgets
them; on the "conventional LAN" of the coarse-grained chapter that means
lost parcels simply never arrive, duplicated parcels are applied twice
and a mid-run partition starves every cross-cut edge.  This module adds
the classic end-to-end remedy on top of :class:`~repro.cluster.machine.
SimulatedCluster`'s unreliable ``send``:

* per-directed-edge **sequence numbers** on every parcel,
* receiver **acks** for every parcel that arrives (including duplicates),
* sender-side **timeout + exponential-backoff retransmission** until the
  ack lands or a retry budget is exhausted,
* receiver-side **dedup** keyed by ``(src, dst, seq)``.

Together: *at-least-once delivery* on the wire, *exactly-once
application* of migrants — the property the ``exactly-once-application``
trace invariant audits.  All timers run on the simulation clock, so a
run with a given fault plan and seed is exactly replayable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from ..cluster.machine import SimulatedCluster
from ..cluster.sim import Inbox

__all__ = ["CallbackSink", "ChannelStats", "ReliableChannel"]

#: message kind of a parcel on the wire (its ack is ``"migration-ack"``)
KIND = "migration"
ACK_KIND = f"{KIND}-ack"
#: simulated size of an ack message
ACK_PAYLOAD = 8.0
#: retransmit timeout = ``RTO_FACTOR x`` the expected round trip at
#: transmission time (floored at ``min_rto``), times ``BACKOFF**attempt``
RTO_FACTOR = 3.0
BACKOFF = 2.0
#: retry budget per parcel before the sender gives up (the receiver may
#: be permanently dead; at-least-once cannot beat that)
MAX_RETRANSMITS = 8


class CallbackSink:
    """Inbox-compatible delivery target that invokes a callback instead of
    queueing.  Control traffic (acks, heartbeats, checkpoints) is handled
    the moment it arrives — no coroutine blocks on it — while still riding
    :meth:`SimulatedCluster.send` so it pays transit and appears in the
    message-conservation ledger."""

    def __init__(self, fn: Callable[[Any], None]) -> None:
        self._fn = fn

    def put(self, item: Any) -> None:
        self._fn(item)


@dataclass
class ChannelStats:
    """Counters the reliable channel accumulates over one run."""

    sent: int = 0          # distinct parcels handed to the channel
    retransmits: int = 0   # extra wire transmissions beyond the first
    acks: int = 0          # acks that closed an open parcel
    dup_discards: int = 0  # receiver-side duplicate parcels discarded
    abandoned: int = 0     # parcels given up (retry budget / dead sender)


class ReliableChannel:
    """At-least-once parcel delivery with exactly-once application.

    Parameters
    ----------
    cluster:
        The simulated machine whose (lossy) ``send`` carries the traffic.
    node_of:
        ``deme index -> node id`` mapping, consulted at every
        (re)transmission so supervised recovery can move a deme to a
        spare node mid-run.
    inbox_of:
        ``deme index -> Inbox`` for parcel delivery.
    is_stopped:
        Polled by retransmit timers; once true the channel stops
        retransmitting so a finished run's event queue can drain.
    is_done:
        ``deme index -> bool``: whether that deme has finished its run.
        A finished deme never drains its inbox again, so parcels to it
        are dropped instead of retried (they would only churn the event
        queue until the retry budget ran out).
    min_rto:
        Floor on the retransmit timeout.  The wire round trip ignores
        *application* delay — a deme only drains its inbox between
        generations — so callers should set this to a couple of
        generation times or every parcel in a busy deme's inbox gets
        spuriously retransmitted.

    The timeout's factor and backoff and the retry budget are the module
    constants ``RTO_FACTOR``, ``BACKOFF`` and ``MAX_RETRANSMITS``.
    """

    def __init__(
        self,
        cluster: SimulatedCluster,
        *,
        node_of: Callable[[int], int],
        inbox_of: Callable[[int], Inbox],
        is_stopped: Callable[[], bool] = lambda: False,
        is_done: Callable[[int], bool] = lambda d: False,
        min_rto: float = 0.0,
    ) -> None:
        self.cluster = cluster
        self.min_rto = min_rto
        self._node_of = node_of
        self._inbox_of = inbox_of
        self._stopped = is_stopped
        self._done = is_done
        self._ack_sink = CallbackSink(self._on_ack)
        self._next_seq: dict[tuple[int, int], int] = {}
        #: (src, dst, seq) -> (payload, size) awaiting an ack
        self._unacked: dict[tuple[int, int, int], tuple[Any, float]] = {}
        #: (src, dst, seq) triples already applied at the receiver
        self._applied: set[tuple[int, int, int]] = set()
        self.stats = ChannelStats()

    # -- sender side -----------------------------------------------------------
    def send(self, src: int, dst: int, payload: Any, size: float) -> None:
        """Hand one parcel to the channel; it is delivered (and applied)
        at most once, retransmitting as needed."""
        seq = self._next_seq.get((src, dst), 0)
        self._next_seq[(src, dst)] = seq + 1
        self._unacked[(src, dst, seq)] = (payload, size)
        self.stats.sent += 1
        self._transmit(src, dst, seq, attempt=0)

    def _transmit(self, src: int, dst: int, seq: int, attempt: int) -> None:
        payload, size = self._unacked[(src, dst, seq)]
        src_node, dst_node = self._node_of(src), self._node_of(dst)
        self.cluster.send(
            src_node,
            dst_node,
            self._inbox_of(dst),
            (KIND, src, seq, payload),
            size=size,
            kind=KIND,
        )
        round_trip = self.cluster.transit_time(
            src_node, dst_node, size
        ) + self.cluster.transit_time(dst_node, src_node, ACK_PAYLOAD)
        rto = max(round_trip * RTO_FACTOR, self.min_rto, 1e-9) * BACKOFF**attempt
        self.cluster.sim.call_later(rto, self._check, src, dst, seq, attempt)

    def _check(self, src: int, dst: int, seq: int, attempt: int) -> None:
        """Retransmit timer: fire again unless acked / stopped / exhausted."""
        key = (src, dst, seq)
        if key not in self._unacked or self._stopped():
            return
        if self._done(dst):
            # the receiver finished its run; nobody will ever drain this
            # parcel, so retrying cannot converge — drop it quietly
            del self._unacked[key]
            return
        if attempt >= MAX_RETRANSMITS:
            del self._unacked[key]
            self.stats.abandoned += 1
            self.cluster.record(
                f"{KIND}-abandoned", src=src, dst=dst, seq=seq
            )
            return
        node = self.cluster.node(self._node_of(src))
        now = self.cluster.sim.now
        if not node.is_up(now):
            # a dead node cannot transmit; wait out a repairable outage,
            # give up on a permanent crash (a supervisor-recovered
            # incarnation re-emigrates with fresh sequence numbers)
            wake = node.next_up_time(now)
            if math.isinf(wake):
                del self._unacked[key]
                self.stats.abandoned += 1
                self.cluster.record(
                    f"{KIND}-abandoned", src=src, dst=dst, seq=seq
                )
                return
            self.cluster.sim.call_later(wake - now, self._check, src, dst, seq, attempt)
            return
        self.stats.retransmits += 1
        self._transmit(src, dst, seq, attempt + 1)

    def _on_ack(self, item: Any) -> None:
        _, src, dst, seq = item
        if self._unacked.pop((src, dst, seq), None) is not None:
            self.stats.acks += 1

    # -- receiver side ---------------------------------------------------------
    def on_parcel(self, dst: int, item: Any) -> Any | None:
        """Process a parcel drained from deme ``dst``'s inbox.

        Always acks (the previous ack may have been lost — re-acking is
        what makes retransmission converge); returns the payload exactly
        once per ``(src, dst, seq)`` and ``None`` for duplicates.
        """
        _, src, seq, payload = item
        src_node, dst_node = self._node_of(src), self._node_of(dst)
        self.cluster.send(
            dst_node,
            src_node,
            self._ack_sink,
            (ACK_KIND, src, dst, seq),
            size=ACK_PAYLOAD,
            kind=ACK_KIND,
        )
        key = (src, dst, seq)
        if key in self._applied:
            self.stats.dup_discards += 1
            self.cluster.record(
                f"{KIND}-dedup", src=src, dst=dst, seq=seq
            )
            return None
        self._applied.add(key)
        return payload
