"""Trace invariants: a small rule engine over :class:`~repro.cluster.trace.Trace`.

Every quantitative claim the repository reproduces rides on the simulated
cluster behaving like an event-driven machine should.  The rules here are
the machine-checkable core of that contract:

``time-monotone``
    Events are recorded in nondecreasing timestamp order — the event heap
    never runs backwards.
``no-dispatch-to-dead-node``
    A ``dispatch`` event never targets a node inside one of its downtime
    intervals; the master must consult its failure detector first.
``message-conservation``
    Every conserved-kind send (``migration`` by default) is answered by
    exactly one matching ``<kind>-recv``, ``<kind>-drop`` or
    ``<kind>-lost`` receipt with the same ``mid`` — no silently lost
    migrants, even on a lossy network.  ``<kind>-dup`` receipts (the
    second copy of a duplicated message) must cite a previously sent mid.
``no-send-while-dead``
    A process never sends from a node inside one of its downtime
    intervals: no ``*-send-while-dead`` receipt appears, and no conserved
    send originates from a down node.
``exactly-once-application``
    A reliable-migration parcel (identified by its ``(src, dst, seq)``
    triple) is applied to the destination deme at most once, whatever the
    network loses, duplicates or the channel retransmits.
``generation-monotone``
    Per-deme generation counters never regress (within one incarnation —
    a supervisor-recovered deme restarts from its checkpointed, older
    generation under a new ``incarnation`` field).
``best-monotone``
    Per-deme recorded best fitness never worsens (per incarnation).  Only
    meaningful for engines whose per-deme best cannot regress, so it is
    *not* part of the default rule set; the run checker
    (:func:`repro.verify.specs.check_spec`) enables it, in the direction
    of the built engine's problem.

Rules are stateful streaming objects: feed events with
:meth:`Rule.observe`, collect end-of-stream violations with
:meth:`Rule.finish`.  :func:`check_trace` drives them over a finished
trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from ..cluster.machine import SimulatedCluster
from ..cluster.trace import Trace, TraceEvent

__all__ = [
    "Violation",
    "CheckContext",
    "Rule",
    "TimeMonotoneRule",
    "NoDispatchToDeadNodeRule",
    "MessageConservationRule",
    "NoSendWhileDeadRule",
    "ExactlyOnceApplicationRule",
    "GenerationMonotoneRule",
    "BestMonotoneRule",
    "INVARIANTS",
    "default_rules",
    "check_trace",
]


@dataclass(frozen=True)
class Violation:
    """One invariant breach, pinned to the event that exposed it."""

    rule: str
    time: float
    message: str
    index: int = -1  # event index in the trace (-1 = end-of-stream check)

    def __str__(self) -> str:
        where = f"event #{self.index}" if self.index >= 0 else "end of trace"
        return f"[{self.rule}] t={self.time:.6g} ({where}): {self.message}"


@dataclass(frozen=True)
class CheckContext:
    """Static facts the rules need beyond the event stream itself.

    Parameters
    ----------
    down_intervals:
        ``[node][k] = (start, end)`` downtime spans, exactly as a
        :class:`~repro.cluster.faults.FaultPlan` stores them.
    conserved_kinds:
        Message kinds whose sends must be matched by receipts.
    maximize:
        Fitness direction for the ``best-monotone`` rule.
    """

    down_intervals: tuple[tuple[tuple[float, float], ...], ...] = ()
    conserved_kinds: tuple[str, ...] = ("migration",)
    maximize: bool = True

    @classmethod
    def from_cluster(cls, cluster: SimulatedCluster, **overrides) -> "CheckContext":
        intervals = tuple(
            tuple((float(a), float(b)) for a, b in node.down_intervals)
            for node in cluster.nodes
        )
        return cls(down_intervals=intervals, **overrides)

    def node_is_down(self, node: int, t: float) -> bool:
        if node >= len(self.down_intervals):
            return False
        return any(a <= t < b for a, b in self.down_intervals[node])


class Rule:
    """Base streaming rule; subclasses override observe/finish."""

    name = "rule"

    def observe(self, index: int, event: TraceEvent, ctx: CheckContext) -> Violation | None:
        return None

    def finish(self, ctx: CheckContext) -> list[Violation]:
        return []


class TimeMonotoneRule(Rule):
    name = "time-monotone"

    def __init__(self) -> None:
        self._last = -math.inf

    def observe(self, index: int, event: TraceEvent, ctx: CheckContext) -> Violation | None:
        if event.time < self._last or math.isnan(event.time):
            return Violation(
                self.name,
                event.time,
                f"timestamp {event.time!r} after {self._last!r}",
                index,
            )
        self._last = event.time
        return None


class NoDispatchToDeadNodeRule(Rule):
    name = "no-dispatch-to-dead-node"

    def observe(self, index: int, event: TraceEvent, ctx: CheckContext) -> Violation | None:
        if event.kind != "dispatch" or "node" not in event.fields:
            return None
        node = int(event["node"])
        if ctx.node_is_down(node, event.time):
            return Violation(
                self.name,
                event.time,
                f"chunk dispatched to node {node} while it is down",
                index,
            )
        return None


class MessageConservationRule(Rule):
    """Each conserved send must pair with exactly one receipt.

    Receipts are ``<kind>-recv`` (delivered), ``<kind>-drop`` (dead
    destination) or ``<kind>-lost`` (lost in flight / blocked at a
    partition cut).  A ``<kind>-dup`` receipt marks the *extra* copy of a
    duplicated message: it does not close the send, but must cite a mid
    that was actually sent.
    """

    name = "message-conservation"

    def __init__(self) -> None:
        self._open: dict[tuple[str, int], tuple[int, float]] = {}  # (kind, mid) -> send
        self._seen: set[tuple[str, int]] = set()

    def observe(self, index: int, event: TraceEvent, ctx: CheckContext) -> Violation | None:
        for kind in ctx.conserved_kinds:
            if event.kind == kind:
                if "mid" not in event.fields:
                    return Violation(
                        self.name, event.time,
                        f"{kind} send without a message id (mid)", index,
                    )
                key = (kind, int(event["mid"]))
                if key in self._seen:
                    return Violation(
                        self.name, event.time,
                        f"duplicate {kind} send mid={key[1]}", index,
                    )
                self._seen.add(key)
                self._open[key] = (index, event.time)
                return None
            if event.kind in (f"{kind}-recv", f"{kind}-drop", f"{kind}-lost"):
                key = (kind, int(event["mid"]))
                if key not in self._open:
                    return Violation(
                        self.name, event.time,
                        f"{event.kind} mid={key[1]} without a matching open send",
                        index,
                    )
                del self._open[key]
                return None
            if event.kind == f"{kind}-dup":
                key = (kind, int(event["mid"]))
                if key not in self._seen:
                    return Violation(
                        self.name, event.time,
                        f"{event.kind} mid={key[1]} duplicates a message that "
                        "was never sent",
                        index,
                    )
                return None
        return None

    def finish(self, ctx: CheckContext) -> list[Violation]:
        return [
            Violation(
                self.name, sent_at,
                f"{kind} send mid={mid} has no receive, drop or loss receipt",
                index,
            )
            for (kind, mid), (index, sent_at) in sorted(self._open.items())
        ]


class NoSendWhileDeadRule(Rule):
    """No process sends from a node that is down at send time."""

    name = "no-send-while-dead"

    def observe(self, index: int, event: TraceEvent, ctx: CheckContext) -> Violation | None:
        if event.kind.endswith("-send-while-dead"):
            return Violation(
                self.name, event.time,
                f"{event.kind}: node {event.fields.get('src')} sent "
                f"{event.kind.removesuffix('-send-while-dead')!r} while down",
                index,
            )
        if event.kind in ctx.conserved_kinds and "src" in event.fields:
            src = int(event["src"])
            if ctx.node_is_down(src, event.time):
                return Violation(
                    self.name, event.time,
                    f"{event.kind} send from node {src} while it is down",
                    index,
                )
        return None


class ExactlyOnceApplicationRule(Rule):
    """A reliable migration parcel is applied to its deme at most once.

    Watches ``migrant-apply`` events carrying a ``seq`` field (the
    reliable channel's per-edge sequence number); unsequenced applications
    (plain fire-and-forget migration) are out of scope.
    """

    name = "exactly-once-application"

    def __init__(self) -> None:
        self._applied: set[tuple[int, int, int]] = set()

    def observe(self, index: int, event: TraceEvent, ctx: CheckContext) -> Violation | None:
        if event.kind != "migrant-apply" or event.fields.get("seq") is None:
            return None
        key = (int(event["src"]), int(event["dst"]), int(event["seq"]))
        if key in self._applied:
            return Violation(
                self.name, event.time,
                f"parcel src={key[0]} dst={key[1]} seq={key[2]} applied twice",
                index,
            )
        self._applied.add(key)
        return None


def _deme_key(event: TraceEvent) -> tuple[int, int]:
    """Monotonicity scope: a supervisor-recovered deme legitimately rewinds
    to its checkpointed state, so each (deme, incarnation) is its own
    monotone sequence."""
    return int(event["deme"]), int(event.fields.get("incarnation", 0))


class GenerationMonotoneRule(Rule):
    name = "generation-monotone"

    def __init__(self) -> None:
        self._last: dict[tuple[int, int], int] = {}

    def observe(self, index: int, event: TraceEvent, ctx: CheckContext) -> Violation | None:
        if event.kind != "generation":
            return None
        key = _deme_key(event)
        gen = int(event["generation"])
        last = self._last.get(key)
        if last is not None and gen < last:
            return Violation(
                self.name, event.time,
                f"deme {key[0]} generation regressed {last} -> {gen}", index,
            )
        self._last[key] = gen
        return None


class BestMonotoneRule(Rule):
    """Recorded per-deme best never worsens (elitist engines only)."""

    name = "best-monotone"

    def __init__(self) -> None:
        self._best: dict[tuple[int, int], float] = {}

    def observe(self, index: int, event: TraceEvent, ctx: CheckContext) -> Violation | None:
        if event.kind != "generation" or event.fields.get("best") is None:
            return None
        deme = _deme_key(event)
        best = float(event["best"])
        last = self._best.get(deme)
        worsened = last is not None and (best < last if ctx.maximize else best > last)
        if worsened:
            return Violation(
                self.name, event.time,
                f"deme {deme[0]} best worsened {last!r} -> {best!r}", index,
            )
        if last is None or (best > last if ctx.maximize else best < last):
            self._best[deme] = best
        return None


#: rule registry: name -> zero-argument factory of a fresh (stateful) rule
INVARIANTS: dict[str, Callable[[], Rule]] = {
    TimeMonotoneRule.name: TimeMonotoneRule,
    NoDispatchToDeadNodeRule.name: NoDispatchToDeadNodeRule,
    MessageConservationRule.name: MessageConservationRule,
    NoSendWhileDeadRule.name: NoSendWhileDeadRule,
    ExactlyOnceApplicationRule.name: ExactlyOnceApplicationRule,
    GenerationMonotoneRule.name: GenerationMonotoneRule,
    BestMonotoneRule.name: BestMonotoneRule,
}

#: rules safe for any engine (best-monotone needs an elitism guarantee)
DEFAULT_RULE_NAMES: tuple[str, ...] = (
    TimeMonotoneRule.name,
    NoDispatchToDeadNodeRule.name,
    MessageConservationRule.name,
    NoSendWhileDeadRule.name,
    ExactlyOnceApplicationRule.name,
    GenerationMonotoneRule.name,
)


def default_rules(names: Iterable[str] | None = None) -> list[Rule]:
    """Fresh rule instances for ``names`` (default: the always-safe set)."""
    chosen = tuple(names) if names is not None else DEFAULT_RULE_NAMES
    unknown = [n for n in chosen if n not in INVARIANTS]
    if unknown:
        raise KeyError(f"unknown invariant(s) {unknown}; choose from {sorted(INVARIANTS)}")
    return [INVARIANTS[n]() for n in chosen]


def check_trace(
    trace: Trace,
    context: CheckContext | None = None,
    rule_names: Iterable[str] | None = None,
) -> list[Violation]:
    """Run fresh rules over a finished trace; returns every violation.

    Iterates the stored event list, so it needs a ``full``-retention trace.
    """
    context = context or CheckContext()
    rules = default_rules(rule_names)
    violations: list[Violation] = []
    for index, event in enumerate(trace):
        for rule in rules:
            v = rule.observe(index, event, context)
            if v is not None:
                violations.append(v)
    for rule in rules:
        violations.extend(rule.finish(context))
    return violations
