"""Execution traces of simulated-cluster runs.

Experiments (and tests) introspect what the machine did: when tasks were
dispatched, when nodes died, when migrants crossed the wire.  Logically a
trace is still a flat list of timestamped records with free-form fields —
but it is the hottest shared data structure in the repo (every timed run
of every engine streams through one), so the storage is columnar:

* event *kinds* are interned to small integers; times, kind ids and
  per-event field tuples live in parallel arrays instead of one frozen
  dataclass + dict per event;
* :class:`TraceEvent` objects are rebuilt lazily as views on access, so
  code that reads traces sees the exact old shape;
* a per-kind index list makes :meth:`Trace.of_kind` proportional to the
  matches and :meth:`Trace.count`/:meth:`Trace.kinds` O(1);
* the canonical sha256 digest is maintained *incrementally*:
  :meth:`Trace.record` assembles each event's pinned digest line itself
  (it is the only producer of that line; :mod:`repro.cluster.canon`
  supplies the value canonicaliser) and feeds it to the hash, so
  ``trace_digest(trace)`` finalizes in O(1) instead of re-walking.  The
  post-hoc walker :func:`repro.verify.digest.trace_digest_walk` is the
  independent oracle the golden suite checks it against.

Retention modes bound memory and transport cost (``docs/tracing.md``):

``full``
    keep every event (the library default — post-hoc queries all work);
``compact``
    keep only :data:`COMPACT_KINDS` events (the uniform ``generation``
    progress schema) plus the digest and per-kind counts — the default
    inside sweep workers, so pool children ship summaries over the pipe
    instead of pickling full event lists.

In both modes the digest covers *all* events and ``count``/``kinds``/``len``
stay exact; only post-hoc event queries (``of_kind`` on a discarded kind,
``events``, iteration) raise :class:`TraceRetentionError`.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from .canon import _FLOAT_REPRS, _NAME_ORDERS, _NAME_ORDERS_MAX, _float_repr, _norm

__all__ = [
    "TraceEvent",
    "Trace",
    "TraceRetentionError",
    "RETENTION_MODES",
    "COMPACT_KINDS",
    "trace_retention",
    "default_retention",
]

RETENTION_MODES = ("full", "compact")

#: kinds kept under ``compact`` retention: the uniform per-deme progress
#: schema every engine emits (via :func:`repro.runtime.deme.emit_generation`)
#: and the one kind post-hoc consumers most often read back
COMPACT_KINDS = frozenset({"generation"})

#: how many canonical lines to buffer before one sha256 update call
_FLUSH_EVERY = 256

#: unique sentinel for the per-trace last-time identity cache ("" and None
#: are recordable times, so no recordable value may serve as "unset")
_NO_TIME = object()

_ambient_retention = "full"


def default_retention() -> str:
    """The retention mode newly constructed traces pick up ambiently."""
    return _ambient_retention


def _check_mode(mode: str) -> str:
    if mode not in RETENTION_MODES:
        raise ValueError(f"unknown trace retention {mode!r}; choose from {RETENTION_MODES}")
    return mode


@contextmanager
def trace_retention(mode: str) -> Iterator[None]:
    """Ambient retention default for every :class:`Trace` built inside.

    This is how sweep workers slim their transport without threading a
    parameter through every engine constructor: the worker enters
    ``trace_retention("compact")`` around the trial body, and any cluster
    or logical-engine trace created inside resolves the mode at
    construction time.  Traces that already exist are unaffected.
    """
    global _ambient_retention
    _check_mode(mode)
    previous = _ambient_retention
    _ambient_retention = mode
    try:
        yield
    finally:
        _ambient_retention = previous


class TraceRetentionError(RuntimeError):
    """A query needed events that the trace's retention mode discarded."""


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One timestamped record (a lazily built view over columnar storage)."""

    time: float
    kind: str
    fields: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]


class Trace:
    """Append-only event log over interned columnar storage.

    Invariants are checked post-hoc on the finished trace
    (:func:`repro.verify.invariants.check_trace`).

    ``retention`` defaults to the ambient mode (see :func:`trace_retention`;
    ``full`` unless overridden).
    """

    __slots__ = (
        "retention",
        "_retained",      # kinds stored; None = every kind (full)
        "_kind_ids",      # kind -> interned id
        "_kind_names",    # id -> kind
        "_counts",        # id -> events observed (all modes, exact)
        "_total",
        "_times",         # stored events: parallel columns
        "_kind_col",
        "_names_col",     # interned field-name tuples (kwargs order)
        "_values_col",
        "_by_kind",       # id -> storage positions
        "_name_intern",
        "_sha",
        "_pending",       # canonical lines awaiting one batched sha update
        "_frozen_digest",  # set on unpickled compact traces: digest is final
        "_events_cache",
        "_last_time",     # identity cache: sims emit event bursts at one
        "_last_tn",       # instant, reusing the same float object for `now`
    )

    def __init__(self, retention: str | None = None) -> None:
        self.retention = _check_mode(retention if retention is not None else _ambient_retention)
        self._retained = None if self.retention == "full" else COMPACT_KINDS
        self._kind_ids: dict[str, int] = {}
        self._kind_names: list[str] = []
        self._counts: list[int] = []
        self._total = 0
        self._times: list[float] = []
        self._kind_col: list[int] = []
        self._names_col: list[tuple[str, ...]] = []
        self._values_col: list[tuple[Any, ...]] = []
        self._by_kind: list[list[int]] = []
        self._name_intern: dict[tuple[str, ...], tuple[str, ...]] = {}
        self._sha = hashlib.sha256()
        self._pending: list[str] = []
        self._frozen_digest: str | None = None
        self._events_cache: list[TraceEvent] | None = None
        self._last_time: Any = _NO_TIME
        self._last_tn = ""

    # -- recording ---------------------------------------------------------------
    def record(self, time: float, kind: str, **fields: Any) -> None:
        if self._frozen_digest is not None:
            raise TraceRetentionError(
                f"cannot extend an unpickled {self.retention!r} trace: its "
                "incremental digest state did not survive transport "
                "(re-record into a fresh Trace, or pickle retention='full')"
            )
        kid = self._kind_ids.get(kind)
        if kid is None:
            kid = len(self._kind_names)
            self._kind_ids[kind] = kid
            self._kind_names.append(kind)
            self._counts.append(1)
            self._by_kind.append([])
        else:
            self._counts[kid] += 1
        self._total += 1
        # -- the pinned digest line, assembled inline: this is its only
        # producer (the golden suite pins it against the post-hoc walker,
        # trace_digest_walk).  Inlined because a helper call per event is
        # the difference between ~250k and ~500k ev/s.
        if time is self._last_time:  # identity: -0.0/0.0/NaN can't confuse it
            tn = self._last_tn
        else:
            tt = type(time)
            if tt is float:
                if time:
                    tn = _FLOAT_REPRS.get(time)
                    if tn is None:
                        tn = _float_repr(time)
                else:
                    tn = repr(time)
            elif tt is int or tt is str or tt is bool or time is None:
                tn = repr(time)
            else:
                tn = _norm(time)
            self._last_time = time
            self._last_tn = tn
        if fields:
            names = tuple(fields)
            order = _NAME_ORDERS.get(names)
            if order is None:
                order = tuple((n + "=", n) for n in sorted(names))
                if len(_NAME_ORDERS) < _NAME_ORDERS_MAX:
                    _NAME_ORDERS[names] = order
            parts = []
            append = parts.append
            for prefix, name in order:
                v = fields[name]
                tv = type(v)
                if tv is int:
                    append(prefix + repr(v))
                elif tv is float:
                    if v:
                        r = _FLOAT_REPRS.get(v)
                        append(prefix + (r if r is not None else _float_repr(v)))
                    else:
                        append(prefix + repr(v))
                elif tv is str or tv is bool or v is None:
                    append(prefix + repr(v))
                else:
                    append(prefix + _norm(v))
            line = f"{tn}|{kind}|{','.join(parts)}\n"
        else:
            names = ()
            line = f"{tn}|{kind}|\n"
        pending = self._pending
        pending.append(line)
        if len(pending) >= _FLUSH_EVERY:
            self._sha.update("".join(pending).encode())
            pending.clear()
        retained = self._retained
        if retained is None or kind in retained:
            self._by_kind[kid].append(len(self._times))
            self._times.append(time)
            self._kind_col.append(kid)
            interned = self._name_intern.setdefault(names, names)
            self._names_col.append(interned)
            self._values_col.append(tuple(fields.values()))
            self._events_cache = None

    # -- queries -----------------------------------------------------------------
    def _event_at(self, pos: int) -> TraceEvent:
        names = self._names_col[pos]
        return TraceEvent(
            time=self._times[pos],
            kind=self._kind_names[self._kind_col[pos]],
            fields=dict(zip(names, self._values_col[pos])),
        )

    def of_kind(self, kind: str) -> list[TraceEvent]:
        kid = self._kind_ids.get(kind)
        if kid is None:
            return []
        retained = self._retained
        if retained is not None and kind not in retained:
            raise TraceRetentionError(
                f"retention {self.retention!r} discarded {kind!r} events "
                f"({self._counts[kid]} recorded); use retention='full' "
                "(count()/kinds() stay exact)"
            )
        return [self._event_at(pos) for pos in self._by_kind[kid]]

    def kinds(self) -> set[str]:
        return set(self._kind_ids)

    def count(self, kind: str) -> int:
        kid = self._kind_ids.get(kind)
        return 0 if kid is None else self._counts[kid]

    @property
    def events(self) -> list[TraceEvent]:
        """The full event list, rebuilt lazily (and cached) as views.

        Treat it as read-only: mutating the returned list never feeds the
        digest or the indexes (lint rule 8 rejects direct
        ``.events`` mutation outside ``repro/cluster/``)."""
        if self._retained is not None:
            raise TraceRetentionError(
                f"retention {self.retention!r} discarded the full event stream; "
                "request retention='full' to iterate events "
                "(digest, count() and kinds() stay exact)"
            )
        cache = self._events_cache
        if cache is None:
            cache = self._events_cache = [self._event_at(i) for i in range(len(self._times))]
        return cache

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return self._total

    # -- digest / transport ------------------------------------------------------
    def digest_hex(self) -> str:
        """Finalize the incremental canonical digest (O(1) amortised).

        Recording may continue afterwards: the running hash is not
        consumed, so a later ``digest_hex()`` reflects the longer stream.
        """
        if self._frozen_digest is not None:
            return self._frozen_digest
        pending = self._pending
        if pending:
            self._sha.update("".join(pending).encode())
            pending.clear()
        return self._sha.hexdigest()

    def __getstate__(self) -> dict[str, Any]:
        state = {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in (
                "_sha", "_pending", "_frozen_digest", "_last_time", "_last_tn",
            )
        }
        state["_digest"] = self.digest_hex()
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        if state["retention"] == "full":
            # re-record the stored events: record() rebuilds the columns and
            # the running hash, so the digest keeps extending after unpickling
            Trace.__init__(self, "full")
            kinds = state["_kind_names"]
            for time, kid, names, values in zip(
                state["_times"], state["_kind_col"], state["_names_col"], state["_values_col"]
            ):
                self.record(time, kinds[kid], **dict(zip(names, values)))
            return
        # compact: the events backing the hash are gone — the digest is
        # final and record() refuses further appends
        digest = state.pop("_digest")
        for slot, value in state.items():
            object.__setattr__(self, slot, value)
        self._pending = []
        self._sha = hashlib.sha256()
        self._last_time = _NO_TIME
        self._last_tn = ""
        self._frozen_digest = digest
