"""Span recording: nested simulated-time intervals on named tracks.

A *span* is a closed interval ``[t0, t1]`` of simulated cluster time
attached to a *track* — one lane of the run's timeline, e.g. ``deme-3``,
``slave-2``, ``supervisor``.  Host time is not a span: it is measured
per trial by the sweep (``BENCH_sweep.json``) and per layer by the
suite-wide layer tracer (``BENCH_layers.json``).  Spans on the same
track must nest properly: a child is fully contained in its parent, and
siblings never partially overlap.
That discipline is what makes the phase-resolved derivations in
:mod:`repro.obs.derive` meaningful (summing leaf durations never double
counts) and is machine-checked by :func:`repro.obs.validate.check_spans`.

Two recording styles coexist because the engines need both:

* :meth:`SpanRecorder.begin` / :meth:`SpanRecorder.end` — open a span
  now, close it later.  Natural for coroutine code that learns the end
  time only after yielding to the simulator.
* :meth:`SpanRecorder.record` — record an already-closed interval in one
  call.  Natural for timing models that *compute* a duration (an
  evaluation charged as ``[now, now + cost]``) before any time passes.

This module is dependency-free on purpose: ``repro.cluster`` and
``repro.runtime`` import it, so it must import neither.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["SpanRecord", "SpanHandle", "SpanRecorder"]


@dataclass
class SpanRecord:
    """One completed interval on a track."""

    span_id: int
    parent_id: int | None
    name: str
    track: str
    t0: float
    t1: float
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "track": self.track,
            "t0": self.t0,
            "t1": self.t1,
            "attrs": dict(self.attrs),
        }


@dataclass
class SpanHandle:
    """An open span returned by :meth:`SpanRecorder.begin`."""

    span_id: int
    parent_id: int | None
    name: str
    track: str
    t0: float
    attrs: dict[str, Any]
    closed: bool = False


class SpanRecorder:
    """Collects spans; keeps one open-span stack per track."""

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self._stacks: dict[str, list[SpanHandle]] = {}
        self._next_id = 0

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[SpanRecord]:
        return iter(self.spans)

    def _issue_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _stack(self, track: str) -> list[SpanHandle]:
        return self._stacks.setdefault(track, [])

    def begin(
        self,
        name: str,
        *,
        t0: float,
        track: str = "main",
        **attrs: Any,
    ) -> SpanHandle:
        """Open a span; its parent is the innermost open span on the track."""
        stack = self._stack(track)
        parent = stack[-1].span_id if stack else None
        handle = SpanHandle(
            span_id=self._issue_id(),
            parent_id=parent,
            name=name,
            track=track,
            t0=t0,
            attrs=dict(attrs),
        )
        stack.append(handle)
        return handle

    def end(self, handle: SpanHandle, t1: float) -> SpanRecord | None:
        """Close ``handle`` (and any forgotten children still open inside it)."""
        if handle.closed:
            return None
        stack = self._stack(handle.track)
        # close dangling descendants at the same instant so nesting holds
        while stack and stack[-1] is not handle:
            self._close(stack.pop(), t1)
        if stack and stack[-1] is handle:
            stack.pop()
        return self._close(handle, t1)

    def _close(self, handle: SpanHandle, t1: float) -> SpanRecord:
        handle.closed = True
        record = SpanRecord(
            span_id=handle.span_id,
            parent_id=handle.parent_id,
            name=handle.name,
            track=handle.track,
            t0=handle.t0,
            t1=max(t1, handle.t0),
            attrs=handle.attrs,
        )
        self.spans.append(record)
        return record

    def record(
        self,
        name: str,
        t0: float,
        t1: float,
        *,
        track: str = "main",
        **attrs: Any,
    ) -> SpanRecord:
        """Record an already-closed interval under the innermost open span."""
        stack = self._stack(track)
        parent = stack[-1].span_id if stack else None
        record = SpanRecord(
            span_id=self._issue_id(),
            parent_id=parent,
            name=name,
            track=track,
            t0=t0,
            t1=max(t1, t0),
            attrs=dict(attrs),
        )
        self.spans.append(record)
        return record

    def open_spans(self) -> list[SpanHandle]:
        """All spans begun but not yet ended, any track."""
        return [h for stack in self._stacks.values() for h in stack]

    def close_all(self, t1: float | None = None) -> int:
        """Close every dangling span (crashed coroutines leave them behind).

        Dangling spans are closed at ``t1``, defaulting per track to the
        latest recorded end so a crash does not stretch the timeline.
        """
        closed = 0
        for track, stack in self._stacks.items():
            if not stack:
                continue
            if t1 is None:
                ends = [s.t1 for s in self.spans if s.track == track]
                cut = max(ends) if ends else max(h.t0 for h in stack)
            else:
                cut = t1
            while stack:
                self._close(stack.pop(), cut)
                closed += 1
        return closed
