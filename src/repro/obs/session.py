"""Ambient observability sessions — off by default, zero work when off.

The whole subsystem hangs off one module-level slot.  With no session
active, :func:`current_obs` returns ``None`` and every instrumentation
site in the engines is a single attribute-load-and-branch; the hot
simulator loop checks once per :meth:`Simulator.run` call, not per
event.  Enabling is one context manager::

    with obs_session(label="e03") as session:
        report = model.run()
    write_timeline(session, "out.json")

Sessions do not nest by accident: entering a new session *replaces* the
ambient one and restores it on exit, which is exactly what the sweep
driver wants — each forked trial opens its own child session, exports
it, and the parent merges the children under per-trial track prefixes
(:meth:`ObsSession.merge_child`).

Instrumented code records spans via ``session.spans``; engines
additionally push one line per finished run (:meth:`ObsSession.note_run`)
so a timeline knows which reports it covers.  A session keeps no
counters of its own: every count has one owner (a process counter,
``PoolStats``, the sweep telemetry or a ``RunReport`` field) and a run
note copies the report's counter fields by name.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterable, Iterator

from .spans import SpanRecord, SpanRecorder

__all__ = ["ObsSession", "current_obs", "obs_enabled", "obs_session"]

_ACTIVE: "ObsSession | None" = None


class ObsSession:
    """One enabled observability window: spans + run notes."""

    def __init__(self, label: str = "obs") -> None:
        self.label = label
        self.spans = SpanRecorder()
        self.runs: list[dict[str, Any]] = []
        self.children: list[str] = []

    def note_run(self, report: Any, counters: Iterable[str]) -> None:
        """Register a finished engine run (called from ``_report``): its
        engine, simulated time, stop reason and the report fields named
        in ``counters``."""
        self.runs.append(
            {
                "engine": report.engine,
                "sim_time": report.sim_time,
                "stop_reason": report.stop_reason,
                "counters": {name: getattr(report, name) for name in counters},
            }
        )

    def merge_child(self, doc: dict[str, Any], prefix: str) -> None:
        """Fold a child session's exported timeline doc into this session.

        Child tracks are namespaced as ``{prefix}/{track}`` so trials
        never collide; child run notes append in merge order (the sweep
        driver merges in trial-index order, keeping the result
        deterministic).
        """
        id_base = self.spans._next_id
        for span in doc.get("spans", []):
            record = _span_from_dict(span, id_base, prefix)
            self.spans.spans.append(record)
            self.spans._next_id = max(self.spans._next_id, record.span_id)
        for run in doc.get("runs", []):
            self.runs.append({**run, "trial": prefix})
        self.children.append(prefix)


def _span_from_dict(span: dict[str, Any], id_base: int, prefix: str) -> SpanRecord:
    parent = span.get("parent_id")
    return SpanRecord(
        span_id=span["span_id"] + id_base,
        parent_id=None if parent is None else parent + id_base,
        name=span["name"],
        track=f"{prefix}/{span['track']}",
        t0=span["t0"],
        t1=span["t1"],
        attrs=dict(span.get("attrs", {})),
    )


def current_obs() -> ObsSession | None:
    """The ambient session, or ``None`` when observability is disabled."""
    return _ACTIVE


def obs_enabled() -> bool:
    return _ACTIVE is not None


@contextmanager
def obs_session(label: str = "obs") -> Iterator[ObsSession]:
    """Enable observability for the ``with`` body; restore the prior
    ambient session (usually ``None``) afterwards."""
    global _ACTIVE
    prior = _ACTIVE
    session = ObsSession(label=label)
    _ACTIVE = session
    try:
        yield session
    finally:
        session.spans.close_all()
        _ACTIVE = prior
