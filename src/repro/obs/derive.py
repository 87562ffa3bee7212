"""Paper metrics derived from spans: utilisation, comm/compute, idle time.

The survey's comparative tables are built on three per-architecture
quantities — worker utilisation, the communication/computation ratio and
idle time per node.  The engines already report some of these through
``extras`` (``utilisation`` for the asynchronous master-slave,
``compute_time``/``comm_time`` for the distributed cellular model); here
the same numbers are *re-derived* purely from the span timeline, which
gives an independent cross-check: the contract suite asserts span-derived
values agree with the engine-reported ones to 1e-9.

Span names are classified into phases by :data:`SPAN_PHASES`; names not
listed count as ``other`` and never pollute the comm/compute split.
"""

from __future__ import annotations

from typing import Any, Iterable

from .spans import SpanRecord

__all__ = [
    "SPAN_PHASES",
    "busy_time_by_track",
    "comm_compute_times",
    "comm_fraction",
    "derived_summary",
    "idle_time_by_track",
    "phase_times",
    "sim_horizon",
    "utilisation_by_track",
]

# span name -> phase. "compute" and "comm" are the split the paper's
# comm/compute ratio is built on; "frame" spans are structural (they
# contain other spans) and are excluded from busy-time sums.
SPAN_PHASES: dict[str, str] = {
    "evaluate": "compute",
    "compute": "compute",
    "master-compute": "compute",
    "breed": "compute",
    "migrate-send": "comm",
    "migrate-recv": "comm",
    "comm": "comm",
    "pull": "comm",
    "push": "comm",
    "recover": "recovery",
    "generation": "frame",
    "transaction": "frame",
    "sweep": "frame",
    "farm": "frame",
}


def phase_of(span: SpanRecord) -> str:
    return SPAN_PHASES.get(span.name, "other")


def phase_times(spans: Iterable[SpanRecord]) -> dict[str, float]:
    """Total sim-time per phase (frame spans excluded — they contain
    the others and would double count)."""
    totals: dict[str, float] = {}
    for span in spans:
        phase = phase_of(span)
        if phase == "frame":
            continue
        totals[phase] = totals.get(phase, 0.0) + span.duration
    return totals


def comm_compute_times(spans: Iterable[SpanRecord]) -> tuple[float, float]:
    """``(comm_time, compute_time)`` summed from leaf spans."""
    totals = phase_times(spans)
    return totals.get("comm", 0.0), totals.get("compute", 0.0)


def comm_fraction(spans: Iterable[SpanRecord]) -> float:
    """Fraction of accounted time spent communicating, as in
    ``RunReport.comm_fraction``: comm / (compute + comm)."""
    comm, compute = comm_compute_times(spans)
    total = comm + compute
    return comm / total if total > 0 else 0.0


def sim_horizon(spans: Iterable[SpanRecord]) -> float:
    """Latest sim-time any span reaches (the timeline's right edge)."""
    return max((s.t1 for s in spans), default=0.0)


def busy_time_by_track(
    spans: Iterable[SpanRecord], phases: tuple[str, ...] = ("compute", "comm")
) -> dict[str, float]:
    """Per-track sum of leaf-span durations in the given phases."""
    busy: dict[str, float] = {}
    for span in spans:
        if phase_of(span) not in phases:
            continue
        busy[span.track] = busy.get(span.track, 0.0) + span.duration
    return busy


def utilisation_by_track(
    spans: Iterable[SpanRecord],
    horizon: float | None = None,
    phases: tuple[str, ...] = ("compute",),
) -> dict[str, float]:
    """Per-track busy fraction of the horizon, capped at 1.

    Matches the asynchronous master-slave's own bookkeeping: busy time
    is the sum of charged evaluation intervals (in-flight work included),
    the horizon is the run's end time.
    """
    if horizon is None:
        horizon = sim_horizon(spans)
    horizon = max(horizon, 1e-12)
    return {
        track: min(1.0, busy / horizon)
        for track, busy in busy_time_by_track(spans, phases).items()
    }


def idle_time_by_track(
    spans: Iterable[SpanRecord],
    horizon: float | None = None,
    phases: tuple[str, ...] = ("compute", "comm"),
) -> dict[str, float]:
    """Per-track ``horizon − busy`` (floored at 0): the paper's idle time
    per node."""
    if horizon is None:
        horizon = sim_horizon(spans)
    return {
        track: max(0.0, horizon - busy)
        for track, busy in busy_time_by_track(spans, phases).items()
    }


def derived_summary(spans: Iterable[SpanRecord]) -> dict[str, Any]:
    """All derived paper metrics in one JSON-ready block."""
    spans = list(spans)
    comm, compute = comm_compute_times(spans)
    horizon = sim_horizon(spans)
    return {
        "horizon": horizon,
        "phase_times": phase_times(spans),
        "comm_time": comm,
        "compute_time": compute,
        "comm_fraction": comm_fraction(spans),
        "busy_by_track": busy_time_by_track(spans),
        "utilisation_by_track": utilisation_by_track(spans, horizon),
        "idle_by_track": idle_time_by_track(spans, horizon),
    }
