"""Structural invariants over spans and timelines.

The observability layer earns its keep only if its output is trustworthy,
so it gets the same treatment as the engines: machine-checked invariants.

* :func:`check_spans` — on every track, spans must *nest*: a span is
  either disjoint from another or fully contains it (endpoints may
  touch).  Within one lane, sibling start times are monotone.  Declared
  parents must contain their children.
* :func:`check_generation_coverage` — every ``generation`` event an
  engine emitted into the cluster trace must fall inside some span: the
  timeline accounts for all recorded progress.  Vacuous when the run
  produced no spans (untimed engines).
* :func:`check_timeline` — schema checks for exported timeline
  documents, including each run note's counters.

All checkers return a list of problem strings (empty = pass), matching
the ``validate_report`` idiom used across the repo.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Iterable

from .spans import SpanRecord

__all__ = [
    "check_generation_coverage",
    "check_spans",
    "check_timeline",
]


def check_spans(spans: Iterable[SpanRecord]) -> list[str]:
    """Problems with span well-formedness and per-track nesting."""
    spans = list(spans)
    problems: list[str] = []
    by_id: dict[int, SpanRecord] = {}
    lanes: dict[str, list[SpanRecord]] = {}
    for span in spans:
        if span.span_id in by_id:
            problems.append(f"duplicate span_id {span.span_id}")
        by_id[span.span_id] = span
        if not (math.isfinite(span.t0) and math.isfinite(span.t1)):
            problems.append(f"span {span.span_id} ({span.name}) has non-finite times")
            continue
        if span.t1 < span.t0:
            problems.append(
                f"span {span.span_id} ({span.name}) ends before it starts:"
                f" [{span.t0}, {span.t1}]"
            )
            continue
        lanes.setdefault(span.track, []).append(span)

    # parent containment (same lane, child inside parent)
    for span in spans:
        if span.parent_id is None:
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            problems.append(
                f"span {span.span_id} ({span.name}) has unknown parent"
                f" {span.parent_id}"
            )
        elif parent.track != span.track:
            problems.append(
                f"span {span.span_id} ({span.name}) and parent {parent.span_id}"
                f" live on different tracks"
            )
        elif span.t0 < parent.t0 or span.t1 > parent.t1:
            problems.append(
                f"span {span.span_id} ({span.name}) [{span.t0}, {span.t1}] escapes"
                f" parent {parent.span_id} ({parent.name})"
                f" [{parent.t0}, {parent.t1}]"
            )

    # per-lane nesting: sweep left-to-right with an enclosing-interval stack
    for track, lane in lanes.items():
        lane.sort(key=lambda s: (s.t0, -s.t1))
        stack: list[SpanRecord] = []
        for span in lane:
            while stack and span.t0 >= stack[-1].t1:
                stack.pop()
            if stack and span.t1 > stack[-1].t1:
                top = stack[-1]
                problems.append(
                    f"{track}: span {span.span_id} ({span.name})"
                    f" [{span.t0}, {span.t1}] partially overlaps"
                    f" {top.span_id} ({top.name}) [{top.t0}, {top.t1}]"
                )
                continue
            stack.append(span)
    return problems


def check_generation_coverage(
    spans: Iterable[SpanRecord], trace: Iterable[Any]
) -> list[str]:
    """Every trace ``generation`` event must lie inside some span.

    ``trace`` is any iterable of objects with ``kind`` and ``time``
    attributes (duck-typed so this module stays free of repro imports).
    A ``Trace``-like object exposing ``of_kind`` is queried for its
    ``generation`` events directly — that path stays valid under
    ``compact`` retention, where generation events are retained but
    whole-stream iteration is refused.  Returns no problems when there
    are no spans at all — untimed engines legitimately run without
    a timeline.
    """
    union = _merged_union([(s.t0, s.t1) for s in spans])
    if not union:
        return []
    of_kind = getattr(trace, "of_kind", None)
    if of_kind is not None:
        trace = of_kind("generation")
    problems = []
    uncovered = 0
    for event in trace:
        if getattr(event, "kind", None) != "generation":
            continue
        t = float(getattr(event, "time", 0.0))
        if not _covered(union, t):
            uncovered += 1
            if uncovered <= 5:
                problems.append(f"generation event at t={t!r} not covered by any span")
    if uncovered > 5:
        problems.append(f"... and {uncovered - 5} more uncovered generation events")
    return problems


def _merged_union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Disjoint, sorted union of the given (possibly nested) intervals."""
    merged: list[tuple[float, float]] = []
    for t0, t1 in sorted(intervals):
        if merged and t0 <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], t1))
        else:
            merged.append((t0, t1))
    return merged


def _covered(union: list[tuple[float, float]], t: float) -> bool:
    idx = bisect.bisect_right(union, (t, math.inf)) - 1
    return idx >= 0 and union[idx][0] <= t <= union[idx][1]


def check_timeline(doc: Any) -> list[str]:
    """Schema + structural problems with an exported timeline document."""
    from .export import TIMELINE_SCHEMA  # local import: export imports derive

    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"timeline must be a dict, got {type(doc).__name__}"]
    if doc.get("schema") != TIMELINE_SCHEMA:
        problems.append(
            f"timeline schema is {doc.get('schema')!r}, want {TIMELINE_SCHEMA!r}"
        )
    spans_raw = doc.get("spans")
    if not isinstance(spans_raw, list):
        return problems + ["timeline['spans'] missing or not a list"]
    spans = []
    for i, raw in enumerate(spans_raw):
        missing = {"span_id", "name", "track", "t0", "t1"} - set(raw)
        if missing:
            problems.append(f"span #{i} missing fields {sorted(missing)}")
            continue
        spans.append(
            SpanRecord(
                span_id=raw["span_id"],
                parent_id=raw.get("parent_id"),
                name=raw["name"],
                track=raw["track"],
                t0=raw["t0"],
                t1=raw["t1"],
                attrs=raw.get("attrs", {}),
            )
        )
    problems.extend(check_spans(spans))
    for i, run in enumerate(doc.get("runs", [])):
        counters = run.get("counters", {}) if isinstance(run, dict) else None
        if not isinstance(counters, dict):
            problems.append(f"runs[{i}]: run note or its counters is not a dict")
            continue
        for name, value in counters.items():
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                problems.append(
                    f"runs[{i}]: counter {name} must be a non-negative int,"
                    f" got {value!r}"
                )
    return problems
