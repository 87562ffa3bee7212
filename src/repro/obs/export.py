"""Timeline exporters: run JSON, Chrome trace format, sweep roll-ups.

Three consumers, three formats:

* :func:`timeline_doc` / :func:`write_timeline` — the canonical per-run
  JSON document (``--obs-out``): spans, one note per finished run (its
  report's counter fields) and the derived paper metrics, under the
  versioned schema ``repro-obs-timeline/v3``.  It holds simulated
  quantities only, so same-seed runs write byte-identical documents
  however their trials were executed.
  :func:`repro.obs.validate.check_timeline` validates this shape.
* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome trace
  event format (``--obs-trace``): load the file in ``chrome://tracing``
  or Perfetto for a flamegraph.  Sim seconds are mapped to microseconds
  ("X" complete events, one tid per track).
* :func:`sweep_obs_summary` — compact per-sweep aggregation the sweep
  telemetry embeds into ``BENCH_sweep.json`` next to its wall-clock
  numbers.
"""

from __future__ import annotations

import json
from typing import Any

from .derive import derived_summary
from .session import ObsSession

__all__ = [
    "TIMELINE_SCHEMA",
    "chrome_trace",
    "sweep_obs_summary",
    "timeline_doc",
    "write_chrome_trace",
    "write_timeline",
]

TIMELINE_SCHEMA = "repro-obs-timeline/v3"


def timeline_doc(session: ObsSession) -> dict[str, Any]:
    """The canonical JSON document for one observability session."""
    session.spans.close_all()
    return {
        "schema": TIMELINE_SCHEMA,
        "label": session.label,
        "spans": [s.to_dict() for s in session.spans],
        "runs": list(session.runs),
        "derived": derived_summary(session.spans),
    }


def write_timeline(session: ObsSession, path: str) -> dict[str, Any]:
    doc = timeline_doc(session)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return doc


def chrome_trace(session: ObsSession) -> dict[str, Any]:
    """Chrome trace-event JSON (the ``traceEvents`` envelope)."""
    session.spans.close_all()
    events: list[dict[str, Any]] = []
    tids: dict[str, int] = {}
    for span in session.spans:
        tid = tids.setdefault(span.track, len(tids) + 1)
        events.append(
            {
                "name": span.name,
                "cat": "sim",
                "ph": "X",
                "ts": span.t0 * 1e6,  # sim seconds -> trace microseconds
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": tid,
                "args": dict(span.attrs),
            }
        )
    meta = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": track},
        }
        for track, tid in tids.items()
    ]
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def write_chrome_trace(session: ObsSession, path: str) -> dict[str, Any]:
    doc = chrome_trace(session)
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return doc


def sweep_obs_summary(session: ObsSession) -> dict[str, Any]:
    """Compact block for ``BENCH_sweep.json``: span count plus the derived
    paper metrics, no raw span list (sweeps can carry millions)."""
    session.spans.close_all()
    return {
        "schema": TIMELINE_SCHEMA,
        "label": session.label,
        "span_count": len(session.spans),
        "derived": derived_summary(session.spans),
        "children": list(session.children),
    }
