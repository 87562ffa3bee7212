"""``repro.obs`` — zero-overhead-when-disabled observability.

Phase-resolved timelines (spans), run notes, exporters and span-derived
paper metrics for every parallel engine.  Disabled by default:
:func:`current_obs` returns ``None`` and instrumented code does one
attribute check.  Enable with::

    from repro.obs import obs_session, write_timeline

    with obs_session(label="e03") as session:
        report = model.run()
    write_timeline(session, "out.json")

Design rules the rest of the repo relies on:

* this package imports nothing from ``repro`` — the cluster kernel and
  runtime layers import *it* without cycles;
* spans live beside the cluster trace, never in it — trace digests and
  result fingerprints are byte-identical with observability on or off;
* the package keeps no second copy of any count: a run note copies the
  report's own counter fields, and process, pool and sweep counts stay
  with their owners (``events_dispatched()``, ``evaluations_observed()``,
  ``PoolStats``, ``BENCH_sweep.json``) — so a timeline holds simulated
  quantities only and same-seed runs export byte-identical documents.
"""

from .derive import (
    SPAN_PHASES,
    busy_time_by_track,
    comm_compute_times,
    comm_fraction,
    derived_summary,
    idle_time_by_track,
    phase_times,
    sim_horizon,
    utilisation_by_track,
)
from .export import (
    TIMELINE_SCHEMA,
    chrome_trace,
    sweep_obs_summary,
    timeline_doc,
    write_chrome_trace,
    write_timeline,
)
from .session import ObsSession, current_obs, obs_enabled, obs_session
from .spans import SpanHandle, SpanRecord, SpanRecorder
from .validate import (
    check_generation_coverage,
    check_spans,
    check_timeline,
)

__all__ = [
    "SPAN_PHASES",
    "TIMELINE_SCHEMA",
    "ObsSession",
    "SpanHandle",
    "SpanRecord",
    "SpanRecorder",
    "busy_time_by_track",
    "check_generation_coverage",
    "check_spans",
    "check_timeline",
    "chrome_trace",
    "comm_compute_times",
    "comm_fraction",
    "current_obs",
    "derived_summary",
    "idle_time_by_track",
    "obs_enabled",
    "obs_session",
    "phase_times",
    "sim_horizon",
    "sweep_obs_summary",
    "timeline_doc",
    "utilisation_by_track",
    "write_chrome_trace",
    "write_timeline",
]
