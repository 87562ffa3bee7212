"""Property tests for the observability subsystem (``repro.obs``).

Three families of properties:

1. **Structure** — any program of ``begin``/``record``/``end`` operations
   that respects the recorder's stack discipline produces a span set that
   passes :func:`repro.obs.validate.check_spans`: spans nest properly,
   sim-time is monotone within every span tree, and ``close_all`` never
   breaks either invariant.  The checker itself is exercised the other
   way too: hand-built violations (partial overlap, escaping child,
   duplicate ids, inverted or non-finite times) must be *detected*.
2. **Timeline schema** — :func:`repro.obs.validate.check_timeline`
   rejects malformed documents, stale schema versions and run notes
   whose counters are not non-negative integers.
3. **Transparency** — running an engine contract scenario inside an
   :func:`repro.obs.session.obs_session` leaves its result fingerprint
   and trace digest byte-identical to the unobserved run (the
   disabled-by-default promise the experiment suite relies on).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    TIMELINE_SCHEMA,
    SpanRecord,
    SpanRecorder,
    check_spans,
    check_timeline,
    obs_session,
)

# -- strategies ---------------------------------------------------------------------

# one step of a span program: (op, name_index, time_advance)
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["begin", "end", "record"]),
        st.integers(min_value=0, max_value=4),
        st.floats(min_value=0.0, max_value=3.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=60,
)

_TRACKS = st.lists(
    st.sampled_from(["deme-0", "deme-1", "slave-2", "network"]),
    min_size=1,
    max_size=3,
    unique=True,
)


def _replay(steps, tracks):
    """Drive a SpanRecorder with a stack-respecting program.

    Time is a per-track monotone clock; ``record`` intervals advance the
    clock past their own end so an enclosing ``begin`` always closes at
    or after every child's ``t1``.
    """
    rec = SpanRecorder()
    clocks = {t: 0.0 for t in tracks}
    open_counts = {t: 0 for t in tracks}
    handles = {t: [] for t in tracks}
    for i, (op, name_ix, dt) in enumerate(steps):
        track = tracks[i % len(tracks)]
        name = f"phase-{name_ix}"
        now = clocks[track]
        if op == "begin":
            handles[track].append(rec.begin(name, t0=now, track=track, step=i))
            open_counts[track] += 1
        elif op == "record":
            rec.record(name, now, now + dt, track=track, step=i)
            clocks[track] = now + dt
        elif op == "end" and handles[track]:
            clocks[track] = now + dt
            rec.end(handles[track].pop(), clocks[track])
            open_counts[track] -= 1
    return rec


class TestSpanNestingProperties:
    @given(steps=_STEPS, tracks=_TRACKS)
    @settings(max_examples=100, deadline=None)
    def test_replayed_programs_always_nest(self, steps, tracks):
        rec = _replay(steps, tracks)
        rec.close_all()
        assert check_spans(rec.spans) == []
        assert rec.open_spans() == []

    @given(steps=_STEPS, tracks=_TRACKS)
    @settings(max_examples=100, deadline=None)
    def test_sim_time_monotone_within_span_trees(self, steps, tracks):
        rec = _replay(steps, tracks)
        rec.close_all()
        by_id = {s.span_id: s for s in rec.spans}
        for span in rec.spans:
            assert span.t1 >= span.t0
            if span.parent_id is not None:
                parent = by_id[span.parent_id]
                assert parent.t0 <= span.t0
                assert span.t1 <= parent.t1

    @given(steps=_STEPS, tracks=_TRACKS)
    @settings(max_examples=50, deadline=None)
    def test_end_closes_forgotten_descendants(self, steps, tracks):
        """Ending an outer span with children still open must leave a
        valid, fully closed timeline (the crashed-coroutine path)."""
        rec = _replay(steps, tracks)
        dangling = rec.open_spans()
        outermost = [h for h in dangling if h.parent_id is None]
        for handle in outermost:
            rec.end(handle, handle.t0 + 100.0)
        rec.close_all()
        assert check_spans(rec.spans) == []


class TestCheckerDetectsViolations:
    def _span(self, sid, t0, t1, parent=None, track="main"):
        return SpanRecord(
            span_id=sid, parent_id=parent, name="x", track=track, t0=t0, t1=t1
        )

    def test_partial_overlap_detected(self):
        spans = [self._span(1, 0.0, 2.0), self._span(2, 1.0, 3.0)]
        assert any("overlap" in p for p in check_spans(spans))

    def test_child_escaping_parent_detected(self):
        spans = [self._span(1, 0.0, 2.0), self._span(2, 1.0, 5.0, parent=1)]
        assert check_spans(spans) != []

    def test_duplicate_ids_detected(self):
        spans = [self._span(1, 0.0, 1.0), self._span(1, 2.0, 3.0)]
        assert any("duplicate" in p for p in check_spans(spans))

    def test_inverted_interval_detected(self):
        assert check_spans([self._span(1, 2.0, 1.0)]) != []

    def test_nonfinite_time_detected(self):
        assert check_spans([self._span(1, 0.0, math.inf)]) != []
        assert check_spans([self._span(1, math.nan, 1.0)]) != []

    def test_disjoint_siblings_pass(self):
        spans = [
            self._span(1, 0.0, 4.0),
            self._span(2, 0.0, 2.0, parent=1),
            self._span(3, 2.0, 4.0, parent=1),
        ]
        assert check_spans(spans) == []

    def test_different_tracks_may_overlap(self):
        spans = [
            self._span(1, 0.0, 2.0, track="a"),
            self._span(2, 1.0, 3.0, track="b"),
        ]
        assert check_spans(spans) == []

    def test_unknown_parent_detected(self):
        spans = [self._span(2, 0.0, 1.0, parent=99)]
        assert any("unknown parent" in p for p in check_spans(spans))

    def test_cross_track_parent_detected(self):
        spans = [
            self._span(1, 0.0, 5.0, track="a"),
            SpanRecord(
                span_id=2, parent_id=1, name="x", track="b", t0=1.0, t1=2.0
            ),
        ]
        assert any("different tracks" in p for p in check_spans(spans))


class TestGenerationCoverage:
    class _Event:
        def __init__(self, kind, time):
            self.kind = kind
            self.time = time

    def _span(self, sid, t0, t1):
        return SpanRecord(
            span_id=sid, parent_id=None, name="x", track="main", t0=t0, t1=t1
        )

    def test_covered_events_pass(self):
        from repro.obs import check_generation_coverage

        spans = [self._span(1, 0.0, 2.0), self._span(2, 3.0, 5.0)]
        events = [self._Event("generation", t) for t in (0.0, 1.5, 2.0, 4.0, 5.0)]
        assert check_generation_coverage(spans, events) == []

    def test_uncovered_event_detected(self):
        from repro.obs import check_generation_coverage

        spans = [self._span(1, 0.0, 2.0)]
        events = [self._Event("generation", 2.5)]
        problems = check_generation_coverage(spans, events)
        assert len(problems) == 1 and "not covered" in problems[0]

    def test_many_uncovered_events_are_capped(self):
        from repro.obs import check_generation_coverage

        spans = [self._span(1, 0.0, 1.0)]
        events = [self._Event("generation", 10.0 + i) for i in range(9)]
        problems = check_generation_coverage(spans, events)
        assert len(problems) == 6  # 5 reported + the "and N more" line
        assert "4 more" in problems[-1]

    def test_vacuous_without_sim_spans(self):
        from repro.obs import check_generation_coverage

        events = [self._Event("generation", 99.0)]
        assert check_generation_coverage([], events) == []

    def test_non_generation_events_ignored(self):
        from repro.obs import check_generation_coverage

        spans = [self._span(1, 0.0, 1.0)]
        events = [self._Event("migrant-apply", 50.0)]
        assert check_generation_coverage(spans, events) == []

    def test_compact_trace_checked_via_kind_index(self):
        """A real compact-retention Trace refuses whole-stream iteration
        but retains generation events; the coverage check must query the
        kind index instead of iterating."""
        from repro.cluster import Trace
        from repro.obs import check_generation_coverage

        t = Trace("compact")
        t.record(0.5, "msg", mid=0)
        t.record(1.5, "generation", deme=0, generation=1, best=2.0)
        t.record(9.0, "generation", deme=0, generation=2, best=1.0)
        spans = [self._span(1, 0.0, 2.0)]
        problems = check_generation_coverage(spans, t)
        assert len(problems) == 1 and "t=9.0" in problems[0]


class TestMetricsAndTimelineSchemas:
    @staticmethod
    def _doc(*runs):
        return {"schema": TIMELINE_SCHEMA, "spans": [], "runs": list(runs)}

    def test_non_dict_metrics_rejected(self):
        assert check_timeline(self._doc({"engine": "x", "counters": [1, 2]})) != []
        assert check_timeline(self._doc("not a note")) != []

    def test_wrong_schema_string_rejected(self):
        # a v2 document (session metrics registry, host wall clock) is stale
        stale = {**self._doc(), "schema": "repro-obs-timeline/v2"}
        assert any("schema" in p for p in check_timeline(stale))

    def test_bad_counter_values_rejected(self):
        for bad in (-1, True, 1.5, "3"):
            run = {"engine": "x", "counters": {"migrants_sent": bad}}
            assert check_timeline(self._doc(run)) != []
        good = {"engine": "x", "counters": {"migrants_sent": 0, "evaluations": 7}}
        assert check_timeline(self._doc(good)) == []

    def test_timeline_rejects_non_dict_and_bad_schema(self):
        assert check_timeline(None) != []
        assert check_timeline({"schema": "nope", "spans": []}) != []
        assert any("spans" in p for p in check_timeline({"schema": TIMELINE_SCHEMA}))

    def test_timeline_rejects_incomplete_spans(self):
        doc = {"schema": TIMELINE_SCHEMA, "spans": [{"span_id": 1}]}
        assert any("missing fields" in p for p in check_timeline(doc))

    def test_timeline_surfaces_bad_run_metrics(self):
        ok = {"engine": "x", "counters": {"epochs": 1}}
        bad = {"engine": "y", "counters": {"epochs": -1}}
        problems = check_timeline(self._doc(ok, bad))
        assert problems and all(p.startswith("runs[1]") for p in problems)


class TestObservabilityTransparency:
    """Enabling obs must not perturb engine behaviour in any way."""

    # one untimed engine (EpochLoop path) and one timed engine
    # (TimedDemeRuntime path); the full matrix runs in the contract suite
    ENGINES = ["island", "sim-island"]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fingerprints_identical_with_obs_enabled(self, engine):
        from repro.verify import result_fingerprint, trace_digest
        from repro.verify.engines import contract_run

        trace_off, report_off = contract_run(engine, seed=5)
        with obs_session(label="property-test") as session:
            trace_on, report_on = contract_run(engine, seed=5)
        assert result_fingerprint(report_on) == result_fingerprint(report_off)
        if trace_off is not None and trace_on is not None:
            assert trace_digest(trace_on) == trace_digest(trace_off)
        # and the observed run actually produced a valid timeline
        assert check_spans(session.spans) == []
