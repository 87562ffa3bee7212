"""Dedicated tests for the execution-trace recorder."""

from repro.cluster import Trace, TraceEvent


class TestTrace:
    def test_record_and_query(self):
        t = Trace()
        t.record(1.0, "dispatch", node=3)
        t.record(2.0, "dispatch", node=4)
        t.record(2.5, "failure", node=3)
        assert len(t) == 3
        assert t.count("dispatch") == 2
        assert t.kinds() == {"dispatch", "failure"}
        assert [e["node"] for e in t.of_kind("dispatch")] == [3, 4]

    def test_events_preserve_order(self):
        t = Trace()
        for k in range(5):
            t.record(float(k), "tick", k=k)
        assert [e.time for e in t] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_event_field_access(self):
        e = TraceEvent(time=1.0, kind="msg", fields={"src": 0, "dst": 1})
        assert e["src"] == 0 and e["dst"] == 1
        assert e.time == 1.0

    def test_empty_trace(self):
        t = Trace()
        assert len(t) == 0
        assert t.kinds() == set()
        assert t.of_kind("anything") == []


class TestRetentionModes:
    def _populated(self, mode):
        from repro.cluster import trace_retention

        with trace_retention(mode):
            t = Trace()
        t.record(0.5, "msg", src=0, dst=1, mid=0)
        t.record(1.0, "generation", deme=0, generation=1, best=2.0)
        t.record(1.5, "msg", src=1, dst=0, mid=1)
        return t

    def test_default_is_full(self):
        assert Trace().retention == "full"

    def test_explicit_mode_beats_ambient(self):
        from repro.cluster import trace_retention

        with trace_retention("compact"):
            assert Trace("full").retention == "full"

    def test_ambient_mode_restores_on_exit(self):
        from repro.cluster import default_retention, trace_retention

        assert default_retention() == "full"
        with trace_retention("compact"):
            assert default_retention() == "compact"
        assert default_retention() == "full"

    def test_unknown_mode_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="retention"):
            Trace("everything")

    def test_counts_and_kinds_exact_in_every_mode(self):
        expected_kinds = self._populated("full").kinds()
        for mode in ("full", "compact"):
            t = self._populated(mode)
            assert len(t) == 3
            assert t.kinds() == expected_kinds
            assert t.count("msg") == 2
            assert t.count("generation") == 1
            assert t.count("never-recorded") == 0

    def test_digest_identical_across_modes(self):
        digests = {self._populated(m).digest_hex() for m in ("full", "compact")}
        assert len(digests) == 1

    def test_compact_keeps_generation_events(self):
        t = self._populated("compact")
        gens = t.of_kind("generation")
        assert [e["deme"] for e in gens] == [0]
        assert gens == self._populated("full").of_kind("generation")

    def test_compact_discarded_kind_raises(self):
        from repro.cluster import TraceRetentionError
        import pytest

        t = self._populated("compact")
        with pytest.raises(TraceRetentionError, match="msg"):
            t.of_kind("msg")
        with pytest.raises(TraceRetentionError):
            list(t)
        with pytest.raises(TraceRetentionError):
            t.events

    def test_unseen_kind_is_empty_not_error(self):
        t = self._populated("compact")
        assert t.of_kind("never-recorded") == []


class TestTracePickling:
    def _roundtrip(self, trace):
        import pickle

        return pickle.loads(pickle.dumps(trace))

    def test_full_trace_roundtrips_and_extends(self):
        t = Trace()
        t.record(1.0, "a", x=1)
        t.record(2.0, "b", y=2.5)
        clone = self._roundtrip(t)
        assert clone.digest_hex() == t.digest_hex()
        assert [(e.time, e.kind, e.fields) for e in clone] == [
            (1.0, "a", {"x": 1}), (2.0, "b", {"y": 2.5}),
        ]
        # the replayed hash keeps extending identically to the original
        t.record(3.0, "c")
        clone.record(3.0, "c")
        assert clone.digest_hex() == t.digest_hex()

    def test_full_trace_rerecords_awkward_fields_through_record(self):
        """An unpickled full trace rebuilds its hash by re-recording its
        events: fields that stress the line format (negative zero, a
        nested list, a NumPy scalar, a string holding the ``|`` separator
        and a newline) must keep extending to the same digest as the
        stream recorded without pickling, and agree with the walker."""
        import numpy as np

        from repro.verify.digest import trace_digest_walk

        def head(t):
            t.record(0.0, "boot")
            t.record(-0.0, "gen", best=-0.0, nested=[1, [2.5, (3, None)]])
            t.record(np.float64(1.25), "stats", n=np.int64(7), x=np.float32(0.5))
            t.record(2.0, "note", text="a|b\nc", flag=True)

        def tail(t):
            t.record(3.0, "gen", best=-0.0, text="|\n|")
            t.record(3.0, "done", n=np.int64(8))

        t = Trace()
        head(t)
        clone = self._roundtrip(t)
        assert clone.digest_hex() == t.digest_hex()
        tail(clone)
        straight = Trace()
        head(straight)
        tail(straight)
        assert clone.digest_hex() == straight.digest_hex() == trace_digest_walk(straight)
        assert trace_digest_walk(clone) == straight.digest_hex()
        assert len(clone) == 6 and clone.count("gen") == 2

    def test_compact_trace_roundtrips_digest_but_freezes(self):
        from repro.cluster import TraceRetentionError
        import pytest

        t = Trace("compact")
        t.record(1.0, "msg", mid=0)
        t.record(2.0, "generation", deme=0, generation=1, best=0.5)
        clone = self._roundtrip(t)
        assert clone.digest_hex() == t.digest_hex()
        assert clone.count("msg") == 1
        assert [e["deme"] for e in clone.of_kind("generation")] == [0]
        with pytest.raises(TraceRetentionError, match="unpickled"):
            clone.record(3.0, "more")
