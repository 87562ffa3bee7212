"""Trace-retention plumbing through the sweep orchestrator.

Sweep trials default to ``compact`` retention: workers still compute
the exact digest and per-kind counts, but only ``generation`` events
ride the result pipe back to the parent.  A trial that audits the raw
event stream (E13's invariant re-walk) opts back into ``full`` per
trial.  The mode must never leak into cache keys — a cached result is
the same result whichever retention produced it.
"""

from __future__ import annotations

import pickle

import pytest

from repro.cluster.trace import (
    Trace,
    TraceRetentionError,
    default_retention,
    trace_retention,
)
from repro.runtime.sweep import SweepConfig, Trial, run_sweep, trial_digest


def _probe(*, seed: int) -> dict:
    """A trial that reports the retention mode its traces were born with."""
    t = Trace()
    t.record(0.5, "msg", mid=0, seed=seed)
    t.record(1.0, "generation", deme=0, generation=1, best=float(seed))
    return {
        "mode": t.retention,
        "digest": t.digest_hex(),
        "n": len(t),
        "trace": t,
    }


class TestTrialRetentionField:
    def test_default_is_none(self):
        assert Trial(_probe, seed=0).retention is None

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="retention"):
            Trial(_probe, seed=0, retention="verbose")

    def test_mode_not_in_cache_key(self):
        base = Trial(_probe, seed=0)
        full = Trial(_probe, seed=0, retention="full")
        slim = Trial(_probe, seed=0, retention="compact")
        digests = {
            trial_digest("EX", t, quick=True, kernel="k") for t in (base, full, slim)
        }
        assert len(digests) == 1


class TestSweepRetention:
    def test_worker_default_is_compact(self):
        [out] = run_sweep("EX", [Trial(_probe, seed=3)])
        assert out["mode"] == "compact"

    def test_trial_full_override(self):
        [out] = run_sweep("EX", [Trial(_probe, seed=3, retention="full")])
        assert out["mode"] == "full"
        assert [e["mid"] for e in out["trace"].of_kind("msg")] == [0]

    def test_serial_and_parallel_agree(self):
        trials = [Trial(_probe, seed=i) for i in range(4)]
        serial = run_sweep("EX", trials, config=SweepConfig(jobs=1))
        parallel = run_sweep("EX", trials, config=SweepConfig(jobs=2))
        assert [o["digest"] for o in serial] == [o["digest"] for o in parallel]
        assert [o["mode"] for o in serial] == [o["mode"] for o in parallel]

    def test_digest_and_counts_exact_under_compact(self):
        [slim] = run_sweep("EX", [Trial(_probe, seed=5)])
        [full] = run_sweep("EX", [Trial(_probe, seed=5, retention="full")])
        assert slim["digest"] == full["digest"]
        assert slim["n"] == full["n"]

    def test_compact_trace_transports_slimmer(self):
        def chatty(*, seed: int) -> Trace:
            t = Trace()
            for i in range(2000):
                t.record(0.25 * i, "msg", src=i % 4, dst=(i + 1) % 4, mid=i)
                if i % 50 == 0:
                    t.record(0.25 * i, "generation", deme=0, generation=i // 50, best=1.0)
            return t

        [slim] = run_sweep("EX", [Trial(chatty, seed=0)])
        [full] = run_sweep("EX", [Trial(chatty, seed=0, retention="full")])
        assert slim.digest_hex() == full.digest_hex()
        assert len(pickle.dumps(slim)) < len(pickle.dumps(full)) / 5

    def test_compact_result_still_guards_discarded_kinds(self):
        [out] = run_sweep("EX", [Trial(_probe, seed=1)])
        with pytest.raises(TraceRetentionError):
            out["trace"].of_kind("msg")
        assert [e["deme"] for e in out["trace"].of_kind("generation")] == [0]

    def test_ambient_mode_restored_after_serial_sweep(self):
        assert default_retention() == "full"
        run_sweep("EX", [Trial(_probe, seed=0)], config=SweepConfig(jobs=1))
        assert default_retention() == "full"

    def test_explicit_ambient_context_not_clobbered_outside_trial(self):
        with trace_retention("compact"):
            [out] = run_sweep(
                "EX", [Trial(_probe, seed=0, retention="full")], config=SweepConfig(jobs=1)
            )
            assert out["mode"] == "full"
            assert default_retention() == "compact"
