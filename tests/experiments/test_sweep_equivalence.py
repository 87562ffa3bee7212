"""Fingerprint identity of experiments across serial / parallel / cached runs.

The sweep orchestrator's core guarantee: fanning an experiment's trials
out over processes, or replaying them from the content-addressed cache,
yields a report byte-identical (by canonical fingerprint) to the serial
run.  Checked on the two cheapest non-trivial runners.
"""

from __future__ import annotations

import pytest

from repro.experiments import run_experiment
from repro.runtime.sweep import SweepConfig, SweepTelemetry
from repro.verify.digest import result_fingerprint

FAST_IDS = ["E2", "E9"]


@pytest.mark.parametrize("experiment_id", FAST_IDS)
def test_parallel_run_is_fingerprint_identical(experiment_id):
    serial = result_fingerprint(run_experiment(experiment_id, quick=True))
    parallel = result_fingerprint(
        run_experiment(experiment_id, quick=True, config=SweepConfig(jobs=2))
    )
    assert serial == parallel


@pytest.mark.parametrize("experiment_id", FAST_IDS)
def test_cached_rerun_is_fingerprint_identical_and_all_hits(experiment_id, tmp_path):
    serial = result_fingerprint(run_experiment(experiment_id, quick=True))
    config = SweepConfig(cache_dir=tmp_path)
    cold = result_fingerprint(run_experiment(experiment_id, quick=True, config=config))
    telemetry = SweepTelemetry()
    warm = result_fingerprint(
        run_experiment(
            experiment_id,
            quick=True,
            config=SweepConfig(cache_dir=tmp_path, telemetry=telemetry),
        )
    )
    assert serial == cold == warm
    assert telemetry.trials, "experiment declared no trials"
    assert all(t.cached for t in telemetry.trials)


def test_audit_rerun_bypasses_cache(tmp_path):
    # with a warm cache, audit's second run must recompute (a cache replay
    # would be a vacuous determinism check) — and still match.
    config = SweepConfig(cache_dir=tmp_path)
    run_experiment("E2", quick=True, config=config)
    report = run_experiment("E2", quick=True, audit=True, config=config)
    audit = [e for e in report.expectations if e.name == "determinism-audit"]
    assert len(audit) == 1 and audit[0].passed
