"""Spec-backed trials: call semantics, digests, and the warm cache."""

import pytest

from repro.runtime.sweep import (
    SweepConfig,
    SweepTelemetry,
    Trial,
    run_sweep,
    sweep_context,
    trial_digest,
)
from repro.spec import EngineSpec, ProblemSpec, RunSpec

SPEC = RunSpec(
    engine=EngineSpec(
        "generational",
        {"problem": ProblemSpec("onemax", {"length": 12})},
    ),
    seed=5,
    run={"termination": 3},
)


def _spec(seed=5, termination=3):
    return RunSpec(engine=SPEC.engine, seed=seed, run={"termination": termination})


def extract_best(result):
    return float(result.best_fitness)


def extract_pair(results):
    a, b = results
    return (float(a.best_fitness), float(b.best_fitness))


def drive_engine(engine, *, generations):
    return float(engine.run(generations).best_fitness)


def raw_case(*, x, seed):
    return x + seed


class TestTrialCall:
    def test_report_mode_passes_the_result(self):
        value = Trial(extract_best, spec=_spec()).call()
        assert 0.0 <= value <= 12.0

    def test_tuple_spec_passes_a_tuple_of_results(self):
        pair = Trial(extract_pair, spec=(_spec(seed=1), _spec(seed=2))).call()
        assert len(pair) == 2

    def test_engine_mode_passes_the_built_engine(self):
        value = Trial(
            drive_engine, dict(generations=3), spec=_spec(), mode="engine"
        ).call()
        assert value == Trial(extract_best, spec=_spec()).call()

    def test_raw_callable_compatibility_path(self):
        assert Trial(raw_case, dict(x=2), seed=3).call() == 5

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            Trial(extract_best, spec=_spec(), mode="chaos")

    def test_specs_property(self):
        assert Trial(raw_case, dict(x=1), seed=0).specs == ()
        assert len(Trial(extract_pair, spec=(_spec(), _spec(seed=9))).specs) == 2


class TestTrialDigest:
    def test_digest_keys_on_spec_content(self):
        a = Trial(extract_best, spec=_spec(seed=5))
        b = Trial(extract_best, spec=_spec(seed=6))
        assert trial_digest("EX", a, quick=False) != trial_digest("EX", b, quick=False)

    def test_digest_keys_on_mode(self):
        a = Trial(extract_best, spec=_spec())
        b = Trial(extract_best, spec=_spec(), mode="engine")
        assert trial_digest("EX", a, quick=False) != trial_digest("EX", b, quick=False)

    def test_spec_digest_is_portable_across_processes(self):
        # unlike the raw-callable pickle fallback, the spec path's key
        # inputs are pure content: rebuildable from the JSON document
        doc = _spec().to_json()
        a = Trial(extract_best, spec=RunSpec.from_json(doc))
        b = Trial(extract_best, spec=RunSpec.from_json(doc))
        assert trial_digest("EX", a, quick=True) == trial_digest("EX", b, quick=True)


class TestWarmCache:
    def test_spec_backed_sweep_rehits_100_percent(self, tmp_path):
        trials = [Trial(extract_best, spec=_spec(seed=s)) for s in range(4)]
        with sweep_context(SweepConfig(cache_dir=tmp_path)) as cfg:
            cold = run_sweep("EX", trials, quick=True, config=cfg)
        telemetry = SweepTelemetry()
        warm_config = SweepConfig(cache_dir=tmp_path, telemetry=telemetry)
        with sweep_context(warm_config) as cfg:
            warm = run_sweep("EX", trials, quick=True, config=cfg)
        assert warm == cold
        assert telemetry.totals()["cache_hits"] == len(trials)

    def test_mixed_raw_and_spec_trials_cache_side_by_side(self, tmp_path):
        trials = [
            Trial(extract_best, spec=_spec()),
            Trial(raw_case, dict(x=10), seed=1),
        ]
        with sweep_context(SweepConfig(cache_dir=tmp_path)) as cfg:
            first = run_sweep("EX", trials, quick=True, config=cfg)
        with sweep_context(SweepConfig(cache_dir=tmp_path)) as cfg:
            assert run_sweep("EX", trials, quick=True, config=cfg) == first
