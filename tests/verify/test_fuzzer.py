"""Tests for the simulation fuzzer, run-spec round-trips and the shrinker."""

import json

import numpy as np
import pytest

from repro.cluster.faults import FaultPlan
from repro.spec import RunSpec, cluster, engine, ga_config, operator, problem
from repro.verify.fuzzer import fuzz, sample_spec
from repro.verify.invariants import Violation
from repro.verify.shrink import fault_plan, shrink_spec
from repro.verify.specs import SpecCheckResult

#: trace digests of ``fuzz(seed=0)`` runs 0-4, recorded before the fuzzer
#: sampled run-spec documents; any drift in the sampler's draw order or in
#: the simulation shows up here first
PINNED_SEED0_DIGESTS = [
    "a37de577744e2f7f76ad1c270b5f26cce6f1f9256eedd272456f14fd35e4e526",
    "42fa2a93017e1783844d476a8ae2fc3256d28d7d76d5bdb1fbc53dfe6d3ccb42",
    "62d52149ba72a837cb574cc23571837884adb00e4954342994b192ea5bb0f047",
    "d1338dee4bd4b259d7063950a23a74416f17cbcbea526c7e98fc159e07f61d8f",
    "8317a912b9b43ef414f834bf680bf21e47b9113519643802910aa1eaf4a3c28d",
]


def _sim_island(fault_plan=None, **params):
    return RunSpec(
        engine=engine(
            "sim-island",
            problem=problem("onemax", length=16),
            n_islands=params.pop("n_islands", 3),
            config=ga_config(population_size=12, elitism=1),
            cluster=cluster(
                params.pop("n_nodes", 3), fault_plan=fault_plan, **params
            ),
            max_epochs=3,
            policy=operator("migration-policy", rate=1, replacement="worst-if-better"),
        ),
        seed=0,
    )


class TestSampleSpec:
    def test_specs_are_valid_and_varied(self):
        rng = np.random.default_rng(0)
        specs = [sample_spec(rng) for _ in range(40)]
        assert {s.engine.name for s in specs} == {"sim-master-slave", "sim-island", "island"}
        assert any(fault_plan(s) is not None for s in specs)
        assert any(
            "cluster" in s.engine.params
            and s.engine.params["cluster"].tiebreak_jitter is not None
            for s in specs
        )

    def test_round_trip_through_line(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            spec = sample_spec(rng)
            line = spec.to_json()
            assert "\n" not in line
            assert RunSpec.from_json(line) == spec

    def test_infinity_survives_round_trip(self):
        spec = _sim_island(FaultPlan(intervals=((), ((0.1, float("inf")),), ())))
        again = RunSpec.from_json(spec.to_json())
        assert fault_plan(again).intervals[1][0][1] == float("inf")

    def test_unknown_scenario_rejected(self, tmp_path, capsys):
        from repro.verify.__main__ import main

        doc = _sim_island().to_dict()
        doc["engine"]["name"] = "sim-islnad"
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(doc))
        assert main(["replay", str(path)]) == 2
        assert "sim-island" in capsys.readouterr().err  # did-you-mean


class TestFuzz:
    def test_small_fixed_seed_session_is_green(self):
        report = fuzz(seed=0, runs=5)
        assert report.ok, report.summary()
        assert report.runs == 5
        assert sum(report.scenarios.values()) == 5

    def test_seed0_trace_digests_are_pinned(self):
        report = fuzz(seed=0, runs=5, audit=False)
        assert report.digests == PINNED_SEED0_DIGESTS

    def test_summary_mentions_chaos_mix(self):
        report = fuzz(seed=1, runs=4)
        assert "faults" in report.summary()
        assert "jitter" in report.summary()


class TestShrinker:
    @staticmethod
    def _spec_with_chaos():
        return _sim_island(
            FaultPlan(
                intervals=(
                    (),
                    ((0.1, 0.2), (0.5, float("inf"))),
                    ((0.3, 0.4),),
                    ((0.2, 0.6),),
                ),
                latency_spikes=((0.0, 0.1, 5.0), (0.2, 0.3, 2.0)),
            ),
            n_nodes=4,
            n_islands=4,
        )

    def test_shrinks_to_single_culprit_interval(self):
        # fake checker: fails iff node 1's permanent crash is in the plan
        def run(spec):
            crashed = any(b == float("inf") for a, b in fault_plan(spec).intervals[1])
            violations = (
                [Violation("message-conservation", 0.5, "synthetic")] if crashed else []
            )
            return SpecCheckResult(label="fake", digest="", violations=violations)

        result = shrink_spec(self._spec_with_chaos(), run=run)
        plan = fault_plan(result.spec)
        assert plan.intervals == ((), ((0.5, float("inf")),), (), ())
        assert plan.latency_spikes == ()
        assert result.removed == 5  # 3 intervals + 2 spikes stripped
        assert result.outcome.signature == "invariant:message-conservation"

    def test_refuses_passing_spec(self):
        def run(spec):
            return SpecCheckResult(label="fake", digest="")

        with pytest.raises(ValueError):
            shrink_spec(self._spec_with_chaos(), run=run)

    def test_respects_execution_budget(self):
        calls = []

        def run(spec):
            calls.append(spec)
            return SpecCheckResult(
                label="fake", digest="",
                violations=[Violation("time-monotone", 0.0, "always fails")],
            )

        shrink_spec(self._spec_with_chaos(), run=run, max_executions=4)
        assert len(calls) <= 4
