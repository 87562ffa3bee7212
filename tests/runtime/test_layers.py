"""Tests for the stack sampler that splits a trial's CPU time by layer
(repro.runtime.layers) and for where the experiments CLI arms it."""

from __future__ import annotations

import json
import os
import signal
import time

import numpy as np
import pytest

import repro
from repro.experiments import __main__ as cli
from repro.experiments.e05_cellular_pressure import _strip_scalability, _strip_spec
from repro.runtime.layers import layer_of, layer_samples, layer_sampling, layer_split
from repro.runtime.sweep import SweepConfig, SweepTelemetry, Trial, run_sweep

ROOT = os.path.dirname(os.path.abspath(repro.__file__))


def _unarmed() -> bool:
    return (
        signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
        and signal.getsignal(signal.SIGPROF) == signal.SIG_DFL
        and layer_samples() is None
    )


class TestLayerOf:
    @pytest.mark.parametrize(
        "relative,layer",
        [
            ("core/variation.py", "core.variation"),
            ("core/operators/selection.py", "core.operators.selection"),
            ("core/vectorized/kernels.py", "core.vectorized.kernels"),
            ("core/__init__.py", "core"),
            ("parallel/cellular_distributed.py", "parallel"),
            ("cluster/sim.py", "cluster"),
            ("runtime/sweep.py", "runtime"),
            ("__init__.py", "repro"),
        ],
    )
    def test_repro_files(self, relative, layer):
        assert layer_of(os.path.join(ROOT, *relative.split("/"))) == layer

    @pytest.mark.parametrize("filename", [np.__file__, os.__file__, "<frozen importlib._bootstrap>"])
    def test_other_files_belong_to_no_layer(self, filename):
        assert layer_of(filename) is None


class TestLayerSplit:
    def test_charged_seconds_are_rescaled_to_cpu(self):
        before = (7, {"a": 0.5, "c": 0.2})
        after = (11, {"a": 0.8, "b": 0.1, "c": 0.2})
        split = layer_split(before, after, 2.0)
        assert split["layer_s"] == pytest.approx({"a": 1.5, "b": 0.5})
        assert split["layer_samples"] == 4
        assert split["layer_se_s"] == pytest.approx(2.0 * (0.75 * 0.25 / 4) ** 0.5, abs=1e-6)

    def test_a_span_without_samples_is_unsampled(self):
        snapshot = (3, {"a": 0.3})
        assert layer_split(snapshot, snapshot, 0.0031) == {
            "layer_s": {"unsampled": 0.0031},
            "layer_samples": 0,
            "layer_se_s": 0.0031,
        }


class TestSampling:
    def test_armed_only_inside_the_block(self):
        assert _unarmed()
        with layer_sampling():
            assert layer_samples() == (0, {})
            assert signal.getitimer(signal.ITIMER_PROF)[1] == pytest.approx(0.002)
        assert _unarmed()

    def test_previous_handler_and_timer_are_restored(self):
        def mine(signum, frame):
            pass

        previous = signal.signal(signal.SIGPROF, mine)
        signal.setitimer(signal.ITIMER_PROF, 100.0, 100.0)
        try:
            with layer_sampling():
                assert signal.getsignal(signal.SIGPROF) is not mine
            assert signal.getsignal(signal.SIGPROF) is mine
            assert signal.getitimer(signal.ITIMER_PROF)[1] == 100.0
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, previous)
        assert _unarmed()

    def test_a_long_native_call_gets_its_cpu_time(self):
        """CPython runs the handler once after a native call however many
        expiries fell inside it; the call still gets its whole time."""
        probe = """
import time
import numpy as np
def run(work, spent):
    t = time.process_time()
    work()
    spent.append(time.process_time() - t)
"""
        native, interpreted = {}, {}
        exec(compile(probe, os.path.join(ROOT, "problems", "_native.py"), "exec"), native)
        exec(compile(probe, os.path.join(ROOT, "topology", "_interpreted.py"), "exec"), interpreted)
        data = np.random.default_rng(0).random(1_000_000)
        spent_native, spent_interpreted = [], []
        with layer_sampling():
            before = layer_samples()
            cpu0 = time.process_time()
            for _ in range(4):
                native["run"](lambda: np.sort(data, kind="stable"), spent_native)
                interpreted["run"](lambda: sum(i for i in range(2_000_000)), spent_interpreted)
            cpu = time.process_time() - cpu0
            split = layer_split(before, layer_samples(), cpu)
        seconds = split["layer_s"]
        assert split["layer_samples"] > 0
        assert seconds.get("problems", 0.0) == pytest.approx(sum(spent_native), abs=0.1 * cpu)
        assert seconds.get("topology", 0.0) == pytest.approx(sum(spent_interpreted), abs=0.1 * cpu)


@pytest.fixture(scope="module")
def strip_sweep() -> SweepTelemetry:
    """E5 strip-scalability trials (a ``DistributedCellularGA`` on the
    simulator) through a sampled serial sweep, one seed after another
    until they have drawn 100 samples, however fast the host."""
    telemetry = SweepTelemetry()
    with layer_sampling():
        for seed in range(1, 41):
            trial = Trial(_strip_scalability, spec=_strip_spec(4, 32, max_sweeps=8, seed=seed), seed=seed)
            run_sweep("E5", [trial], quick=True, config=SweepConfig(telemetry=telemetry))
            if sum(t.layer_samples for t in telemetry.trials) >= 100:
                break
    return telemetry


class TestSampledSweep:
    def test_simulated_engine_bodies_are_charged_to_their_own_layers(self, strip_sweep):
        """The engine's generator body is resumed by ``Simulator.run``; its
        work belongs to ``parallel`` and ``core``, not to ``cluster``."""
        row = strip_sweep.totals()["layers"]["E5"]
        assert row["samples"] >= 100
        layer_s = row["layer_s"]
        engine = layer_s.get("parallel", 0.0) + sum(
            s for layer, s in layer_s.items() if layer.startswith("core.")
        )
        assert layer_s.get("cluster", 0.0) < 0.1 * row["cpu_s"]
        assert engine > 0.6 * row["cpu_s"]

    def test_layer_seconds_sum_to_cpu_seconds(self, strip_sweep):
        for trial in strip_sweep.trials:
            assert sum(trial.layer_s.values()) == pytest.approx(trial.cpu_s, abs=1e-5)
        row = strip_sweep.totals()["layers"]["E5"]
        assert 0 < row["se_s"] < row["cpu_s"]
        assert row["samples"] == sum(t.layer_samples for t in strip_sweep.trials)
        assert sum(row["layer_s"].values()) == pytest.approx(row["cpu_s"], abs=1e-5)

    def test_an_unsampled_sweep_records_no_split(self):
        telemetry = SweepTelemetry()
        trial = Trial(_strip_scalability, spec=_strip_spec(1, 8, max_sweeps=1, seed=1), seed=1)
        run_sweep("E5", [trial], quick=True, config=SweepConfig(telemetry=telemetry))
        (record,) = telemetry.trials
        assert (record.layer_s, record.layer_samples, record.layer_se_s) == (None, 0, 0.0)
        assert telemetry.totals()["layers"] == {}


class TestCliArming:
    """``python -m repro.experiments`` samples only a serial --bench-out run."""

    @pytest.fixture
    def arms(self, monkeypatch):
        calls = []

        def spy():
            calls.append(True)
            return layer_sampling()

        monkeypatch.setattr(cli, "layer_sampling", spy)
        return calls

    def test_no_bench_out_arms_nothing(self, arms, capsys):
        assert cli.main(["E1", "--quick", "--no-cache"]) == 0
        assert arms == [] and _unarmed()

    def test_jobs_two_arms_nothing(self, arms, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert cli.main(["E1", "--quick", "--no-cache", "--jobs", "2", "--bench-out", str(out)]) == 0
        assert arms == [] and _unarmed()
        bench = json.loads(out.read_text())
        assert all(t["layer_s"] is None for t in bench["trials"])
        assert bench["totals"]["layers"] == {}

    def test_serial_bench_out_is_sampled_and_disarmed_after(self, arms, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert cli.main(["E1", "--quick", "--no-cache", "--bench-out", str(out)]) == 0
        assert len(arms) == 1 and _unarmed()
        bench = json.loads(out.read_text())
        assert all(t["layer_s"] is not None for t in bench["trials"])
        row = bench["totals"]["layers"]["E1"]
        assert sum(row["layer_s"].values()) == pytest.approx(row["cpu_s"], abs=1e-5)
