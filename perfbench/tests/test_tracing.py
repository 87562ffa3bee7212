"""Traced-run accounting: layer counts match the program's public counters,
self times add up to the traced wall time, and the wrappers leave no trace."""

import pytest

from repro.cluster.sim import Simulator
from repro.cluster.trace import Trace
from repro.core import engine
from repro.core.problem import Problem
from repro.runtime import sweep
from repro.verify.digest import result_fingerprint

from perfbench.tracing import LAYERS, LayerTracer
from perfbench.workloads import generate


def _sample():
    """A few cheap trials covering every layer: untimed and timed islands,
    a master-slave farm and a supervised island under a fault plan."""
    islands = generate("islands", 5).trials
    farm = generate("farm", 5).trials
    pick = [
        next(t for t in islands if t.spec.engine.name == "island"),
        next(t for t in islands if t.spec.engine.name == "sim-island"),
        next(t for t in farm if t.spec.engine.name == "sim-master-slave"),
        next(t for t in farm if t.spec.engine.name == "sim-island"),
    ]
    return pick


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    trials = _sample()
    config = sweep.SweepConfig(cache_dir=str(tmp_path_factory.mktemp("cache")))
    untraced = sweep.run_sweep("perfbench-test", trials, quick=True, config=sweep.SweepConfig())
    tracer = LayerTracer()
    with tracer.installed():
        cold = sweep.run_sweep("perfbench-test", trials, quick=True, config=config)
        warm = sweep.run_sweep("perfbench-test", trials, quick=True, config=config)
    return tracer, trials, untraced, cold, warm


def test_layer_counts_equal_public_counters(traced):
    tracer, trials, *_ = traced
    assert tracer.counts["problems.genomes"] == tracer.evaluations > 0
    assert tracer.counts["cluster.sim.events"] == tracer.events > 0
    assert tracer.counts["sweep.trials"] == 2 * len(trials)
    assert tracer.counts["sweep.cache.hits"] == len(trials)
    assert tracer.counts["spec.build"] == len(trials)


def test_self_times_and_remainder_sum_to_traced_wall(traced):
    tracer, *_ = traced
    metrics = {k: v for k, (v, _unit) in tracer.metrics(passes=1).items()}
    parts = [
        "problems.self_s",
        "core.self_s",
        "deme.self_s",
        "migration.self_s",
        "cluster.self_s",
        "sweep.overhead_s",
        "spec.build_s",
        "unattributed_s",
    ]
    assert sum(metrics[p] for p in parts) == pytest.approx(metrics["traced_wall_s"], rel=1e-9)
    layers = tracer.layer_self_s()
    assert set(layers) == set(LAYERS)
    assert all(seconds > 0 for seconds in layers.values())
    assert 0 <= metrics["unattributed_s"] < 0.01 * metrics["traced_wall_s"]


def test_tracing_leaves_results_unchanged(traced):
    _, _, untraced, cold, warm = traced
    assert [result_fingerprint(r) for r in cold] == [result_fingerprint(r) for r in untraced]
    assert [result_fingerprint(r) for r in warm] == [result_fingerprint(r) for r in cold]


def test_wrappers_are_removed_after_the_traced_block():
    originals = {
        "record": Trace.record,
        "run": vars(Simulator)["run"],
        "evaluate_many": vars(Problem)["evaluate_many"],
        "offspring_pair": engine.offspring_pair,
        "run_sweep": sweep.run_sweep,
    }
    tracer = LayerTracer()
    with tracer.installed():
        assert Trace.record is not originals["record"]
        assert engine.offspring_pair is not originals["offspring_pair"]
    assert Trace.record is originals["record"]
    assert vars(Simulator)["run"] is originals["run"]
    assert vars(Problem)["evaluate_many"] is originals["evaluate_many"]
    assert engine.offspring_pair is originals["offspring_pair"]
    assert sweep.run_sweep is originals["run_sweep"]
