"""Integration tests: sweeps under chaos, quarantine, crash restart, interrupt.

These drive :func:`repro.runtime.sweep.run_sweep` end-to-end through the
supervised fork pool with deterministic fault plans, and restart killed
sweeps — including a real SIGKILLed orchestrator process — from the
trial cache alone.

The trial functions read environment variables to decide whether to
fail or how long to sleep — deliberately: the environment is *not* part
of a trial's content digest, so a "crashed" run and its "fixed" re-run
address the same cache entries, exactly like a real crash/restart.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs import obs_session
from repro.runtime.chaos import ChaosPlan
from repro.runtime.resilient import QuarantineError, ResilienceConfig
from repro.runtime.sweep import (
    SweepConfig,
    SweepTelemetry,
    Trial,
    TrialCache,
    TrialCost,
    run_sweep,
    trial_digest,
)

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="resilience integration tests fork real processes"
)

REPO_ROOT = Path(__file__).resolve().parents[2]

_FAIL_ENV = "REPRO_TEST_FAIL_X"
_SLEEP_ENV = "REPRO_TEST_TRIAL_SLEEP"
_GATE_ENV = "REPRO_TEST_TRIAL_GATE"

#: fast retry schedule for chaos runs
FAST = dict(backoff_base_s=0.001, backoff_cap_s=0.01)


def _square(*, x: int, seed: int) -> int:
    return x * x + seed


def _slow_square(*, x: int, seed: int) -> int:
    time.sleep(float(os.environ.get(_SLEEP_ENV, "0")))
    gate = os.environ.get(_GATE_ENV)
    if gate and x >= 2:
        # hold the sweep open at its third trial until the gate file
        # appears (bounded, so an orphaned process cannot spin forever)
        deadline = time.monotonic() + 120.0
        while not os.path.exists(gate) and time.monotonic() < deadline:
            time.sleep(0.05)
    return x * x + seed


def _gated_square(*, x: int, seed: int) -> int:
    if os.environ.get(_FAIL_ENV) == str(x):
        raise RuntimeError(f"injected failure for x={x}")
    return x * x + seed


def _interrupting_square(*, x: int, seed: int) -> int:
    if os.environ.get(_FAIL_ENV) == str(x):
        raise KeyboardInterrupt
    return x * x + seed


def _trials(fn, n: int = 6) -> list[Trial]:
    return [Trial(fn, dict(x=i), seed=i) for i in range(n)]


def _finished(cache_dir, experiment_id: str, trials: list[Trial]) -> dict:
    """The cost stored with each finished trial's cache entry, by digest."""
    cache = TrialCache(cache_dir)
    finished = {}
    for trial in trials:
        digest = trial_digest(experiment_id, trial, quick=False)
        hit, _, cost = cache.load(digest)
        if hit:
            finished[digest[:16]] = cost
    return finished


def _cost(record) -> TrialCost:
    return TrialCost(record.wall_s, record.cpu_s, record.sim_events, record.evaluations)


def _record_costs(telemetry: SweepTelemetry, *, cached: bool = True) -> dict:
    """The cost each cache hit (or executed trial) of a sweep reported, by digest."""
    return {
        t.digest: _cost(t)
        for t in telemetry.trials
        if t.cached == cached and not t.quarantined
    }


def _crash_child(cache_dir: str) -> None:
    """Entry point for the SIGKILL test's victim orchestrator process."""
    run_sweep(
        "EKILL",
        _trials(_slow_square),
        config=SweepConfig(cache_dir=cache_dir),
    )


class TestChaosMatrix:
    def test_one_fault_of_each_kind_matches_clean_serial(self):
        trials = _trials(_square, 6)
        serial = run_sweep("ECHAOS", trials, config=SweepConfig(jobs=1))
        plan = ChaosPlan(
            {(0, 0): "kill", (2, 0): "raise", (4, 0): "hang", (5, 0): "exit"},
            hang_s=60.0,
        )
        res = ResilienceConfig(deadline_s=1.0, max_retries=3, chaos=plan, **FAST)
        chaotic = run_sweep(
            "ECHAOS", trials, config=SweepConfig(jobs=2, resilience=res)
        )
        assert chaotic == serial

    def test_seeded_plan_matches_clean_serial(self):
        trials = _trials(_square, 8)
        serial = run_sweep("ESEED", trials, config=SweepConfig(jobs=1))
        plan = ChaosPlan.seeded(11, 8, p_kill=0.25, p_raise=0.25, attempts=1)
        assert plan.faults  # the seed must actually fault something
        res = ResilienceConfig(max_retries=3, chaos=plan, **FAST)
        chaotic = run_sweep(
            "ESEED", trials, config=SweepConfig(jobs=3, resilience=res)
        )
        assert chaotic == serial

    def test_supervision_counters_reach_obs(self):
        trials = _trials(_square, 6)
        plan = ChaosPlan(
            {(0, 0): "kill", (2, 0): "raise", (4, 0): "hang", (5, 0): "exit"},
            hang_s=60.0,
        )
        res = ResilienceConfig(deadline_s=1.0, max_retries=3, chaos=plan, **FAST)
        tele = SweepTelemetry()
        with obs_session(label="chaos-test") as session:
            run_sweep(
                "EOBS",
                trials,
                config=SweepConfig(jobs=2, telemetry=tele, resilience=res),
            )
        # the pool's PoolStats land in the sweep's BENCH_sweep.json entry
        (sweep,) = tele.to_json()["sweeps"]
        assert sweep["retries"] == 4
        assert sweep["worker_deaths"] == 2  # kill + exit
        assert sweep["timeouts"] == 1  # the hang
        assert sweep["trials"] == 6
        assert sweep["degraded"] is False
        # host-time backoff is not a span: spans run on simulated time only
        assert not [s for s in session.spans.spans if s.name == "retry-backoff"]


class TestQuarantine:
    def test_poison_trial_quarantined_healthy_trials_cached(self, tmp_path):
        trials = _trials(_square, 4)
        digests = [trial_digest("EQ", t, quick=False) for t in trials]
        plan = ChaosPlan({(1, 0): "raise", (1, 1): "raise"})
        res = ResilienceConfig(max_retries=1, chaos=plan, **FAST)
        tele = SweepTelemetry()
        cfg = SweepConfig(jobs=2, cache_dir=tmp_path, telemetry=tele, resilience=res)
        with pytest.raises(QuarantineError) as excinfo:
            run_sweep("EQ", trials, config=cfg)
        assert [q.key for q in excinfo.value.quarantined] == [1]
        assert "2 attempts" in str(excinfo.value)
        # healthy trials completed and are durable; the poison one is not
        cache = TrialCache(tmp_path)
        assert [cache.load(d)[0] for d in digests] == [True, False, True, True]
        assert sum(1 for t in tele.trials if t.quarantined) == 1
        assert tele.sweeps[0]["quarantined"] == 1

        # re-run without the fault: only the poison trial recomputes, and
        # the healthy hits report what they cost in the quarantined sweep
        tele2 = SweepTelemetry()
        out = run_sweep(
            "EQ",
            trials,
            config=SweepConfig(jobs=2, cache_dir=tmp_path, telemetry=tele2),
        )
        assert out == [i * i + i for i in range(4)]
        assert [t.digest for t in tele2.trials if not t.cached] == [digests[1][:16]]
        assert _record_costs(tele2) == _record_costs(tele, cached=False)


class TestCrashRestart:
    def test_mid_sweep_error_then_rerun_recomputes_no_finished_trial(
        self, tmp_path, monkeypatch
    ):
        trials = _trials(_gated_square)
        monkeypatch.setenv(_FAIL_ENV, "3")
        tele = SweepTelemetry()
        with pytest.raises(RuntimeError, match="injected failure"):
            run_sweep(
                "ER", trials, config=SweepConfig(cache_dir=tmp_path, telemetry=tele)
            )
        finished = _finished(tmp_path, "ER", trials)
        assert len(finished) == 3  # trials 0..2 landed
        assert tele.sweeps[0]["interrupted"] is True

        monkeypatch.delenv(_FAIL_ENV)
        tele2 = SweepTelemetry()
        with obs_session(label="restart-test") as session:
            out = run_sweep(
                "ER", trials, config=SweepConfig(cache_dir=tmp_path, telemetry=tele2)
            )
        assert out == [i * i + i for i in range(6)]
        assert _record_costs(tele2) == finished
        assert sum(1 for t in tele2.trials if not t.cached) == 3
        assert tele2.sweeps[0]["cache_hits"] == 3
        # cache hits ran nothing, so only the recomputed trials add a timeline
        assert session.children == ["ER/t3", "ER/t4", "ER/t5"]

    def test_cache_hit_carries_the_killed_run_cost(self, tmp_path, monkeypatch):
        trials = _trials(_gated_square)
        monkeypatch.setenv(_FAIL_ENV, "2")
        tele = SweepTelemetry()
        with pytest.raises(RuntimeError, match="injected failure"):
            run_sweep(
                "EC", trials, config=SweepConfig(cache_dir=tmp_path, telemetry=tele)
            )
        measured = _record_costs(tele, cached=False)
        assert len(measured) == 2
        assert all(cost.cpu_s >= 0.0 for cost in measured.values())
        assert _finished(tmp_path, "EC", trials) == measured

        monkeypatch.delenv(_FAIL_ENV)
        tele2 = SweepTelemetry()
        run_sweep("EC", trials, config=SweepConfig(cache_dir=tmp_path, telemetry=tele2))
        assert _record_costs(tele2) == measured

    def test_sigkilled_orchestrator_rerun_recomputes_no_finished_trial(
        self, tmp_path, monkeypatch
    ):
        trials = _trials(_slow_square)

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        )
        env[_SLEEP_ENV] = "0.4"
        # never created: the victim finishes two trials, then blocks, so
        # it is alive when the kill lands however loaded the host is
        env[_GATE_ENV] = str(tmp_path / "gate-never-opened")
        code = (
            f"from {_crash_child.__module__} import _crash_child; "
            f"_crash_child({str(tmp_path)!r})"
        )
        child = subprocess.Popen([sys.executable, "-c", code], env=env)
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if len(_finished(tmp_path, "EKILL", trials)) >= 2:
                    break
                if child.poll() is not None:
                    break
                time.sleep(0.02)
            assert child.poll() is None, "victim sweep finished before the kill"
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.wait(timeout=30)

        # the entry's atomic rename is the commit point: what is on disk
        # after the kill is exactly the set of finished trials
        finished = _finished(tmp_path, "EKILL", trials)
        assert 2 <= len(finished) < len(trials)

        monkeypatch.setenv(_SLEEP_ENV, "0")
        tele = SweepTelemetry()
        out = run_sweep(
            "EKILL",
            trials,
            config=SweepConfig(cache_dir=tmp_path, telemetry=tele),
        )
        assert out == [i * i + i for i in range(len(trials))]
        # every trial that finished before the kill is served from the
        # cache with the killed run's cost, recomputing zero of them
        assert _record_costs(tele) == finished
        recomputed = {t.digest for t in tele.trials if not t.cached}
        assert not recomputed & finished.keys()
        assert len(recomputed) == len(trials) - len(finished)


class TestKeyboardInterrupt:
    def test_interrupt_flushes_telemetry_and_keeps_finished_trials(
        self, tmp_path, monkeypatch
    ):
        bench = tmp_path / "bench.json"
        cache_dir = tmp_path / "cache"
        trials = _trials(_interrupting_square, 4)
        tele = SweepTelemetry(autoflush_path=bench)
        monkeypatch.setenv(_FAIL_ENV, "2")
        with pytest.raises(KeyboardInterrupt):
            run_sweep(
                "EKI",
                trials,
                config=SweepConfig(cache_dir=cache_dir, telemetry=tele),
            )
        # partial telemetry hit the disk before the interrupt propagated
        doc = json.loads(bench.read_text())
        assert doc["sweeps"][0]["interrupted"] is True
        assert doc["totals"]["trials"] == 2
        finished = _finished(cache_dir, "EKI", trials)
        assert len(finished) == 2

        monkeypatch.delenv(_FAIL_ENV)
        tele2 = SweepTelemetry()
        out = run_sweep(
            "EKI",
            trials,
            config=SweepConfig(cache_dir=cache_dir, telemetry=tele2),
        )
        assert out == [i * i + i for i in range(4)]
        assert _record_costs(tele2) == finished
