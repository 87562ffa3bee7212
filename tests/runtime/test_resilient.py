"""Tests for the supervised real-process pool (repro.runtime.resilient).

Every test here forks real worker processes; the chaos plans make the
failure paths (worker SIGKILL, hard exit, hangs) deterministic.  Kept
fast by tiny backoff ceilings and sub-second deadlines.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.runtime.chaos import ChaosError, ChaosPlan
from repro.runtime.resilient import (
    PoolStats,
    QuarantinedTask,
    ResilienceConfig,
    SupervisedPool,
    WorkerTaskError,
    backoff_delay,
)

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="supervised pool tests fork real processes"
)

#: fast retry schedule so failure-path tests stay sub-second
FAST = dict(backoff_base_s=0.001, backoff_cap_s=0.01)


def _square(x):
    return x * x


def _sleep_payload(payload):
    duration, value = payload
    time.sleep(duration)
    return value


def _raise_value_error(x):
    raise ValueError(f"bad payload {x}")


class TestConfig:
    def test_defaults_are_bare_pool_semantics(self):
        cfg = ResilienceConfig()
        assert cfg.max_attempts == 1
        assert cfg.deadline_s is None
        assert not cfg.quarantine

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"deadline_s": 0.0},
            {"deadline_s": -2.0},
            {"max_pool_respawns": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ResilienceConfig(**kwargs)


class TestBackoff:
    def test_deterministic(self):
        cfg = ResilienceConfig()
        assert backoff_delay(cfg, 3, 1) == backoff_delay(cfg, 3, 1)

    def test_varies_with_key_and_attempt(self):
        cfg = ResilienceConfig()
        draws = {backoff_delay(cfg, k, a) for k in range(4) for a in range(4)}
        assert len(draws) == 16

    def test_bounded_by_exponential_ceiling(self):
        cfg = ResilienceConfig(backoff_base_s=0.05, backoff_cap_s=2.0)
        for attempt in range(12):
            for key in range(8):
                d = backoff_delay(cfg, key, attempt)
                assert 0.0 <= d <= min(2.0, 0.05 * 2.0**attempt)


class TestFaultFree:
    def test_results_in_payload_order(self):
        with SupervisedPool(_square, 3) as pool:
            assert pool.run_batch(list(range(10))) == [i * i for i in range(10)]

    def test_on_result_streams_each_success(self):
        seen = {}
        with SupervisedPool(_square, 2) as pool:
            pool.run_batch([2, 5, 7], on_result=seen.__setitem__)
        assert seen == {0: 4, 1: 25, 2: 49}

    def test_empty_batch(self):
        with SupervisedPool(_square, 2) as pool:
            assert pool.run_batch([]) == []

    def test_pool_reusable_across_batches(self):
        with SupervisedPool(_square, 2) as pool:
            assert pool.run_batch([1, 2]) == [1, 4]
            assert pool.run_batch([3]) == [9]
            assert pool.stats == PoolStats()

    def test_initializer_runs_in_every_worker(self):
        with SupervisedPool(
            _square, 2, initializer=os.environ.setdefault, initargs=("X", "1")
        ) as pool:
            assert pool.run_batch([3, 4]) == [9, 16]

    def test_keys_length_mismatch(self):
        with SupervisedPool(_square, 2) as pool:
            with pytest.raises(ValueError, match="keys"):
                pool.run_batch([1, 2, 3], keys=[0, 1])

    def test_run_after_shutdown_raises(self):
        pool = SupervisedPool(_square, 1)
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.run_batch([1])

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            SupervisedPool(_square, 0)


class TestRetries:
    def test_injected_raise_retries_to_success(self):
        cfg = ResilienceConfig(
            max_retries=2, chaos=ChaosPlan({(0, 0): "raise"}), **FAST
        )
        with SupervisedPool(_square, 2, config=cfg) as pool:
            assert pool.run_batch([4, 5]) == [16, 25]
            assert pool.stats.retries == 1
            assert pool.stats.worker_deaths == 0

    def test_worker_kill_detected_and_retried(self):
        cfg = ResilienceConfig(
            max_retries=2, chaos=ChaosPlan({(1, 0): "kill"}), **FAST
        )
        with SupervisedPool(_square, 2, config=cfg) as pool:
            assert pool.run_batch([4, 5, 6]) == [16, 25, 36]
            assert pool.stats.worker_deaths >= 1
            assert pool.stats.respawns >= 1
            assert pool.stats.retries >= 1

    def test_hard_exit_detected_and_retried(self):
        cfg = ResilienceConfig(
            max_retries=2, chaos=ChaosPlan({(0, 0): "exit"}), **FAST
        )
        with SupervisedPool(_square, 2, config=cfg) as pool:
            assert pool.run_batch([4, 5]) == [16, 25]
            assert pool.stats.worker_deaths >= 1

    def test_hang_killed_by_deadline_and_retried(self):
        cfg = ResilienceConfig(
            deadline_s=0.4,
            max_retries=2,
            chaos=ChaosPlan({(0, 0): "hang"}, hang_s=60.0),
            **FAST,
        )
        with SupervisedPool(_square, 2, config=cfg) as pool:
            t0 = time.monotonic()
            assert pool.run_batch([4, 5]) == [16, 25]
            assert time.monotonic() - t0 < 30.0  # never waits out the hang
            assert pool.stats.timeouts == 1


class TestTerminalFailures:
    def test_original_exception_type_preserved(self):
        with SupervisedPool(_raise_value_error, 2) as pool:
            with pytest.raises(ValueError, match="bad payload"):
                pool.run_batch([1, 2, 3])

    def test_terminal_worker_death_raises_instead_of_hanging(self):
        cfg = ResilienceConfig(chaos=ChaosPlan({(0, 0): "kill"}), **FAST)
        with SupervisedPool(_square, 1, config=cfg) as pool:
            with pytest.raises(WorkerTaskError, match="worker-death"):
                pool.run_batch([1])

    def test_pool_usable_after_batch_error(self):
        with SupervisedPool(_raise_value_error, 2) as pool:
            with pytest.raises(ValueError):
                pool.run_batch([1])
            pool.worker_fn = _square  # workers respawn lazily with the new fn
            assert pool.run_batch([3]) == [9]


class TestQuarantine:
    def test_poison_task_boxed_others_complete(self):
        # key 1 faults on every allowed attempt -> poison
        plan = ChaosPlan({(1, 0): "raise", (1, 1): "raise"})
        cfg = ResilienceConfig(max_retries=1, quarantine=True, chaos=plan, **FAST)
        streamed = {}
        with SupervisedPool(_square, 2, config=cfg) as pool:
            out = pool.run_batch([4, 5, 6], on_result=streamed.__setitem__)
        assert out[0] == 16 and out[2] == 36
        boxed = out[1]
        assert isinstance(boxed, QuarantinedTask)
        assert boxed.key == 1 and boxed.attempts == 2
        assert [f.kind for f in boxed.failures] == ["raise", "raise"]
        assert "ChaosError" in boxed.describe()
        assert 1 not in streamed  # quarantined slots are never streamed
        assert pool.stats.quarantined == 1

    def test_custom_keys_name_the_chaos_targets(self):
        # chaos keyed by caller-assigned key 40, not slot index 1
        plan = ChaosPlan({(40, 0): "raise", (40, 1): "raise"})
        cfg = ResilienceConfig(max_retries=1, quarantine=True, chaos=plan, **FAST)
        with SupervisedPool(_square, 2, config=cfg) as pool:
            out = pool.run_batch([4, 5, 6], keys=[30, 40, 50])
        assert isinstance(out[1], QuarantinedTask)
        assert out[0] == 16 and out[2] == 36


class TestDegradation:
    def test_respawn_cap_degrades_to_serial_and_finishes(self):
        # every attempt of every task dies -> the pool must conclude the
        # host is hostile and finish in-process (where chaos never applies)
        plan = ChaosPlan({(k, a): "kill" for k in range(6) for a in range(8)})
        cfg = ResilienceConfig(
            max_retries=6, max_pool_respawns=2, chaos=plan, **FAST
        )
        with SupervisedPool(_square, 2, config=cfg) as pool:
            assert pool.run_batch(list(range(6))) == [i * i for i in range(6)]
            assert pool.stats.degraded
            assert pool.stats.respawns == 2
            assert pool._workers == []

    def test_degraded_pool_raises_real_errors(self):
        plan = ChaosPlan({(0, 0): "kill", (0, 1): "kill"})
        cfg = ResilienceConfig(
            max_retries=6, max_pool_respawns=0, chaos=plan, **FAST
        )
        with SupervisedPool(_raise_value_error, 1, config=cfg) as pool:
            with pytest.raises(ValueError, match="bad payload"):
                pool.run_batch([1])


class TestShutdown:
    def test_shutdown_is_idempotent(self):
        pool = SupervisedPool(_square, 2)
        pool.shutdown()
        pool.shutdown()

    def test_shutdown_bounded_with_hung_worker(self):
        # the bare-pool bug this layer fixes: close(); join() deadlocks
        # while a worker is mid-task.  Hand a worker a long sleep, then
        # demand shutdown with a short grace period.
        pool = SupervisedPool(_sleep_payload, 1)
        worker = pool._workers[0]
        worker.conn.send((0, 0, 0, (60.0, None)))
        time.sleep(0.2)  # let the worker start sleeping
        t0 = time.monotonic()
        pool.shutdown(timeout=0.5)
        assert time.monotonic() - t0 < 10.0
        assert not worker.proc.is_alive()

    def test_shutdown_with_already_dead_worker(self):
        pool = SupervisedPool(_square, 2)
        pool._workers[0].proc.kill()
        pool._workers[0].proc.join(timeout=5.0)
        pool.shutdown(timeout=1.0)
