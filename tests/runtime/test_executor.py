"""Unit tests for the real-parallelism executors."""

import os
import time

import numpy as np
import pytest

from repro.core import GAConfig, GenerationalEngine, SerialEvaluator
from repro.core.problem import CountingProblem
from repro.problems import OneMax, Sphere
from repro.runtime import (
    ChaosPlan,
    MultiprocessingExecutor,
    QuarantineError,
    ResilienceConfig,
    ThreadExecutor,
    WorkerTaskError,
    chunk_indices,
)


class TestChunkIndices:
    def test_even_split(self):
        assert chunk_indices(10, 2) == [(0, 5), (5, 10)]

    def test_uneven_split_covers_all(self):
        spans = chunk_indices(10, 3)
        assert spans[0][0] == 0 and spans[-1][1] == 10
        covered = sum(b - a for a, b in spans)
        assert covered == 10

    def test_more_chunks_than_items(self):
        spans = chunk_indices(2, 10)
        assert len(spans) == 2
        assert spans == [(0, 1), (1, 2)]

    def test_empty(self):
        assert chunk_indices(0, 4) == []

    def test_invalid(self):
        with pytest.raises(ValueError):
            chunk_indices(-1, 2)
        with pytest.raises(ValueError):
            chunk_indices(5, 0)


def _genomes(problem, n, seed=0):
    rng = np.random.default_rng(seed)
    return [problem.spec.sample(rng) for _ in range(n)]


class TestSerialExecutor:
    """The one-processor case is the engines' default ``SerialEvaluator``."""

    def test_matches_direct_evaluation(self):
        p = OneMax(16)
        genomes = _genomes(p, 7)
        assert SerialEvaluator().evaluate(p, genomes) == [p.evaluate(g) for g in genomes]


class TestThreadExecutor:
    def test_matches_serial(self):
        p = Sphere(dims=6)
        genomes = _genomes(p, 13)
        with ThreadExecutor(workers=3) as ex:
            out = ex.evaluate(p, genomes)
        assert np.allclose(out, [p.evaluate(g) for g in genomes])

    def test_order_preserved(self):
        p = OneMax(32)
        genomes = _genomes(p, 20)
        with ThreadExecutor(workers=4) as ex:
            out = ex.evaluate(p, genomes)
        assert out == [p.evaluate(g) for g in genomes]

    def test_empty_batch(self):
        with ThreadExecutor(workers=2) as ex:
            assert ex.evaluate(OneMax(4), []) == []

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ThreadExecutor(workers=0)

    def test_engine_integration(self):
        p = OneMax(20)
        with ThreadExecutor(workers=2) as ex:
            res = GenerationalEngine(
                p, GAConfig(population_size=20), seed=1, evaluator=ex
            ).run(30)
        assert res.best_fitness >= 18


class TestMultiprocessingExecutor:
    def test_matches_serial(self):
        p = OneMax(16)
        genomes = _genomes(p, 9)
        with MultiprocessingExecutor(p, workers=2) as ex:
            out = ex.evaluate(p, genomes)
        assert out == [p.evaluate(g) for g in genomes]

    def test_rejects_foreign_problem(self):
        p = OneMax(8)
        with MultiprocessingExecutor(p, workers=1) as ex:
            with pytest.raises(ValueError):
                ex.evaluate(Sphere(dims=4), _genomes(Sphere(dims=4), 2))

    def test_empty_batch(self):
        p = OneMax(8)
        with MultiprocessingExecutor(p, workers=1) as ex:
            assert ex.evaluate(p, []) == []

    def test_engine_integration_identical_results(self):
        # the executor seam must not perturb the genetic trajectory
        p = OneMax(16)
        serial = GenerationalEngine(p, GAConfig(population_size=12), seed=5).run(8)
        with MultiprocessingExecutor(p, workers=2) as ex:
            pooled = GenerationalEngine(
                p, GAConfig(population_size=12), seed=5, evaluator=ex
            ).run(8)
        assert serial.best_fitness == pooled.best_fitness
        assert serial.evaluations == pooled.evaluations


@pytest.mark.skipif(os.name != "posix", reason="chaos faults need fork workers")
class TestSupervisedExecutor:
    """The executor's resilience seam: chunk keys are chunk indices."""

    FAST = dict(backoff_base_s=0.001, backoff_cap_s=0.01)

    def test_worker_kill_retried_matches_serial(self):
        p = OneMax(16)
        genomes = _genomes(p, 9)
        res = ResilienceConfig(
            max_retries=2, chaos=ChaosPlan({(0, 0): "kill"}), **self.FAST
        )
        with MultiprocessingExecutor(p, workers=2, resilience=res) as ex:
            out = ex.evaluate(p, genomes)
            assert ex.stats.worker_deaths >= 1
            assert ex.stats.retries >= 1
        assert out == [p.evaluate(g) for g in genomes]

    def test_worker_death_raises_instead_of_hanging(self):
        # the bare-Pool pathology this layer fixes: Pool.map blocks
        # forever when a worker is killed mid-task
        p = OneMax(8)
        res = ResilienceConfig(chaos=ChaosPlan({(0, 0): "kill"}), **self.FAST)
        t0 = time.monotonic()
        with MultiprocessingExecutor(p, workers=1, resilience=res) as ex:
            with pytest.raises(WorkerTaskError, match="worker-death"):
                ex.evaluate(p, _genomes(p, 4))
        assert time.monotonic() - t0 < 60.0

    def test_hang_killed_by_deadline_and_retried(self):
        p = OneMax(16)
        genomes = _genomes(p, 6)
        res = ResilienceConfig(
            deadline_s=0.5,
            max_retries=1,
            chaos=ChaosPlan({(1, 0): "hang"}, hang_s=60.0),
            **self.FAST,
        )
        with MultiprocessingExecutor(p, workers=2, resilience=res) as ex:
            out = ex.evaluate(p, genomes)
            assert ex.stats.timeouts == 1
        assert out == [p.evaluate(g) for g in genomes]

    def test_quarantine_mode_raises_quarantine_error_and_refunds(self):
        counting = CountingProblem(OneMax(8))
        res = ResilienceConfig(
            quarantine=True,
            chaos=ChaosPlan({(0, 0): "raise"}),
            **self.FAST,
        )
        with MultiprocessingExecutor(counting, workers=1, resilience=res) as ex:
            with pytest.raises(QuarantineError):
                ex.evaluate(counting, _genomes(counting, 5))
        # the failed batch must not charge the evaluation budget
        assert counting.evaluations == 0

    def test_shutdown_twice_is_safe(self):
        p = OneMax(8)
        ex = MultiprocessingExecutor(p, workers=2)
        ex.shutdown(timeout=2.0)
        ex.shutdown(timeout=2.0)
