"""Cross-executor equivalence: every evaluation path must agree exactly.

The batch fast path, the thread pool and the process pool are alternative transports for the *same* mathematical
function — so for one seeded population they must return identical fitness
vectors and leave identical evaluation counts behind.  This is the guard
that keeps "faster" from quietly becoming "different".
"""

import threading

import numpy as np
import pytest

from repro.core import GAConfig, GenerationalEngine, SerialEvaluator
from repro.core.problem import CountingProblem, FitnessBudgetExceeded, Problem
from repro.problems import OneMax, Rastrigin, Sphere
from repro.runtime import MultiprocessingExecutor, ThreadExecutor

from ..conftest import ScalarOnly


def _population(problem, n, seed=0):
    rng = np.random.default_rng(seed)
    return [problem.spec.sample(rng) for _ in range(n)]


@pytest.mark.parametrize("make_problem", [lambda: OneMax(64), lambda: Sphere(dims=16)])
def test_all_executors_return_identical_fitness_vectors(make_problem):
    problem = make_problem()
    genomes = _population(problem, 23)
    batch = np.stack(genomes)

    reference = [problem.evaluate(g) for g in genomes]
    results = {"serial": SerialEvaluator().evaluate(problem, genomes)}
    with ThreadExecutor(workers=3) as ex:
        results["thread"] = ex.evaluate(problem, genomes)
    with MultiprocessingExecutor(problem, workers=2) as ex:
        results["process"] = ex.evaluate(problem, genomes)
    results["serial-batched"] = SerialEvaluator().evaluate(problem, batch)
    results["serial-scalar"] = SerialEvaluator().evaluate(ScalarOnly(problem), batch)

    for name, out in results.items():
        assert out == reference, f"{name} diverged from the direct scalar loop"


def test_engine_trajectory_identical_across_executors():
    """Same seed, same problem, any executor: identical run results."""
    problem = Rastrigin(dims=8)
    cfg = GAConfig(population_size=16)

    def run(evaluator=None):
        eng = GenerationalEngine(problem, cfg, seed=11, evaluator=evaluator)
        res = eng.run(6)
        return res.best_fitness, res.evaluations, eng.population.fitness_array()

    base_fit, base_evals, base_pop = run()
    for make in (
        lambda: ThreadExecutor(workers=3),
        lambda: MultiprocessingExecutor(problem, workers=2),
    ):
        with make() as ex:
            fit, evals, pop = run(ex)
        assert fit == base_fit
        assert evals == base_evals
        assert np.array_equal(pop, base_pop)


def test_engine_evaluation_counts_identical_across_batch_modes():
    problem = OneMax(32)
    cfg = GAConfig(population_size=12)

    def run(p):
        eng = GenerationalEngine(p, cfg, seed=3)
        res = eng.run(5)
        return res.evaluations, res.best_fitness, eng.population.fitness_array()

    batched, scalar = run(problem), run(ScalarOnly(problem))
    assert batched[:2] == scalar[:2]
    assert np.array_equal(batched[2], scalar[2])


class TestCountingAcrossExecutors:
    """Evaluation counts and budget enforcement must not depend on transport."""

    N = 10

    def _check(self, run):
        counting = CountingProblem(OneMax(16))
        genomes = _population(counting, self.N)
        out = run(counting, genomes)
        assert counting.evaluations == self.N
        assert out == [counting.inner.evaluate(g) for g in genomes]

    def test_serial(self):
        self._check(lambda p, g: SerialEvaluator().evaluate(p, g))

    def test_thread_chunked(self):
        with ThreadExecutor(workers=3) as ex:
            self._check(ex.evaluate)

    def test_process(self):
        counting = CountingProblem(OneMax(16))
        genomes = _population(counting, self.N)
        with MultiprocessingExecutor(counting, workers=2) as ex:
            out = ex.evaluate(counting, genomes)
        # counts accrue driver-side, not in forked worker copies
        assert counting.evaluations == self.N
        assert out == [counting.inner.evaluate(g) for g in genomes]

    def _check_budget(self, run, counting):
        genomes = _population(counting, self.N)
        with pytest.raises(FitnessBudgetExceeded):
            run(counting, genomes)
            run(counting, genomes)  # second pass must push past the budget
        assert counting.evaluations <= counting.budget

    def test_budget_exhaustion_serial(self):
        self._check_budget(
            lambda p, g: SerialEvaluator().evaluate(p, g),
            CountingProblem(OneMax(16), budget=15),
        )

    def test_budget_exhaustion_thread(self):
        counting = CountingProblem(OneMax(16), budget=15)
        with ThreadExecutor(workers=3) as ex:
            self._check_budget(ex.evaluate, counting)

    def test_budget_exhaustion_process(self):
        counting = CountingProblem(OneMax(16), budget=15)
        with MultiprocessingExecutor(counting, workers=2) as ex:
            self._check_budget(ex.evaluate, counting)


class TestCountingThreadSafety:
    def test_thread_counts_exactly(self):
        """The original counter was a bare ``+= 1``; hammer it from
        concurrent chunks."""
        counting = CountingProblem(OneMax(8))
        genomes = _population(counting, 500)
        with ThreadExecutor(workers=8) as ex:
            ex.evaluate(counting, genomes)
        assert counting.evaluations == 500

    def test_concurrent_direct_evaluate(self):
        counting = CountingProblem(OneMax(8))
        genome = np.ones(8, dtype=np.int8)
        per_thread = 200

        def worker():
            for _ in range(per_thread):
                counting.evaluate(genome)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counting.evaluations == 8 * per_thread


class _Exploding(Problem):
    """Raises on a marked genome — for charge-on-failure tests."""

    def __init__(self):
        self.spec = OneMax(8).spec
        self.maximize = True

    def evaluate(self, genome):
        if genome[0] == 9:
            raise RuntimeError("boom")
        return float(np.count_nonzero(genome))


class TestNoChargeOnFailure:
    def test_failed_evaluation_refunds_budget(self):
        counting = CountingProblem(_Exploding(), budget=5)
        bad = np.full(8, 9, dtype=np.int8)
        for _ in range(3):
            with pytest.raises(RuntimeError):
                counting.evaluate(bad)
        assert counting.evaluations == 0
        # the budget is still fully available for work that completes
        good = np.ones(8, dtype=np.int8)
        for _ in range(5):
            counting.evaluate(good)
        assert counting.evaluations == 5

    def test_failed_batch_refunds_all(self):
        counting = CountingProblem(_Exploding(), budget=10)
        genomes = [np.ones(8, dtype=np.int8) for _ in range(3)]
        genomes.append(np.full(8, 9, dtype=np.int8))
        with pytest.raises(RuntimeError):
            counting.evaluate_many(genomes)
        assert counting.evaluations == 0
