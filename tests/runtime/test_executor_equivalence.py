"""Cross-executor equivalence: every evaluation path must agree exactly.

The batch fast path, the thread pool and the process pool are alternative
transports for the *same* mathematical function — so for one seeded
population they must return identical fitness vectors, and an engine driving
them must leave identical evaluation counts behind.  This is the guard that
keeps "faster" from quietly becoming "different".
"""

import numpy as np
import pytest

from repro.core import GAConfig, GenerationalEngine, SerialEvaluator
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
