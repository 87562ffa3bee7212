"""Tests for the asynchronous (continuous-dispatch) master-slave farm."""

import numpy as np
import pytest

from repro.cluster import Network, SimulatedCluster
from repro.core import GAConfig
from repro.parallel import SimulatedAsyncMasterSlave, SimulatedMasterSlave
from repro.problems import OneMax


def make(speeds, *, seed=1, latency=1e-4, eval_cost=1e-2):
    n = len(speeds)
    cluster = SimulatedCluster(
        n, speeds=speeds, network=Network(n, latency=latency, bandwidth=1e7)
    )
    return SimulatedAsyncMasterSlave(
        OneMax(32), GAConfig(population_size=30),
        cluster=cluster, eval_cost=eval_cost, seed=seed,
    )


class TestAsyncFarm:
    def test_solves(self):
        rep = make([1.0, 1.0, 1.0]).run(max_evaluations=6000)
        assert rep.solved

    def test_full_utilisation_even_when_heterogeneous(self):
        rep = make([1.0, 2.0, 0.25, 1.0]).run(max_evaluations=2000)
        assert all(u > 0.99 for u in rep.utilisation)

    def test_completions_proportional_to_speed(self):
        rep = make([1.0, 2.0, 0.5, 1.0]).run(max_evaluations=3000)
        c = np.asarray(rep.completions, dtype=float)
        ratio = c / c.sum()
        expected = np.asarray([2.0, 0.5, 1.0]) / 3.5
        assert np.allclose(ratio, expected, atol=0.05)

    def test_evaluation_budget_respected(self):
        rep = make([1.0, 1.0]).run(max_evaluations=500)
        assert rep.evaluations <= 500 or rep.solved

    def test_deterministic(self):
        r1 = make([1.0, 0.5], seed=3).run(max_evaluations=800)
        r2 = make([1.0, 0.5], seed=3).run(max_evaluations=800)
        assert r1.best_fitness == r2.best_fitness
        assert r1.sim_time == r2.sim_time
        assert r1.completions == r2.completions

    def test_population_size_constant(self):
        farm = make([1.0, 1.0])
        farm.run(max_evaluations=600)
        assert len(farm.engine.population) == 30

    def test_requires_two_nodes(self):
        with pytest.raises(ValueError):
            SimulatedAsyncMasterSlave(OneMax(8), cluster=SimulatedCluster(1))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            make([1.0, 1.0], eval_cost=0.0)
        with pytest.raises(ValueError):
            make([1.0, 1.0]).run(max_evaluations=0)


class TestAsyncVsSyncOnHeterogeneousFarm:
    def test_async_beats_generational_barrier_per_evaluation(self):
        """The async farm's whole reason to exist: with a very slow slave
        the synchronous farm's generation barrier waits, the async one
        keeps the fast slaves saturated, so async completes the same
        number of evaluations in less simulated time."""
        speeds = [1.0, 2.0, 0.1, 1.0, 1.5]
        n = len(speeds)
        budget = 960  # evaluations

        async_farm = make(speeds, seed=4)
        async_rep = async_farm.run(max_evaluations=budget)
        async_rate = async_rep.evaluations / async_rep.sim_time

        cluster = SimulatedCluster(
            n, speeds=speeds, network=Network(n, latency=1e-4, bandwidth=1e7)
        )
        sync = SimulatedMasterSlave(
            OneMax(32), GAConfig(population_size=96), cluster=cluster,
            eval_cost=1e-2, chunks_per_worker=1, seed=4,
        )
        sync_rep = sync.run(9)  # ~10 x 96 = 960 evaluations
        sync_rate = sync_rep.result.evaluations / sync_rep.sim_time

        assert async_rate > sync_rate, (
            f"async {async_rate:.0f} evals/s vs sync {sync_rate:.0f} evals/s"
        )
