"""Tests for the DRM/DREAM-style pooled evolution model."""

import numpy as np
import pytest

from repro.cluster import SimulatedCluster, wan_internet
from repro.core import GAConfig
from repro.core.operators import ReplaceWorst
from repro.parallel import PooledEvolution
from repro.problems import OneMax, SubsetSum


def make(problem=None, *, nodes=4, max_transactions=200, seed=1, **kw):
    cluster = SimulatedCluster(nodes, network=wan_internet().build(nodes))
    return PooledEvolution(
        problem or OneMax(24),
        GAConfig(population_size=30),
        cluster=cluster,
        eval_cost=1e-3,
        max_transactions=max_transactions,
        seed=seed,
        **kw,
    )


class TestPooledEvolution:
    def test_solves_subset_sum(self):
        pe = make(SubsetSum(n=24, seed=2), max_transactions=1000, seed=5)
        res = pe.run()
        assert res.solved

    def test_pool_size_constant(self):
        pe = make()
        res = pe.run()
        assert res.pool_size == 30

    def test_transactions_bounded(self):
        pe = make(max_transactions=50)
        res = pe.run()
        assert res.pulls <= 50

    def test_evaluation_accounting(self):
        pe = make(max_transactions=40)
        res = pe.run()
        # initial pool + batch per transaction
        assert res.evaluations == 30 + sum(res.agent_evaluations)

    def test_agents_share_work_evenly_on_homogeneous_nodes(self):
        pe = make(max_transactions=90, nodes=4)
        res = pe.run()
        evals = res.agent_evaluations
        assert max(evals) - min(evals) <= pe.batch * 2

    def test_fast_agents_do_more_on_heterogeneous_nodes(self):
        cluster = SimulatedCluster(
            3, speeds=[1.0, 4.0, 0.25], network=wan_internet().build(3)
        )
        pe = PooledEvolution(
            OneMax(64),
            GAConfig(population_size=30),
            cluster=cluster,
            eval_cost=0.5,  # compute-dominated so speed matters
            max_transactions=60,
            seed=4,
        )
        res = pe.run()
        assert res.agent_evaluations[0] > res.agent_evaluations[1]

    def test_pool_never_degrades(self):
        pe = make(max_transactions=80, seed=5)
        pe.run()
        # pushing is replace-if-better, so the final pool's worst is at
        # least as good as any initial random individual could guarantee —
        # verify all members evaluated and pool is internally consistent
        fits = [i.require_fitness() for i in pe.engine.population]
        assert all(np.isfinite(fits))
        assert pe.global_best().require_fitness() == max(fits)

    def test_stops_early_when_solved(self):
        pe = make(OneMax(8), max_transactions=10_000, seed=6)
        res = pe.run()
        assert res.solved
        assert res.pulls < 10_000

    def test_requires_two_nodes(self):
        with pytest.raises(ValueError):
            PooledEvolution(OneMax(8), cluster=SimulatedCluster(1))

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            make(batch=1)

    @pytest.mark.parametrize(
        "setting,message",
        [
            # a pull samples `batch` distinct members: more than the pool
            # holds would fail only at the first pull, mid-simulation
            ({"batch": 31}, r"^batch \(31\) must not exceed population_size \(30\)"),
            ({"max_transactions": 0}, "^max_transactions must be >= 1, got 0"),
            ({"max_transactions": -5}, "^max_transactions must be >= 1, got -5"),
        ],
        ids=["batch-over-pool", "zero-transactions", "negative-transactions"],
    )
    def test_unrunnable_settings_are_rejected_at_construction(self, setting, message):
        with pytest.raises(ValueError, match=message):
            make(**setting)

    def test_push_applies_the_configured_replacement(self):
        def final_pool(config):
            cluster = SimulatedCluster(4, network=wan_internet().build(4))
            pe = PooledEvolution(
                OneMax(24), config, cluster=cluster, max_transactions=40, seed=3
            )
            pe.run()
            return [ind.require_fitness() for ind in pe.engine.population]

        default = final_pool(GAConfig(population_size=30))
        always = final_pool(GAConfig(population_size=30, replacement=ReplaceWorst()))
        assert default != always

    def test_deterministic(self):
        r1 = make(seed=7, max_transactions=60).run()
        r2 = make(seed=7, max_transactions=60).run()
        assert r1.best_fitness == r2.best_fitness
        assert r1.evaluations == r2.evaluations
        assert r1.sim_time == r2.sim_time
