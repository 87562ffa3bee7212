"""Unit + behavioural tests for the master-slave (global) model."""

import numpy as np
import pytest

from repro.cluster import FaultPlan, Network, Node, SimulatedCluster
from repro.core import GAConfig, GenerationalEngine, MaxGenerations
from repro.parallel import MasterSlaveGA, SimulatedMasterSlave
from repro.problems import OneMax
from repro.runtime import ThreadExecutor


class TestMasterSlaveGA:
    def test_genetically_identical_to_sequential(self):
        # the defining property of the global model: same trajectory
        p = OneMax(24)
        seq = GenerationalEngine(p, GAConfig(population_size=16), seed=3).run(10)
        with ThreadExecutor(workers=2) as ex:
            par = MasterSlaveGA(p, GAConfig(population_size=16), executor=ex, seed=3).run(10)
        assert par.best_fitness == seq.best_fitness
        assert par.evaluations == seq.evaluations
        assert np.array_equal(par.best.genome, seq.best.genome)

    def test_classification_is_global(self):
        from repro.parallel import GrainModel

        assert MasterSlaveGA.classification.grain is GrainModel.GLOBAL


def _cluster(n=5, **kw) -> SimulatedCluster:
    return SimulatedCluster(n, network=Network(n, latency=1e-3, bandwidth=1e6), **kw)


class TestSimulatedMasterSlave:
    def test_runs_and_produces_makespans(self):
        ms = SimulatedMasterSlave(
            OneMax(24), GAConfig(population_size=32), cluster=_cluster(),
            eval_cost=1e-3, seed=1,
        )
        rep = ms.run(MaxGenerations(6))
        assert len(rep.generation_makespans) == rep.result.generations + 1
        assert rep.sim_time == pytest.approx(sum(rep.generation_makespans), rel=0.2)

    def test_more_workers_faster(self):
        def time_with(workers: int) -> float:
            ms = SimulatedMasterSlave(
                OneMax(24), GAConfig(population_size=64),
                cluster=_cluster(workers + 1), eval_cost=1e-2, seed=2,
            )
            return ms.run(MaxGenerations(4)).sim_time

        assert time_with(8) < time_with(2) < time_with(1)

    def test_genetics_independent_of_farm_size(self):
        def best_with(workers: int) -> float:
            ms = SimulatedMasterSlave(
                OneMax(24), GAConfig(population_size=32),
                cluster=_cluster(workers + 1), eval_cost=1e-3, seed=3,
            )
            return ms.run(MaxGenerations(6)).result.best_fitness

        assert best_with(1) == best_with(4) == best_with(8)

    def test_heterogeneous_chunking_balances(self):
        # finer chunks help when slaves are heterogeneous
        def time_with(chunks_per_worker: int) -> float:
            cl = SimulatedCluster(
                5, speeds=[1.0, 2.0, 0.25, 1.0, 0.5],
                network=Network(5, latency=1e-4, bandwidth=1e7),
            )
            ms = SimulatedMasterSlave(
                OneMax(24), GAConfig(population_size=64), cluster=cl,
                eval_cost=1e-2, chunks_per_worker=chunks_per_worker, seed=4,
            )
            return ms.run(MaxGenerations(3)).sim_time

        assert time_with(4) < time_with(1)

    def test_fault_tolerant_redispatches(self):
        # slave 1 dies mid-computation: the initial dispatch (made while it
        # was still up) is lost and must be caught by the watchdog.  The
        # master never knowingly dispatches to an already-dead node.
        plan = FaultPlan(
            intervals=((), ((1e-4, float("inf")),), (), (), ())
        )
        ms = SimulatedMasterSlave(
            OneMax(24), GAConfig(population_size=32),
            cluster=_cluster(fault_plan=plan), eval_cost=1e-3,
            fault_tolerant=True, seed=5,
        )
        rep = ms.run(MaxGenerations(4))
        assert rep.redispatches > 0
        assert rep.lost_chunks == 0
        assert len(rep.generation_makespans) == 5

    def test_non_fault_tolerant_loses_chunks(self):
        plan = FaultPlan(
            intervals=((), ((1e-4, float("inf")),), (), (), ())
        )
        ms = SimulatedMasterSlave(
            OneMax(24), GAConfig(population_size=32),
            cluster=_cluster(fault_plan=plan), eval_cost=1e-3,
            fault_tolerant=False, seed=5,
        )
        rep = ms.run(MaxGenerations(4))
        assert rep.lost_chunks > 0 and rep.redispatches == 0

    def test_all_slaves_dead_master_computes(self):
        plan = FaultPlan(
            intervals=(
                (),
                ((0.0, float("inf")),),
                ((0.0, float("inf")),),
            )
        )
        ms = SimulatedMasterSlave(
            OneMax(16), GAConfig(population_size=16),
            cluster=_cluster(3, fault_plan=plan), eval_cost=1e-3,
            fault_tolerant=True, seed=6,
        )
        rep = ms.run(MaxGenerations(2))  # must not deadlock
        assert len(rep.generation_makespans) == 3

    def test_requires_two_nodes(self):
        with pytest.raises(ValueError):
            SimulatedMasterSlave(OneMax(8), cluster=SimulatedCluster(1))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SimulatedMasterSlave(OneMax(8), cluster=_cluster(), eval_cost=0)
        with pytest.raises(ValueError):
            SimulatedMasterSlave(OneMax(8), cluster=_cluster(), chunks_per_worker=0)


class TestDispatchScaling:
    def test_liveness_checks_scale_with_dispatches(self, monkeypatch):
        # the master looks for the first live idle slave; it must not
        # re-check every idle slave for every chunk it hands out.  In one
        # fault-free generation the dispatch loop is the only caller.
        calls = 0
        is_up = Node.is_up

        def counting_is_up(node, t):
            nonlocal calls
            calls += 1
            return is_up(node, t)

        monkeypatch.setattr(Node, "is_up", counting_is_up)
        ms = SimulatedMasterSlave(
            OneMax(16), GAConfig(population_size=256), cluster=_cluster(257),
            eval_cost=1e-3, seed=7,
        )
        ms.run(MaxGenerations(0))
        dispatches = ms.cluster.trace.count("dispatch")
        assert dispatches == 256
        assert calls <= 2 * dispatches
