"""Unit + behavioural tests for the island model (both drivers)."""

import numpy as np
import pytest

from repro.cluster import SimulatedCluster
from repro.core import GAConfig, MaxEvaluations, MaxGenerations
from repro.migration import (
    MigrationPolicy,
    NeverSchedule,
    PeriodicSchedule,
    Synchrony,
)
from repro.parallel import IslandModel, SimulatedIslandModel, engine_class_by_name
from repro.parallel.island import _IslandBase
from repro.problems import DeceptiveTrap, OneMax
from repro.topology import CompleteTopology, IsolatedTopology, RingTopology


class TestConstruction:
    def test_partitioned_divides_population(self):
        m = IslandModel.partitioned(OneMax(16), 120, 6, seed=1)
        assert all(len(d.population or []) == 0 for d in m.demes)
        m.initialize()
        assert all(len(d.population) == 20 for d in m.demes)

    def test_partitioned_too_small_raises(self):
        with pytest.raises(ValueError):
            IslandModel.partitioned(OneMax(16), 8, 8)

    def test_topology_size_mismatch(self):
        with pytest.raises(ValueError):
            IslandModel(OneMax(8), 4, topology=RingTopology(5))

    def test_default_topology_is_ring(self):
        m = IslandModel(OneMax(8), 4, seed=1)
        assert isinstance(m.topology, RingTopology)

    def test_engine_by_name(self):
        from repro.core import GenerationalEngine, SteadyStateEngine

        assert engine_class_by_name("generational") is GenerationalEngine
        assert engine_class_by_name("steady-state") is SteadyStateEngine
        with pytest.raises(ValueError):
            engine_class_by_name("cellular")

    @pytest.mark.parametrize("alias", ["ss", "steadystate"])
    def test_engine_by_name_rejects_retired_aliases(self, alias):
        with pytest.raises(ValueError, match="unknown engine name"):
            engine_class_by_name(alias)

    def test_deme_rngs_independent(self):
        m = IslandModel(OneMax(32), 4, GAConfig(population_size=10), seed=3)
        m.initialize()
        g0 = m.demes[0].population[0].genome
        g1 = m.demes[1].population[0].genome
        assert not np.array_equal(g0, g1)


class TestDeterminism:
    def test_same_seed_same_result(self):
        r1 = IslandModel(OneMax(24), 4, GAConfig(population_size=10), seed=9).run(20)
        r2 = IslandModel(OneMax(24), 4, GAConfig(population_size=10), seed=9).run(20)
        assert r1.best_fitness == r2.best_fitness
        assert r1.evaluations == r2.evaluations
        assert r1.migrants_sent == r2.migrants_sent


class TestMigrationFlow:
    def test_migrants_flow_along_ring(self):
        m = IslandModel(
            OneMax(16),
            3,
            GAConfig(population_size=8),
            schedule=PeriodicSchedule(1),
            policy=MigrationPolicy(rate=1, selection="best", replacement="worst"),
            seed=2,
        )
        m.run(MaxGenerations(3))
        assert m.migrants_sent == 3 * 3  # 3 demes x 1 link x 3 epochs
        assert m.migrants_accepted == m.migrants_sent  # 'worst' always accepts

    def test_never_schedule_sends_nothing(self):
        m = IslandModel(OneMax(16), 3, GAConfig(population_size=8),
                        schedule=NeverSchedule(), seed=2)
        m.run(MaxGenerations(5))
        assert m.migrants_sent == 0

    def test_isolated_topology_sends_nothing(self):
        m = IslandModel(
            OneMax(16), 3, GAConfig(population_size=8),
            topology=IsolatedTopology(3), schedule=PeriodicSchedule(1), seed=2,
        )
        m.run(MaxGenerations(5))
        assert m.migrants_sent == 0

    def test_complete_topology_sends_to_all(self):
        m = IslandModel(
            OneMax(16), 4, GAConfig(population_size=8),
            topology=CompleteTopology(4),
            schedule=PeriodicSchedule(1),
            policy=MigrationPolicy(rate=1, replacement="worst"),
            seed=2,
        )
        m.step_epoch()
        assert m.migrants_sent == 4 * 3

    def test_migrant_origin_tagged(self):
        m = IslandModel(
            OneMax(16), 2, GAConfig(population_size=6),
            schedule=PeriodicSchedule(1),
            policy=MigrationPolicy(rate=1, replacement="worst"),
            seed=4,
        )
        m.step_epoch()
        tags = {
            i.origin
            for deme in m.demes
            for i in deme.population
            if i.origin.startswith("migrant")
        }
        assert tags  # at least one immigrant integrated with provenance

    def test_deme_sizes_preserved_under_migration(self):
        m = IslandModel(
            OneMax(16), 3, GAConfig(population_size=8),
            schedule=PeriodicSchedule(1), seed=5,
        )
        m.run(MaxGenerations(6))
        assert all(len(d.population) == 8 for d in m.demes)


class TestAsynchrony:
    def test_async_delay_postpones_integration(self):
        m = IslandModel(
            OneMax(16), 2, GAConfig(population_size=6),
            synchrony=Synchrony(synchronous=False, delay=3),
            schedule=PeriodicSchedule(1),
            policy=MigrationPolicy(rate=1, replacement="worst"),
            seed=6,
        )
        m.step_epoch()
        assert m.migrants_sent > 0 and m.migrants_accepted == 0
        m.step_epoch()
        m.step_epoch()
        m.step_epoch()
        assert m.migrants_accepted > 0

    def test_step_prob_requires_async(self):
        with pytest.raises(ValueError):
            IslandModel(
                OneMax(8), 2, GAConfig(population_size=6),
                synchrony=Synchrony(synchronous=True),
                step_prob=0.5,
            )

    def test_heterogeneous_step_rates(self):
        m = IslandModel(
            OneMax(16), 2, GAConfig(population_size=6),
            synchrony=Synchrony(synchronous=False, delay=0),
            step_prob=[1.0, 0.2],
            seed=7,
        )
        m.run(MaxGenerations(20))
        g0 = m.demes[0].state.generation
        g1 = m.demes[1].state.generation
        assert g0 > g1  # the slow deme genuinely lags

    def test_invalid_step_prob(self):
        with pytest.raises(ValueError):
            IslandModel(
                OneMax(8), 2,
                synchrony=Synchrony(synchronous=False),
                step_prob=[1.0, 0.0],
            )


class TestTerminationAndResult:
    def test_solves_and_stops_early(self):
        m = IslandModel(OneMax(16), 4, GAConfig(population_size=12), seed=8)
        res = m.run(MaxGenerations(200))
        assert res.solved and res.stop_reason == "solved"
        assert res.epochs < 200

    def test_evaluation_budget(self):
        m = IslandModel(OneMax(64), 4, GAConfig(population_size=10), seed=8)
        res = m.run(MaxEvaluations(500))
        assert res.evaluations >= 500
        assert res.evaluations < 500 + 4 * 10 * 2

    def test_records_per_epoch(self):
        m = IslandModel(OneMax(16), 3, GAConfig(population_size=8), seed=9)
        m.run(MaxGenerations(5))
        assert len(m.records) == m.epoch
        evals = [r.evaluations for r in m.records]
        assert evals == sorted(evals)

    def test_global_best_is_max_of_deme_bests(self):
        m = IslandModel(DeceptiveTrap(blocks=4, k=4), 4, GAConfig(population_size=10), seed=10)
        res = m.run(MaxGenerations(10))
        assert res.best_fitness == max(res.deme_bests) or res.best_fitness >= max(res.deme_bests)


class TestSimulatedIslandModel:
    def test_runs_and_times(self):
        cl = SimulatedCluster(3)
        m = SimulatedIslandModel(
            OneMax(20), 3, GAConfig(population_size=10),
            cluster=cl, eval_cost=1e-3, max_epochs=100, seed=11,
        )
        res = m.run()
        assert res.sim_time is not None and res.sim_time > 0
        assert res.solved

    def test_faster_node_progresses_further_by_stop_time(self):
        # when the fast deme solves and raises the stop flag, the slow deme
        # has completed far fewer generations of simulated work
        cl = SimulatedCluster(2, speeds=[4.0, 0.5])
        m = SimulatedIslandModel(
            OneMax(60), 2, GAConfig(population_size=12),
            cluster=cl, eval_cost=1e-3, max_epochs=400,
            schedule=NeverSchedule(), seed=12,
        )
        res = m.run()
        assert res.solved
        assert m.demes[0].state.generation > m.demes[1].state.generation

    def test_migration_messages_traced(self):
        cl = SimulatedCluster(3)
        m = SimulatedIslandModel(
            DeceptiveTrap(blocks=8, k=4), 3, GAConfig(population_size=10),
            cluster=cl, eval_cost=1e-4, max_epochs=20,
            schedule=PeriodicSchedule(2), seed=13,
        )
        m.run()
        assert cl.trace.count("migration") > 0

    def test_cluster_too_small_rejected(self):
        with pytest.raises(ValueError):
            SimulatedIslandModel(OneMax(8), 4, cluster=SimulatedCluster(2))

    def test_bad_eval_cost(self):
        with pytest.raises(ValueError):
            SimulatedIslandModel(OneMax(8), 2, cluster=SimulatedCluster(2), eval_cost=0.0)
