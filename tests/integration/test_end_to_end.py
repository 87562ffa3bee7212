"""Integration tests: whole-system flows across module boundaries."""

import numpy as np
import pytest

from repro import (
    CellularGA,
    GAConfig,
    HierarchicalGA,
    IslandModel,
    MaxEvaluations,
    MaxGenerations,
    SimulatedIslandModel,
    SimulatedMasterSlave,
    SpecializedIslandModel,
)
from repro.cluster import Network, SimulatedCluster, sample_fault_plan
from repro.core.problem import evaluations_observed
from repro.migration import MigrationPolicy, PeriodicSchedule, Synchrony
from repro.parallel import standard_scenarios
from repro.problems import (
    ZDT1,
    DeceptiveTrap,
    Knapsack,
    OneMax,
    Rastrigin,
    TravelingSalesman,
)
from repro.problems.applications import (
    FeatureSelection,
    ReactorCoreDesign,
    TransonicWingDesign,
)
from repro.topology import HypercubeTopology, TorusTopology


class TestEveryModelOnEveryRepresentation:
    """Each PGA model must run end-to-end on its natural representation."""

    def test_island_on_permutations(self):
        problem = TravelingSalesman.circular(15)
        from repro.core.operators import InversionMutation, OrderCrossover

        model = IslandModel(
            problem,
            4,
            GAConfig(
                population_size=20,
                crossover=OrderCrossover(),
                mutation=InversionMutation(),
            ),
            seed=1,
        )
        res = model.run(MaxGenerations(40))
        assert res.best_fitness < 2.0 * problem.optimum

    def test_island_on_continuous(self):
        model = IslandModel(
            Rastrigin(dims=8), 4, GAConfig(population_size=24), seed=2
        )
        res = model.run(MaxGenerations(40))
        assert res.best_fitness < 30.0  # random ~130

    def test_cellular_on_knapsack(self):
        problem = Knapsack(n=30, seed=3)
        cga = CellularGA(problem, rows=6, cols=6, seed=3)
        res = cga.run(30)
        assert res.best_fitness >= 0.8 * problem.solve_exact()

    def test_hierarchical_on_wing(self):
        hga = HierarchicalGA(
            TransonicWingDesign(), GAConfig(population_size=12), layers=2, seed=5
        )
        res = hga.run(max_epochs=10)
        assert res.best_fitness < 0.05

    def test_sim_on_zdt(self):
        model = SpecializedIslandModel(
            ZDT1(dims=8), standard_scenarios()[4],
            GAConfig(population_size=16), hv_reference=(1.1, 7.0), seed=6,
        )
        res = model.run(epochs=8)
        assert res.hypervolume > 3.0


class TestTopologyIntegration:
    def test_island_on_hypercube(self):
        model = IslandModel(
            OneMax(24), 8, GAConfig(population_size=10),
            topology=HypercubeTopology(3), seed=7,
        )
        res = model.run(MaxGenerations(60))
        assert res.solved

    def test_island_on_torus(self):
        model = IslandModel(
            OneMax(24), 6, GAConfig(population_size=10),
            topology=TorusTopology(2, 3), seed=8,
        )
        res = model.run(MaxGenerations(60))
        assert res.solved


class TestBudgetAccounting:
    def test_engine_counts_every_evaluation(self):
        model = IslandModel(OneMax(16), 3, GAConfig(population_size=10), seed=9)
        before = evaluations_observed()
        res = model.run(MaxGenerations(10))
        assert evaluations_observed() - before == res.evaluations

    def test_fair_budget_comparison_island_vs_panmictic(self):
        from repro.core import GenerationalEngine

        budget = 5_000
        problem = DeceptiveTrap(blocks=6, k=4)
        island = IslandModel.partitioned(
            problem, 96, 6, GAConfig(elitism=1), seed=10
        ).run(MaxEvaluations(budget))
        pan = GenerationalEngine(
            problem, GAConfig(population_size=96, elitism=1), seed=10
        )
        pan_res = pan.run(MaxEvaluations(budget))
        # neither driver overdrafts the budget by more than one epoch/generation
        assert island.evaluations <= budget + 96 * 2
        assert pan_res.evaluations <= budget + 96
        # and each stops only for a legitimate reason
        assert island.solved or island.evaluations >= budget
        assert pan_res.solved or pan_res.evaluations >= budget


class TestSimulatedStackIntegration:
    def test_full_stack_faulty_heterogeneous_farm(self):
        """Fault plan + heterogeneous speeds + network + GA, end to end."""
        n = 6
        plan = sample_fault_plan(n, horizon=5.0, mtbf=4.0, repair_time=1.0, seed=11)
        cluster = SimulatedCluster(
            n,
            speeds=[1.0, 0.5, 2.0, 1.0, 0.25, 1.5],
            network=Network(n, latency=1e-3, bandwidth=1e5),
            fault_plan=plan,
        )
        ms = SimulatedMasterSlave(
            Rastrigin(dims=10), GAConfig(population_size=48),
            cluster=cluster, eval_cost=5e-3, chunks_per_worker=2,
            fault_tolerant=True, seed=11,
        )
        rep = ms.run(MaxGenerations(8))
        assert len(rep.generation_makespans) == 9
        assert rep.result.best_fitness < 150.0
        assert rep.sim_time > 0

    def test_async_island_over_simulated_wan(self):
        from repro.cluster import wan_internet

        n = 4
        cluster = SimulatedCluster(n, network=wan_internet().build(n))
        model = SimulatedIslandModel(
            OneMax(32), n, GAConfig(population_size=16),
            cluster=cluster, eval_cost=1e-3, max_epochs=150,
            schedule=PeriodicSchedule(3),
            policy=MigrationPolicy(rate=1, selection="best"),
            seed=12,
        )
        res = model.run()
        assert res.solved
        # WAN latencies show up in the migration traces
        migrations = cluster.trace.of_kind("migration")
        assert migrations and all(e["transit"] >= 0.05 for e in migrations)


class TestReactorPhysicsIntegration:
    def test_ga_finds_critical_flat_core(self):
        problem = ReactorCoreDesign(mesh_points=40)
        model = IslandModel.partitioned(problem, 60, 4, GAConfig(elitism=1), seed=13)
        res = model.run(MaxEvaluations(3_000))
        sol = problem.solve(res.best.genome)
        assert abs(sol.k_eff - 1.0) < 0.05
        assert sol.peaking_factor < 2.0


class TestFeatureSelectionIntegration:
    def test_island_recovers_planted_features(self):
        problem = FeatureSelection.synthetic(
            n_features=120, n_informative=10, seed=14
        )
        model = IslandModel(
            problem, 6, GAConfig(population_size=16, elitism=1), seed=14
        )
        res = model.run(MaxEvaluations(8_000))
        # Moser & Murty's claim is complexity reduction at preserved
        # accuracy: a small mask (far below 120 features) scoring near the
        # all-informative ceiling, built mostly from planted features
        assert res.best_fitness > 0.9
        assert problem.selected_count(res.best.genome) <= 30
        assert problem.informative_recall(res.best.genome) >= 0.3
