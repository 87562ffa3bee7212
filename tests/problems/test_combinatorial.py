"""Unit tests for combinatorial / NP-complete workloads."""

import numpy as np
import pytest

from repro.problems import (
    GraphBipartition,
    Knapsack,
    MaxSat,
    SubsetSum,
    TaskGraphScheduling,
    SPECTRUM,
    TravelingSalesman,
)
from repro.spec import ProblemSpec


class TestSubsetSum:
    def test_generated_instance_is_solvable(self):
        p = SubsetSum(n=20, seed=1)
        assert p.optimum == p.capacity

    def test_overweight_scores_zero(self):
        p = SubsetSum(weights=np.array([5.0, 6.0]), capacity=7.0)
        assert p.evaluate(np.array([1, 1])) == 0.0

    def test_exact_subset(self):
        p = SubsetSum(weights=np.array([3.0, 4.0, 5.0]), capacity=7.0)
        assert p.evaluate(np.array([1, 1, 0])) == 7.0

    def test_under_capacity_scores_sum(self):
        p = SubsetSum(weights=np.array([3.0, 4.0]), capacity=10.0)
        assert p.evaluate(np.array([1, 0])) == 3.0


class TestMaxSat:
    def test_planted_instance_satisfiable(self):
        p = MaxSat(n_vars=20, n_clauses=80, seed=2, planted=True)
        assert p.optimum == 80.0
        # reconstruct the plant by brute scoring isn't possible; but verify
        # some assignment reaches the optimum via the planting invariant:
        # each clause has >= 1 true literal under the plant, so the plant
        # itself scores n_clauses.  We can't access it, so check bounds only.
        g = np.ones(20, dtype=np.int8)
        assert 0 <= p.evaluate(g) <= 80.0

    def test_clause_count(self):
        assert MaxSat(n_vars=10, n_clauses=30, seed=1).n_clauses == 30

    def test_unplanted_has_no_optimum(self):
        assert MaxSat(n_vars=10, n_clauses=30, seed=1, planted=False).optimum is None

    def test_evaluate_counts_satisfied(self):
        p = MaxSat(n_vars=5, n_clauses=10, seed=3)
        v = p.evaluate(np.zeros(5, dtype=np.int8))
        assert v == int(v) and 0 <= v <= 10

    def test_too_few_vars(self):
        with pytest.raises(ValueError):
            MaxSat(n_vars=2)


class TestKnapsack:
    def test_feasible_selection_scores_value(self):
        p = Knapsack(
            values=np.array([10.0, 20.0]),
            weights=np.array([1.0, 2.0]),
            capacity=5.0,
        )
        assert p.evaluate(np.array([1, 1])) == 30.0

    def test_overweight_penalised(self):
        p = Knapsack(
            values=np.array([10.0, 20.0]),
            weights=np.array([4.0, 4.0]),
            capacity=5.0,
        )
        assert p.evaluate(np.array([1, 1])) < 30.0

    def test_dp_bounds_ga_solutions(self, rng):
        p = Knapsack(n=15, seed=4)
        exact = p.solve_exact()
        for _ in range(50):
            g = p.spec.sample(rng)
            w = float(np.dot(p.weights, g))
            if w <= p.capacity:
                assert p.evaluate(g) <= exact + 1e-9

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Knapsack(values=np.ones(3), weights=np.ones(4))


class TestTSP:
    def test_tour_length_invariant_to_rotation(self, rng):
        p = TravelingSalesman.random(10, seed=5)
        tour = p.spec.sample(rng)
        rolled = np.roll(tour, 3)
        assert p.evaluate(tour) == pytest.approx(p.evaluate(rolled))

    def test_tour_length_invariant_to_reversal(self, rng):
        p = TravelingSalesman.random(10, seed=5)
        tour = p.spec.sample(rng)
        assert p.evaluate(tour) == pytest.approx(p.evaluate(tour[::-1].copy()))

    def test_circular_identity_tour_is_optimal(self):
        p = TravelingSalesman.circular(12)
        ident = np.arange(12)
        assert p.evaluate(ident) == pytest.approx(p.optimum)

    def test_circular_random_tours_longer(self, rng):
        p = TravelingSalesman.circular(12)
        for _ in range(20):
            assert p.evaluate(p.spec.sample(rng)) >= p.optimum - 1e-9

    def test_triangle_distances_symmetric(self):
        p = TravelingSalesman.random(8, seed=1)
        assert np.allclose(p.distances, p.distances.T)
        assert np.allclose(np.diag(p.distances), 0.0)

    def test_too_few_cities(self):
        with pytest.raises(ValueError):
            TravelingSalesman(np.zeros((2, 2)))


class TestGraphBipartition:
    def test_balanced_zero_cut(self):
        adj = np.zeros((4, 4), dtype=np.int8)
        adj[0, 1] = adj[1, 0] = 1  # edge inside side A
        adj[2, 3] = adj[3, 2] = 1  # edge inside side B
        p = GraphBipartition(adjacency=adj)
        assert p.evaluate(np.array([0, 0, 1, 1])) == 0.0

    def test_cut_counted(self):
        adj = np.zeros((2, 2), dtype=np.int8)
        adj[0, 1] = adj[1, 0] = 1
        p = GraphBipartition(adjacency=adj)
        assert p.evaluate(np.array([0, 1])) == 1.0

    def test_imbalance_penalised(self):
        adj = np.zeros((4, 4), dtype=np.int8)
        p = GraphBipartition(adjacency=adj)
        assert p.evaluate(np.array([0, 0, 0, 0])) == 2.0  # |0 - 2| * 1.0

    def test_random_instance_symmetric(self):
        p = GraphBipartition(n=20, seed=3)
        assert np.array_equal(p.adjacency, p.adjacency.T)


class TestTaskGraphScheduling:
    def test_makespan_at_least_critical_work(self, rng):
        p = TaskGraphScheduling(n_tasks=12, n_processors=3, seed=6)
        lower = p.durations.max()
        for _ in range(10):
            assert p.evaluate(p.spec.sample(rng)) >= lower

    def test_single_processor_is_serial(self, rng):
        p = TaskGraphScheduling(n_tasks=10, n_processors=1, seed=7, comm_cost=0.0)
        g = p.spec.sample(rng)
        assert p.evaluate(g) == pytest.approx(p.durations.sum())

    def test_more_processors_never_worse(self, rng):
        p1 = TaskGraphScheduling(n_tasks=12, n_processors=1, seed=8, comm_cost=0.0)
        p4 = TaskGraphScheduling(n_tasks=12, n_processors=4, seed=8, comm_cost=0.0)
        g = p1.spec.sample(rng)
        assert p4.evaluate(g) <= p1.evaluate(g) + 1e-9

    def test_respects_precedence(self):
        # chain DAG: any priority order yields the same serial makespan
        p = TaskGraphScheduling(n_tasks=5, n_processors=2, seed=9, comm_cost=0.0)
        p.dag[:] = False
        for i in range(4):
            p.dag[i, i + 1] = True
        p._preds = [np.flatnonzero(p.dag[:, j]) for j in range(5)]
        m1 = p.evaluate(np.arange(5))
        m2 = p.evaluate(np.arange(5)[::-1].copy())
        assert m1 == pytest.approx(m2) == pytest.approx(p.durations.sum())


class TestSpectrum:
    def test_five_classes(self):
        assert set(SPECTRUM) == {"easy", "deceptive", "multimodal", "np-complete", "epistatic"}

    def test_all_maximization(self):
        assert all(build(0).maximize for build in SPECTRUM.values())

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_members_built_alone_equal_the_suite(self, seed):
        suite = {name: build(seed) for name, build in SPECTRUM.items()}
        for name, member in suite.items():
            for alone in (
                SPECTRUM[name](seed),
                ProblemSpec("spectrum", {"name": name, "seed": seed}).build(),
            ):
                assert type(alone) is type(member)
                assert alone.optimum == member.optimum
                genomes = np.stack(member.spec.sample_population(np.random.default_rng(seed), 200))
                assert np.array_equal(
                    alone.evaluate_batch(genomes), member.evaluate_batch(genomes)
                )
                assert [alone.evaluate(g) for g in genomes[:20]] == [
                    member.evaluate(g) for g in genomes[:20]
                ]

    def test_unknown_member_is_named(self):
        with pytest.raises(ValueError, match="did you mean 'easy'"):
            ProblemSpec("spectrum", {"name": "eazy"}).build()
