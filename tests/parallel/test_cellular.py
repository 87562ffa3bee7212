"""Unit + behavioural tests for the cellular (fine-grained) GA."""

import numpy as np
import pytest

from repro.core import GAConfig, Individual
from repro.parallel import UPDATE_POLICIES, CellularGA
from repro.problems import OneMax, ZeroMax
from repro.topology import MooreNeighborhood


class TestConstruction:
    def test_grid_size(self):
        cga = CellularGA(OneMax(8), rows=4, cols=6, seed=1)
        cga.initialize()
        assert cga.n_cells == 24 and len(cga.population) == 24

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            CellularGA(OneMax(8), update="spiral")

    def test_tiny_grid_rejected(self):
        with pytest.raises(ValueError):
            CellularGA(OneMax(8), rows=1, cols=5)

    def test_custom_initial_individuals(self):
        cga = CellularGA(OneMax(8), rows=2, cols=2, seed=1)
        inds = [Individual(genome=np.ones(8, dtype=np.int8)) for _ in range(4)]
        cga.initialize(inds)
        assert cga.best_so_far.fitness == 8.0

    def test_wrong_initial_count_rejected(self):
        cga = CellularGA(OneMax(8), rows=2, cols=2, seed=1)
        with pytest.raises(ValueError):
            cga.initialize([Individual(genome=np.ones(8, dtype=np.int8))])


@pytest.mark.parametrize("policy", UPDATE_POLICIES)
class TestUpdatePolicies:
    def test_solves_onemax(self, policy):
        cga = CellularGA(OneMax(24), rows=6, cols=6, update=policy, seed=2)
        res = cga.run(60)
        assert res.solved, f"{policy} failed to solve OneMax"

    def test_sweep_counts_evaluations(self, policy):
        cga = CellularGA(OneMax(8), rows=4, cols=4, update=policy, seed=3)
        cga.initialize()
        before = cga.state.evaluations
        cga.step()
        assert cga.state.evaluations - before == 16  # one offspring per cell slot


class TestElitistReplacement:
    def test_replace_if_better_never_degrades_cells(self):
        cga = CellularGA(OneMax(16), rows=4, cols=4, seed=4)
        cga.initialize()
        before = cga.fitness_grid().copy()
        cga.step()
        assert np.all(cga.fitness_grid() >= before - 1e-12)

    def test_minimization_direction(self):
        cga = CellularGA(ZeroMax(16), rows=4, cols=4, seed=5)
        res = cga.run(60)
        assert res.best_fitness <= 2.0


class TestLocality:
    def test_synchronous_update_reads_old_grid(self):
        # seed a single super-fit cell; after ONE synchronous sweep its
        # genes can have spread only into its neighbourhood
        problem = OneMax(32)
        cga = CellularGA(
            problem, GAConfig(crossover_prob=1.0, mutation_prob=0.0),
            rows=8, cols=8, update="synchronous", seed=6,
        )
        inds = [Individual(genome=np.zeros(32, dtype=np.int8)) for _ in range(64)]
        inds[0] = Individual(genome=np.ones(32, dtype=np.int8))
        cga.initialize(inds)
        cga.step()
        fit = cga.fitness_grid()
        far_cell = fit[4, 4]  # 4 hops away from (0,0) on the torus
        assert far_cell == 0.0

    def test_neighborhood_shapes_supported(self):
        cga = CellularGA(
            OneMax(16), rows=4, cols=4,
            neighborhood=MooreNeighborhood(), seed=7,
        )
        res = cga.run(40)
        assert res.best_fitness >= 14

    def test_fitness_grid_shape(self):
        cga = CellularGA(OneMax(8), rows=3, cols=5, seed=8)
        cga.initialize()
        assert cga.fitness_grid().shape == (3, 5)


class TestTracking:
    def test_best_curve_monotone(self):
        cga = CellularGA(OneMax(16), rows=4, cols=4, seed=9)
        cga.initialize()
        curve = [cga.population.best().fitness]
        for _ in range(20):
            cga.step()
            curve.append(cga.population.best().fitness)
        assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_result_fields(self):
        cga = CellularGA(OneMax(16), rows=4, cols=4, seed=10)
        cga.initialize()
        steps = 0
        for _ in range(15):
            cga.step()
            steps += 1
        res = cga.result()
        assert res.generations == steps == 15
        assert res.evaluations > 0

    def test_deterministic(self):
        r1 = CellularGA(OneMax(16), rows=4, cols=4, seed=11).run(10)
        r2 = CellularGA(OneMax(16), rows=4, cols=4, seed=11).run(10)
        assert r1.best_fitness == r2.best_fitness
        assert r1.evaluations == r2.evaluations
