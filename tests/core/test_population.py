"""Unit tests for Population."""

import numpy as np

from repro.core import Individual

from ..conftest import make_population


class TestContainer:
    def test_len_iter_getitem(self):
        pop = make_population([1, 2, 3])
        assert len(pop) == 3
        assert [i.fitness for i in pop] == [1, 2, 3]
        assert pop[1].fitness == 2


class TestEvaluationState:
    def test_unevaluated_lists_members_without_fitness(self):
        pop = make_population([1, 2])
        assert pop.unevaluated() == []
        pop[0].fitness = None
        assert pop.unevaluated() == [pop[0]]


class TestStats:
    def test_best_and_worst_index(self):
        pop = make_population([2, 5, 1])
        assert pop.best().fitness == 5 and pop.worst_index() == 2
        pop2 = make_population([2, 5, 1], maximize=False)
        assert pop2.best().fitness == 1 and pop2.worst_index() == 1

    def test_sorted_best_first(self):
        pop = make_population([2, 5, 1], maximize=False)
        assert [i.fitness for i in pop.sorted()] == [1, 2, 5]


class TestTransformations:
    def test_replace_worst_returns_evictee(self):
        pop = make_population([3, 1, 2])
        new = Individual(genome=np.zeros(4))
        new.fitness = 10.0
        evicted = pop.replace_worst(new)
        assert evicted.fitness == 1
        assert pop.best().fitness == 10.0

    def test_copy_is_deep(self):
        pop = make_population([1, 2])
        clone = pop.copy()
        clone[0].genome[0] = 42
        assert pop[0].genome[0] != 42

    def test_fitness_array(self):
        f = make_population([1.5, 2.5]).fitness_array()
        assert np.allclose(f, [1.5, 2.5])
