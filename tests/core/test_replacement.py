"""Unit tests for replacement policies and elitist merge."""

import numpy as np
import pytest

from repro.core import Individual
from repro.core.operators.replacement import (
    ReplaceOldest,
    ReplaceRandom,
    ReplaceSimilar,
    ReplaceWorst,
    ReplaceWorstIfBetter,
    elitist_merge,
    replace_worst_ranked,
)

from ..conftest import make_population


def newcomer(fitness: float, birth: int = 5) -> Individual:
    ind = Individual(genome=np.zeros(4), birth_generation=birth)
    ind.fitness = fitness
    return ind


class TestReplaceWorst:
    def test_evicts_worst(self, rng):
        pop = make_population([3, 1, 2])
        evicted = ReplaceWorst()(rng, pop, newcomer(0.5))
        assert evicted.fitness == 1
        assert sorted(i.fitness for i in pop) == [0.5, 2, 3]

    def test_minimize_direction(self, rng):
        pop = make_population([3, 1, 2], maximize=False)
        evicted = ReplaceWorst()(rng, pop, newcomer(0.5))
        assert evicted.fitness == 3


class TestReplaceWorstIfBetter:
    def test_accepts_improvement(self, rng):
        pop = make_population([3, 1, 2])
        assert ReplaceWorstIfBetter()(rng, pop, newcomer(1.5)) is not None
        assert pop[pop.worst_index()].fitness == 1.5

    def test_rejects_non_improvement(self, rng):
        pop = make_population([3, 1, 2])
        assert ReplaceWorstIfBetter()(rng, pop, newcomer(1.0)) is None
        assert sorted(i.fitness for i in pop) == [1, 2, 3]

    def test_minimize_direction(self, rng):
        pop = make_population([3, 1, 2], maximize=False)
        assert ReplaceWorstIfBetter()(rng, pop, newcomer(2.5)) is not None
        assert ReplaceWorstIfBetter()(rng, pop, newcomer(99.0)) is None

    @pytest.mark.parametrize(
        "maximize, fitnesses, better",
        [(True, [3, -0.0, 0.0, 2], 1.0), (False, [-3, 0.0, -0.0, -2], -1.0)],
    )
    def test_evicts_the_first_of_tied_worst_members(self, rng, maximize, fitnesses, better):
        pop = make_population(fitnesses, maximize=maximize)
        first = pop[1]
        assert ReplaceWorstIfBetter()(rng, pop, newcomer(better)) is first
        assert pop[1].fitness == better and pop[2].fitness == fitnesses[2]


class TestReplaceRandom:
    def test_population_size_constant(self, rng):
        pop = make_population([1, 2, 3])
        ReplaceRandom()(rng, pop, newcomer(9))
        assert len(pop) == 3
        assert any(i.fitness == 9 for i in pop)


class TestReplaceSimilar:
    def test_evicts_the_nearest_member_when_at_least_as_fit(self, rng):
        pop = make_population([5, 1, 3])
        near = Individual(genome=pop[1].genome.copy())
        near.fitness = 1.0
        assert ReplaceSimilar()(rng, pop, near) is not None
        assert pop[1] is near

    def test_rejects_a_less_fit_newcomer(self, rng):
        pop = make_population([5, 1, 3], maximize=False)
        near = Individual(genome=pop[1].genome.copy())
        near.fitness = 2.0
        assert ReplaceSimilar()(rng, pop, near) is None


class TestReplaceOldest:
    def test_evicts_smallest_birth_generation(self, rng):
        pop = make_population([1, 2, 3])
        pop[0].birth_generation = 5
        pop[1].birth_generation = 0
        pop[2].birth_generation = 3
        evicted = ReplaceOldest()(rng, pop, newcomer(9, birth=10))
        assert evicted.fitness == 2

    def test_tie_broken_by_uid(self, rng):
        pop = make_population([1, 2])
        pop[0].birth_generation = pop[1].birth_generation = 0
        evicted = ReplaceOldest()(rng, pop, newcomer(9))
        assert evicted.uid == min(pop[1].uid, evicted.uid)


class TestReplaceWorstRanked:
    def test_no_newcomer_evicts_another(self):
        pop = make_population([0, 5, 5, 5])
        evicted = replace_worst_ranked(pop, [newcomer(4.0), newcomer(3.0)])
        assert [e.fitness for e in evicted] == [0, 5]
        assert sorted(i.fitness for i in pop) == [3, 4, 5, 5]

    def test_minimise_ranks_ties_by_position(self):
        pop = make_population([2, 7, 7, 1], maximize=False)
        a, b = newcomer(0.0), newcomer(0.0)
        replace_worst_ranked(pop, [a, b])
        assert pop[1] is a and pop[2] is b

    def test_more_newcomers_than_members(self):
        pop = make_population([1, 2])
        evicted = replace_worst_ranked(pop, [newcomer(f) for f in (7.0, 8.0, 9.0)])
        assert len(evicted) == 2
        assert [i.fitness for i in pop] == [7.0, 8.0]


class TestElitistMerge:
    def test_elite_kept(self):
        pop = make_population([5, 1, 3])
        offspring = [newcomer(f) for f in (2.0, 2.5, 0.5)]
        merged = elitist_merge(pop, offspring, elite_count=1)
        assert len(merged) == 3
        assert max(i.fitness for i in merged) == 5

    def test_zero_elite_is_pure_replacement(self):
        pop = make_population([5, 1, 3])
        offspring = [newcomer(f) for f in (2.0, 2.5, 0.5)]
        merged = elitist_merge(pop, offspring, elite_count=0)
        assert sorted(i.fitness for i in merged) == [0.5, 2.0, 2.5]

    def test_insufficient_offspring_raises(self):
        pop = make_population([1, 2, 3])
        with pytest.raises(ValueError):
            elitist_merge(pop, [newcomer(1.0)], elite_count=1)

    def test_negative_elite_raises(self):
        with pytest.raises(ValueError):
            elitist_merge(make_population([1]), [], elite_count=-1)

    def test_elites_are_copies(self):
        pop = make_population([5, 1, 3])
        merged = elitist_merge(pop, [newcomer(2.0), newcomer(2.5)], elite_count=1)
        assert merged[0] is not pop[0]
        assert merged[0].fitness == 5
        assert np.array_equal(merged[0].genome, pop[0].genome)

    def test_elite_capped_at_population(self):
        pop = make_population([1, 2])
        merged = elitist_merge(pop, [], elite_count=5)
        assert len(merged) == 2
