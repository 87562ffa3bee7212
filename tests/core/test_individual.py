"""Unit tests for Individual and fitness comparison helpers."""

import dataclasses
import pickle
import re

import numpy as np
import pytest

from repro.core import Individual, best_of, sort_by_fitness


def ind(fitness=None, genome=None) -> Individual:
    i = Individual(genome=np.zeros(3) if genome is None else genome)
    i.fitness = fitness
    return i


class TestIndividual:
    def test_unevaluated_by_default(self):
        assert not Individual(genome=np.zeros(2)).evaluated

    def test_require_fitness_raises_when_unevaluated(self):
        with pytest.raises(ValueError):
            Individual(genome=np.zeros(2)).require_fitness()

    def test_copy_is_deep_for_genome(self):
        a = ind(1.0, np.array([1.0, 2.0]))
        b = a.copy()
        b.genome[0] = 99.0
        assert a.genome[0] == 1.0

    def test_copy_preserves_fitness_and_provenance(self):
        a = Individual(genome=np.zeros(3), fitness=2.5, birth_generation=4, origin="cx")
        b = a.copy()
        assert (b.fitness, b.birth_generation, b.origin) == (2.5, 4, "cx")

    def test_copy_can_override_origin(self):
        b = ind(1.0).copy(origin="migrant:3")
        assert b.origin == "migrant:3"

    def test_uids_are_unique(self):
        assert ind().uid != ind().uid


class TestComparisons:
    def test_best_and_worst_of(self):
        # the worst under one direction is the best under the other
        pop = [ind(1.0), ind(5.0), ind(3.0)]
        assert best_of(pop, True).fitness == 5.0
        assert best_of(pop, False).fitness == 1.0

    def test_best_of_empty_raises(self):
        with pytest.raises(ValueError):
            best_of([], True)

    def test_sort_by_fitness_directions(self):
        pop = [ind(2.0), ind(1.0), ind(3.0)]
        assert [i.fitness for i in sort_by_fitness(pop, True)] == [3.0, 2.0, 1.0]
        assert [i.fitness for i in sort_by_fitness(pop, False)] == [1.0, 2.0, 3.0]

    def test_sort_is_stable(self):
        a, b = ind(1.0), ind(1.0)
        out = sort_by_fitness([a, b], True)
        assert out[0] is a and out[1] is b


class TestFitnessGuard:
    """Non-finite fitness must be rejected at the source: a NaN that reaches
    selection silently wins every np.argmax tournament it enters."""

    def test_nan_assignment_rejected(self):
        i = Individual(genome=np.zeros(3))
        with pytest.raises(ValueError, match="finite"):
            i.fitness = float("nan")
        assert i.fitness is None  # failed assignment leaves state untouched

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), np.nan, np.inf])
    def test_all_nonfinite_values_rejected(self, bad):
        i = Individual(genome=np.zeros(3))
        with pytest.raises(ValueError, match="finite"):
            i.fitness = bad

    def test_nan_at_construction_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Individual(genome=np.zeros(3), fitness=float("nan"))

    def test_none_and_finite_values_still_allowed(self):
        i = Individual(genome=np.zeros(3))
        i.fitness = 3.5
        assert i.fitness == 3.5
        i.fitness = None
        assert not i.evaluated
        i.fitness = None  # re-assigning None stays fine

    def test_numpy_floats_allowed(self):
        i = Individual(genome=np.zeros(3))
        i.fitness = np.float64(2.0)
        assert float(i.fitness) == 2.0

    def test_construction_error_names_the_real_uid(self):
        # the uid is drawn before the guard runs, so the message names it
        # (it used to read "uid=?": fitness was set before uid)
        with pytest.raises(ValueError, match="finite") as exc:
            Individual(genome=np.zeros(3), fitness=float("nan"))
        m = re.search(r"uid=(\d+)", str(exc.value))
        assert m is not None, str(exc.value)
        assert Individual(genome=np.zeros(3)).uid == int(m.group(1)) + 1


class TestConstruction:
    """The explicit __init__ must behave like the dataclass one."""

    def test_defaults_and_positional_order(self):
        g = np.zeros(3)
        i = Individual(g, 1.5, 4, "cx")
        assert i.genome is g and i.fitness == 1.5
        assert i.birth_generation == 4 and i.origin == "cx"
        j = Individual(genome=g)
        assert (j.fitness, j.birth_generation, j.origin) == (None, 0, "init")

    def test_uids_increase_unless_given(self):
        a, b = Individual(genome=np.zeros(1)), Individual(genome=np.zeros(1))
        assert b.uid == a.uid + 1
        assert Individual(genome=np.zeros(1), uid=7).uid == 7

    def test_fields_order_matches_instance_dict(self):
        i = Individual(genome=np.zeros(2), fitness=1.0)
        names = [f.name for f in dataclasses.fields(Individual)]
        assert names == [
            "genome", "fitness", "birth_generation", "origin", "uid",
        ]
        assert list(vars(i)) == names

    def test_replace_and_pickle_round_trip(self):
        i = Individual(genome=np.arange(3), fitness=2.0, origin="cx")
        r = dataclasses.replace(i, fitness=3.0)
        assert r.uid == i.uid and r.fitness == 3.0 and r.origin == "cx"
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(i, fitness=float("inf"))
        p = pickle.loads(pickle.dumps(i))
        assert (p.uid, p.fitness, p.origin) == (i.uid, 2.0, "cx")
        assert np.array_equal(p.genome, i.genome)
        with pytest.raises(ValueError, match="finite"):
            p.fitness = float("nan")
