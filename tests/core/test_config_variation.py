"""Unit tests for GAConfig validation and the variation pipeline."""

import numpy as np
import pytest

from repro.core import BinarySpec, GAConfig, Individual, PermutationSpec, make_offspring, offspring_pair
from repro.core.operators.crossover import OnePointCrossover, UniformCrossover
from repro.core.operators.mutation import BitFlipMutation


class TestGAConfigValidation:
    def test_defaults_valid(self):
        GAConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 1},
            {"crossover_prob": 1.5},
            {"mutation_prob": -0.1},
            {"elitism": -1},
            {"population_size": 5, "elitism": 5},
            {"mutation_prob": 1.5},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GAConfig(**kwargs)

    def test_resolved_for_fills_operators(self):
        cfg = GAConfig().resolved_for(BinarySpec(8))
        assert cfg.crossover is not None and cfg.mutation is not None

    def test_resolved_for_keeps_explicit_operators(self):
        cx = OnePointCrossover()
        cfg = GAConfig(crossover=cx).resolved_for(BinarySpec(8))
        assert cfg.crossover is cx

    def test_with_population_size_caps_elitism(self):
        cfg = GAConfig(population_size=100, elitism=10).with_population_size(4)
        assert cfg.population_size == 4 and cfg.elitism <= 3


def _parents(n=20):
    a = Individual(genome=np.zeros(n, dtype=np.int8))
    b = Individual(genome=np.ones(n, dtype=np.int8))
    a.fitness = 0.0
    b.fitness = float(n)
    return a, b


class TestOffspringPair:
    def test_unresolved_config_raises(self, rng):
        a, b = _parents()
        with pytest.raises(ValueError):
            offspring_pair(rng, GAConfig(), BinarySpec(20), a, b)

    def test_children_unevaluated_and_new(self, rng):
        cfg = GAConfig().resolved_for(BinarySpec(20))
        a, b = _parents()
        ca, cb = offspring_pair(rng, cfg, BinarySpec(20), a, b, generation=3)
        assert not ca.evaluated and not cb.evaluated
        assert ca.birth_generation == 3
        assert ca.uid not in (a.uid, b.uid)

    def test_parents_untouched(self, rng):
        cfg = GAConfig().resolved_for(BinarySpec(20))
        a, b = _parents()
        offspring_pair(rng, cfg, BinarySpec(20), a, b)
        assert a.genome.sum() == 0 and b.genome.sum() == 20

    def test_no_crossover_no_mutation_clones(self, rng):
        cfg = GAConfig(
            crossover_prob=0.0,
            mutation_prob=0.0,
            crossover=UniformCrossover(),
            mutation=BitFlipMutation(),
        )
        a, b = _parents()
        ca, cb = offspring_pair(rng, cfg, BinarySpec(20), a, b)
        assert np.array_equal(ca.genome, a.genome)
        assert np.array_equal(cb.genome, b.genome)
        assert ca.origin == "clone"

    def test_origin_tags(self, rng):
        cfg = GAConfig(
            crossover_prob=1.0,
            mutation_prob=1.0,
            crossover=UniformCrossover(),
            mutation=BitFlipMutation(rate=1.0),
        )
        a, b = _parents()
        ca, _ = offspring_pair(rng, cfg, BinarySpec(20), a, b)
        assert ca.origin == "cx+mut"

    def test_repair_applied(self, rng):
        spec = PermutationSpec(10)
        cfg = GAConfig(crossover_prob=1.0, mutation_prob=0.0).resolved_for(spec)
        # parents are permutations; OX keeps validity but repair must also
        # hold under an operator that would break it — use uniform crossover
        from dataclasses import replace

        cfg = replace(cfg, crossover=UniformCrossover())
        a = Individual(genome=np.arange(10))
        b = Individual(genome=np.arange(10)[::-1].copy())
        ca, cb = offspring_pair(rng, cfg, spec, a, b)
        assert spec.is_valid(ca.genome) and spec.is_valid(cb.genome)


class TestMakeOffspring:
    def test_exact_count(self, rng):
        cfg = GAConfig().resolved_for(BinarySpec(10))
        a, b = _parents(10)
        out = make_offspring(rng, cfg, BinarySpec(10), [a, b], 7)
        assert len(out) == 7

    def test_zero_count(self, rng):
        cfg = GAConfig().resolved_for(BinarySpec(10))
        assert make_offspring(rng, cfg, BinarySpec(10), [], 0) == []

    def test_single_parent_raises(self, rng):
        cfg = GAConfig().resolved_for(BinarySpec(10))
        a, _ = _parents(10)
        with pytest.raises(ValueError):
            make_offspring(rng, cfg, BinarySpec(10), [a], 2)

    def test_pool_wraps_around(self, rng):
        cfg = GAConfig().resolved_for(BinarySpec(10))
        a, b = _parents(10)
        out = make_offspring(rng, cfg, BinarySpec(10), [a, b], 12)
        assert len(out) == 12
