"""Regression tests for GAConfig.__post_init__ validation.

The spec layer builds GAConfig straight from JSON documents, so these
constructor-time checks are the only thing standing between a malformed
document and a silently nonsensical run.
"""

import pytest

from repro.core import GAConfig


class TestGAConfigValidation:
    def test_defaults_are_valid(self):
        cfg = GAConfig()
        assert cfg.population_size == 100

    @pytest.mark.parametrize("n", [1, 0, -5])
    def test_population_size_floor(self, n):
        with pytest.raises(ValueError, match="population_size"):
            GAConfig(population_size=n)

    @pytest.mark.parametrize("p", [-0.01, 1.01, 2.0])
    def test_crossover_prob_range(self, p):
        with pytest.raises(ValueError, match="crossover_prob"):
            GAConfig(crossover_prob=p)

    @pytest.mark.parametrize("p", [-0.5, 1.5])
    def test_mutation_prob_range(self, p):
        with pytest.raises(ValueError, match="mutation_prob"):
            GAConfig(mutation_prob=p)

    def test_prob_boundaries_are_inclusive(self):
        GAConfig(crossover_prob=0.0, mutation_prob=1.0)
        GAConfig(crossover_prob=1.0, mutation_prob=0.0)

    def test_negative_elitism_rejected(self):
        with pytest.raises(ValueError, match="elitism"):
            GAConfig(elitism=-1)

    def test_elitism_must_leave_room_for_offspring(self):
        with pytest.raises(ValueError, match="elitism"):
            GAConfig(population_size=4, elitism=4)
        GAConfig(population_size=4, elitism=3)  # strictly below is fine

    def test_with_population_size_clamps_elitism(self):
        cfg = GAConfig(population_size=10, elitism=4)
        shrunk = cfg.with_population_size(3)
        assert shrunk.population_size == 3
        assert shrunk.elitism == 2  # clamped below the new size

    def test_spec_built_config_validates_too(self):
        from repro.spec import GAConfigSpec

        with pytest.raises(ValueError, match="population_size"):
            GAConfigSpec({"population_size": 1}).build()
