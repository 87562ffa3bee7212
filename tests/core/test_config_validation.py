"""Regression tests for GAConfig.__post_init__ validation.

The spec layer builds GAConfig straight from JSON documents, so these
constructor-time checks are the only thing standing between a malformed
document and a silently nonsensical run.
"""

import numpy as np
import pytest

from repro.core import GAConfig
from repro.experiments import experiment_specs
from repro.parallel import IslandModel
from repro.problems import OneMax
from repro.spec import RunSpec


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


def _replayed_e3(field, value):
    """E3's first quick spec, replayed with one size field changed."""
    doc = experiment_specs("E3", quick=True)[0].to_dict()
    params = doc["engine"]["params"]
    (params["config"]["params"] if field == "elitism" else params)[field] = value
    return RunSpec.from_dict(doc).engine.build(seed=doc["seed"])


_BUILDERS = {
    "config": lambda field, value: GAConfig(**{field: value}),
    "islands": lambda field, value: IslandModel(OneMax(8), value),
    "partitioned": lambda field, value: IslandModel.partitioned(
        OneMax(8), **{"total_population": 160, "n_islands": 4, field: value}
    ),
    "e3-spec": _replayed_e3,
}


class TestIntegralSizes:
    """A size that is not a real integer fails where it is given, with a
    message naming the field, not mid-run in genome sampling."""

    @pytest.mark.parametrize(
        "where, field, value",
        [
            ("config", "population_size", float("nan")),
            ("config", "population_size", 2.5),
            ("config", "elitism", 1.5),
            ("config", "elitism", float("nan")),
            ("config", "elitism", True),
            ("islands", "n_islands", 2.5),
            ("islands", "n_islands", True),
            ("partitioned", "total_population", 160.5),
            ("partitioned", "n_islands", 4.0),
            ("e3-spec", "elitism", 1.5),
            ("e3-spec", "total_population", 160.5),
        ],
    )
    def test_non_integral_size_is_rejected_at_construction(self, where, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            _BUILDERS[where](field, value)

    def test_numpy_integers_are_accepted(self):
        cfg = GAConfig(population_size=np.int64(10), elitism=np.int32(2))
        model = IslandModel.partitioned(OneMax(8), np.int64(40), np.int64(4), cfg)
        assert model.n_islands == 4 and model.config.population_size == 10
