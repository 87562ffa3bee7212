"""Edge-case coverage for island-model variants."""

import numpy as np
import pytest

from repro.core import GAConfig, MaxGenerations
from repro.parallel import IslandModel
from repro.problems import OneMax


class TestSteadyStateVariants:
    def test_island_of_steady_state_demes_with_batching(self):
        model = IslandModel(
            OneMax(20), 3,
            GAConfig(population_size=8),
            engine="steady-state",
            seed=7,
        )
        res = model.run(MaxGenerations(50))
        assert res.solved


class TestSingleIslandDegenerate:
    def test_one_island_ring_is_just_a_ga(self):
        model = IslandModel(OneMax(16), 1, GAConfig(population_size=10), seed=8)
        res = model.run(MaxGenerations(60))
        assert res.solved
        assert res.migrants_sent == 0  # ring of one has no links
