"""Edge-case coverage for island-model variants."""

import numpy as np
import pytest

from repro.core import GAConfig, MaxGenerations
from repro.migration import MigrationPolicy, PeriodicSchedule
from repro.parallel import IslandModel
from repro.problems import OneMax
from repro.topology import RandomRewiringTopology, ScheduleTopology, RingTopology, CompleteTopology


class TestDynamicTopologyIntegration:
    def test_rewiring_topology_advances_per_epoch(self):
        topo = RandomRewiringTopology(4, k=1, seed=3)
        before = topo.edges()
        model = IslandModel(
            OneMax(16), 4, GAConfig(population_size=6),
            topology=topo, schedule=PeriodicSchedule(1), seed=3,
        )
        model.run(MaxGenerations(5))
        assert topo.epoch == 5
        assert topo.edges() != before or topo.epoch > 0

    def test_schedule_topology_alternates(self):
        topo = ScheduleTopology([RingTopology(4), CompleteTopology(4)])
        model = IslandModel(
            OneMax(16), 4, GAConfig(population_size=6),
            topology=topo,
            schedule=PeriodicSchedule(1),
            policy=MigrationPolicy(rate=1, replacement="worst"),
            seed=4,
        )
        model.step_epoch()  # ring phase: 4 links
        sent_ring = model.migrants_sent
        model.step_epoch()  # complete phase: 12 links
        sent_complete = model.migrants_sent - sent_ring
        assert sent_ring == 4
        assert sent_complete == 12

    def test_rewired_islands_still_solve(self):
        model = IslandModel(
            OneMax(24), 4, GAConfig(population_size=10),
            topology=RandomRewiringTopology(4, k=1, seed=5),
            schedule=PeriodicSchedule(2),
            seed=5,
        )
        res = model.run(MaxGenerations(80))
        assert res.solved


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
