"""Tests for hierarchical, specialized-island and hybrid models."""

import numpy as np
import pytest

from repro.core import GAConfig, MaxGenerations
from repro.migration import MigrationPolicy
from repro.parallel import (
    CellularIslandModel,
    HierarchicalGA,
    MasterSlaveIslandModel,
    SIMScenario,
    SimulatedSpecializedIslandModel,
    SpecializedIslandModel,
    specialized,
    standard_scenarios,
)
from repro.problems import ZDT1, OneMax, SchafferF2
from repro.problems.applications import TransonicWingDesign
from repro.runtime import ThreadExecutor
from repro.topology import TreeTopology


class TestHierarchicalGA:
    @pytest.fixture
    def hga(self) -> HierarchicalGA:
        return HierarchicalGA(
            TransonicWingDesign(),
            GAConfig(population_size=10, elitism=1),
            layers=3,
            branching=2,
            migration_interval=2,
            seed=1,
        )

    def test_tree_structure(self, hga):
        assert isinstance(hga.topology, TreeTopology)
        assert hga.n_islands == len(hga.demes) == 7
        assert [len(hga.topology.layer(l)) for l in range(3)] == [1, 2, 4]
        # deme i scores at its layer's fidelity
        assert [d.problem.fidelity for d in hga.demes] == [2, 1, 1, 0, 0, 0, 0]

    def test_layer_fidelities_decrease_downward(self, hga):
        assert hga.layer_fidelity == [2, 1, 0]

    def test_children_of(self, hga):
        tree = hga.topology
        assert tree.children(0) == [1, 2]
        assert tree.children(2) == [5, 6]
        assert tree.children(3) == []  # leaves
        assert [tree.parent(c) for c in (1, 2, 5, 6)] == [0, 0, 2, 2]

    def test_work_units_weighted_by_cost(self, hga):
        hga.initialize()
        # top deme: 10 evals x cost 36; layer 1: 2x10x6; layer 2: 4x10x1
        assert hga.work_units() == pytest.approx(10 * 36 + 20 * 6 + 40 * 1)

    def test_run_improves_top_best(self, hga):
        hga.initialize()
        start = hga.global_best().require_fitness()
        res = hga.run(max_epochs=10)
        assert res.best_fitness <= start
        assert res.best_fitness == hga.demes[0].best_so_far.require_fitness()

    def test_promotion_reevaluates_under_parent_model(self, hga):
        hga.initialize()
        top = hga.demes[0]
        before = top.state.evaluations
        hga.epoch = hga.schedule.interval - 1
        hga.step_epoch()  # triggers exchange
        # 9 offspring (one elite survives) + its two children's two best each,
        # re-scored under the top deme's model
        assert top.state.evaluations == before + 9 + 2 * 2
        # every member of every deme is scored at its deme's fidelity
        for deme in hga.demes:
            for ind in deme.population:
                assert ind.fitness == deme.problem.evaluate(ind.genome)

    def test_an_exchange_moves_two_up_and_one_down_per_edge(self, hga):
        hga.initialize()
        hga.epoch = hga.schedule.interval - 1
        hga.step_epoch()
        assert hga.migrants_sent == 6 * (2 + 1)
        assert 0 < hga.migrants_accepted <= hga.migrants_sent
        (record,) = hga.records[1:]
        assert (record.migrants_sent, record.migrants_accepted) == (
            hga.migrants_sent, hga.migrants_accepted
        )

    def test_an_arrival_that_beats_the_best_so_far_becomes_it(self, hga):
        hga.initialize()
        hga.epoch = hga.schedule.interval - 1
        hga.step_epoch()
        for deme in hga.demes:
            best = deme.population.best().require_fitness()
            assert deme.best_so_far.require_fitness() <= best

    def test_report_carries_curves_records_and_counters(self, hga):
        res = hga.run(max_epochs=4)
        assert [r.epoch for r in res.records] == [0, 1, 2, 3, 4]
        assert res.best_curve == [r.global_best for r in res.records]
        assert len(res.work_curve) == 5 and res.work_curve[-1] == res.work_units
        assert res.deme_bests == [d.best_so_far.require_fitness() for d in hga.demes]
        assert 0 < res.migrants_accepted <= res.migrants_sent == 2 * 6 * 3

    def test_more_layers_than_fidelities_reuse_cheapest(self):
        hga = HierarchicalGA(
            TransonicWingDesign(), GAConfig(population_size=8),
            layers=5, branching=1, seed=2,
        )
        assert hga.layer_fidelity == [2, 1, 0, 0, 0]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            HierarchicalGA(TransonicWingDesign(), layers=0)
        with pytest.raises(ValueError):
            HierarchicalGA(TransonicWingDesign(), branching=0)


class TestSpecializedIslandModel:
    def test_standard_scenarios_shape(self):
        scens = standard_scenarios()
        assert len(scens) == 7
        assert scens[0].n_subeas == 1
        assert scens[6].n_subeas == 4

    def test_archive_is_nondominated(self):
        model = SpecializedIslandModel(
            SchafferF2(), standard_scenarios()[3],
            GAConfig(population_size=16), seed=3,
        )
        res = model.run(epochs=5)
        objs = res.archive_objectives
        from repro.problems import pareto_front

        assert len(pareto_front(objs)) == objs.shape[0]

    def test_hypervolume_positive(self):
        model = SpecializedIslandModel(
            ZDT1(dims=6), standard_scenarios()[5],
            GAConfig(population_size=16),
            hv_reference=(1.1, 7.0), seed=4,
        )
        res = model.run(epochs=5)
        assert res.hypervolume > 0

    def test_migration_reevaluates_under_destination_weights(self):
        scen = SIMScenario("two-spec", ((1.0, 0.0), (0.0, 1.0)), migration_interval=1)
        model = SpecializedIslandModel(
            SchafferF2(), scen, GAConfig(population_size=10), seed=5
        )
        model.initialize()
        evals_before = model.total_evaluations()
        model.step_epoch()  # includes a migration (interval 1)
        spent = model.total_evaluations() - evals_before
        assert spent > 2 * 10  # generation work + immigrant re-evaluations

    @pytest.mark.parametrize("timed", [False, True], ids=["untimed", "timed"])
    def test_every_member_is_scored_under_its_subeas_weights(self, timed):
        # both drivers fold parcels through the one re-scalarising
        # _integrate_parcel, so immigrants carry the destination's score
        scen = SIMScenario("two-spec", ((1.0, 0.0), (0.0, 1.0)), migration_interval=1)
        args = (SchafferF2(), scen, GAConfig(population_size=10))
        if timed:
            model = SimulatedSpecializedIslandModel(*args, max_epochs=4, seed=5)
            res = model.run()
        else:
            model = SpecializedIslandModel(*args, seed=5)
            res = model.run(epochs=4)
        assert res.migrants_accepted > 0
        migrants = 0
        for deme in model.demes:
            for ind in deme.population:
                assert ind.fitness == deme.problem.evaluate(ind.genome)
                migrants += ind.origin.startswith("migrant")
        assert migrants > 0

    def test_archive_capacity_respected(self, monkeypatch):
        monkeypatch.setattr(specialized, "ARCHIVE_CAPACITY", 10)
        model = SpecializedIslandModel(
            ZDT1(dims=6), standard_scenarios()[1],
            GAConfig(population_size=16), seed=6,
        )
        res = model.run(epochs=6)
        assert res.archive_size <= 10

    def test_scenario_weight_validation(self):
        scen = SIMScenario("bad", ((1.0, 0.0, 0.0),))
        with pytest.raises(ValueError):
            SpecializedIslandModel(SchafferF2(), scen)


# island models whose demes are not sized by config.population_size refuse
# the inherited total-population constructor
@pytest.mark.parametrize(
    "cls, args, why",
    [
        pytest.param(
            CellularIslandModel, (OneMax(16), 64, 2), "rows x cols",
            id="cellular-island",
        ),
        pytest.param(
            SpecializedIslandModel, (SchafferF2(), 64, 2), "scenario",
            id="specialized",
        ),
        pytest.param(
            SimulatedSpecializedIslandModel, (SchafferF2(), 64, 2), "scenario",
            id="sim-specialized",
        ),
        pytest.param(
            HierarchicalGA, (TransonicWingDesign(), 64, 2), "layers and branching",
            id="hierarchical",
        ),
    ],
)
def test_partitioned_is_refused(cls, args, why):
    with pytest.raises(TypeError, match=why):
        cls.partitioned(*args)


class TestCellularIslandModel:
    def test_solves_onemax(self):
        m = CellularIslandModel(OneMax(24), 3, rows=4, cols=4, seed=7)
        res = m.run(epochs=80)
        assert res.solved

    def test_migration_places_bests_over_worsts(self):
        m = CellularIslandModel(OneMax(16), 2, rows=3, cols=3, seed=8)
        m.initialize()
        # force one deme to be terrible
        import numpy as np
        from repro.core import Individual

        for c in range(m.demes[1].n_cells):
            bad = Individual(genome=np.zeros(16, dtype=np.int8))
            bad.fitness = 0.0
            m.demes[1].population[c] = bad
        best0 = m.demes[0].best_so_far.require_fitness()
        m.epoch = 4  # next step triggers the periodic schedule (interval 5)
        m.step_epoch()
        fit1 = max(i.require_fitness() for i in m.demes[1].population)
        assert fit1 > 0.0  # an immigrant landed

    def test_a_parcel_takes_the_worst_cells_ranked_once(self):
        from repro.core import Individual

        def cell(ones):
            ind = Individual(genome=np.repeat(np.int8(1), 16) * (np.arange(16) < ones))
            ind.fitness = float(ones)
            return ind

        m = CellularIslandModel(OneMax(16), 2, rows=2, cols=2, seed=8)
        m.initialize()
        for c, ones in enumerate((4, 3, 0, 0)):
            m.demes[0].population[c] = cell(ones)
        for c, ones in enumerate((0, 5, 5, 5)):
            m.demes[1].population[c] = cell(ones)
        m._emigrate(0, now=0)
        # the 3-migrant is worse than the second-worst cell and still lands
        grid = m.demes[1].population
        assert [c.fitness for c in grid] == [4.0, 3.0, 5.0, 5.0]
        assert [c.origin for c in grid].count("migrant") == 2
        assert (m.migrants_sent, m.migrants_accepted) == (2, 2)

    def test_deme_bests_and_records_follow_best_so_far(self):
        m = CellularIslandModel(OneMax(32), 2, rows=3, cols=3, seed=2)
        res = m.run(epochs=4)
        bests = [d.best_so_far.require_fitness() for d in m.demes]
        assert res.deme_bests == m.deme_bests() == bests
        assert [r.epoch for r in res.records] == [1, 2, 3, 4]
        assert res.records[-1].deme_bests == bests

    def test_worst_if_better_accepts_no_immigrant_worse_than_the_worst_cell(self):
        import numpy as np
        from repro.core import Individual

        policy = MigrationPolicy(rate=3, replacement="worst-if-better")
        m = CellularIslandModel(OneMax(16), 2, rows=3, cols=3, policy=policy, seed=8)
        m.initialize()
        for c in range(m.demes[0].n_cells):
            bad = Individual(genome=np.zeros(16, dtype=np.int8))
            bad.fitness = 0.0
            m.demes[0].population[c] = bad
        assert m.demes[1].population.fitness_array().min() > 0.0
        m.epoch = 5  # the periodic schedule (interval 5) fires
        m._lifecycle_exchange()
        # deme 0's zero cells all bounce off deme 1; deme 1's three best land
        assert [c.origin for c in m.demes[1].population].count("migrant") == 0
        assert [c.origin for c in m.demes[0].population].count("migrant") == 3
        assert (m.migrants_sent, m.migrants_accepted) == (6, 3)

    @pytest.mark.parametrize(
        "policy",
        [
            MigrationPolicy(rate=2, selection="random", replacement="worst"),
            MigrationPolicy(rate=2, selection="best", replacement="random"),
        ],
    )
    def test_a_random_policy_draws_from_the_model_rng(self, policy):
        def next_draw(policy):
            m = CellularIslandModel(OneMax(32), 2, rows=3, cols=3, policy=policy, seed=1)
            m.run(epochs=6)
            assert m.migrants_sent > 0
            return int(m.rng.integers(0, 2**62))

        assert next_draw(policy) != next_draw(None)

    def test_the_rate_is_free(self):
        policy = MigrationPolicy(rate=3, replacement="worst")
        m = CellularIslandModel(OneMax(16), 2, rows=3, cols=3, policy=policy, seed=1)
        assert m.policy is policy

    def test_evaluations_aggregate(self):
        m = CellularIslandModel(OneMax(16), 2, rows=3, cols=3, seed=9)
        m.run(epochs=4)
        assert m.total_evaluations() == sum(d.state.evaluations for d in m.demes)


class TestMasterSlaveIslandModel:
    def test_executor_shared_by_demes(self):
        with ThreadExecutor(workers=2) as ex:
            m = MasterSlaveIslandModel(
                OneMax(16), 3, GAConfig(population_size=8), executor=ex, seed=10
            )
            assert all(d.evaluator is ex for d in m.demes)
            res = m.run(MaxGenerations(30))
        assert res.best_fitness >= 14

    def test_matches_plain_island_genetics(self):
        from repro.parallel import IslandModel

        plain = IslandModel(OneMax(16), 3, GAConfig(population_size=8), seed=11)
        hybrid = MasterSlaveIslandModel(
            OneMax(16), 3, GAConfig(population_size=8),
            executor=ThreadExecutor(workers=2), seed=11,
        )
        r1 = plain.run(MaxGenerations(10))
        r2 = hybrid.run(MaxGenerations(10))
        assert r1.best_fitness == r2.best_fitness
        assert r1.evaluations == r2.evaluations
