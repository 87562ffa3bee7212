"""Unit tests for migration policies, schedules and synchrony buffers."""

import numpy as np
import pytest

from repro.core import Individual
from repro.core.operators.replacement import (
    ReplaceRandom,
    ReplaceSimilar,
    ReplaceWorst,
    ReplaceWorstIfBetter,
)
from repro.migration import (
    MigrationBuffer,
    MigrationPolicy,
    NeverSchedule,
    PeriodicSchedule,
    ProbabilisticSchedule,
    StagnationTriggeredSchedule,
    Synchrony,
    integrate_immigrants,
    select_migrants,
)

from ..conftest import make_population


def migrant(fitness: float) -> Individual:
    ind = Individual(genome=np.full(4, 9, dtype=np.int8))
    ind.fitness = fitness
    return ind


class TestSelectMigrants:
    def test_best_selection(self, rng):
        pop = make_population([1, 5, 3, 2])
        out = select_migrants(rng, pop, MigrationPolicy(rate=2, selection="best"))
        assert sorted(i.fitness for i in out) == [3, 5]

    def test_worst_selection(self, rng):
        pop = make_population([1, 5, 3, 2])
        out = select_migrants(rng, pop, MigrationPolicy(rate=2, selection="worst"))
        assert sorted(i.fitness for i in out) == [1, 2]

    def test_random_selection_no_duplicates(self, rng):
        pop = make_population([1, 2, 3, 4, 5])
        out = select_migrants(rng, pop, MigrationPolicy(rate=3, selection="random"))
        assert len({i.fitness for i in out}) == 3

    def test_roulette_biased(self, rng):
        pop = make_population([1, 1, 1, 10])
        picks = [
            select_migrants(rng, pop, MigrationPolicy(rate=1, selection="roulette"))[0].fitness
            for _ in range(300)
        ]
        assert picks.count(10) > 150

    def test_roulette_sends_no_more_than_weigh_above_the_worst(self, rng):
        pop = make_population([1, 1, 1, 2])
        out = select_migrants(rng, pop, MigrationPolicy(rate=3, selection="roulette"))
        assert [i.fitness for i in out] == [2]

    def test_migrants_are_copies(self, rng):
        pop = make_population([1, 5])
        out = select_migrants(rng, pop, MigrationPolicy(rate=1, selection="best"))
        out[0].genome[0] = 77
        assert pop.best().genome[0] != 77

    def test_rate_zero(self, rng):
        pop = make_population([1, 2])
        assert select_migrants(rng, pop, MigrationPolicy(rate=0)) == []

    def test_rate_capped_at_population(self, rng):
        pop = make_population([1, 2])
        out = select_migrants(rng, pop, MigrationPolicy(rate=10, selection="best"))
        assert len(out) == 2

    def test_minimize_direction(self, rng):
        pop = make_population([1, 5, 3], maximize=False)
        out = select_migrants(rng, pop, MigrationPolicy(rate=1, selection="best"))
        assert out[0].fitness == 1

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            MigrationPolicy(rate=-1)

    @pytest.mark.parametrize(
        "field, kwargs",
        [("selection", {"selection": "bset"}), ("replacement", {"replacement": "wrost"})],
    )
    def test_unknown_name_rejected_when_built(self, field, kwargs):
        with pytest.raises(ValueError, match=rf"^{field}: unknown .*{kwargs[field]!r}"):
            MigrationPolicy(**kwargs)


class TestIntegrateImmigrants:
    def test_worst_replacement_always_accepts(self, rng):
        pop = make_population([5, 1, 3])
        n = integrate_immigrants(
            rng, pop, [migrant(0.1)], MigrationPolicy(replacement="worst")
        )
        assert n == 1
        assert pop[pop.worst_index()].fitness == 0.1

    def test_worst_if_better_rejects_bad(self, rng):
        pop = make_population([5, 1, 3])
        n = integrate_immigrants(
            rng, pop, [migrant(0.5)], MigrationPolicy(replacement="worst-if-better")
        )
        assert n == 0
        assert sorted(pop.fitness_array()) == [1, 3, 5]

    def test_worst_if_better_accepts_good(self, rng):
        pop = make_population([5, 1, 3])
        n = integrate_immigrants(
            rng, pop, [migrant(4.0)], MigrationPolicy(replacement="worst-if-better")
        )
        assert n == 1 and pop[pop.worst_index()].fitness == 3

    def test_random_replacement_keeps_size(self, rng):
        pop = make_population([5, 1, 3])
        integrate_immigrants(
            rng, pop, [migrant(2.0)], MigrationPolicy(replacement="random")
        )
        assert len(pop) == 3

    def test_similar_replacement_crowds(self, rng):
        pop = make_population([5, 1, 3])
        # make member 1's genome identical to the migrant's
        pop[1].genome = np.full(4, 9, dtype=np.int8)
        integrate_immigrants(
            rng, pop, [migrant(4.0)], MigrationPolicy(replacement="similar")
        )
        # the nearest member (index 1, fitness 1) was displaced
        assert sorted(pop.fitness_array()) == [3, 4, 5]

    def test_source_tagged_in_origin(self, rng):
        pop = make_population([5, 1, 3])
        integrate_immigrants(
            rng, pop, [migrant(9.0)], MigrationPolicy(replacement="worst"), source=2
        )
        assert any(i.origin == "migrant:2" for i in pop)

    def test_minimize_direction(self, rng):
        pop = make_population([5, 1, 3], maximize=False)
        n = integrate_immigrants(
            rng, pop, [migrant(0.5)], MigrationPolicy(replacement="worst-if-better")
        )
        assert n == 1 and pop[pop.worst_index()].fitness == 3

    @pytest.mark.parametrize("maximize", [True, False])
    @pytest.mark.parametrize(
        "name, rule",
        [
            ("worst", ReplaceWorst()),
            ("random", ReplaceRandom()),
            ("worst-if-better", ReplaceWorstIfBetter()),
            ("similar", ReplaceSimilar()),
        ],
    )
    def test_each_name_applies_its_replacement_rule(self, name, rule, maximize):
        def setup():
            pop = make_population([5, 1, 3, 1, 4, 2], maximize=maximize, length=6)
            immigrants = []
            for k, f in enumerate([0.5, 6.0, 2.5, 1.0, 4.5]):
                ind = Individual(genome=np.arange(6, dtype=np.int8) % (k + 2))
                ind.fitness = f
                immigrants.append(ind)
            return pop, immigrants, np.random.default_rng(7)

        def state(pop):
            return (
                b"".join(i.genome.tobytes() + np.float64(i.fitness).tobytes() for i in pop),
                [i.origin for i in pop],
            )

        pop, immigrants, rng = setup()
        accepted = integrate_immigrants(
            rng, pop, immigrants, MigrationPolicy(replacement=name), source=3
        )
        ref_pop, ref_immigrants, ref_rng = setup()
        ref_accepted = sum(
            rule(ref_rng, ref_pop, imm.copy(origin="migrant:3")) is not None
            for imm in ref_immigrants
        )
        assert accepted == ref_accepted
        assert state(pop) == state(ref_pop)
        assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)


class TestSchedules:
    def test_periodic(self, rng):
        s = PeriodicSchedule(5)
        fires = [g for g in range(1, 21) if s.should_migrate(0, g, rng)]
        assert fires == [5, 10, 15, 20]

    def test_periodic_never_at_zero(self, rng):
        assert not PeriodicSchedule(1).should_migrate(0, 0, rng)

    def test_probabilistic_rate(self, rng):
        s = ProbabilisticSchedule(0.3)
        fires = sum(s.should_migrate(0, g, rng) for g in range(1, 2001))
        assert 450 < fires < 750

    def test_stagnation_trigger(self, rng):
        s = StagnationTriggeredSchedule(patience=3)
        assert not s.should_migrate(0, 10, rng, stagnant_generations=2)
        assert s.should_migrate(0, 10, rng, stagnant_generations=3)

    def test_never(self, rng):
        assert not NeverSchedule().should_migrate(0, 100, rng)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PeriodicSchedule(0)
        with pytest.raises(ValueError):
            ProbabilisticSchedule(1.5)
        with pytest.raises(ValueError):
            StagnationTriggeredSchedule(0)


class TestMigrationBuffer:
    def test_immediate_delivery_with_zero_delay(self):
        buf = MigrationBuffer(delay=0)
        buf.post([migrant(1.0)], source=2, sent_at=5)
        ready = buf.collect(now=5)
        assert len(ready) == 1 and ready[0][0] == 2

    def test_delay_holds_parcels(self):
        buf = MigrationBuffer(delay=2)
        buf.post([migrant(1.0)], source=0, sent_at=5)
        assert buf.collect(now=6) == []
        assert len(buf.collect(now=7)) == 1

    def test_collect_removes_delivered(self):
        buf = MigrationBuffer()
        buf.post([migrant(1.0)], source=0, sent_at=0)
        buf.collect(now=0)
        assert buf.collect(now=1) == []

    def test_capacity_drops_oldest(self):
        buf = MigrationBuffer(delay=10, capacity=2)
        for k in range(3):
            buf.post([migrant(float(k))], source=k, sent_at=0)
        assert buf.dropped == 1
        assert len(buf) == 2
        sources = [s for s, _ in buf.collect(now=100)]
        assert sources == [1, 2]  # parcel 0 was dropped

    def test_empty_post_ignored(self):
        buf = MigrationBuffer()
        buf.post([], source=0, sent_at=0)
        assert len(buf) == 0

    def test_pending_counts_migrants(self):
        buf = MigrationBuffer(delay=5)
        buf.post([migrant(1.0), migrant(2.0)], source=0, sent_at=0)
        assert buf.pending == 2


class TestSynchrony:
    def test_sync_disallows_delay(self):
        with pytest.raises(ValueError):
            Synchrony(synchronous=True, delay=2)

    def test_names(self):
        assert Synchrony(True).name == "sync"
        assert Synchrony(False, delay=3).name == "async(delay=3)"

    def test_buffer_inherits_delay(self):
        buf = Synchrony(False, delay=4).make_buffer()
        assert buf.delay == 4
