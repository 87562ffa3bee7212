"""Tests for engine checkpoint/resume."""

import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import (
    EngineSnapshot,
    GAConfig,
    GenerationalEngine,
    SteadyStateEngine,
    load_checkpoint,
    restore_engine,
    save_checkpoint,
    snapshot_engine,
)
from repro.problems import OneMax


def fresh_engine(seed=7, cls=GenerationalEngine):
    return cls(OneMax(24), GAConfig(population_size=12, elitism=1), seed=seed)


class TestSnapshot:
    def test_uninitialised_engine_rejected(self):
        with pytest.raises(ValueError):
            snapshot_engine(fresh_engine())

    def test_snapshot_captures_counters(self):
        eng = fresh_engine()
        eng.run(5)
        snap = snapshot_engine(eng)
        assert snap.generation == eng.state.generation
        assert snap.evaluations == eng.state.evaluations
        assert len(snap.genomes) == 12

    def test_snapshot_is_a_copy(self):
        eng = fresh_engine()
        eng.initialize()
        snap = snapshot_engine(eng)
        eng.population[0].genome[:] = -1
        assert snap.genomes[0][0] != -1


class TestResumeEquivalence:
    @pytest.mark.parametrize("cls", [GenerationalEngine, SteadyStateEngine])
    def test_resumed_run_matches_uninterrupted_run(self, cls):
        """The acid test: stop-snapshot-restore-continue must equal a run
        that never stopped."""
        reference = fresh_engine(seed=9, cls=cls)
        reference.run(12)

        first_half = fresh_engine(seed=9, cls=cls)
        first_half.run(6)
        snap = snapshot_engine(first_half)

        resumed = fresh_engine(seed=9, cls=cls)
        restore_engine(resumed, snap)
        resumed.run(12)  # termination counts total generations

        assert resumed.state.generation == reference.state.generation
        assert resumed.state.evaluations == reference.state.evaluations
        assert resumed.best_so_far.require_fitness() == pytest.approx(
            reference.best_so_far.require_fitness()
        )
        assert np.array_equal(
            resumed.population.fitness_array(), reference.population.fitness_array()
        )

    def test_rng_state_restored(self):
        eng = fresh_engine(seed=3)
        eng.run(3)
        snap = snapshot_engine(eng)
        value_after = eng.rng.random()
        resumed = fresh_engine(seed=999)  # wrong seed — state must override
        restore_engine(resumed, snap)
        assert resumed.rng.random() == value_after


class TestFileRoundTrip:
    def test_save_and_load(self, tmp_path):
        eng = fresh_engine(seed=4)
        eng.run(4)
        path = save_checkpoint(eng, tmp_path / "run.ckpt")
        assert path.exists()
        resumed = fresh_engine(seed=4)
        load_checkpoint(resumed, path)
        assert resumed.state.generation == eng.state.generation
        assert resumed.population.best().fitness == eng.population.best().fitness

    def test_no_tmp_file_left_behind(self, tmp_path):
        eng = fresh_engine(seed=4)
        eng.run(2)
        save_checkpoint(eng, tmp_path / "run.ckpt")
        assert not (tmp_path / "run.ckpt.tmp").exists()

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        with open(path, "wb") as fh:
            pickle.dump({"not": "a snapshot"}, fh)
        with pytest.raises(ValueError):
            load_checkpoint(fresh_engine(), path)

    @pytest.mark.parametrize(
        "damage",
        [lambda blob: blob[: len(blob) // 2], lambda blob: b"\x00garbage\xff" * 8],
        ids=["truncated", "garbage"],
    )
    def test_unreadable_file_rejected_typed(self, tmp_path, damage):
        eng = fresh_engine(seed=4)
        eng.run(2)
        path = save_checkpoint(eng, tmp_path / "run.ckpt")
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match="not a readable checkpoint") as info:
            load_checkpoint(fresh_engine(), path)
        assert info.value.__cause__ is not None

    def test_version_mismatch_rejected(self, tmp_path):
        eng = fresh_engine()
        eng.run(2)
        snap = snapshot_engine(eng)
        snap.version = 999
        with pytest.raises(ValueError):
            restore_engine(fresh_engine(), snap)


class TestProvenanceAndHistory:
    def test_best_birth_generation_survives_restore(self):
        eng = fresh_engine(seed=6)
        eng.run(8)
        best = eng.best_so_far
        snap = snapshot_engine(eng)
        resumed = fresh_engine(seed=6)
        restore_engine(resumed, snap)
        assert resumed.best_so_far.birth_generation == best.birth_generation
        assert resumed.best_so_far.origin == best.origin

    def test_resumed_history_is_continuous(self):
        """After restore+run, a callback sees one unbroken generation
        sequence that starts after the snapshot's generation."""
        eng = fresh_engine(seed=8)
        eng.run(5)
        snap = snapshot_engine(eng)
        gens = []
        resumed = GenerationalEngine(
            OneMax(24),
            GAConfig(population_size=12, elitism=1),
            seed=8,
            callbacks=[SimpleNamespace(on_generation=lambda s, p: gens.append(s.generation))],
        )
        restore_engine(resumed, snap)
        resumed.run(10)
        assert gens == list(range(snap.generation + 1, 11))

    def test_v3_snapshot_rejected(self):
        """Format 3 carried per-generation history records; format 4 drops
        them, and a v3 snapshot is refused before any field is read."""
        eng = fresh_engine(seed=8)
        eng.run(2)
        snap = snapshot_engine(eng)
        snap.version = 3
        snap.history_records = []  # what unpickling a v3 file yields
        resumed = fresh_engine(seed=8)
        with pytest.raises(ValueError, match=r"checkpoint format 3 not in supported range \[4, 4\]"):
            restore_engine(resumed, snap)
        assert resumed.population is None

    def test_old_format_version_rejected_before_field_access(self):
        eng = fresh_engine()
        eng.run(2)
        snap = snapshot_engine(eng)
        snap.version = 1
        with pytest.raises(ValueError, match="checkpoint format"):
            restore_engine(fresh_engine(), snap)


class TestPerMemberProvenance:
    """Format v3 regression: v2 persisted only birth_generations, so every
    member of a restored population reported origin='init'."""

    def test_population_origins_round_trip(self):
        eng = fresh_engine(seed=11)
        eng.run(6)
        originals = [ind.origin for ind in eng.population]
        # a real evolved population carries variation provenance, not just init
        assert set(originals) - {"init"}
        snap = snapshot_engine(eng)
        resumed = fresh_engine(seed=11)
        restore_engine(resumed, snap)
        assert [ind.origin for ind in resumed.population] == originals

    def test_migrant_style_tags_survive_file_round_trip(self, tmp_path):
        eng = fresh_engine(seed=12)
        eng.run(3)
        eng.population[0].origin = "migrant:3"
        path = save_checkpoint(eng, tmp_path / "ck.pkl")
        resumed = load_checkpoint(fresh_engine(seed=12), path)
        assert resumed.population[0].origin == "migrant:3"

    def test_v2_snapshot_rejected(self):
        """A v2 pickle has no `origins` attribute at all (pickle restores
        __dict__ directly); v2 loading is retired, so it fails typed."""
        eng = fresh_engine(seed=13)
        eng.run(4)
        snap = snapshot_engine(eng)
        snap.version = 2
        del snap.__dict__["origins"]  # exactly what unpickling a v2 file yields
        v2_bytes = pickle.dumps(snap)
        with pytest.raises(ValueError, match="not in supported range"):
            restore_engine(fresh_engine(seed=13), pickle.loads(v2_bytes))

    def test_v2_checkpoint_file_rejected(self, tmp_path):
        eng = fresh_engine(seed=14)
        eng.run(4)
        snap = snapshot_engine(eng)
        snap.version = 2
        del snap.__dict__["origins"]
        path = tmp_path / "v2.ckpt"
        path.write_bytes(pickle.dumps(snap))
        with pytest.raises(ValueError, match="not in supported range"):
            load_checkpoint(fresh_engine(seed=14), path)

    def test_origin_count_mismatch_rejected(self):
        eng = fresh_engine(seed=15)
        eng.run(2)
        snap = snapshot_engine(eng)
        snap.origins = snap.origins[:-1]
        with pytest.raises(ValueError, match="origins"):
            restore_engine(fresh_engine(seed=15), snap)

    @pytest.mark.parametrize("field", ["fitnesses", "birth_generations"])
    def test_member_list_count_mismatch_rejected(self, field):
        """restore must not zip a short list into a shrunken population."""
        eng = fresh_engine(seed=15)
        eng.run(2)
        snap = snapshot_engine(eng)
        setattr(snap, field, getattr(snap, field)[:5])
        with pytest.raises(ValueError, match=f"5 {field} for 12 genomes"):
            restore_engine(fresh_engine(seed=15), snap)

    def test_future_format_version_rejected(self):
        eng = fresh_engine(seed=16)
        eng.run(2)
        snap = snapshot_engine(eng)
        snap.version = 99
        with pytest.raises(ValueError, match="checkpoint format"):
            restore_engine(fresh_engine(seed=16), snap)
