"""Tests for the trial-level sweep orchestrator (repro.runtime.sweep)."""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.runtime import sweep as sweep_mod
from repro.runtime.sweep import (
    SweepConfig,
    SweepTelemetry,
    Trial,
    TrialCache,
    TrialCost,
    canonical_params,
    current_config,
    kernel_digest,
    run_sweep,
    sweep_context,
    trial_digest,
)
from repro.verify.specs import exemplar_spec


def _square(*, x: float, seed: int) -> float:
    return x * x + seed


def _pair(*, a: int, b: int) -> tuple[int, int]:
    return a + b, a * b


def _boom(*, seed: int) -> None:
    raise RuntimeError("trial failure must propagate")


#: a stand-in measured cost for entries stored directly through the cache API
COST = TrialCost(wall_s=0.25, cpu_s=0.2, sim_events=7, evaluations=11)


def _best_fitness(result) -> float:
    return float(result.best_fitness)


def _spin(*, n: int, seed: int) -> int:
    total = seed
    for i in range(n):
        total = (total * 31 + i) % 1_000_003
    return total


class TestTrial:
    def test_call_passes_params_and_seed(self):
        assert Trial(_square, dict(x=3.0), seed=1).call() == 10.0

    def test_call_without_seed(self):
        assert Trial(_pair, dict(a=2, b=5)).call() == (7, 10)

    def test_fn_id_is_module_qualified(self):
        assert Trial(_square).fn_id.endswith("test_sweep._square")

    def test_trials_pickle(self):
        t = Trial(_square, dict(x=1.5), seed=9)
        assert pickle.loads(pickle.dumps(t)).call() == t.call()


class TestCanonicalParams:
    def test_scalars_stable(self):
        assert canonical_params(0.1) == repr(0.1)
        assert canonical_params(True) == "True"
        assert canonical_params(None) == "None"

    def test_mapping_order_independent(self):
        assert canonical_params({"b": 1, "a": 2}) == canonical_params({"a": 2, "b": 1})

    def test_distinguishes_int_from_float(self):
        assert canonical_params(1) != canonical_params(1.0)

    def test_ndarray_includes_dtype(self):
        import numpy as np

        a32 = np.zeros(3, dtype=np.float32)
        a64 = np.zeros(3, dtype=np.float64)
        assert canonical_params(a32) != canonical_params(a64)

    def test_deep_nesting_rejected(self):
        v: list = []
        for _ in range(20):
            v = [v]
        with pytest.raises(ValueError):
            canonical_params(v)


class TestTrialDigest:
    def test_digest_is_stable(self):
        t = Trial(_square, dict(x=2.0), seed=3)
        d1 = trial_digest("E0", t, quick=False, kernel="k")
        d2 = trial_digest("E0", t, quick=False, kernel="k")
        assert d1 == d2

    def test_digest_varies_with_every_key_component(self):
        t = Trial(_square, dict(x=2.0), seed=3)
        base = trial_digest("E0", t, quick=False, kernel="k")
        assert trial_digest("E1", t, quick=False, kernel="k") != base
        assert trial_digest("E0", t, quick=True, kernel="k") != base
        assert trial_digest("E0", t, quick=False, kernel="other") != base
        assert (
            trial_digest("E0", Trial(_square, dict(x=2.5), seed=3), quick=False, kernel="k")
            != base
        )
        assert (
            trial_digest("E0", Trial(_square, dict(x=2.0), seed=4), quick=False, kernel="k")
            != base
        )

    def test_kernel_digest_memoized_and_hex(self):
        d = kernel_digest()
        assert d == kernel_digest()
        assert len(d) == 64
        int(d, 16)


class TestTrialCache:
    def test_roundtrip(self, tmp_path):
        cache = TrialCache(tmp_path)
        cache.store("ab" + "0" * 62, {"v": [1, 2.5, "x"]}, COST)
        hit, value, cost = cache.load("ab" + "0" * 62)
        assert hit and value == {"v": [1, 2.5, "x"]} and cost == COST
        assert cache.hits == 1 and cache.corrupt == 0

    def test_missing_entry_is_miss(self, tmp_path):
        cache = TrialCache(tmp_path)
        hit, value, cost = cache.load("cd" + "1" * 62)
        assert not hit and value is None and cost is None
        assert cache.misses == 1

    def test_corrupt_payload_detected_and_recomputed(self, tmp_path):
        digest = "ef" + "2" * 62
        cache = TrialCache(tmp_path)
        cache.store(digest, 12345, COST)
        path = cache._path(digest)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip a payload byte -> checksum mismatch
        path.write_bytes(bytes(blob))
        hit, value, _ = cache.load(digest)
        assert not hit and value is None
        assert cache.corrupt == 1
        # the orchestrator path: a corrupt entry is recomputed and rewritten
        cfg = SweepConfig(cache_dir=tmp_path)
        trial = Trial(_square, dict(x=2.0), seed=1)
        real = trial_digest("EX", trial, quick=False)
        bad = TrialCache(tmp_path)
        bad.store(real, "WRONG", COST)
        p = bad._path(real)
        raw = bytearray(p.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        p.write_bytes(bytes(raw))
        assert run_sweep("EX", [trial], config=cfg) == [5.0]
        fresh = TrialCache(tmp_path)
        assert fresh.load(real)[:2] == (True, 5.0)

    def test_truncated_entry_is_corrupt(self, tmp_path):
        digest = "aa" + "3" * 62
        cache = TrialCache(tmp_path)
        cache.store(digest, [1, 2, 3], COST)
        path = cache._path(digest)
        path.write_bytes(path.read_bytes()[:10])
        hit, _, _ = cache.load(digest)
        assert not hit and cache.corrupt == 1

    def test_entry_without_cost_is_a_miss(self, tmp_path):
        # a checksummed entry of the old format (RSWEEP1, bare result) and
        # a current-magic entry holding a bare result both read as misses
        cache = TrialCache(tmp_path)
        payload = pickle.dumps(5.0)
        header = hashlib.sha256(payload).hexdigest().encode("ascii") + b"\n"
        for i, magic in enumerate((b"RSWEEP1\n", sweep_mod._MAGIC)):
            digest = f"{i:02d}" + "5" * 62
            path = cache._path(digest)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(magic + header + payload)
            assert cache.load(digest) == (False, None, None)
        assert cache.corrupt == 2


class TestTrialCacheTempHygiene:
    def test_store_leaves_no_temp_files(self, tmp_path):
        cache = TrialCache(tmp_path)
        for i in range(3):
            cache.store(f"{i:02d}" + "0" * 62, i, COST)
        assert list(tmp_path.glob("*/*.tmp.*")) == []

    def test_failed_store_unlinks_its_temp(self, tmp_path, monkeypatch):
        import os as os_mod

        cache = TrialCache(tmp_path)

        def _boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os_mod, "replace", _boom)
        with pytest.raises(OSError, match="disk full"):
            cache.store("ab" + "0" * 62, 1, COST)
        assert list(tmp_path.glob("*/*.tmp.*")) == []

    def test_stale_temp_from_dead_writer_swept_on_open(self, tmp_path):
        import subprocess
        import sys

        # a real pid that is guaranteed dead: a reaped child's
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        (tmp_path / "ab").mkdir()
        stale = tmp_path / "ab" / f"{'0' * 62}.pkl.tmp.{proc.pid}.0"
        stale.write_bytes(b"partial")
        TrialCache(tmp_path)
        assert not stale.exists()

    def test_unparseable_temp_swept_on_open(self, tmp_path):
        (tmp_path / "cd").mkdir()
        junk = tmp_path / "cd" / "entry.pkl.tmp.notapid"
        junk.write_bytes(b"junk")
        TrialCache(tmp_path)
        assert not junk.exists()

    def test_live_writer_temp_survives_open(self, tmp_path):
        import os as os_mod

        (tmp_path / "ef").mkdir()
        live = tmp_path / "ef" / f"entry.pkl.tmp.{os_mod.getpid()}.7"
        live.write_bytes(b"in flight")
        TrialCache(tmp_path)
        assert live.exists()

    def test_finished_entries_untouched_by_sweep(self, tmp_path):
        digest = "ab" + "4" * 62
        TrialCache(tmp_path).store(digest, "keep me", COST)
        assert TrialCache(tmp_path).load(digest) == (True, "keep me", COST)


class TestRunSweep:
    def test_results_in_declared_order(self):
        trials = [Trial(_square, dict(x=float(i)), seed=0) for i in range(7)]
        assert run_sweep("EX", trials) == [float(i * i) for i in range(7)]

    def test_parallel_matches_serial(self):
        trials = [Trial(_square, dict(x=float(i)), seed=i) for i in range(9)]
        serial = run_sweep("EX", trials, config=SweepConfig(jobs=1))
        parallel = run_sweep("EX", trials, config=SweepConfig(jobs=2))
        assert serial == parallel

    def test_trial_errors_propagate(self):
        with pytest.raises(RuntimeError, match="must propagate"):
            run_sweep("EX", [Trial(_boom, seed=0)])

    def test_warm_cache_serves_hits(self, tmp_path):
        trials = [Trial(_square, dict(x=float(i)), seed=0) for i in range(4)]
        cfg = SweepConfig(cache_dir=tmp_path, telemetry=SweepTelemetry())
        cold = run_sweep("EX", trials, config=cfg)
        warm_cfg = SweepConfig(cache_dir=tmp_path, telemetry=SweepTelemetry())
        warm = run_sweep("EX", trials, config=warm_cfg)
        assert cold == warm
        assert all(t.cached for t in warm_cfg.telemetry.trials)
        assert not any(t.cached for t in cfg.telemetry.trials)

    def test_warm_hit_reports_the_cold_run_cost(self, tmp_path):
        trials = [
            Trial(_best_fitness, spec=exemplar_spec("sim-master-slave", seed=s))
            for s in range(2)
        ]
        cold = SweepTelemetry()
        run_sweep("EX", trials, config=SweepConfig(cache_dir=tmp_path, telemetry=cold))
        warm = SweepTelemetry()
        run_sweep("EX", trials, config=SweepConfig(cache_dir=tmp_path, telemetry=warm))

        def cost(rec):
            return rec.digest, rec.wall_s, rec.cpu_s, rec.sim_events, rec.evaluations

        assert all(t.cached for t in warm.trials)
        assert [cost(t) for t in warm.trials] == [cost(t) for t in cold.trials]
        assert all(t.cpu_s > 0.0 and t.sim_events > 0 for t in warm.trials)
        assert all(t.evaluations > 0 for t in warm.trials)
        # totals count the work this run did: the hits cost nothing now
        totals = warm.totals()
        assert totals["cache_hits"] == len(trials)
        assert totals["trial_wall_s"] == totals["trial_cpu_s"] == 0.0
        assert totals["sim_events"] == totals["evaluations"] == 0

    def test_kernel_digest_change_invalidates(self, tmp_path, monkeypatch):
        trials = [Trial(_square, dict(x=2.0), seed=0)]
        tele1 = SweepTelemetry()
        run_sweep("EX", trials, config=SweepConfig(cache_dir=tmp_path, telemetry=tele1))
        monkeypatch.setattr(sweep_mod, "_KERNEL_DIGEST", "f" * 64)
        tele2 = SweepTelemetry()
        run_sweep("EX", trials, config=SweepConfig(cache_dir=tmp_path, telemetry=tele2))
        assert not any(t.cached for t in tele2.trials)

    def test_quick_flag_invalidates(self, tmp_path):
        trials = [Trial(_square, dict(x=2.0), seed=0)]
        run_sweep("EX", trials, quick=False, config=SweepConfig(cache_dir=tmp_path))
        tele = SweepTelemetry()
        run_sweep(
            "EX",
            trials,
            quick=True,
            config=SweepConfig(cache_dir=tmp_path, telemetry=tele),
        )
        assert not any(t.cached for t in tele.trials)

    def test_telemetry_records_sweeps_and_totals(self):
        tele = SweepTelemetry()
        run_sweep(
            "EX",
            [Trial(_square, dict(x=1.0), seed=0)],
            config=SweepConfig(telemetry=tele),
        )
        assert len(tele.sweeps) == 1
        totals = tele.totals()
        assert totals["trials"] == 1 and totals["cache_hits"] == 0
        doc = tele.to_json()
        assert doc["schema"] == "repro-sweep-bench/v1"
        assert "cpu_count" in doc["host"]

    def test_trial_cpu_time_recorded_next_to_wall(self):
        tele = SweepTelemetry()
        trials = [Trial(_spin, dict(n=200_000), seed=i) for i in range(3)]
        run_sweep("EX", trials, config=SweepConfig(telemetry=tele))
        for t in tele.trials:
            assert t.cpu_s > 0.0
            assert t.cpu_s <= t.wall_s + 0.005  # single-threaded trial
        totals = tele.totals()
        assert totals["trial_cpu_s"] == round(sum(t.cpu_s for t in tele.trials), 6)
        assert all("cpu_s" in t for t in tele.to_json()["trials"])

    def test_telemetry_write(self, tmp_path):
        import json

        tele = SweepTelemetry()
        run_sweep(
            "EX",
            [Trial(_pair, dict(a=1, b=2))],
            config=SweepConfig(telemetry=tele),
        )
        out = tmp_path / "bench.json"
        tele.write(out)
        assert json.loads(out.read_text())["totals"]["trials"] == 1


class TestSweepContext:
    def test_default_is_serial_uncached(self):
        cfg = current_config()
        assert cfg.jobs == 1 and cfg.cache_dir is None

    def test_context_installs_and_restores(self, tmp_path):
        config = SweepConfig(jobs=3, cache_dir=tmp_path)
        with sweep_context(config) as cfg:
            assert current_config() is cfg is config
        assert current_config().jobs == 1

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            SweepConfig(jobs=0)
