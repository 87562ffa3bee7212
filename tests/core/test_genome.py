"""Unit tests for genome specifications."""

import numpy as np
import pytest

from repro.core import (
    BinarySpec,
    IntegerVectorSpec,
    PermutationSpec,
    RealVectorSpec,
)


class TestBinarySpec:
    def test_sample_shape_and_domain(self, rng):
        spec = BinarySpec(32)
        g = spec.sample(rng)
        assert g.shape == (32,)
        assert set(np.unique(g)) <= {0, 1}

    def test_sample_is_valid(self, rng):
        spec = BinarySpec(16)
        for _ in range(20):
            assert spec.is_valid(spec.sample(rng))

    def test_invalid_wrong_length(self):
        spec = BinarySpec(8)
        assert not spec.is_valid(np.zeros(9, dtype=np.int8))

    def test_invalid_non_binary_values(self):
        spec = BinarySpec(4)
        assert not spec.is_valid(np.array([0, 1, 2, 0]))

    def test_repair_clips_and_rounds(self, rng):
        spec = BinarySpec(4)
        repaired = spec.repair(np.array([-1.0, 0.4, 0.9, 3.0]), rng)
        assert spec.is_valid(repaired)
        assert repaired.tolist() == [0, 0, 1, 1]

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            BinarySpec(0)

    def test_sample_population_count(self, rng):
        pops = BinarySpec(8).sample_population(rng, 13)
        assert len(pops) == 13

    def test_samples_cover_both_values(self, rng):
        g = BinarySpec(200).sample(rng)
        assert 0 < g.sum() < 200  # astronomically unlikely to fail


class TestRealVectorSpec:
    def test_sample_within_bounds(self, rng):
        spec = RealVectorSpec(10, -2.0, 3.0)
        for _ in range(10):
            g = spec.sample(rng)
            assert np.all(g >= -2.0) and np.all(g <= 3.0)

    def test_per_gene_bounds(self, rng):
        lo = np.array([0.0, 10.0])
        hi = np.array([1.0, 20.0])
        spec = RealVectorSpec(2, lo, hi)
        g = spec.sample(rng)
        assert 0.0 <= g[0] <= 1.0
        assert 10.0 <= g[1] <= 20.0

    def test_repair_clips(self, rng):
        spec = RealVectorSpec(3, 0.0, 1.0)
        repaired = spec.repair(np.array([-5.0, 0.5, 7.0]), rng)
        assert repaired.tolist() == [0.0, 0.5, 1.0]

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            RealVectorSpec(3, 1.0, 1.0)

    def test_is_valid_checks_bounds(self):
        spec = RealVectorSpec(2, 0.0, 1.0)
        assert spec.is_valid(np.array([0.5, 0.5]))
        assert not spec.is_valid(np.array([0.5, 1.5]))

    def test_span(self):
        spec = RealVectorSpec(2, -1.0, 3.0)
        assert np.allclose(spec.span, 4.0)

    @pytest.mark.parametrize(
        "lower,upper",
        [(-2.0, 3.0), (np.array([0.0, -1.0, 5.0]), np.array([1.0, 0.0, 9.0])), (0, 1)],
    )
    def test_bounds_built_once_and_match_the_broadcast(self, lower, upper):
        spec = RealVectorSpec(3, lower, upper)
        lo, hi = spec.bounds()
        assert spec.bounds()[0] is lo and spec.bounds()[1] is hi
        assert not lo.flags.writeable and not hi.flags.writeable
        want_lo = np.broadcast_to(np.asarray(lower, dtype=float), (3,))
        want_hi = np.broadcast_to(np.asarray(upper, dtype=float), (3,))
        assert lo.dtype == want_lo.dtype and np.array_equal(lo, want_lo)
        assert np.array_equal(hi, want_hi)

    def test_repair_sample_and_validity_match_the_broadcast_form(self):
        spec = RealVectorSpec(4, np.array([0.0, -1.0, 2.0, -5.0]), 6.0)
        lo = np.broadcast_to(np.asarray(spec.lower, dtype=float), (4,))
        hi = np.broadcast_to(np.asarray(spec.upper, dtype=float), (4,))
        genomes = [
            np.array([-9.0, 0.5, 7.0, np.nan]),
            np.array([1, 2, 3, 4]),
            np.array([np.inf, -np.inf, 2.0, 0.0]),
        ]
        for g in genomes:
            got = spec.repair(g, np.random.default_rng(0))
            assert np.array_equal(got, np.clip(g.astype(float), lo, hi), equal_nan=True)
            assert spec.is_valid(g) == bool(np.all(g >= lo) and np.all(g <= hi))
        batch = np.stack(genomes).astype(float)
        assert np.array_equal(
            spec.repair_batch(batch, None), np.clip(batch, lo, hi), equal_nan=True
        )
        ours, ref = np.random.default_rng(3), np.random.default_rng(3)
        assert np.array_equal(spec.sample(ours), ref.uniform(lo, hi))

    def test_pickle_drops_the_cached_bounds(self):
        import pickle

        spec = RealVectorSpec(3, -1.0, 1.0)
        spec.bounds()
        clone = pickle.loads(pickle.dumps(spec))
        assert "_bounds" not in vars(clone)
        assert not clone.bounds()[0].flags.writeable
        assert np.array_equal(clone.bounds()[1], spec.bounds()[1])


class TestPermutationSpec:
    def test_sample_is_permutation(self, rng):
        spec = PermutationSpec(12)
        for _ in range(10):
            g = spec.sample(rng)
            assert sorted(g.tolist()) == list(range(12))

    def test_is_valid_rejects_duplicates(self):
        spec = PermutationSpec(4)
        assert not spec.is_valid(np.array([0, 1, 1, 3]))
        assert spec.is_valid(np.array([3, 1, 0, 2]))

    def test_repair_restores_validity(self, rng):
        spec = PermutationSpec(5)
        broken = np.array([2, 2, 7, 0, 0])
        fixed = spec.repair(broken, rng)
        assert spec.is_valid(fixed)

    def test_repair_keeps_first_occurrences_in_order(self, rng):
        spec = PermutationSpec(5)
        fixed = spec.repair(np.array([3, 3, 1, 1, 0]), rng)
        # 3 appears before 1 before 0, and that relative order is preserved
        pos = {int(v): i for i, v in enumerate(fixed)}
        assert pos[3] < pos[1] < pos[0]

    def test_length_one_rejected(self):
        with pytest.raises(ValueError):
            PermutationSpec(1)

    @staticmethod
    def _rebuild(spec, genome, rng):
        """The first-occurrence rebuild as it stood before the fast path."""
        seen, out = set(), []
        for g in np.asarray(genome, dtype=np.int64):
            v = int(g)
            if 0 <= v < spec.length and v not in seen:
                seen.add(v)
                out.append(v)
        missing = [v for v in range(spec.length) if v not in seen]
        rng.shuffle(missing)
        out.extend(missing)
        return np.asarray(out[: spec.length], dtype=np.int64)

    @pytest.mark.parametrize(
        "genome",
        [
            np.array([3, 0, 4, 1, 2]),
            np.array([3, 0, 4, 1, 2], dtype=np.int8),
            np.array([3, 0, 4, 1, 2], dtype=np.uint16),
            np.array([3, 0, 3, 1, 2]),
            np.array([3, 0, 5, 1, 2]),
            np.array([3, 0, -1, 1, 2]),
            np.array([3.0, 0.0, 4.0, 1.0, 2.0]),
            np.array([3, 0, 4, 1]),
            np.array([3, 0, 4, 1, 2, 5]),
            [3, 0, 4, 1, 2],
        ],
        ids=[
            "valid-int64", "valid-int8", "valid-uint16", "duplicate",
            "too-large", "negative", "float", "short", "long", "list",
        ],
    )
    def test_repair_matches_the_rebuild_and_its_stream(self, genome):
        spec = PermutationSpec(5)
        ours, ref = np.random.default_rng(9), np.random.default_rng(9)
        fixed = spec.repair(genome, ours)
        want = self._rebuild(spec, genome, ref)
        assert fixed.dtype == np.int64 and np.array_equal(fixed, want)
        assert ours.random() == ref.random()

    def test_repair_of_a_valid_permutation_is_a_copy(self, rng):
        spec = PermutationSpec(6)
        g = spec.sample(rng)
        fixed = spec.repair(g, rng)
        assert np.array_equal(fixed, g) and not np.shares_memory(fixed, g)


class TestIntegerVectorSpec:
    def test_sample_within_inclusive_bounds(self, rng):
        spec = IntegerVectorSpec(50, low=-3, high=3)
        g = spec.sample(rng)
        assert g.min() >= -3 and g.max() <= 3

    def test_high_is_inclusive(self, rng):
        spec = IntegerVectorSpec(500, low=0, high=1)
        g = spec.sample(rng)
        assert set(np.unique(g)) == {0, 1}

    def test_repair(self, rng):
        spec = IntegerVectorSpec(3, low=0, high=5)
        fixed = spec.repair(np.array([-2.0, 2.4, 9.0]), rng)
        assert fixed.tolist() == [0, 2, 5]

    def test_cardinality(self):
        assert IntegerVectorSpec(3, low=-1, high=1).cardinality == 3

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            IntegerVectorSpec(3, low=2, high=1)
