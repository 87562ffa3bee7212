"""The GA cycle's per-offspring primitives against their straightforward forms.

Each primitive on the hot variation path is written for low call overhead.
These tests pin each one to a plain reference written inline here: same
values, same dtype, same random draws (the generator state afterwards), so
a change to a primitive cannot move an experiment fingerprint unnoticed.
"""

import numpy as np
import pytest

from repro.core import BinarySpec
from repro.core.operators.crossover import TwoPointCrossover
from repro.core.operators.mutation import BitFlipMutation
from repro.core.problem import stack_genomes


def _two_point_reference(rng, a, b):
    n = a.shape[0]
    i, j = sorted(rng.choice(np.arange(1, n), size=2, replace=False).tolist())
    ca, cb = a.copy(), b.copy()
    ca[i:j], cb[i:j] = b[i:j].copy(), a[i:j].copy()
    return ca, cb


def _bit_flip_reference(rng, genome, rate):
    rate = (1.0 / genome.shape[0]) if rate is None else rate
    mask = rng.random(genome.shape[0]) < rate
    out = genome.copy()
    out[mask] = 1 - out[mask]
    return out


def _same_state(r1, r2):
    return r1.bit_generator.state == r2.bit_generator.state


class TestTwoPointCrossover:
    @pytest.mark.parametrize("seed", range(8))
    def test_cut_points_and_draws_match_reference(self, seed):
        op = TwoPointCrossover()
        for n in range(3, 201):
            r1 = np.random.default_rng([seed, n])
            r2 = np.random.default_rng([seed, n])
            a = np.arange(n, dtype=np.int64)
            b = -a - 1
            got = op(r1, a, b)
            want = _two_point_reference(r2, a, b)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w), n
            assert _same_state(r1, r2), n

    def test_parents_untouched_and_children_independent(self):
        a = np.zeros(10, dtype=np.int8)
        b = np.ones(10, dtype=np.int8)
        ca, cb = TwoPointCrossover()(np.random.default_rng(1), a, b)
        assert not a.any() and b.all()
        ca[:] = 7
        assert not np.shares_memory(ca, b) and not np.shares_memory(cb, a)
        assert not a.any() and b.all()


class TestBitFlipMutation:
    @pytest.mark.parametrize("dtype", [np.int8, np.bool_, np.int64, np.float64])
    @pytest.mark.parametrize("rate", [None, 0.0, 0.3, 1.0])
    def test_values_dtype_and_draws_match_reference(self, dtype, rate):
        op = BitFlipMutation(rate=rate)
        for seed in range(40):
            r1 = np.random.default_rng(seed)
            r2 = np.random.default_rng(seed)
            g = (np.random.default_rng(1000 + seed).random(17) < 0.5).astype(dtype)
            got = op(r1, g)
            want = _bit_flip_reference(r2, g, rate)
            assert got.dtype == want.dtype == g.dtype
            assert np.array_equal(got, want)
            assert _same_state(r1, r2)
            assert not np.shares_memory(got, g)


class TestBinaryRepair:
    CASES = {
        np.int8: [-3, 0, 1, 2, 1, 0, 7],
        np.int64: [-9, 0, 1, 5, 1],
        np.uint8: [0, 1, 2, 255, 1],
        np.bool_: [True, False, True],
        np.float64: [-1.2, 0.4, 0.5, 0.6, 1.7, 1.0, -0.0],
    }

    @pytest.mark.parametrize("dtype", list(CASES))
    def test_matches_clip_of_rint_and_never_aliases(self, dtype):
        g = np.asarray(self.CASES[dtype], dtype=dtype)
        before = g.copy()
        out = BinarySpec(g.shape[0]).repair(g, np.random.default_rng(0))
        want = np.clip(np.rint(g), 0, 1).astype(np.int8)
        assert out.dtype == np.int8
        assert np.array_equal(out, want)
        assert not np.shares_memory(out, g)
        out[:] = 5
        assert np.array_equal(g, before)


class TestStackGenomes:
    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64, np.bool_])
    @pytest.mark.parametrize("rows", [1, 2, 62, 1000])
    def test_matches_np_stack(self, dtype, rows):
        rng = np.random.default_rng(rows)
        block = (rng.random((rows, 2 * 9)) * 3).astype(dtype)
        for genomes in (list(block), [row[::2] for row in block]):  # strided too
            got = stack_genomes(genomes)
            want = np.stack(genomes)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            assert got.flags.c_contiguous
            assert not any(np.shares_memory(got, g) for g in genomes)

    def test_unstackable_batches_still_decline(self):
        a = np.zeros(3, dtype=np.int8)
        assert stack_genomes([]) is None
        assert stack_genomes([a, np.zeros(4, dtype=np.int8)]) is None
        assert stack_genomes([a, np.zeros(3, dtype=np.int64)]) is None
        assert stack_genomes([a, [0, 0, 0]]) is None
        assert stack_genomes([np.zeros((2, 2))]) is None
