"""Unit tests for mutation operators."""

import numpy as np
import pytest

from repro.core.genome import (
    BinarySpec,
    IntegerVectorSpec,
    PermutationSpec,
    RealVectorSpec,
)
from repro.core.operators.mutation import (
    BitFlipMutation,
    CreepMutation,
    GaussianMutation,
    InsertionMutation,
    InversionMutation,
    PolynomialMutation,
    ScrambleMutation,
    SwapMutation,
    UniformResetMutation,
    mutation_for_spec,
)

PERM_OPS = [
    SwapMutation(),
    InversionMutation(),
    ScrambleMutation(),
    InsertionMutation(),
]


class TestBitFlip:
    def test_rate_one_flips_everything(self, rng):
        g = np.zeros(16, dtype=np.int8)
        out = BitFlipMutation(rate=1.0)(rng, g)
        assert out.sum() == 16

    def test_rate_zero_is_identity(self, rng):
        g = np.array([0, 1, 1, 0], dtype=np.int8)
        out = BitFlipMutation(rate=0.0)(rng, g)
        assert np.array_equal(out, g)

    def test_default_rate_is_one_over_length(self, rng):
        flips = []
        for _ in range(400):
            g = np.zeros(50, dtype=np.int8)
            flips.append(BitFlipMutation()(rng, g).sum())
        assert 0.5 < np.mean(flips) < 1.6  # E[flips] = 1

    def test_input_unmodified(self, rng):
        g = np.zeros(8, dtype=np.int8)
        BitFlipMutation(rate=1.0)(rng, g)
        assert g.sum() == 0


class TestGaussian:
    def test_clipping(self, rng):
        g = np.full(100, 0.99)
        out = GaussianMutation(sigma=2.0, rate=1.0, lower=0.0, upper=1.0)(rng, g)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_zero_rate_identity(self, rng):
        g = np.ones(5)
        assert np.allclose(GaussianMutation(rate=0.0)(rng, g), g)

    def test_noise_scale(self, rng):
        g = np.zeros(10_000)
        out = GaussianMutation(sigma=0.5, rate=1.0)(rng, g)
        assert 0.4 < out.std() < 0.6


class TestUniformReset:
    def test_within_bounds(self, rng):
        g = np.zeros(50)
        out = UniformResetMutation(lower=2.0, upper=3.0, rate=1.0)(rng, g)
        assert out.min() >= 2.0 and out.max() <= 3.0


class TestPolynomial:
    def test_respects_bounds(self, rng):
        g = np.linspace(0.0, 1.0, 30)
        out = PolynomialMutation(lower=0.0, upper=1.0, rate=1.0)(rng, g)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_high_eta_small_steps(self, rng):
        g = np.full(100, 0.5)
        out = PolynomialMutation(lower=0.0, upper=1.0, eta=500.0, rate=1.0)(rng, g)
        assert np.abs(out - 0.5).max() < 0.1


class TestCreep:
    def test_steps_bounded(self, rng):
        g = np.full(100, 5, dtype=np.int64)
        out = CreepMutation(low=0, high=10, step=2, rate=1.0)(rng, g)
        assert np.abs(out - 5).max() <= 2
        assert np.abs(out - 5).min() >= 0

    def test_clipped_to_domain(self, rng):
        g = np.zeros(50, dtype=np.int64)
        out = CreepMutation(low=0, high=3, step=1, rate=1.0)(rng, g)
        assert out.min() >= 0


@pytest.mark.parametrize("op", PERM_OPS, ids=lambda o: type(o).__name__)
class TestPermutationMutations:
    def test_preserves_permutation(self, rng, op):
        spec = PermutationSpec(12)
        for _ in range(10):
            g = spec.sample(rng)
            assert spec.is_valid(op(rng, g))

    def test_input_unmodified(self, rng, op):
        g = np.arange(10)
        g0 = g.copy()
        op(rng, g)
        assert np.array_equal(g, g0)

    def test_tiny_genome_safe(self, rng, op):
        g = np.array([0])
        out = op(rng, g)
        assert out.tolist() == [0]


class TestSwapDetail:
    def test_exactly_two_positions_change(self, rng):
        g = np.arange(10)
        out = SwapMutation()(rng, g)
        assert (out != g).sum() == 2


class TestInversionDetail:
    def test_reverses_a_segment(self, rng):
        g = np.arange(10)
        out = InversionMutation()(rng, g)
        diff = np.flatnonzero(out != g)
        if diff.size:  # i == j swap of adjacent may still differ in 2 spots
            seg = out[diff[0] : diff[-1] + 1]
            assert np.array_equal(seg, g[diff[0] : diff[-1] + 1][::-1])


class TestDefaults:
    def test_defaults_per_spec(self):
        assert isinstance(mutation_for_spec(BinarySpec(4)), BitFlipMutation)
        assert isinstance(mutation_for_spec(RealVectorSpec(4)), GaussianMutation)
        assert isinstance(mutation_for_spec(PermutationSpec(4)), SwapMutation)
        assert isinstance(mutation_for_spec(IntegerVectorSpec(4, 0, 3)), CreepMutation)

    def test_real_default_respects_bounds(self, rng):
        spec = RealVectorSpec(10, -1.0, 1.0)
        mut = mutation_for_spec(spec)
        g = spec.sample(rng)
        out = mut(rng, g)
        assert spec.is_valid(spec.repair(out, rng))

    def test_unknown_spec_raises(self):
        with pytest.raises(TypeError):
            mutation_for_spec(object())


class TestParameterValidation:
    """Out-of-range rates used to be accepted silently (rate=1.5 flipped
    every bit, rate=-1 never mutated) and a negative sigma failed only on
    the first call, inside NumPy."""

    BAD = [
        ("rate", lambda: BitFlipMutation(rate=1.5)),
        ("rate", lambda: BitFlipMutation(rate=-1)),
        ("rate", lambda: BitFlipMutation(rate=float("nan"))),
        ("rate", lambda: GaussianMutation(rate=2.0)),
        ("sigma", lambda: GaussianMutation(sigma=-1)),
        ("sigma", lambda: GaussianMutation(sigma=float("inf"))),
        ("sigma", lambda: GaussianMutation(sigma=float("nan"))),
        ("rate", lambda: UniformResetMutation(0.0, 1.0, rate=1.01)),
        ("rate", lambda: PolynomialMutation(0.0, 1.0, rate=-0.1)),
        ("rate", lambda: CreepMutation(0, 7, rate=float("inf"))),
    ]

    @pytest.mark.parametrize(
        "field,make",
        BAD,
        ids=[
            "bitflip-1.5", "bitflip-neg", "bitflip-nan", "gaussian-rate",
            "gaussian-sigma-neg", "gaussian-sigma-inf", "gaussian-sigma-nan",
            "uniform-reset", "polynomial", "creep",
        ],
    )
    def test_rejected_at_construction_naming_the_field(self, field, make):
        with pytest.raises(ValueError, match=field):
            make()

    @pytest.mark.parametrize(
        "name,params",
        [
            ("bit-flip", {"rate": 1.5}),
            ("gaussian", {"sigma": -1.0}),
            ("uniform-reset", {"lower": 0.0, "upper": 1.0, "rate": -0.5}),
            ("polynomial", {"lower": 0.0, "upper": 1.0, "rate": 3.0}),
            ("creep", {"low": 0, "high": 7, "rate": 1.5}),
        ],
    )
    def test_rejected_through_a_spec(self, name, params):
        from repro.spec import operator

        with pytest.raises(ValueError, match="rate|sigma"):
            operator(name, **params).build()

    def test_boundary_values_accepted(self):
        for rate in (None, 0.0, 1.0, 0.25):
            BitFlipMutation(rate=rate)
            UniformResetMutation(0.0, 1.0, rate=rate)
            PolynomialMutation(0.0, 1.0, rate=rate)
            CreepMutation(0, 3, rate=rate)
            GaussianMutation(rate=rate)
        GaussianMutation(sigma=0.0)
