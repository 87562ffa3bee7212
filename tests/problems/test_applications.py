"""Unit tests for the application workloads (§4 substitutions)."""

import numpy as np
import pytest

from repro.problems.applications import (
    CameraPlacement,
    DopplerSpectralEstimation,
    FeatureSelection,
    ImageRegistration,
    ReactorCoreDesign,
    StockPrediction,
    SyntheticClassification,
    ar_spectrum,
    synthetic_doppler,
    synthetic_prices,
    synthetic_scene,
    technical_indicators,
    two_phase_register,
)


class TestImageRegistration:
    def test_truth_shift_is_near_optimal(self):
        p = ImageRegistration.synthetic(size=64, shift=(4, -2), seed=1, noise=0.0)
        truth = p.evaluate(np.array([4, -2]))
        assert truth == pytest.approx(1.0, abs=1e-9)
        assert p.evaluate(np.array([0, 0])) < truth

    def test_noise_lowers_but_preserves_peak(self):
        p = ImageRegistration.synthetic(size=64, shift=(4, -2), seed=1, noise=0.05)
        truth = p.evaluate(np.array([4, -2]))
        assert truth > 0.9
        off = p.evaluate(np.array([-4, 2]))
        assert truth > off

    def test_scene_properties(self):
        img = synthetic_scene(size=32, seed=0)
        assert img.shape == (32, 32)
        assert img.min() >= 0.0 and img.max() <= 1.0 + 1e-12

    def test_at_scale_shrinks(self):
        p = ImageRegistration.synthetic(size=64, shift=(4, 0), seed=2)
        coarse = p.at_scale(4)
        assert coarse.reference.shape == (16, 16)
        assert coarse.max_shift == p.max_shift // 4

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            ImageRegistration(np.zeros((8, 8)), np.zeros((9, 9)))

    def test_two_phase_finds_shift(self):
        p = ImageRegistration.synthetic(size=64, shift=(6, -5), max_shift=8, seed=3)
        res = two_phase_register(
            p, factor=4, phase1_generations=8, phase2_generations=8, population=30, seed=0
        )
        assert res.exact
        assert res.phase1_evaluations > 0 and res.phase2_evaluations > 0


class TestFeatureSelection:
    def test_true_mask_beats_all_and_none(self):
        # enough noise features that including them dilutes the centroids
        fs = FeatureSelection.synthetic(n_features=200, n_informative=8, seed=4)
        none = np.zeros(200, dtype=np.int8)
        everything = np.ones(200, dtype=np.int8)
        truth = none.copy()
        truth[fs.dataset.informative] = 1
        assert fs.evaluate(truth) > fs.evaluate(everything)
        assert fs.evaluate(truth) > fs.evaluate(none)

    def test_empty_mask_is_chance(self):
        ds = SyntheticClassification(n_classes=2, seed=5)
        assert ds.accuracy(np.zeros(ds.n_features, dtype=np.int8)) == 0.5

    def test_informative_recall(self):
        fs = FeatureSelection.synthetic(n_features=40, n_informative=4, seed=6)
        mask = np.zeros(40, dtype=np.int8)
        mask[fs.dataset.informative[:2]] = 1
        assert fs.informative_recall(mask) == 0.5

    def test_feature_cost_penalises_size(self):
        fs = FeatureSelection.synthetic(n_features=40, n_informative=4, seed=6, feature_cost=0.01)
        full = np.ones(40, dtype=np.int8)
        acc = fs.dataset.accuracy(full)
        assert fs.evaluate(full) == pytest.approx(acc - 0.4)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SyntheticClassification(n_features=5, n_informative=6)
        with pytest.raises(ValueError):
            FeatureSelection.synthetic(feature_cost=-1.0)


def _indicators_by_day(prices: np.ndarray, window: int = 20) -> np.ndarray:
    """:func:`technical_indicators` day by day: the oracle its loop-free
    form must equal byte for byte."""
    n = prices.shape[0]
    ret1 = np.zeros(n)
    ret1[1:] = prices[1:] / prices[:-1] - 1.0

    def sma(k: int) -> np.ndarray:
        out = np.empty(n)
        c = np.cumsum(np.insert(prices, 0, 0.0))
        for i in range(n):
            a = max(0, i - k + 1)
            out[i] = (c[i + 1] - c[a]) / (i + 1 - a)
        return out

    sma5, sma20 = sma(5), sma(20)
    mom5 = np.zeros(n)
    mom5[5:] = prices[5:] / prices[:-5] - 1.0
    vol = np.zeros(n)
    for i in range(n):
        a = max(0, i - window + 1)
        vol[i] = ret1[a : i + 1].std()
    up_frac = np.zeros(n)
    for i in range(n):
        a = max(0, i - window + 1)
        seg = ret1[a : i + 1]
        up_frac[i] = float((seg > 0).mean())
    stoch = np.zeros(n)
    for i in range(n):
        a = max(0, i - window + 1)
        lo, hi = prices[a : i + 1].min(), prices[a : i + 1].max()
        stoch[i] = 0.5 if hi == lo else (prices[i] - lo) / (hi - lo)
    return np.stack(
        [ret1, mom5, prices / sma5 - 1.0, prices / sma20 - 1.0, vol, up_frac, stoch],
        axis=1,
    )


class TestStockPrediction:
    def test_price_series_positive(self):
        prices = synthetic_prices(days=300, seed=7)
        assert prices.shape == (300,) and np.all(prices > 0)

    def test_indicators_shape_and_bounds(self):
        prices = synthetic_prices(days=200, seed=8)
        feats = technical_indicators(prices)
        assert feats.shape == (200, 7)
        assert np.all(np.isfinite(feats))
        assert feats[:, 6].min() >= 0.0 and feats[:, 6].max() <= 1.0  # stochastic %K

    @pytest.mark.parametrize("seed", [*range(12), 5100, 5101])
    def test_indicators_equal_the_day_by_day_form(self, seed):
        prices = synthetic_prices(seed=seed)
        assert technical_indicators(prices).tobytes() == _indicators_by_day(prices).tobytes()

    @pytest.mark.parametrize("days,window", [(50, 1), (50, 2), (51, 50), (50, 60), (120, 7)])
    def test_indicators_at_short_series_and_other_windows(self, days, window):
        prices = synthetic_prices(days=days, seed=days + window)
        got = technical_indicators(prices, window)
        assert got.tobytes() == _indicators_by_day(prices, window).tobytes()

    def test_zero_weights_zero_return(self):
        p = StockPrediction(seed=9, hidden=3)
        g = np.zeros(p.spec.length)
        assert p.evaluate(g) == pytest.approx(0.0)

    def test_signal_is_exploitable(self):
        # a strong planted signal lets SOME weight vector beat zero return
        p = StockPrediction(seed=10, hidden=3)
        rng = np.random.default_rng(0)
        best = max(p.evaluate(p.spec.sample(rng)) for _ in range(60))
        assert best > 0.0

    def test_out_of_sample_consistent(self):
        p = StockPrediction(seed=11, hidden=3)
        g = p.spec.sample(np.random.default_rng(1))
        out = p.out_of_sample(g)
        assert np.isfinite(out.strategy_return)
        assert out.excess == pytest.approx(out.strategy_return - out.buy_and_hold_return)

    @staticmethod
    def _strategy_return_reference(p, genome, span):
        """``_strategy_return`` in its np.diff / np.clip form."""
        pos = p._positions(genome, span)
        rets = p.next_returns[span]
        turnover = np.abs(np.diff(pos, prepend=0.0))
        daily = pos * rets - p.transaction_cost * turnover
        return float(np.exp(np.log1p(np.clip(daily, -0.99, None)).sum()) - 1.0)

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 10.0])
    def test_strategy_return_matches_the_diff_clip_form(self, scale):
        p = StockPrediction(seed=13, hidden=3, transaction_cost=0.002)
        rng = np.random.default_rng(int(scale * 1000))
        for _ in range(200):
            g = p.spec.sample(rng) * scale
            for span in (p._train, p._test, slice(0, 1), slice(0, 0)):
                got = p._strategy_return(g, span)
                want = self._strategy_return_reference(p, g, span)
                assert np.array_equal(got, want, equal_nan=True)
        g = p.spec.sample(rng)
        g[0] = np.nan
        got, want = p._strategy_return(g, p._train), self._strategy_return_reference(
            p, g, p._train
        )
        assert np.array_equal(got, want, equal_nan=True)

    def test_transaction_costs_reduce_turnover_profit(self):
        base = StockPrediction(seed=12, hidden=3, transaction_cost=0.0)
        costly = StockPrediction(seed=12, hidden=3, transaction_cost=0.01)
        g = base.spec.sample(np.random.default_rng(2))
        assert costly.evaluate(g) <= base.evaluate(g) + 1e-12


class TestReactor:
    def test_solver_converges_to_positive_flux(self, rng):
        p = ReactorCoreDesign(mesh_points=30)
        sol = p.solve(p.spec.sample(rng))
        assert np.all(sol.flux >= 0)
        assert sol.k_eff > 0
        assert sol.peaking_factor >= 1.0

    def test_flux_vanishes_toward_boundaries(self, rng):
        p = ReactorCoreDesign(mesh_points=40)
        sol = p.solve(p.spec.sample(rng))
        interior_max = sol.flux.max()
        assert sol.flux[0] < 0.5 * interior_max
        assert sol.flux[-1] < 0.5 * interior_max

    def test_higher_enrichment_raises_k(self):
        p = ReactorCoreDesign(mesh_points=30)
        low = np.array([0.1, 0.1, 0.1, 0.5, 0.5, 0.5])
        high = np.array([0.9, 0.9, 0.9, 0.5, 0.5, 0.5])
        assert p.solve(high).k_eff > p.solve(low).k_eff

    def test_decode_simplex(self, rng):
        p = ReactorCoreDesign()
        for _ in range(20):
            params = p.decode(p.spec.sample(rng))
            widths = params["widths"]
            assert widths.sum() == pytest.approx(1.0)
            assert np.all(widths >= p.MIN_ZONE_FRACTION - 1e-12)

    def test_fitness_penalises_subcriticality(self):
        p = ReactorCoreDesign(mesh_points=30)
        barely_fueled = np.array([0.0, 0.0, 0.0, 0.5, 0.5, 0.5])
        sol = p.solve(barely_fueled)
        assert sol.k_eff < 1.0
        assert p.evaluate(barely_fueled) > sol.peaking_factor


class TestDoppler:
    def test_truth_coeffs_near_optimal(self):
        p = DopplerSpectralEstimation(seed=13)
        truth_fit = p.evaluate(np.asarray(p.true_coeffs))
        ls_fit = p.evaluate(p.least_squares_solution())
        assert truth_fit <= ls_fit * 1.1

    def test_least_squares_is_lower_bound(self, rng):
        p = DopplerSpectralEstimation(seed=14)
        ls = p.evaluate(p.least_squares_solution())
        for _ in range(20):
            assert p.evaluate(p.spec.sample(rng)) >= ls - 1e-9

    def test_unstable_filters_penalised(self):
        p = DopplerSpectralEstimation(seed=15)
        unstable = np.array([2.0, 0.0, 0.0, 0.0])  # pole at 2
        stable = np.array([0.5, 0.0, 0.0, 0.0])
        assert p._spectral_radius(unstable) > 1.0
        # penalty term must be present
        assert p.evaluate(unstable) > p.evaluate(stable)

    def test_spectrum_error_zero_at_truth(self):
        p = DopplerSpectralEstimation(seed=16)
        assert p.spectrum_error(np.asarray(p.true_coeffs)) == pytest.approx(0.0)

    def test_ar_spectrum_positive(self):
        s = ar_spectrum(np.array([0.5, -0.2]))
        assert np.all(s > 0)

    def test_signal_generator_deterministic(self):
        s1, c1 = synthetic_doppler(seed=17)
        s2, c2 = synthetic_doppler(seed=17)
        assert np.array_equal(s1, s2) and np.array_equal(c1, c2)


class TestCameraPlacement:
    def test_spread_beats_clustered(self):
        p = CameraPlacement(n_cameras=4, seed=18)
        clustered = np.array([0.01, 0.5] * 4)
        spread = np.array([0.0, 0.5, 0.25, 0.5, 0.5, 0.5, 0.75, 0.5])
        assert p.evaluate(spread) < p.evaluate(clustered)

    def test_positions_on_viewing_sphere(self, rng):
        p = CameraPlacement(n_cameras=3, radius=2.5, seed=19)
        cams = p.camera_positions(p.spec.sample(rng))
        assert np.allclose(np.linalg.norm(cams, axis=1), 2.5)

    def test_elevation_floor_respected(self, rng):
        p = CameraPlacement(n_cameras=3, elevation_floor=0.3, seed=20)
        cams = p.camera_positions(p.spec.sample(rng))
        min_z = p.radius * np.sin(0.3)
        assert np.all(cams[:, 2] >= min_z - 1e-9)

    def test_convergence_angles_count(self, rng):
        p = CameraPlacement(n_cameras=4, seed=21)
        angles = p.convergence_angles(p.spec.sample(rng))
        assert angles.shape == (6,)  # C(4,2)

    def test_needs_two_cameras(self):
        with pytest.raises(ValueError):
            CameraPlacement(n_cameras=1)
