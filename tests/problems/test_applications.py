"""Unit tests for the application workloads (§4 substitutions)."""

import numpy as np
import pytest

from repro.problems.applications import (
    FeatureSelection,
    ImageRegistration,
    ReactorCoreDesign,
    StockPrediction,
    SyntheticClassification,
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
        """One genome's return by the per-genome network, in its np.diff /
        np.clip form: the oracle the block network must match bit for bit."""
        W = genome[: p.rows * p.cols].reshape(p.rows, p.cols)
        rest = genome[p.rows * p.cols :]
        v, b_out = rest[: p.hidden], rest[p.hidden]
        h = np.tanh(p.features[span] @ W[:, :-1].T + W[:, -1])
        pos = np.tanh(h @ v + b_out)
        turnover = np.abs(np.diff(pos, prepend=0.0))
        daily = pos * p.next_returns[span] - p.transaction_cost * turnover
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

    @pytest.mark.parametrize("rows", [1, 30, 120])
    @pytest.mark.parametrize("seed,hidden", [(5100, 4), (0, 6)])
    def test_block_network_matches_the_per_genome_network(self, seed, hidden, rows):
        p = StockPrediction(seed=seed, hidden=hidden)
        block = np.random.default_rng(rows).uniform(-3.0, 3.0, (rows, p.spec.length))
        if rows > 1:
            block[rows // 2, 5] = np.nan  # one NaN weight among finite rows
        for span in (p._train, p._test, slice(0, 1), slice(0, 0)):
            want = [self._strategy_return_reference(p, g, span) for g in block]
            got = [p._strategy_return(g, span) for g in block]
            assert np.array_equal(got, want, equal_nan=True)
        want = np.asarray([self._strategy_return_reference(p, g, p._train) for g in block])
        got = p.evaluate_batch(block)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got).sum() == (rows > 1)

    #: ``float.hex`` of ``evaluate_batch`` on ``default_rng(seed).uniform(-3, 3,
    #: (6, L))`` with row 4 scaled by 0.01 and row 5 zeroed, as the
    #: per-genome network scored them
    STOCK_PINS = {
        (5100, 4): [
            "0x1.894c706e5c5d8p-3",
            "-0x1.10c434d6a7eaap-2",
            "-0x1.2fa193d47c852p-2",
            "-0x1.336b92b810742p-2",
            "0x1.4cc918cc8cb00p-8",
            "0x0.0p+0",
        ],
        (0, 6): [
            "0x1.740993a7a7800p-10",
            "-0x1.699b1c283d448p-3",
            "-0x1.1280335062690p-3",
            "0x1.77f1909f61400p-10",
            "-0x1.1d6f36dbdd200p-10",
            "0x0.0p+0",
        ],
    }

    @pytest.mark.parametrize("seed,hidden", sorted(STOCK_PINS))
    def test_evaluate_batch_pins(self, seed, hidden):
        p = StockPrediction(seed=seed, hidden=hidden)
        block = np.random.default_rng(seed).uniform(-3.0, 3.0, (6, p.spec.length))
        block[4] *= 0.01
        block[5] = 0.0
        assert [float(f).hex() for f in p.evaluate_batch(block)] == self.STOCK_PINS[seed, hidden]

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
