"""Unit tests for metrics: speedup, pressure, diversity."""

import numpy as np
import pytest

from repro.metrics import (
    amdahl_speedup,
    between_deme_divergence,
    cellular_growth_curve,
    efficiency,
    gene_entropy,
    logistic_fit_rate,
    panmictic_growth_curve,
    speedup,
    speedup_curve,
    takeover_time,
)

from ..conftest import make_population


class TestSpeedup:
    def test_basic(self):
        assert speedup(10.0, 2.0) == 5.0
        assert efficiency(10.0, 2.0, 5) == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)
        with pytest.raises(ValueError):
            efficiency(1.0, 1.0, 0)

    def test_curve_sorted_and_normalised(self):
        pts = speedup_curve([4, 1, 2], [2.5, 10.0, 5.0])
        assert [p.workers for p in pts] == [1, 2, 4]
        assert [round(p.speedup, 6) for p in pts] == [1.0, 2.0, 4.0]
        assert all(p.efficiency == pytest.approx(1.0) for p in pts)

    def test_explicit_baseline(self):
        pts = speedup_curve([2], [5.0], baseline=20.0)
        assert pts[0].speedup == 4.0

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            speedup_curve([1, 2], [1.0])

    def test_amdahl_limits(self):
        assert amdahl_speedup(0.0, 8) == 8.0
        assert amdahl_speedup(1.0, 8) == 1.0
        assert amdahl_speedup(0.1, 10**6) == pytest.approx(10.0, rel=1e-3)


class TestPressure:
    def test_takeover_time_basic(self):
        assert takeover_time([0.1, 0.5, 1.0]) == 2
        assert takeover_time([0.1, 0.5, 0.9]) is None

    def test_growth_curve_monotone_under_best_wins(self):
        c = cellular_growth_curve(8, 8, update="synchronous", seed=1)
        props = c.proportions
        assert all(b >= a for a, b in zip(props, props[1:]))
        assert props[0] == pytest.approx(1 / 64)
        assert c.takeover is not None

    def test_sync_slower_than_line_sweep(self):
        sync = cellular_growth_curve(12, 12, update="synchronous", seed=2)
        line = cellular_growth_curve(12, 12, update="line-sweep", seed=2)
        assert line.takeover < sync.takeover

    def test_sync_takeover_bounded_by_grid_distance(self):
        # best-wins von Neumann sync takeover = max toroidal Manhattan
        # distance from the seed, <= rows/2 + cols/2
        c = cellular_growth_curve(10, 10, update="synchronous", seed=3)
        assert c.takeover <= 10

    def test_panmictic_faster_than_cellular(self):
        pan = panmictic_growth_curve(100, seed=4, max_steps=500)
        cell = cellular_growth_curve(10, 10, update="synchronous", seed=4)
        assert pan.takeover is not None
        assert pan.takeover < cell.takeover

    def test_logistic_fit_on_true_logistic(self):
        t = np.arange(30)
        p = 1.0 / (1.0 + np.exp(-(0.7 * t - 8)))
        assert logistic_fit_rate(p.tolist()) == pytest.approx(0.7, rel=0.05)

    def test_logistic_fit_degenerate(self):
        assert np.isnan(logistic_fit_rate([1.0, 1.0, 1.0]))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            cellular_growth_curve(8, 8, update="diagonal")


class TestDiversity:
    def test_converged_population_zero_distance(self):
        pop = make_population([1.0] * 4)
        for ind in pop:
            ind.genome = np.array([1, 0, 1, 0], dtype=np.int8)
        assert gene_entropy(pop) == 0.0

    def test_maximal_binary_entropy(self):
        pop = make_population([1.0, 1.0])
        pop[0].genome = np.zeros(4, dtype=np.int8)
        pop[1].genome = np.ones(4, dtype=np.int8)
        assert gene_entropy(pop) == pytest.approx(1.0)

    def test_between_deme_divergence(self):
        a = make_population([1.0] * 3)
        b = make_population([1.0] * 3)
        for ind in a:
            ind.genome = np.zeros(4)
        for ind in b:
            ind.genome = np.ones(4)
        assert between_deme_divergence([a, b]) == pytest.approx(4.0)
        assert between_deme_divergence([a]) == 0.0


class TestSpeedupCurveBaseline:
    def test_one_worker_measurement_is_the_baseline(self):
        pts = speedup_curve([1, 2, 4], [10.0, 5.5, 3.0])
        assert pts[0].speedup == 1.0
        assert pts[1].speedup == pytest.approx(10.0 / 5.5)

    def test_missing_one_worker_measurement_warns(self):
        with pytest.warns(UserWarning, match="no 1-worker measurement"):
            pts = speedup_curve([2, 4], [5.0, 3.0])
        # the extrapolated t*w baseline forces linear speedup at the
        # smallest measured count — which is why it warns
        assert pts[0].speedup == pytest.approx(2.0)

    def test_explicit_baseline_never_warns(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = speedup_curve([2, 4], [5.0, 3.0], baseline=10.0)
        assert pts[0].speedup == pytest.approx(2.0)
        assert pts[0].efficiency == pytest.approx(1.0)
