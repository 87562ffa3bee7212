"""Property-based tests for metrics."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import a12_effect_size
from repro.metrics.speedup import speedup_curve

seeds = st.integers(0, 2**31 - 1)
samples = st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=30)


@settings(max_examples=50, deadline=None)
@given(a=samples, b=samples)
def test_a12_bounds_and_antisymmetry(a, b):
    v = a12_effect_size(a, b)
    w = a12_effect_size(b, a)
    assert 0.0 <= v <= 1.0
    assert v + w == 1.0 or abs(v + w - 1.0) < 1e-12


@settings(max_examples=50, deadline=None)
@given(a=samples)
def test_a12_self_comparison_is_half(a):
    assert a12_effect_size(a, a) == 0.5


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    workers=st.lists(st.integers(1, 64), min_size=1, max_size=8, unique=True),
)
def test_speedup_curve_first_point_normalised(seed, workers):
    rng = np.random.default_rng(seed)
    times = (1.0 / np.asarray(sorted(workers)) + rng.random(len(workers)) * 0.01).tolist()
    # without a 1-worker measurement the baseline is extrapolated and warns
    if min(workers) == 1:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = speedup_curve(sorted(workers), times)
    else:
        with pytest.warns(UserWarning, match="no 1-worker measurement"):
            pts = speedup_curve(sorted(workers), times)
    # monotone worker ordering and consistent S = E * p
    assert [p.workers for p in pts] == sorted(workers)
    for p in pts:
        assert p.speedup == p.efficiency * p.workers or abs(
            p.speedup - p.efficiency * p.workers
        ) < 1e-9
