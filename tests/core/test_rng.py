"""Unit tests for RNG management."""

import numpy as np
import pytest

from repro.core.rng import ensure_rng, spawn_rngs


class TestEnsureRng:
    def test_int_seed_deterministic(self):
        assert ensure_rng(5).random() == ensure_rng(5).random()

    def test_generator_passthrough(self):
        g = np.random.default_rng(1)
        assert ensure_rng(g) is g

    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)


class TestSpawn:
    def test_streams_are_independent(self):
        a, b = spawn_rngs(0, 2)
        xs = a.random(1000)
        ys = b.random(1000)
        assert abs(np.corrcoef(xs, ys)[0, 1]) < 0.1
        assert not np.allclose(xs, ys)

    def test_reproducible(self):
        a1, _ = spawn_rngs(42, 2)
        a2, _ = spawn_rngs(42, 2)
        assert a1.random() == a2.random()

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_zero_count_ok(self):
        assert spawn_rngs(0, 0) == []
