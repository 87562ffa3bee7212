"""Unit tests for the Problem abstraction."""

from repro.core import BinarySpec, Problem
from repro.problems import OneMax, ZeroMax


class TestSuccessTests:
    def test_is_solved_maximize(self):
        p = OneMax(10)
        assert p.is_solved(10.0)
        assert not p.is_solved(9.0)

    def test_is_solved_minimize(self):
        p = ZeroMax(10)
        assert p.is_solved(0.0)
        assert not p.is_solved(1.0)

    def test_target_overrides_optimum(self):
        p = OneMax(10)
        p.target = 8.0
        assert p.is_solved(8.0) and not p.is_solved(7.9)

    def test_no_threshold_never_solved(self):
        class Open(Problem):
            def __init__(self):
                self.spec = BinarySpec(4)
                self.maximize = True

            def evaluate(self, g):
                return 0.0

        assert not Open().is_solved(1e9)

    def test_is_improvement_directions(self):
        assert OneMax(4).is_improvement(2.0, 1.0)
        assert ZeroMax(4).is_improvement(1.0, 2.0)


class TestEvaluateMany:
    def test_matches_scalar_evaluate(self, rng):
        p = OneMax(8)
        genomes = [p.spec.sample(rng) for _ in range(5)]
        assert p.evaluate_many(genomes) == [p.evaluate(g) for g in genomes]
