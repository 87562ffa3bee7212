"""Property-based tests for engine-level invariants.

Whatever the configuration, an engine run must preserve: population size,
monotone best-so-far, exact evaluation accounting, determinism under a
fixed seed, and direction-correctness for minimisation problems.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GAConfig, GenerationalEngine, SteadyStateEngine
from repro.problems import OneMax, ZeroMax

configs = st.fixed_dictionaries(
    {
        "population_size": st.integers(4, 24),
        "crossover_prob": st.floats(0.0, 1.0),
        "mutation_prob": st.floats(0.0, 1.0),
        "elitism": st.integers(0, 2),
    }
)
seeds = st.integers(0, 2**31 - 1)
engine_classes = st.sampled_from([GenerationalEngine, SteadyStateEngine])


@settings(max_examples=25, deadline=None)
@given(cfg=configs, seed=seeds, cls=engine_classes)
def test_population_size_invariant(cfg, seed, cls):
    eng = cls(OneMax(16), GAConfig(**cfg), seed=seed)
    eng.initialize()
    for _ in range(4):
        eng.step()
        assert len(eng.population) == cfg["population_size"]
        assert not eng.population.unevaluated()


@settings(max_examples=25, deadline=None)
@given(cfg=configs, seed=seeds, cls=engine_classes)
def test_best_so_far_monotone(cfg, seed, cls):
    eng = cls(OneMax(16), GAConfig(**cfg), seed=seed)
    eng.initialize()
    prev = eng.best_so_far.require_fitness()
    for _ in range(5):
        eng.step()
        cur = eng.best_so_far.require_fitness()
        assert cur >= prev
        prev = cur


@settings(max_examples=25, deadline=None)
@given(cfg=configs, seed=seeds, cls=engine_classes)
def test_minimization_best_so_far_monotone(cfg, seed, cls):
    eng = cls(ZeroMax(16), GAConfig(**cfg), seed=seed)
    eng.initialize()
    prev = eng.best_so_far.require_fitness()
    for _ in range(5):
        eng.step()
        cur = eng.best_so_far.require_fitness()
        assert cur <= prev
        prev = cur


@settings(max_examples=20, deadline=None)
@given(cfg=configs, seed=seeds, cls=engine_classes)
def test_determinism(cfg, seed, cls):
    def trajectory():
        eng = cls(OneMax(16), GAConfig(**cfg), seed=seed)
        eng.initialize()
        for _ in range(3):
            eng.step()
        return (
            eng.state.evaluations,
            eng.best_so_far.require_fitness(),
            eng.population.fitness_array().tolist(),
        )

    assert trajectory() == trajectory()


@settings(max_examples=20, deadline=None)
@given(cfg=configs, seed=seeds)
def test_generational_evaluation_accounting(cfg, seed):
    """Evaluations = initial population + non-elite offspring per step."""
    eng = GenerationalEngine(OneMax(16), GAConfig(**cfg), seed=seed)
    eng.initialize()
    n = cfg["population_size"]
    assert eng.state.evaluations == n
    eng.step()
    expected_offspring = n - min(cfg["elitism"], n)
    assert eng.state.evaluations == n + expected_offspring
