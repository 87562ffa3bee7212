"""Unit tests for the per-generation callback hook."""

from repro.core import GAConfig, GenerationalEngine
from repro.problems import OneMax


class Recorder:
    """A plain callback: any object with ``on_generation`` is one."""

    def __init__(self):
        self.seen = []  # (state, population) objects handed to each call
        self.generations, self.evaluations, self.bests, self.evaluated = [], [], [], []

    def on_generation(self, state, population):
        self.seen.append((state, population))
        self.generations.append(state.generation)
        self.evaluations.append(state.evaluations)
        self.bests.append(population.best().require_fitness())
        self.evaluated.append(not population.unevaluated())


def _run(generations, config=None, *callbacks):
    eng = GenerationalEngine(
        OneMax(12), config or GAConfig(population_size=8), seed=1, callbacks=list(callbacks)
    )
    eng.run(generations)
    return eng


def _assert_one_call_per_generation(eng, rec):
    assert rec.generations == list(range(eng.state.generation + 1))
    for state, population in rec.seen:
        assert state is eng.state
        assert population is eng.population


class TestHistory:
    def test_curves_lengths_match(self):
        rec = Recorder()
        eng = _run(10, None, rec)
        _assert_one_call_per_generation(eng, rec)
        assert len(rec.bests) == len(rec.evaluations) == len(rec.seen)
        assert len(rec.seen) >= 2  # generation 0 + at least one step

    def test_best_curve_monotone_with_elitism(self):
        rec = Recorder()
        eng = _run(15, GAConfig(population_size=8, elitism=1), rec)
        _assert_one_call_per_generation(eng, rec)
        curve = rec.bests
        assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_evaluations_curve_increasing(self):
        rec = Recorder()
        eng = _run(5, None, rec)
        _assert_one_call_per_generation(eng, rec)
        evals = rec.evaluations
        assert evals[0] == 8
        assert all(b > a for a, b in zip(evals, evals[1:]))
        assert evals[-1] == eng.state.evaluations


class TestCallbacks:
    def test_invoked_every_generation(self):
        first, second = Recorder(), Recorder()
        eng = _run(4, None, first, second)
        assert first.generations[0] == 0
        _assert_one_call_per_generation(eng, first)
        _assert_one_call_per_generation(eng, second)

    def test_callback_sees_evaluated_population(self):
        rec = Recorder()
        eng = _run(3, None, rec)
        _assert_one_call_per_generation(eng, rec)
        assert all(rec.evaluated)
