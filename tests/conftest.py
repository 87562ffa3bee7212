"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BinarySpec, GAConfig, Individual, Population, Problem
from repro.problems import OneMax


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def onemax() -> OneMax:
    return OneMax(20)


def make_population(
    fitnesses: list[float], *, maximize: bool = True, length: int = 4
) -> Population:
    """Population with prescribed fitnesses and arbitrary binary genomes."""
    inds = []
    for i, f in enumerate(fitnesses):
        g = np.zeros(length, dtype=np.int8)
        g[: i % (length + 1)] = 1
        ind = Individual(genome=g)
        ind.fitness = float(f)
        inds.append(ind)
    return Population(inds, maximize=maximize)


class ScalarOnly(Problem):
    """``inner`` without its batch kernel: the inherited ``evaluate_batch``
    is the scalar ``evaluate`` loop, the reference every kernel must match."""

    def __init__(self, inner: Problem) -> None:
        self.inner = inner
        self.spec = inner.spec
        self.maximize = inner.maximize
        self.optimum = inner.optimum
        self.target = inner.target

    def evaluate(self, genome: np.ndarray) -> float:
        return self.inner.evaluate(genome)


@pytest.fixture
def small_config() -> GAConfig:
    return GAConfig(population_size=20, elitism=1)
