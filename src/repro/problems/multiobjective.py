"""Multiobjective problems and Pareto utilities.

Substrate for the Specialized Island Model experiment (E8): Xiao &
Armstrong's SIM divides an EA into subEAs, "each responsible for optimizing
the subset of objective functions in the initial problem" — which requires
(a) problems exposing an objective *vector* and (b) scalarising adapters so
a plain GA engine can run on any objective subset.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from ..core.genome import GenomeSpec, RealVectorSpec
from ..core.problem import Problem

__all__ = [
    "MultiObjectiveProblem",
    "ScalarizedObjective",
    "dominates",
    "pareto_front",
    "hypervolume_2d",
    "SchafferF2",
    "FonsecaFleming",
    "ZDT1",
    "ZDT2",
    "ZDT3",
]


class MultiObjectiveProblem(abc.ABC):
    """A problem with ``n_objectives`` simultaneous minimisation goals."""

    spec: GenomeSpec
    n_objectives: int
    #: every objective is minimised, and so is every scalarisation of them
    maximize = False

    @abc.abstractmethod
    def evaluate_objectives(self, genome: np.ndarray) -> np.ndarray:
        """Objective vector (all minimised) for one genome."""

    @property
    def name(self) -> str:
        return type(self).__name__


class ScalarizedObjective(Problem):
    """Weighted-sum scalarisation of a :class:`MultiObjectiveProblem`.

    A subEA in the specialized island model optimises
    ``ScalarizedObjective(mo, weights)`` where ``weights`` selects its
    objective subset (e.g. ``[1, 0]`` = objective 0 only, ``[0.5, 0.5]`` =
    the full aggregate).
    """

    def __init__(self, mo: MultiObjectiveProblem, weights: Sequence[float]) -> None:
        w = np.asarray(weights, dtype=float)
        if w.shape != (mo.n_objectives,):
            raise ValueError(
                f"weights shape {w.shape} does not match {mo.n_objectives} objectives"
            )
        if np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be non-negative and sum to > 0")
        self.mo = mo
        self.weights = w / w.sum()
        self.spec = mo.spec
        self.maximize = False

    def evaluate(self, genome: np.ndarray) -> float:
        return float(np.dot(self.weights, self.mo.evaluate_objectives(genome)))

    @property
    def name(self) -> str:
        return f"Scalarized({self.mo.name}, w={np.round(self.weights, 3).tolist()})"


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """Pareto dominance for minimisation: ``a`` at least as good everywhere,
    strictly better somewhere."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(a <= b) and np.any(a < b))


def pareto_front(points: np.ndarray) -> np.ndarray:
    """Indices of non-dominated rows of ``points`` (minimisation)."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        if not keep[i]:
            continue
        # anything dominated by i is dropped
        dominated = np.all(pts >= pts[i], axis=1) & np.any(pts > pts[i], axis=1)
        keep &= ~dominated
        keep[i] = True
    return np.flatnonzero(keep)


def hypervolume_2d(points: np.ndarray, reference: Sequence[float]) -> float:
    """Hypervolume (area dominated) of a 2-objective front w.r.t. ``reference``.

    Standard quality indicator for comparing SIM scenarios: larger is better.
    """
    pts = np.asarray(points, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("hypervolume_2d requires (n, 2) points")
    front = pts[pareto_front(pts)]
    # clip to reference box and sort by first objective
    front = front[np.all(front <= ref, axis=1)]
    if front.shape[0] == 0:
        return 0.0
    front = front[np.argsort(front[:, 0])]
    hv = 0.0
    prev_f2 = ref[1]
    for f1, f2 in front:
        if f2 < prev_f2:
            hv += (ref[0] - f1) * (prev_f2 - f2)
            prev_f2 = f2
    return float(hv)


class SchafferF2(MultiObjectiveProblem):
    """Schaffer's classic 1-D bi-objective: f1 = x², f2 = (x-2)²."""

    n_objectives = 2

    def __init__(self) -> None:
        self.spec = RealVectorSpec(1, -10.0, 10.0)

    def evaluate_objectives(self, genome: np.ndarray) -> np.ndarray:
        x = float(genome[0])
        return np.array([x * x, (x - 2.0) ** 2])


class FonsecaFleming(MultiObjectiveProblem):
    """Fonseca–Fleming bi-objective with a concave Pareto front."""

    n_objectives = 2

    def __init__(self, dims: int = 3) -> None:
        self.spec = RealVectorSpec(dims, -4.0, 4.0)
        self._shift = 1.0 / np.sqrt(dims)

    def evaluate_objectives(self, genome: np.ndarray) -> np.ndarray:
        x = genome
        f1 = 1.0 - np.exp(-np.sum((x - self._shift) ** 2))
        f2 = 1.0 - np.exp(-np.sum((x + self._shift) ** 2))
        return np.array([f1, f2])


class _ZDT(MultiObjectiveProblem):
    """Shared ZDT scaffolding (Zitzler–Deb–Thiele test suite)."""

    n_objectives = 2

    def __init__(self, dims: int = 30) -> None:
        if dims < 2:
            raise ValueError(f"ZDT needs >= 2 dims, got {dims}")
        self.spec = RealVectorSpec(dims, 0.0, 1.0)

    def _g(self, x: np.ndarray) -> float:
        return 1.0 + 9.0 * float(np.mean(x[1:]))


class ZDT1(_ZDT):
    """Convex Pareto front: f2 = 1 - sqrt(f1) at g = 1."""

    def evaluate_objectives(self, genome: np.ndarray) -> np.ndarray:
        f1 = float(genome[0])
        g = self._g(genome)
        f2 = g * (1.0 - np.sqrt(f1 / g))
        return np.array([f1, f2])


class ZDT2(_ZDT):
    """Concave Pareto front: f2 = 1 - f1² at g = 1."""

    def evaluate_objectives(self, genome: np.ndarray) -> np.ndarray:
        f1 = float(genome[0])
        g = self._g(genome)
        f2 = g * (1.0 - (f1 / g) ** 2)
        return np.array([f1, f2])


class ZDT3(_ZDT):
    """Disconnected Pareto front (sine term)."""

    def evaluate_objectives(self, genome: np.ndarray) -> np.ndarray:
        f1 = float(genome[0])
        g = self._g(genome)
        r = f1 / g
        f2 = g * (1.0 - np.sqrt(r) - r * np.sin(10.0 * np.pi * f1))
        return np.array([f1, f2])
