"""The Problem abstraction: fitness function + genome spec + direction.

"The chromosome representation could be evaluated by a *fitness* function.
The fitness equals to the quality of an individual …" — a
:class:`Problem` packages that fitness function with the representation it
expects and the direction of improvement, plus an optional known optimum so
experiments can measure *efficacy* (the survey's term for hit rate in
finding a solution).
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from .genome import GenomeSpec

__all__ = [
    "Problem",
    "stack_genomes",
    "evaluations_observed",
]

# process-wide count of genomes evaluated through the bulk path, for perf
# telemetry only (the sweep harness diffs it around a trial); engines route
# fitness through evaluate_many, so this tracks the dominant cost driver
_EVALS_OBSERVED = 0


def evaluations_observed() -> int:
    """Total bulk-path fitness evaluations in this process so far."""
    return _EVALS_OBSERVED


def stack_genomes(genomes: Sequence[np.ndarray] | np.ndarray) -> np.ndarray | None:
    """Stack a homogeneous batch of 1-D genomes into one ``(n, L)`` array.

    Returns ``None`` when the batch cannot be stacked (empty, ragged shapes
    or mixed dtypes), in which case callers fall back to the scalar loop.
    A 2-D array passes through unchanged (already stacked).
    """
    if isinstance(genomes, np.ndarray):
        return genomes if genomes.ndim == 2 else None
    if not len(genomes):
        return None
    first = genomes[0]
    if not isinstance(first, np.ndarray) or first.ndim != 1:
        return None
    shape, dtype = first.shape, first.dtype
    for g in genomes:
        if not isinstance(g, np.ndarray) or g.shape != shape or g.dtype != dtype:
            return None
    # same result as np.stack (C-contiguous, same dtype), ~3x cheaper
    return np.concatenate(genomes).reshape(len(genomes), *shape)


class Problem(abc.ABC):
    """One optimisation problem.

    Subclasses set :attr:`spec`, :attr:`maximize` and implement
    :meth:`evaluate`.  ``optimum`` (the best achievable fitness) and
    ``target`` (fitness at which we declare success) are optional but enable
    efficacy and evaluations-to-solution metrics.
    """

    spec: GenomeSpec
    maximize: bool = True
    #: best achievable fitness, if known
    optimum: float | None = None
    #: success threshold; defaults to ``optimum`` when unset
    target: float | None = None

    @abc.abstractmethod
    def evaluate(self, genome: np.ndarray) -> float:
        """Fitness of one genome (pure; no side effects)."""

    # -- bulk evaluation -------------------------------------------------------
    def evaluate_batch(self, genomes: np.ndarray) -> np.ndarray:
        """Fitnesses of a stacked ``(n, L)`` batch as a float array.

        The contract (see ``docs/batch_evaluation.md``): results must be
        **bit-identical** to calling :meth:`evaluate` row by row — the
        deterministic-simulation digests depend on it.  The default
        implementation is exactly that scalar loop; benchmark problems
        override it with NumPy-vectorized kernels.
        """
        return np.asarray([self.evaluate(g) for g in genomes], dtype=float)

    def evaluate_many(self, genomes: Sequence[np.ndarray] | np.ndarray) -> list[float]:
        """Evaluate a batch, routing through :meth:`evaluate_batch` when the
        genomes stack into one homogeneous 2-D array (the fast path)."""
        global _EVALS_OBSERVED
        _EVALS_OBSERVED += len(genomes)
        batch = stack_genomes(genomes)
        if batch is not None:
            return [float(f) for f in self.evaluate_batch(batch)]
        return [self.evaluate(g) for g in genomes]

    # -- success tests ---------------------------------------------------------
    @property
    def success_threshold(self) -> float | None:
        return self.target if self.target is not None else self.optimum

    def is_solved(self, fitness: float, tol: float = 1e-9) -> bool:
        """Whether ``fitness`` meets the success threshold (within ``tol``)."""
        thr = self.success_threshold
        if thr is None:
            return False
        if self.maximize:
            return fitness >= thr - tol
        return fitness <= thr + tol

    def is_improvement(self, a: float, b: float) -> bool:
        """Whether fitness ``a`` beats fitness ``b``."""
        return a > b if self.maximize else a < b

    @property
    def name(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        return f"{self.name}(length={self.spec.length}, maximize={self.maximize})"
