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
import threading
from typing import Sequence

import numpy as np

from ..obs.session import current_obs
from .genome import GenomeSpec

__all__ = [
    "Problem",
    "CountingProblem",
    "FitnessBudgetExceeded",
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
        session = current_obs()
        if session is not None:
            session.metrics.counter("eval.evaluations_observed").inc(len(genomes))
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


class FitnessBudgetExceeded(RuntimeError):
    """Raised by :class:`CountingProblem` when the evaluation budget runs out."""


class CountingProblem(Problem):
    """Wrapper that counts evaluations and optionally enforces a budget.

    Parallel experiments compare algorithms by *evaluations to solution* —
    the machine-independent cost measure the super-linear-speedup literature
    (Alba 2002) uses — so exact counting lives here rather than scattered
    through engines.

    Counting is thread-safe (a thread executor's chunks call
    ``evaluate_many`` concurrently) and the budget is only charged for evaluations that
    actually complete: an inner evaluation that raises refunds its
    reservation.
    """

    def __init__(self, inner: Problem, budget: int | None = None) -> None:
        self.inner = inner
        self.spec = inner.spec
        self.maximize = inner.maximize
        self.optimum = inner.optimum
        self.target = inner.target
        self.budget = budget
        self.evaluations = 0
        self._lock = threading.Lock()

    # locks are unpicklable; recreate on the other side of a process hop
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- budget accounting -----------------------------------------------------
    def reserve(self, n: int) -> None:
        """Atomically charge ``n`` evaluations against the budget.

        Raises :class:`FitnessBudgetExceeded` (charging nothing) when the
        budget cannot cover them.  Executors that farm work to processes
        call this driver-side so worker-side counts cannot be lost.
        """
        with self._lock:
            if self.budget is not None and self.evaluations + n > self.budget:
                raise FitnessBudgetExceeded(
                    f"budget of {self.budget} evaluations exhausted"
                )
            self.evaluations += n

    def refund(self, n: int) -> None:
        """Return ``n`` reserved evaluations (the inner evaluation failed)."""
        with self._lock:
            self.evaluations -= n

    def evaluate(self, genome: np.ndarray) -> float:
        self.reserve(1)
        try:
            return self.inner.evaluate(genome)
        except BaseException:
            self.refund(1)
            raise

    def evaluate_many(self, genomes: Sequence[np.ndarray] | np.ndarray) -> list[float]:
        n = len(genomes)
        self.reserve(n)
        try:
            return self.inner.evaluate_many(genomes)
        except BaseException:
            self.refund(n)
            raise

    def evaluate_batch(self, genomes: np.ndarray) -> np.ndarray:
        n = len(genomes)
        self.reserve(n)
        try:
            return self.inner.evaluate_batch(genomes)
        except BaseException:
            self.refund(n)
            raise

    def reset(self) -> None:
        with self._lock:
            self.evaluations = 0

    @property
    def name(self) -> str:
        return f"Counting({self.inner.name})"
