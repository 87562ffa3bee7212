"""Fitness-evaluation executors: threads and processes.

The *real-parallelism* counterpart of :mod:`repro.cluster`: these executors
actually farm fitness evaluations out to OS threads or processes (the
survey's master-slave data parallelism on an SMP machine).  They plug into
any engine through the ``FitnessEvaluator`` seam, whose serial (one
processor) case is :class:`repro.core.engine.SerialEvaluator`.

The process pool uses an initializer so the problem is shipped to each
worker exactly once — the mpi4py tutorial's broadcast-once idiom — rather
than pickled per task.  Per-generation traffic is one contiguous ``(n, L)``
array slice per chunk (genomes out) and one list of floats back per chunk
(fitnesses in); no per-genome object lists cross the process boundary.

Executors count nothing: the engine that calls them
(:meth:`repro.core.engine.EvolutionEngine._evaluate`) is the one evaluation
counter, on the driver side, so worker-side copies of the problem carry no
state that must come back.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from ..core.problem import Problem, stack_genomes
from .resilient import QuarantinedTask, QuarantineError, ResilienceConfig, SupervisedPool

__all__ = [
    "ThreadExecutor",
    "MultiprocessingExecutor",
    "chunk_indices",
]


def chunk_indices(n: int, chunks: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into at most ``chunks`` contiguous balanced spans."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if chunks < 1:
        raise ValueError(f"chunks must be >= 1, got {chunks}")
    chunks = min(chunks, max(1, n))
    bounds = np.linspace(0, n, chunks + 1).astype(int)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(chunks) if bounds[i] < bounds[i + 1]]


class ThreadExecutor:
    """Thread-pool evaluation — the survey's 'lightweight processes such as
    POSIX threads … on SMP machines' model.

    Python threads only help for fitness functions that release the GIL
    (NumPy-heavy evaluations); the correctness path is identical either way.
    """

    def __init__(self, workers: int | None = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self._pool = ThreadPoolExecutor(max_workers=self.workers)

    def evaluate(
        self, problem: Problem, genomes: Sequence[np.ndarray] | np.ndarray
    ) -> list[float]:
        if len(genomes) == 0:
            return []
        spans = chunk_indices(len(genomes), self.workers)
        futures = [
            self._pool.submit(problem.evaluate_many, genomes[a:b]) for a, b in spans
        ]
        out: list[float] = []
        for fut in futures:
            out.extend(fut.result())
        return out

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ThreadExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


# -- process-pool plumbing ---------------------------------------------------------
_WORKER_PROBLEM: Problem | None = None


def _init_worker(problem_bytes: bytes) -> None:
    global _WORKER_PROBLEM
    _WORKER_PROBLEM = pickle.loads(problem_bytes)


def _eval_chunk(genomes: np.ndarray | list[np.ndarray]) -> list[float]:
    if _WORKER_PROBLEM is None:
        raise RuntimeError("worker process was not initialised with a problem")
    return _WORKER_PROBLEM.evaluate_many(genomes)


class MultiprocessingExecutor:
    """Process-pool evaluation — real distributed-memory data parallelism.

    The objective is broadcast to each worker once at pool start-up (like an
    MPI ``bcast``), so per-generation traffic is genome arrays out /
    fitnesses back only.  The pool is a
    :class:`~repro.runtime.resilient.SupervisedPool`: a worker that is
    OOM-killed, segfaults or stalls past ``resilience.deadline_s`` no
    longer hangs the evaluation — the chunk is retried on a respawned
    worker (``resilience.max_retries``) or the original error raises.

    Parameters
    ----------
    problem:
        The problem to broadcast.  :meth:`evaluate` verifies — via a digest
        of the pickled objective recorded here — that it is handed the same
        objective the workers hold, so a different instance of the same
        class (or a reconfigured wrapper) cannot silently evaluate against
        a stale objective.
    workers:
        Pool size; defaults to the CPU count.
    resilience:
        Supervision policy.  The default (no deadline, no retries) keeps
        the bare pool's semantics — first evaluation error raises — while
        worker death raises instead of hanging forever.
    """

    def __init__(
        self,
        problem: Problem,
        workers: int | None = None,
        resilience: ResilienceConfig | None = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        payload = pickle.dumps(problem, protocol=pickle.HIGHEST_PROTOCOL)
        self._objective_digest = hashlib.sha256(payload).hexdigest()
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self._pool = SupervisedPool(
            _eval_chunk,
            self.workers,
            config=self.resilience,
            initializer=_init_worker,
            initargs=(payload,),
        )

    @property
    def stats(self):
        """Supervision counters (retries/timeouts/worker deaths/respawns)."""
        return self._pool.stats

    def evaluate(
        self, problem: Problem, genomes: Sequence[np.ndarray] | np.ndarray
    ) -> list[float]:
        payload = pickle.dumps(problem, protocol=pickle.HIGHEST_PROTOCOL)
        if hashlib.sha256(payload).hexdigest() != self._objective_digest:
            raise ValueError(
                f"executor was initialised for a different objective than "
                f"{problem.name}: workers would evaluate a stale problem"
            )
        n = len(genomes)
        if n == 0:
            return []
        batch = stack_genomes(genomes)
        spans = chunk_indices(n, self.workers)
        if batch is not None:
            # one contiguous array per chunk: a single pickle buffer
            # instead of a list of per-genome objects
            chunks = [np.ascontiguousarray(batch[a:b]) for a, b in spans]
        else:
            chunks = [list(genomes[a:b]) for a, b in spans]
        results = self._pool.run_batch(chunks)
        quarantined = [r for r in results if isinstance(r, QuarantinedTask)]
        if quarantined:
            raise QuarantineError(quarantined)
        out: list[float] = []
        for r in results:
            out.extend(r)
        return out

    def shutdown(self, timeout: float | None = None) -> None:
        """Bounded shutdown: a hung worker is terminated after the grace
        period instead of deadlocking context-manager exit."""
        self._pool.shutdown(timeout=timeout)

    def __enter__(self) -> "MultiprocessingExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
