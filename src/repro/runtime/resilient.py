"""Supervised real-process execution: deadlines, retries, respawn, quarantine.

The repo's *simulated* cluster got reliable channels and heartbeat
supervision in the fault-tolerance layer; this module is the same idea
for the *real* process backends.  A bare ``multiprocessing.Pool`` gives
none of it: ``Pool.map`` blocks forever when a worker is OOM-killed
mid-task, ``imap_unordered`` loses the whole sweep on one segfault, and
``close(); join()`` deadlocks on a hung worker.  Lobo, Lima & Mártires
(arXiv cs/0402049) make worker fault tolerance a first-class requirement
of master-worker PGAs; :class:`SupervisedPool` is that requirement made
concrete for this codebase:

* **Explicit workers, explicit wire.**  One ``Process`` + duplex pipe
  per worker, one task in flight per worker.  The supervisor always
  knows which task a worker holds, so a death or deadline maps to
  exactly one task.
* **Worker-death detection.**  A SIGKILLed/``os._exit``-ed worker closes
  its pipe; ``connection.wait`` wakes the supervisor immediately and the
  task is retried on a fresh worker.  A heartbeat poll backstops the
  exotic cases where the pipe outlives the process.
* **Per-task deadlines.**  A worker past ``deadline_s`` on one task is
  killed and replaced; the task counts a timeout and retries.
* **Bounded retry with seeded backoff.**  Failed attempts reschedule
  after exponential backoff with *full jitter*, drawn deterministically
  from ``(BACKOFF_SEED, key, attempt)`` — the whole recovery history
  replays bit-identically.
* **Poison-task quarantine.**  A task that fails ``max_retries + 1``
  attempts either aborts the batch (``quarantine=False``, the executor's
  contract: re-raise the original exception) or is boxed as a
  :class:`QuarantinedTask` in its result slot while every other task
  still completes (``quarantine=True``, the sweep's contract).
* **Capped respawn + graceful degradation.**  Each replacement worker
  counts against ``max_pool_respawns``; past the cap the pool concludes
  the host is hostile, kills its workers and finishes the batch serially
  in-process (chaos injection, a worker-only concern, no longer applies).

Fault-free runs take none of these paths: tasks dispatch to idle
workers in index order and results land by index, so output is
bit-identical to the bare pool it replaces, at the cost of one pipe
round-trip per task.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, Sequence

from .chaos import ChaosPlan

__all__ = [
    "ResilienceConfig",
    "SupervisedPool",
    "PoolStats",
    "TaskFailure",
    "QuarantinedTask",
    "WorkerTaskError",
    "QuarantineError",
    "backoff_delay",
]


#: liveness poll cadence while blocked on busy workers
HEARTBEAT_S = 0.2
#: how long shutdown waits for a clean worker exit before terminating
SHUTDOWN_GRACE_S = 5.0
#: seed of the deterministic full-jitter backoff draws
BACKOFF_SEED = 0


@dataclass(frozen=True)
class ResilienceConfig:
    """Supervision policy for one :class:`SupervisedPool`.

    The defaults are deliberately conservative — no deadline, no retries
    — which reproduces the bare pool's *semantics* (first failure
    raises) while still fixing its pathologies (worker death raises
    instead of hanging; shutdown cannot deadlock).
    """

    #: per-task wall-clock deadline; ``None`` disables timeout kills
    deadline_s: float | None = None
    #: retries after the first attempt (total attempts = max_retries + 1)
    max_retries: int = 0
    #: backoff ceiling doubles from this base per failed attempt
    backoff_base_s: float = 0.05
    #: hard cap on any single backoff delay
    backoff_cap_s: float = 2.0
    #: replacement workers allowed before degrading to serial in-process
    max_pool_respawns: int = 4
    #: True: box terminal failures as QuarantinedTask results and keep
    #: going; False: abort the batch on the first terminal failure
    quarantine: bool = False
    #: deterministic fault plan applied inside workers (never in-process)
    chaos: ChaosPlan | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {self.deadline_s}")
        if self.max_pool_respawns < 0:
            raise ValueError(
                f"max_pool_respawns must be >= 0, got {self.max_pool_respawns}"
            )

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1


def backoff_delay(config: ResilienceConfig, key: int, failed_attempt: int) -> float:
    """Deterministic exponential backoff with full jitter.

    ``uniform(0, min(cap, base * 2**failed_attempt))`` where the uniform
    draw is a pure hash of ``(BACKOFF_SEED, key, failed_attempt)`` — the
    AWS full-jitter schedule, reproducible across processes and runs.
    """
    ceiling = min(config.backoff_cap_s, config.backoff_base_s * (2.0 ** failed_attempt))
    blob = hashlib.sha256(
        f"backoff|{BACKOFF_SEED}|{key}|{failed_attempt}".encode()
    ).digest()
    return ceiling * (int.from_bytes(blob[:8], "big") / 2**64)


# -- failure records ---------------------------------------------------------------


@dataclass
class TaskFailure:
    """One failed attempt: what went wrong and on which attempt."""

    kind: str  # "raise" | "timeout" | "worker-death"
    attempt: int
    detail: str


@dataclass
class QuarantinedTask:
    """Placeholder result for a poison task that exhausted its attempts."""

    key: int
    attempts: int
    failures: list[TaskFailure] = field(default_factory=list)

    def describe(self) -> str:
        history = "; ".join(
            f"attempt {f.attempt}: {f.kind} ({f.detail})" for f in self.failures
        )
        return f"task {self.key} quarantined after {self.attempts} attempts: {history}"


class WorkerTaskError(RuntimeError):
    """A task failed terminally for a non-exception reason (timeout/death)."""

    def __init__(self, message: str, failures: Sequence[TaskFailure] = ()) -> None:
        super().__init__(message)
        self.failures = list(failures)


class QuarantineError(RuntimeError):
    """Raised by callers when a batch completed but left quarantined tasks."""

    def __init__(self, quarantined: Sequence[QuarantinedTask]) -> None:
        lines = "\n  ".join(q.describe() for q in quarantined)
        super().__init__(
            f"{len(quarantined)} task(s) quarantined as poison:\n  {lines}"
        )
        self.quarantined = list(quarantined)


@dataclass
class PoolStats:
    """Supervision counters for one pool lifetime — their one owner; a
    sweep copies them into its ``BENCH_sweep.json`` ``sweeps[]`` entry."""

    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    quarantined: int = 0
    respawns: int = 0
    degraded: bool = False


# -- worker side -------------------------------------------------------------------


def _worker_main(conn, worker_fn, initializer, initargs, chaos) -> None:
    """Worker loop: recv ``(task_id, key, attempt, payload)``, run, send back.

    Chaos faults execute *before* the task body, keyed by the task's
    stable key and attempt number, so a planned fault replays no matter
    which worker the task lands on.  ``None`` is the shutdown sentinel.
    """
    if initializer is not None:
        initializer(*initargs)
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            return
        if item is None:
            return
        task_id, key, attempt, payload = item
        try:
            if chaos is not None:
                chaos.execute(key, attempt)
            message = (task_id, True, worker_fn(payload))
        except BaseException as exc:  # noqa: BLE001 — the wire carries it back
            message = (task_id, False, _pickle_exc(exc))
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):
            return


def _pickle_exc(exc: BaseException) -> bytes:
    try:
        blob = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.loads(blob)  # some exceptions pickle but refuse to unpickle
        return blob
    except Exception:
        return pickle.dumps(
            RuntimeError(f"{type(exc).__name__}: {exc}"),
            protocol=pickle.HIGHEST_PROTOCOL,
        )


# -- driver side -------------------------------------------------------------------


@dataclass
class _TaskState:
    index: int  # slot in the batch's result list
    key: int  # stable identity for chaos/backoff draws
    payload: Any
    attempt: int = 0  # next attempt number to run (0-based)
    ready_at: float = 0.0  # monotonic time before which dispatch must wait
    failures: list[TaskFailure] = field(default_factory=list)


class _Worker:
    __slots__ = ("proc", "conn", "task", "started_at")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.task: _TaskState | None = None
        self.started_at = 0.0


class SupervisedPool:
    """A persistent pool of supervised worker processes.

    ``worker_fn`` must be a module-level callable (picklable under the
    ``spawn`` context; any callable under ``fork``) taking one payload.
    ``initializer(*initargs)`` runs once per worker — including every
    respawned replacement — before its task loop starts.

    Use as a context manager, or call :meth:`shutdown` explicitly; both
    are bounded-time (satellite of the bare pool's ``close(); join()``
    deadlock) and safe to call with hung or dead workers.
    """

    def __init__(
        self,
        worker_fn: Callable[[Any], Any],
        jobs: int,
        *,
        config: ResilienceConfig | None = None,
        initializer: Callable[..., None] | None = None,
        initargs: Sequence[Any] = (),
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.worker_fn = worker_fn
        self.jobs = jobs
        self.config = config if config is not None else ResilienceConfig()
        self.initializer = initializer
        self.initargs = tuple(initargs)
        self.stats = PoolStats()
        self._ctx = get_context("fork" if os.name == "posix" else "spawn")
        self._closed = False
        #: tasks stranded on workers the supervisor abandoned mid-flight
        #: (degradation); drained back into the batch queue innocently
        self._stranded: list[_TaskState] = []
        self._workers: list[_Worker] = [self._spawn() for _ in range(jobs)]

    # -- lifecycle -----------------------------------------------------------------

    def _spawn(self) -> _Worker:
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                child, self.worker_fn, self.initializer, self.initargs,
                self.config.chaos,
            ),
            daemon=True,
        )
        proc.start()
        child.close()
        return _Worker(proc, parent)

    def shutdown(self, timeout: float | None = None) -> None:
        """Sentinel every worker, join with a bound, terminate stragglers.

        Unlike ``Pool.close(); Pool.join()`` this can never block forever:
        a hung worker gets ``terminate()`` after the grace period and
        ``kill()`` if it survives even that.
        """
        if self._closed:
            return
        self._closed = True
        grace = SHUTDOWN_GRACE_S if timeout is None else timeout
        for w in self._workers:
            try:
                w.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + grace
        for w in self._workers:
            w.proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for w in self._workers:
            if w.proc.is_alive():
                w.proc.terminate()
                w.proc.join(timeout=1.0)
            if w.proc.is_alive():
                w.proc.kill()
                w.proc.join(timeout=1.0)
            w.conn.close()
        self._workers = []

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- batch execution -----------------------------------------------------------

    def run_batch(
        self,
        payloads: Sequence[Any],
        *,
        keys: Sequence[int] | None = None,
        on_result: Callable[[int, Any], None] | None = None,
    ) -> list[Any]:
        """Run every payload under supervision; results in payload order.

        ``keys`` names each task for chaos/backoff purposes (default: its
        index).  ``on_result(index, value)`` streams successful results
        as they land — quarantined slots are *not* streamed; they appear
        as :class:`QuarantinedTask` markers in the returned list.
        """
        if self._closed:
            raise RuntimeError("pool is shut down")
        n = len(payloads)
        if n == 0:
            return []
        key_list = [int(k) for k in keys] if keys is not None else list(range(n))
        if len(key_list) != n:
            raise ValueError(f"{len(key_list)} keys for {n} payloads")
        tasks = [
            _TaskState(index=i, key=key_list[i], payload=p)
            for i, p in enumerate(payloads)
        ]
        results: list[Any] = [None] * n
        pending: list[_TaskState] = list(tasks)
        state = {"done": 0}
        cfg = self.config

        def _finish(task: _TaskState, value: Any, streamed: bool = True) -> None:
            results[task.index] = value
            state["done"] += 1
            if streamed and on_result is not None:
                on_result(task.index, value)

        def _failed(
            task: _TaskState, kind: str, detail: str, exc: BaseException | None = None
        ) -> None:
            task.failures.append(TaskFailure(kind=kind, attempt=task.attempt, detail=detail))
            task.attempt += 1
            if task.attempt >= cfg.max_attempts:
                self.stats.quarantined += 1
                if cfg.quarantine:
                    _finish(
                        task,
                        QuarantinedTask(
                            key=task.key, attempts=task.attempt, failures=list(task.failures)
                        ),
                        streamed=False,
                    )
                    return
                if exc is not None:
                    raise exc  # preserve the original exception type
                raise WorkerTaskError(
                    f"task {task.key} failed terminally after {task.attempt} "
                    f"attempt(s): {kind} ({detail})",
                    task.failures,
                )
            self.stats.retries += 1
            delay = backoff_delay(cfg, task.key, task.attempt - 1)
            task.ready_at = time.monotonic() + delay
            pending.append(task)

        try:
            # replace workers lost to a previous batch's error reset
            while not self.stats.degraded and len(self._workers) < self.jobs:
                self._workers.append(self._spawn())
            while state["done"] < n:
                if self._stranded:
                    pending.extend(self._stranded)
                    self._stranded.clear()
                if self.stats.degraded:
                    self._drain_serially(pending, _finish, _failed)
                    continue
                now = time.monotonic()
                # dispatch ready tasks onto idle workers, index order
                idle = [w for w in self._workers if w.task is None]
                if idle and pending:
                    ready = sorted(
                        (t for t in pending if t.ready_at <= now),
                        key=lambda t: t.index,
                    )
                    for w, t in zip(idle, ready):
                        pending.remove(t)
                        w.task = t
                        w.started_at = now
                        try:
                            w.conn.send((t.index, t.key, t.attempt, t.payload))
                        except (BrokenPipeError, OSError):
                            # died while idle: the task never ran, requeue
                            # it innocently and replace the worker
                            w.task = None
                            pending.append(t)
                            self._note_death(w)
                busy = [w for w in self._workers if w.task is not None]
                if not busy:
                    if pending:
                        wait = min(t.ready_at for t in pending) - time.monotonic()
                        if wait > 0:
                            time.sleep(min(wait, HEARTBEAT_S))
                    continue
                timeout = HEARTBEAT_S
                if cfg.deadline_s is not None:
                    next_deadline = (
                        min(w.started_at for w in busy) + cfg.deadline_s - now
                    )
                    timeout = min(timeout, max(0.0, next_deadline))
                if pending:
                    next_ready = min(t.ready_at for t in pending) - now
                    if next_ready > 0:
                        timeout = min(timeout, next_ready)
                ready_conns = set(_conn_wait([w.conn for w in busy], timeout))
                for w in busy:
                    if w.conn not in ready_conns or w.task is None:
                        continue  # reaped mid-iteration (degradation)
                    task = w.task
                    try:
                        msg = w.conn.recv()
                    except (EOFError, OSError):
                        self._note_death(w)
                        if task is not None:
                            _failed(
                                task,
                                "worker-death",
                                f"worker died during attempt {task.attempt}",
                            )
                        continue
                    if task is None or msg[0] != task.index:
                        continue  # stale message; ignore
                    w.task = None
                    if msg[1]:
                        _finish(task, msg[2])
                    else:
                        exc = pickle.loads(msg[2])
                        _failed(task, "raise", repr(exc), exc=exc)
                # deadline sweep: kill workers past their per-task budget
                if cfg.deadline_s is not None:
                    now = time.monotonic()
                    for w in list(self._workers):
                        task = w.task
                        if task is None or now - w.started_at <= cfg.deadline_s:
                            continue
                        self.stats.timeouts += 1
                        self._kill_and_replace(w)
                        _failed(
                            task,
                            "timeout",
                            f"exceeded deadline {cfg.deadline_s}s on attempt {task.attempt}",
                        )
                # liveness backstop: busy worker died but its pipe stayed
                # open (e.g. inherited by a grandchild) — treat as death
                for w in list(self._workers):
                    if w.task is not None and not w.proc.is_alive():
                        task = w.task
                        self._note_death(w)
                        _failed(
                            task,
                            "worker-death",
                            f"worker exited (code {w.proc.exitcode}) during "
                            f"attempt {task.attempt}",
                        )
        except BaseException:
            self._reset_after_error()
            raise
        return results

    # -- supervision internals -----------------------------------------------------

    def _note_death(self, worker: _Worker) -> None:
        self.stats.worker_deaths += 1
        self._kill_and_replace(worker)

    def _kill_and_replace(self, worker: _Worker) -> None:
        """Remove one worker; respawn if under the cap, else degrade."""
        worker.task = None
        self._reap(worker)
        if worker in self._workers:
            self._workers.remove(worker)
        if self.stats.respawns < self.config.max_pool_respawns:
            self.stats.respawns += 1
            self._workers.append(self._spawn())
        else:
            self._degrade()

    def _degrade(self) -> None:
        """The pool keeps breaking: finish the batch serially in-process.

        Healthy workers' in-flight tasks are requeued *without* counting
        a failure — the supervisor is abandoning them, they did nothing
        wrong.  Chaos plans do not apply in-process (a ``kill`` fault
        would take down the driver), so degradation also acts as the
        escape hatch from a plan that kills every attempt.
        """
        if self.stats.degraded:
            return
        self.stats.degraded = True
        for w in self._workers:
            self._reap(w)
        self._workers = []

    def _drain_serially(self, pending, _finish, _failed) -> None:
        # every remaining task runs in the driver process; stranded
        # in-flight tasks were already drained back into ``pending``
        while pending:
            task = min(pending, key=lambda t: (t.ready_at, t.index))
            pending.remove(task)
            wait = task.ready_at - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            try:
                value = self.worker_fn(task.payload)
            except Exception as exc:  # noqa: BLE001 — same contract as the wire
                _failed(task, "raise", repr(exc), exc=exc)
                continue
            _finish(task, value)

    def _reap(self, worker: _Worker) -> None:
        stranded = worker.task
        worker.task = None
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.proc.is_alive():
            worker.proc.kill()
        worker.proc.join(timeout=1.0)
        if stranded is not None:
            # only reached from _degrade: requeue innocently
            stranded.ready_at = 0.0
            self._stranded.append(stranded)

    def _reset_after_error(self) -> None:
        """An exception is propagating out of run_batch: discard every
        worker (they may hold stale in-flight tasks).  Replacements are
        spawned lazily at the next ``run_batch``, so the pool stays
        usable without wasting forks when the caller is shutting down."""
        if self._closed:
            return
        for w in self._workers:
            w.task = None
            self._reap(w)
        self._workers = []
        self._stranded.clear()
