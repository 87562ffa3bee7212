"""Trial-level sweep orchestrator: process fan-out + content-addressed cache.

Every experiment runner (E1–E13) regenerates its tables from a grid of
independent, seeded simulations — the embarrassingly parallel "many
independent runs" workload that honest PGA performance studies demand
(Harada, Alba & Luque).  This module lets a runner declare that grid as
pure :class:`Trial` specs and hands the harness two orthogonal levers:

**Fan-out.**  ``run_sweep`` executes the trials on a ``fork``-server
process pool (the broadcast-once idiom of
:class:`~repro.runtime.executor.MultiprocessingExecutor`: the interpreter
image is forked once, per-trial traffic is one small pickled spec out and
one small result back).  Results are merged back **in declared order**,
so a report built from a parallel sweep is fingerprint-identical to the
serial run — trials must therefore be pure functions of
``(params, seed)`` and return plain picklable data.

**Content-addressed caching.**  Each trial's result can be stored on disk
under a digest of ``(experiment id, fn identity, params, seed, quick
flag, kernel-code digest)``.  The kernel digest hashes every ``*.py``
file of the ``repro`` package, so *any* code edit transparently
invalidates every cached trial, while re-runs after unrelated edits
(docs, tests) are near-instant cache hits.  Entries carry a checksum; a
corrupt entry is detected, discarded and recomputed, never trusted.  An
entry is the sweep's one record of a finished trial: it stores the
result together with the cost measured when the trial ran, so a re-run
of a killed sweep recomputes no finished trial and reports each one's
original figures.

Configuration is ambient (:func:`sweep_context`) so the thirteen runners
keep their ``run(quick=False)`` signature; the CLI exposes ``--jobs``,
``--cache-dir`` and ``--no-cache``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import pickle
import platform
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from ..cluster.trace import RETENTION_MODES, trace_retention
from ..obs.export import timeline_doc
from ..obs.session import current_obs, obs_session
from .resilient import (
    PoolStats,
    QuarantinedTask,
    QuarantineError,
    ResilienceConfig,
    SupervisedPool,
)

__all__ = [
    "Trial",
    "TrialCache",
    "TrialCost",
    "SweepConfig",
    "SweepTelemetry",
    "TrialRecord",
    "run_sweep",
    "sweep_context",
    "current_config",
    "kernel_digest",
    "trial_digest",
    "canonical_params",
]


# -- trial specs -------------------------------------------------------------------


@dataclass(frozen=True)
class Trial:
    """One independent unit of experiment work.

    ``fn`` must be a module-level callable (so it pickles by reference),
    pure given its arguments, and must return plain picklable data —
    numbers, strings, lists/tuples/dicts and small dataclasses of those.

    **Raw-callable trials** (``spec=None``) invoke ``fn(**params)``, plus
    ``seed=seed`` when a seed is declared — the form for trials that run
    no engine (E1's literature table, analytic models).

    **Spec-backed trials** carry one :class:`repro.spec.RunSpec` (or a
    tuple of them) describing the engine run(s); ``fn`` becomes the
    *extraction* function and receives the executed result first:
    ``fn(report, **params)``.  Seeds live inside the specs, so
    ``seed`` is informational (telemetry) and is not passed to ``fn``.
    With ``mode="engine"`` the spec is only *built*, not run —
    ``fn(engine, **params)`` drives the engine itself (stepping loops,
    trace audits, population inspection).

    ``retention`` picks the trace retention mode the trial body runs
    under (see :func:`repro.cluster.trace.trace_retention`).  ``None`` —
    the default — means ``compact``: sweep trials normally consume
    report-level data, so workers keep digests + counts + ``generation``
    events instead of full event lists.  Trials that audit the raw event
    stream post-hoc (e.g. E13's invariant checks) declare
    ``retention="full"``.  The mode never enters the cache key: digests
    and extracted results are retention-invariant by construction.
    """

    fn: Callable[..., Any]
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int | None = None
    #: RunSpec | tuple[RunSpec, ...] | None — the declarative run(s)
    spec: Any = None
    #: "report" (execute, pass the result) or "engine" (build, pass the engine)
    mode: str = "report"
    #: trace retention for the trial body; None = the sweep default, "compact"
    retention: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("report", "engine"):
            raise ValueError(f"trial mode must be 'report' or 'engine', got {self.mode!r}")
        if self.retention is not None and self.retention not in RETENTION_MODES:
            raise ValueError(
                f"trial retention must be None or one of {RETENTION_MODES}, "
                f"got {self.retention!r}"
            )

    def call(self) -> Any:
        if self.spec is None:
            kwargs = dict(self.params)
            if self.seed is not None:
                kwargs["seed"] = self.seed
            return self.fn(**kwargs)
        from ..spec import build_run, run_spec

        execute = build_run if self.mode == "engine" else run_spec
        if isinstance(self.spec, tuple):
            built: Any = tuple(execute(s) for s in self.spec)
        else:
            built = execute(self.spec)
        return self.fn(built, **dict(self.params))

    @property
    def fn_id(self) -> str:
        return f"{self.fn.__module__}.{self.fn.__qualname__}"

    @property
    def specs(self) -> tuple[Any, ...]:
        """The trial's RunSpecs (empty for raw-callable trials)."""
        if self.spec is None:
            return ()
        return self.spec if isinstance(self.spec, tuple) else (self.spec,)


# -- cache keys --------------------------------------------------------------------

_KERNEL_DIGEST: str | None = None


def kernel_digest() -> str:
    """sha256 over every ``*.py`` of the ``repro`` package (memoized).

    Part of every trial's cache key: touching any kernel code invalidates
    every cached trial, so the cache can never serve results computed by
    an older implementation.
    """
    global _KERNEL_DIGEST
    if _KERNEL_DIGEST is None:
        root = Path(__file__).resolve().parent.parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _KERNEL_DIGEST = h.hexdigest()
    return _KERNEL_DIGEST


def canonical_params(value: Any, depth: int = 0) -> str:
    """Canonical string form of a trial parameter (stable across processes).

    Follows the same conventions as :mod:`repro.verify.digest`: floats via
    ``repr`` (shortest round-trip form), mappings sorted by key.  Opaque
    objects fall back to a digest of their pickled bytes — sound here
    because the kernel digest already invalidates on any code change.
    """
    if depth > 12:
        raise ValueError("trial params nest too deeply to canonicalise")
    if value is None or isinstance(value, bool):
        return repr(value)
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, int)):
        return repr(int(value))
    if isinstance(value, (str, bytes)):
        return repr(value)
    if isinstance(value, np.ndarray):
        return f"ndarray({canonical_params(value.tolist(), depth + 1)},{value.dtype.str})"
    if isinstance(value, Mapping):
        items = ",".join(
            f"{canonical_params(k, depth + 1)}:{canonical_params(v, depth + 1)}"
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        )
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical_params(v, depth + 1) for v in value) + "]"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(canonical_params(v, depth + 1) for v in value)) + "}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{f.name}={canonical_params(getattr(value, f.name), depth + 1)}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({fields})"
    blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return f"<{type(value).__module__}.{type(value).__qualname__}:{hashlib.sha256(blob).hexdigest()}>"


def trial_digest(
    experiment_id: str, trial: Trial, *, quick: bool, kernel: str | None = None
) -> str:
    """Content address of one trial's result.

    Spec-backed trials key on their :class:`repro.spec.RunSpec` content
    digests (plus the extraction fn and its params) — a portable,
    declarative address.  Raw-callable trials key on fn identity +
    canonicalised params (opaque objects digest their pickled bytes).
    Both include the kernel digest, so any code edit invalidates every
    cached trial either way.
    """
    parts = [
        experiment_id,
        trial.fn_id,
        canonical_params(dict(trial.params)),
        repr(trial.seed),
        repr(bool(quick)),
        kernel if kernel is not None else kernel_digest(),
    ]
    if trial.spec is not None:
        parts.append(trial.mode)
        parts.extend(s.digest() for s in trial.specs)
    blob = "|".join(parts)
    return hashlib.sha256(blob.encode()).hexdigest()


# -- on-disk cache -----------------------------------------------------------------

#: entry header; v2 entries pickle ``(result, TrialCost)``, so v1 entries
#: (a bare result) fail the magic check and read as misses
_MAGIC = b"RSWEEP2\n"


@dataclass(frozen=True)
class TrialCost:
    """What one trial cost when it ran: wall and CPU seconds (rounded to
    the microsecond), simulated events dispatched and fitness evaluations
    observed.  Stored in the trial's cache entry, so a cache hit reports
    the figures of the run that computed it."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    sim_events: int = 0
    evaluations: int = 0


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # PermissionError et al.: it exists, just not ours
        return True
    return True


#: per-process uniquifier for temp names — two stores of the same digest
#: in one process can never collide on their temp file
_TMP_SEQ = itertools.count()


class TrialCache:
    """Content-addressed on-disk store of finished trials.

    Layout: ``<root>/<digest[:2]>/<digest[2:]>.pkl``; each entry is a
    magic header, the hex sha256 of the payload, and the pickled
    ``(result, TrialCost)`` pair.  A short, damaged or tampered entry
    fails the checksum (or unpickling) and is treated as a miss — the
    trial recomputes and the entry is rewritten.  Writes are atomic
    (unique temp file + rename, unlinked on failure): the rename is the
    commit point of a finished trial, so a crashed writer can at worst
    leave a corrupt entry, never a half-trusted one.  Temp files orphaned
    by a *killed* writer (no chance to unlink) are swept on the next
    cache open, guarded by a pid-liveness probe so a concurrent writer's
    live temp survives.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self._sweep_stale_temps()

    def _sweep_stale_temps(self) -> None:
        if not self.root.is_dir():
            return
        for tmp in self.root.glob("*/*.tmp.*"):
            tail = tmp.name.partition(".tmp.")[2]
            try:
                pid = int(tail.split(".", 1)[0])
            except ValueError:
                pid = None
            if pid is None or not _pid_alive(pid):
                try:
                    tmp.unlink()
                except OSError:
                    pass

    def _path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest[2:]}.pkl"

    def load(self, digest: str) -> tuple[bool, Any, TrialCost | None]:
        """``(hit, result, cost)``; corrupt entries count as misses."""
        path = self._path(digest)
        try:
            blob = path.read_bytes()
        except OSError:
            self.misses += 1
            return False, None, None
        try:
            if not blob.startswith(_MAGIC):
                raise ValueError("bad magic")
            checksum = blob[len(_MAGIC) : len(_MAGIC) + 64].decode("ascii")
            payload = blob[len(_MAGIC) + 65 :]
            if blob[len(_MAGIC) + 64 : len(_MAGIC) + 65] != b"\n":
                raise ValueError("bad header")
            if hashlib.sha256(payload).hexdigest() != checksum:
                raise ValueError("checksum mismatch")
            value, cost = pickle.loads(payload)
            if not isinstance(cost, TrialCost):
                raise ValueError("entry carries no trial cost")
        except Exception:
            self.corrupt += 1
            self.misses += 1
            return False, None, None
        self.hits += 1
        return True, value, cost

    def store(self, digest: str, value: Any, cost: TrialCost) -> None:
        path = self._path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps((value, cost), protocol=pickle.HIGHEST_PROTOCOL)
        blob = _MAGIC + hashlib.sha256(payload).hexdigest().encode("ascii") + b"\n" + payload
        tmp = path.parent / f"{path.name}.tmp.{os.getpid()}.{next(_TMP_SEQ)}"
        try:
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise


# -- telemetry ---------------------------------------------------------------------


@dataclass
class TrialRecord:
    """Per-trial perf telemetry (never part of a result fingerprint).

    A cache hit (``cached=True``) reports the cost stored with its entry:
    the figures of the run that computed it.
    """

    experiment: str
    fn: str
    seed: int | None
    digest: str
    wall_s: float
    cached: bool
    #: process CPU time of the trial (``time.process_time``), next to wall_s
    cpu_s: float = 0.0
    sim_events: int = 0
    evaluations: int = 0
    #: span count of the trial's child observability session (0 when obs off)
    obs_spans: int = 0
    #: True when the trial was quarantined as poison after K failed attempts
    quarantined: bool = False


@dataclass
class SweepTelemetry:
    """Collects per-trial and per-sweep perf records into a JSON artifact.

    The artifact (``BENCH_sweep.json`` by convention) is the repo's bench
    trajectory for the experiment suite: wall time per trial, simulated
    events dispatched and bulk fitness evaluations observed, plus per
    sweep the cache hit/corruption counts and the supervised pool's
    :class:`~repro.runtime.resilient.PoolStats` (retries, timeouts,
    worker deaths, respawns, degradation; zeros on the serial path).
    """

    trials: list[TrialRecord] = field(default_factory=list)
    sweeps: list[dict[str, Any]] = field(default_factory=list)
    #: sweep-level observability roll-up (:func:`repro.obs.export.sweep_obs_summary`),
    #: set by the CLI when a session is active; ``None`` keeps the artifact as-is
    obs: dict[str, Any] | None = None
    #: when set, :meth:`flush` rewrites this file — the sweep driver
    #: flushes after every sweep, finished or not, so a killed
    #: invocation still leaves partial telemetry on disk
    autoflush_path: str | Path | None = None

    def record_sweep(
        self,
        *,
        experiment: str,
        n_trials: int,
        cache_hits: int,
        cache_corrupt: int,
        jobs: int,
        wall_s: float,
        pool: PoolStats,
        quarantined: int = 0,
        interrupted: bool = False,
    ) -> None:
        self.sweeps.append(
            {
                "experiment": experiment,
                "trials": n_trials,
                "cache_hits": cache_hits,
                "cache_corrupt": cache_corrupt,
                "jobs": jobs,
                "wall_s": round(wall_s, 6),
                "quarantined": quarantined,
                "interrupted": interrupted,
                "retries": pool.retries,
                "timeouts": pool.timeouts,
                "worker_deaths": pool.worker_deaths,
                "respawns": pool.respawns,
                "degraded": pool.degraded,
            }
        )

    def totals(self) -> dict[str, Any]:
        """Suite totals.  Time, events and evaluations sum over the trials
        this invocation executed; cache hits carry their original cost but
        cost nothing now, so a warm run reports the time it spent."""
        executed = [t for t in self.trials if not t.cached]
        return {
            "trials": len(self.trials),
            "cache_hits": len(self.trials) - len(executed),
            "trial_wall_s": round(sum(t.wall_s for t in executed), 6),
            "trial_cpu_s": round(sum(t.cpu_s for t in executed), 6),
            "sweep_wall_s": round(sum(s["wall_s"] for s in self.sweeps), 6),
            "sim_events": sum(t.sim_events for t in executed),
            "evaluations": sum(t.evaluations for t in executed),
        }

    def to_json(self) -> dict[str, Any]:
        doc = {
            "schema": "repro-sweep-bench/v1",
            "host": {
                "platform": platform.platform(),
                "python": platform.python_version(),
                "cpu_count": os.cpu_count(),
            },
            "totals": self.totals(),
            "sweeps": self.sweeps,
            "trials": [dataclasses.asdict(t) for t in self.trials],
        }
        if self.obs is not None:
            doc["obs"] = self.obs
        return doc

    def write(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    def flush(self) -> None:
        """Persist partial telemetry to ``autoflush_path`` (no-op unset)."""
        if self.autoflush_path is not None:
            self.write(self.autoflush_path)


# -- ambient configuration ---------------------------------------------------------


@dataclass
class SweepConfig:
    """How ``run_sweep`` executes: process count, cache location, telemetry.

    ``cache_dir=None`` disables the cache (the library default, keeping
    programmatic runs hermetic); the CLI opts into ``.sweep_cache``.

    ``resilience`` is the supervision policy for the fork pool (deadline,
    retry/backoff, chaos plan — :class:`repro.runtime.resilient.ResilienceConfig`);
    the sweep always runs it in quarantine mode, so one poison trial
    cannot abort the rest of the grid.
    """

    jobs: int = 1
    cache_dir: str | Path | None = None
    telemetry: SweepTelemetry | None = None
    resilience: ResilienceConfig | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")


_ACTIVE = SweepConfig()


def current_config() -> SweepConfig:
    return _ACTIVE


@contextmanager
def sweep_context(config: SweepConfig) -> Iterator[SweepConfig]:
    """Install ``config`` as the ambient :class:`SweepConfig` for the
    enclosed runners."""
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = config
    try:
        yield config
    finally:
        _ACTIVE = prev


# -- execution ---------------------------------------------------------------------


def _execute_indexed(
    job: tuple[int, Trial]
) -> tuple[int, Any, TrialCost, dict[str, Any] | None]:
    """Run one trial (in the sweeping process or a pool worker), measuring
    wall and CPU time and the simulation-kernel / evaluation-stack counters
    around it.

    When the driver had an ambient observability session open at dispatch
    time (inherited across ``fork``, or simply still ambient on the serial
    path), the trial runs inside its *own* child session whose exported
    timeline doc rides back with the result — a plain-JSON payload that
    crosses the process boundary where a live session object could not.
    The driver folds the docs back in trial-index order, so the merged
    parent timeline is identical no matter how trials interleaved.

    The trial body runs under its declared trace retention (``compact``
    unless the trial says otherwise), on the serial path and in pool
    workers alike — so a worker's pipe payload stays bounded (digests,
    counts and ``generation`` events instead of full event lists) while
    serial and parallel sweeps remain byte-identical.
    """
    from ..cluster import sim as _sim
    from ..core import problem as _problem

    index, trial = job
    ev0 = _problem.evaluations_observed()
    si0 = _sim.events_dispatched()
    obs_doc: dict[str, Any] | None = None
    cpu0 = time.process_time()
    start = time.perf_counter()
    with trace_retention(trial.retention or "compact"):
        if current_obs() is not None:
            with obs_session(label=f"trial-{index}") as child:
                value = trial.call()
            obs_doc = timeline_doc(child)
        else:
            value = trial.call()
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    cost = TrialCost(
        wall_s=round(wall, 6),
        cpu_s=round(cpu, 6),
        sim_events=_sim.events_dispatched() - si0,
        evaluations=_problem.evaluations_observed() - ev0,
    )
    return index, value, cost, obs_doc


def run_sweep(
    experiment_id: str,
    trials: Sequence[Trial],
    *,
    quick: bool = False,
    config: SweepConfig | None = None,
) -> list[Any]:
    """Execute ``trials`` and return their results in declared order.

    Cache hits are answered from disk; the remaining trials run serially
    (``jobs == 1``) or on a supervised process pool
    (:class:`repro.runtime.resilient.SupervisedPool`: worker-death
    detection, per-trial deadlines, seeded retry/backoff — see
    ``cfg.resilience``).  The returned list is ordered exactly like
    ``trials`` regardless of completion order, so reports built from it
    are fingerprint-identical across serial, parallel, cached and
    chaos-injected executions.

    Each finished trial is committed to the cache (result + cost) the
    moment it is absorbed, so a sweep that dies — killed, interrupted or
    failed — leaves every finished trial behind, and a re-run with the
    same cache recomputes none of them.  Trials that stay poison after
    every allowed attempt are quarantined: all other trials still
    complete (and are cached), then a
    :class:`~repro.runtime.resilient.QuarantineError` is raised naming
    them.  The sweep's telemetry is recorded and flushed however the
    sweep ends.
    """
    cfg = config if config is not None else _ACTIVE
    trials = list(trials)
    results: list[Any] = [None] * len(trials)
    cache = TrialCache(cfg.cache_dir) if cfg.cache_dir is not None else None
    telemetry = cfg.telemetry
    sweep_start = time.perf_counter()

    digests = [""] * len(trials)
    if cache is not None:
        kernel = kernel_digest()
        digests = [
            trial_digest(experiment_id, trial, quick=quick, kernel=kernel)
            for trial in trials
        ]

    def _record(
        index: int,
        cost: TrialCost,
        *,
        cached: bool = False,
        obs_spans: int = 0,
        quarantined: bool = False,
    ) -> None:
        if telemetry is not None:
            telemetry.trials.append(
                TrialRecord(
                    experiment=experiment_id,
                    fn=trials[index].fn_id,
                    seed=trials[index].seed,
                    digest=digests[index][:16],
                    wall_s=cost.wall_s,
                    cached=cached,
                    cpu_s=cost.cpu_s,
                    sim_events=cost.sim_events,
                    evaluations=cost.evaluations,
                    obs_spans=obs_spans,
                    quarantined=quarantined,
                )
            )

    pending: list[int] = []
    for i in range(len(trials)):
        if cache is not None:
            hit, value, cost = cache.load(digests[i])
            if hit:
                results[i] = value
                _record(i, cost, cached=True)
                continue
        pending.append(i)
    cache_hits = len(trials) - len(pending)

    obs_docs: dict[int, dict[str, Any]] = {}

    def _absorb(
        index: int, value: Any, cost: TrialCost, obs_doc: dict[str, Any] | None
    ) -> None:
        results[index] = value
        if cache is not None:
            cache.store(digests[index], value, cost)
        if obs_doc is not None:
            obs_docs[index] = obs_doc
        _record(index, cost, obs_spans=len(obs_doc["spans"]) if obs_doc else 0)

    quarantined: list[QuarantinedTask] = []
    pool_stats = PoolStats()
    finished = False
    try:
        jobs = min(cfg.jobs, len(pending))
        if jobs > 1:
            resilience = (
                cfg.resilience if cfg.resilience is not None else ResilienceConfig()
            )
            # quarantine mode: one poison trial must not abort the grid
            resilience = dataclasses.replace(resilience, quarantine=True)
            with SupervisedPool(_execute_indexed, jobs, config=resilience) as pool:
                pool_stats = pool.stats
                payloads = [(i, trials[i]) for i in pending]
                batch = pool.run_batch(
                    payloads,
                    keys=pending,  # chaos/backoff key = declared trial index
                    on_result=lambda _slot, out: _absorb(*out),
                )
            for slot, value in zip(pending, batch):
                if isinstance(value, QuarantinedTask):
                    quarantined.append(value)
                    _record(slot, TrialCost(), quarantined=True)
        else:
            # the serial path runs in-process: chaos plans (worker-only by
            # design) never apply here, which is what makes it the clean
            # reference the chaos runs are compared against
            for i in pending:
                _absorb(*_execute_indexed((i, trials[i])))
        finished = True
    finally:
        # everything absorbed so far is already in the cache; persist the
        # partial telemetry of a sweep that died too
        if telemetry is not None:
            telemetry.record_sweep(
                experiment=experiment_id,
                n_trials=len(trials),
                cache_hits=cache_hits,
                cache_corrupt=cache.corrupt if cache is not None else 0,
                jobs=cfg.jobs,
                wall_s=time.perf_counter() - sweep_start,
                quarantined=len(quarantined),
                interrupted=not finished,
                pool=pool_stats,
            )
            telemetry.flush()

    session = current_obs()
    if session is not None:
        # merge child timelines in trial-index order regardless of the
        # (nondeterministic) pool completion order, so the parent timeline
        # is reproducible; cached trials ran nothing, so they add no doc
        for i in sorted(obs_docs):
            session.merge_child(obs_docs[i], prefix=f"{experiment_id}/t{i}")

    if quarantined:
        # every healthy trial completed and is cached, so a re-run after
        # fixing the poison recomputes only the poison trial
        raise QuarantineError(quarantined)
    return results
