"""The shared parallel-engine contract: one report schema, one name.

The survey's central contribution is a *taxonomy*: global/master-slave,
island, cellular, hierarchical, hybrid and specialized models are all
instances of one family of parallel GAs.  This module is the code-level
counterpart of that claim — every engine in :mod:`repro.parallel`

* returns the same :class:`RunReport` (best individual + provenance,
  per-epoch records, timing, comms/retransmit counters, trace digest), so
  runs of *different* models are directly comparable — the uniform
  measurement substrate Harada, Alba & Luque argue distributed-PGA
  results need;
* declares the ``engine_name`` of its one builder in
  :data:`repro.spec.registry.ENGINE_BUILDERS`, whose exemplar spec is
  the engine's seeded *contract scenario* — so the cross-engine contract
  suite and the verification harness can exercise any engine
  generically (:mod:`repro.verify.engines`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, TYPE_CHECKING

import numpy as np

from ..core.individual import Individual
from ..obs.session import current_obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..cluster.trace import Trace

__all__ = [
    "EpochRecord",
    "REPORT_COUNTERS",
    "RunReport",
    "ParallelEngine",
    "validate_report",
]


@dataclass
class EpochRecord:
    """Global statistics for one migration epoch."""

    epoch: int
    evaluations: int
    global_best: float
    deme_bests: list[float]
    migrants_sent: int
    migrants_accepted: int


@dataclass
class RunReport:
    """Uniform outcome schema every parallel engine returns.

    Core fields are shared by all models; anything model-specific
    (utilisation curves, hypervolumes, work-unit ledgers, …) lives in
    :attr:`extras` and remains attribute-accessible (``report.hypervolume``
    reads ``report.extras["hypervolume"]``), so every engine returns this
    one class and none needs a result subclass.
    """

    #: registry name of the engine that produced this report
    engine: str = ""
    #: best individual found (with provenance); None for archive-valued
    #: models (e.g. the multi-objective specialized island model)
    best: Individual | None = None
    evaluations: int = 0
    epochs: int = 0
    solved: bool = False
    stop_reason: str = ""
    deme_bests: list[float] = field(default_factory=list)
    records: list[EpochRecord] = field(repr=False, default_factory=list)
    # -- comms / resilience counters (zero where a model has no such traffic)
    migrants_sent: int = 0
    migrants_accepted: int = 0
    retransmits: int = 0
    dup_discards: int = 0
    recoveries: int = 0
    abandoned_demes: int = 0
    redispatches: int = 0
    lost_chunks: int = 0
    # -- timing (simulated drivers only)
    sim_time: float | None = None
    #: per-deme completion times (simulated drivers); 0.0 = never finished
    finish_times: list[float] = field(default_factory=list)
    #: canonical sha256 of the run's trace (None when the run was untraced)
    trace_digest: str | None = None
    #: model-specific measurements, attribute-accessible
    extras: dict[str, Any] = field(default_factory=dict)

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            raise AttributeError(name)
        extras = self.__dict__.get("extras")
        if extras is not None and name in extras:
            return extras[name]
        raise AttributeError(
            f"{type(self).__name__!s} has no field or extra {name!r}"
        )

    # -- derived measurements --------------------------------------------------
    @property
    def best_fitness(self) -> float:
        if self.best is not None:
            return self.best.require_fitness()
        if "best_fitness" in self.extras:
            return float(self.extras["best_fitness"])
        raise ValueError("report has neither a best individual nor a best_fitness extra")

    @property
    def mean_makespan(self) -> float:
        spans = self.extras.get("generation_makespans", [])
        return float(np.mean(spans)) if spans else 0.0

    @property
    def comm_fraction(self) -> float:
        total = self.extras.get("compute_time", 0.0) + self.extras.get("comm_time", 0.0)
        return self.extras.get("comm_time", 0.0) / total if total > 0 else 0.0

    @property
    def archive_size(self) -> int:
        objs = self.extras.get("archive_objectives")
        return 0 if objs is None else int(np.asarray(objs).shape[0])


#: the report's counter fields: each is the one owner of its count, so
#: ``validate_report`` checks them and an observability session's run
#: note copies them by name — a new counter becomes a field listed here
REPORT_COUNTERS = (
    "evaluations",
    "epochs",
    "migrants_sent",
    "migrants_accepted",
    "retransmits",
    "dup_discards",
    "recoveries",
    "abandoned_demes",
    "redispatches",
    "lost_chunks",
)


class ParallelEngine:
    """Contract every parallel model implements.

    Subclasses (or duck-typed engines) provide

    * ``classification`` — the taxonomy coordinates
      (:class:`~repro.parallel.classification.ModelClassification`);
    * ``engine_name`` — the name of the engine's builder in
      :data:`~repro.spec.registry.ENGINE_BUILDERS`, declared in the class
      body and stamped into reports;
    * ``run(...) -> RunReport`` — one standardized deme lifecycle
      (setup → step → exchange → record → terminate) driven by the
      shared runtime (:mod:`repro.runtime.deme`).

    An engine runs once: a second ``run()`` raises ``RuntimeError`` before
    it touches any state (a spec builds a fresh engine per run).
    """

    engine_name: str = ""

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        run = cls.__dict__.get("run")
        if run is None:
            return

        @functools.wraps(run)
        def run_once(self: "ParallelEngine", *args: Any, **kwargs: Any) -> RunReport:
            if self.__dict__.get("_ran"):
                raise RuntimeError(
                    f"{type(self).__name__}: run() called twice; an engine runs once"
                )
            self._ran = True
            return run(self, *args, **kwargs)

        cls.run = run_once

    def run(self, *args: Any, **kwargs: Any) -> RunReport:  # pragma: no cover
        raise NotImplementedError

    def _report(self, **fields: Any) -> RunReport:
        """Construct a :class:`RunReport` stamped with this engine's name
        and, when the engine is traced, the canonical trace digest.

        The digest is the trace's incrementally maintained sha256
        (:meth:`repro.cluster.trace.Trace.digest_hex` finalizes in O(1)),
        so reporting cost no longer grows with trace length — and it is
        exact under every retention mode, including the ``compact`` one
        sweep workers run under."""
        trace = self._report_trace()
        if trace is not None and "trace_digest" not in fields:
            from ..verify.digest import trace_digest

            fields["trace_digest"] = trace_digest(trace)
        report = RunReport(engine=self.engine_name, **fields)
        session = current_obs()
        if session is not None:
            session.note_run(report, REPORT_COUNTERS)
        return report

    def _report_trace(self) -> "Trace | None":
        """The trace this engine emitted into, if any."""
        cluster = getattr(self, "cluster", None)
        if cluster is not None:
            return cluster.trace
        return getattr(self, "trace", None)


def validate_report(report: RunReport, *, engine: str | None = None) -> list[str]:
    """Schema check: return a list of problems (empty = valid)."""
    problems: list[str] = []
    if not isinstance(report, RunReport):
        return [f"expected RunReport, got {type(report).__name__}"]
    if not report.engine:
        problems.append("report.engine is empty")
    if engine is not None and report.engine != engine:
        problems.append(f"report.engine {report.engine!r} != registered {engine!r}")
    if report.best is not None and not report.best.evaluated:
        problems.append("report.best has no fitness")
    if (
        report.best is None
        and "best_fitness" not in report.extras
        and "archive_objectives" not in report.extras
    ):
        problems.append(
            "report has neither best, extras['best_fitness'] nor an archive"
        )
    if not report.stop_reason:
        problems.append("report.stop_reason is empty")
    for counter in REPORT_COUNTERS:
        if getattr(report, counter) < 0:
            problems.append(f"negative counter {counter}")
    if report.migrants_accepted > report.migrants_sent:
        problems.append(
            f"accepted {report.migrants_accepted} migrants > sent {report.migrants_sent}"
        )
    if report.sim_time is not None and report.sim_time < 0:
        problems.append(f"negative sim_time {report.sim_time}")
    if report.trace_digest is not None and (
        len(report.trace_digest) != 64
        or any(c not in "0123456789abcdef" for c in report.trace_digest)
    ):
        problems.append(f"trace_digest is not a sha256 hex string: {report.trace_digest!r}")
    for rec in report.records:
        if not isinstance(rec, EpochRecord):
            problems.append(f"records contain non-EpochRecord {type(rec).__name__}")
            break
    return problems
