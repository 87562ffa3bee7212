"""The one run checker: every replayable run is a ``repro-runspec/v1``
document, and :func:`check_spec` is the one way to check one.

The fuzzer samples documents, the shrinker edits their fault plans,
``python -m repro.verify replay`` reads them from files (single specs or
``specs`` batches) and ``python -m repro.verify engines`` checks each
builder's exemplar — all through :func:`check_spec`, which

1. round-trips the document through canonical JSON (same spec, same
   digest — the digest is only a trustworthy cache/provenance key if the
   document pins the behaviour);
2. executes it ``runs`` times through
   :func:`~repro.verify.digest.audit_determinism`, the last run under an
   active :func:`~repro.obs.session.obs_session`, and requires identical
   trace digests and result fingerprints — so observability must be
   transparent, too;
3. schema-validates the report (:func:`~repro.parallel.base.validate_report`)
   and its ``spec_digest`` stamp;
4. checks the observed run's spans (:mod:`repro.obs.validate`) and the
   trace against every streaming invariant of
   :mod:`~repro.verify.invariants`, with the rule context derived from
   the engine that was built (:func:`check_context`);
5. for ``sim-master-slave``, requires the genetic trajectory of the
   sequential GA with the same seed — the global model's defining
   property (survey §1.2).

Untimed parallel engines trace into a fresh :class:`~repro.cluster.trace.Trace`;
timed ones trace through their cluster.  Sequential engines are
untraced: they get steps 1–3.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

from ..cluster.trace import Trace
from ..obs.session import obs_session
from ..obs.validate import check_generation_coverage, check_spans
from ..parallel.base import ParallelEngine, RunReport, validate_report
from ..spec import ENGINE_BUILDERS, EngineSpec, RunSpec, build_run, run_spec
from .digest import audit_determinism
from .invariants import INVARIANTS, CheckContext, Violation, check_trace

__all__ = [
    "SpecCheckResult",
    "check_context",
    "check_spec",
    "execute",
    "exemplar_spec",
]


@dataclass
class SpecCheckResult:
    """Outcome of checking one spec: digests, report and every problem."""

    label: str
    #: the spec's content address
    digest: str
    #: canonical digest of the first run's trace (``None``: untraced engine)
    trace_digest: str | None = None
    fingerprint: str = ""
    report: Any = None
    #: property failures, each prefixed with the check that found it
    #: (``round-trip``, ``determinism``, ``report``, ``obs``, ``sequential-equality``)
    problems: list[str] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    #: span count of the observed run
    span_count: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems and not self.violations

    @property
    def signature(self) -> str:
        """Coarse failure identity the shrinker must preserve."""
        if self.violations:
            return f"invariant:{self.violations[0].rule}"
        if self.problems:
            return "property:" + self.problems[0].split(":", 1)[0]
        return "ok"

    def describe(self) -> str:
        trace = self.trace_digest or "untraced"
        head = f"{self.label}: trace {trace}, result {self.fingerprint[:16]}…"
        if self.ok:
            return f"{head} ok"
        lines = [str(v) for v in self.violations] + self.problems
        return f"{head} FAILED\n" + "\n".join(f"  - {line}" for line in lines)


def exemplar_spec(name: str, *, seed: int = 0) -> RunSpec:
    """The registered exemplar of engine ``name`` as a ready :class:`RunSpec`."""
    exemplar = ENGINE_BUILDERS.get(name).exemplar
    return RunSpec(
        engine=EngineSpec(name, dict(exemplar.get("params", {}))),
        seed=seed,
        run=dict(exemplar.get("run", {})),
    )


def execute(spec: RunSpec) -> tuple[Any, Trace | None, Any]:
    """Build and run ``spec`` traced: ``(engine, trace, report)``.

    An untimed parallel engine traces into a fresh :class:`Trace`;
    sequential engines return ``None`` for the trace.
    """
    engine = build_run(spec)
    if isinstance(engine, ParallelEngine) and engine._report_trace() is None:
        engine.trace = Trace()
    report = run_spec(spec, engine)
    trace = engine._report_trace() if isinstance(engine, ParallelEngine) else None
    return engine, trace, report


def check_context(engine: Any) -> CheckContext:
    """Rule context for a built engine: its cluster's downtime, the
    message kinds it must conserve and its problem's fitness direction.

    Every engine that emits ``migration`` messages conserves them; the
    reliable channel adds its acks and a supervisor its heartbeats,
    checkpoints and restores."""
    kinds = ("migration",)
    if getattr(engine, "reliable_migration", False):
        kinds += ("migration-ack",)
    if getattr(engine, "supervised", False):
        kinds += ("heartbeat", "checkpoint", "restore")
    overrides = {"conserved_kinds": kinds, "maximize": bool(engine.problem.maximize)}
    cluster = getattr(engine, "cluster", None)
    if cluster is None:
        return CheckContext(**overrides)
    return CheckContext.from_cluster(cluster, **overrides)


def _sequential_equality(spec: RunSpec, report: RunReport) -> list[str]:
    """The global model is genetically the sequential GA: same seed, same
    trajectory, regardless of farm faults or message order."""
    params = spec.engine.params
    sequential = RunSpec(
        engine=EngineSpec(
            "generational", {k: params[k] for k in ("problem", "config") if k in params}
        ),
        seed=spec.seed,
        run=spec.run,
    )
    want, got = run_spec(sequential), report.result
    return [
        f"sequential-equality: {name} {getattr(got, name)} != sequential "
        f"{getattr(want, name)}"
        for name in ("best_fitness", "generations", "evaluations")
        if getattr(got, name) != getattr(want, name)
    ]


def check_spec(
    spec: RunSpec, *, label: str | None = None, runs: int = 2
) -> SpecCheckResult:
    """Check ``spec`` end to end (see the module docstring); ``runs``
    executions feed the determinism audit (1 = execute once)."""
    problems: list[str] = []
    digest = spec.digest()
    doc = spec.to_json()
    revived = RunSpec.from_json(doc)
    if revived != spec:
        problems.append("round-trip: from_json(to_json(spec)) != spec")
    if revived.digest() != digest:
        problems.append(
            f"round-trip: digest unstable: {digest[:16]}… != {revived.digest()[:16]}…"
        )

    executions: list[tuple[Any, Trace | None, Any, Any]] = []

    def once() -> tuple[Trace | None, Any]:
        observed = len(executions) == runs - 1  # the last run is observed
        session_cm = obs_session(label=f"check-{spec.engine.name}")
        with session_cm if observed else nullcontext() as session:
            engine, trace, report = execute(RunSpec.from_json(doc))
        executions.append((engine, trace, report, session))
        return trace, report

    audit = audit_determinism(once, runs)
    if not audit.deterministic:
        problems.append(
            f"determinism: {audit.describe()} (run {runs} of {runs} observed)"
        )
    engine, trace, report, _ = executions[0]
    _, observed_trace, _, session = executions[-1]

    if isinstance(report, RunReport):
        problems.extend(
            f"report: {p}" for p in validate_report(report, engine=spec.engine.name)
        )
        if report.extras.get("spec_digest") != digest:
            problems.append("report: extras['spec_digest'] missing or != the spec's digest")
    problems.extend(f"obs: {p}" for p in check_spans(session.spans))
    violations: list[Violation] = []
    if trace is not None:
        problems.extend(
            f"obs: {p}" for p in check_generation_coverage(session.spans, observed_trace)
        )
        violations = check_trace(trace, check_context(engine), INVARIANTS)
    if spec.engine.name == "sim-master-slave":
        problems.extend(_sequential_equality(spec, report))
    return SpecCheckResult(
        label=label or spec.engine.name,
        digest=digest,
        trace_digest=audit.digests[0] if audit.digests else None,
        fingerprint=audit.fingerprints[0],
        report=report,
        problems=problems,
        violations=violations,
        span_count=len(session.spans),
    )
