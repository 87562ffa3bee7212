"""Engine-generic contract auditing over the engine-builder registry.

Each parallel engine has exactly one registration: its builder in
:data:`~repro.spec.registry.ENGINE_BUILDERS`.  The builder's exemplar
spec is the engine's *contract scenario* — a small fully seeded run that
``spec-fuzz`` and the audit below execute alike — so anything whose
exemplar builds a :class:`~repro.parallel.base.ParallelEngine` is
audited generically:

* **schema** — the run returns a schema-valid
  :class:`~repro.parallel.base.RunReport`
  (:func:`~repro.parallel.base.validate_report`);
* **determinism** — two runs from the same seed produce identical result
  fingerprints and trace digests;
* **invariants** — the emitted trace passes the streaming rules of
  :mod:`~repro.verify.invariants`; engines on the timed deme runtime
  also conserve their ``migration`` messages;
* **observability** — a third run under an active
  :func:`~repro.obs.session.obs_session` must be *transparent* (same
  trace digest and result fingerprint as the unobserved runs), its spans
  must nest properly, and every trace-emitted ``generation`` event must
  be covered by a sim-time span (:mod:`repro.obs.validate`).

Untimed engines are traced through a fresh ``trace=Trace()`` argument;
timed engines (the exemplar carries a ``cluster``) trace through their
cluster.  The cross-engine contract test suite and ``python -m
repro.verify engines`` are both thin wrappers over :func:`audit_engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.trace import Trace
from ..obs.session import obs_session
from ..obs.validate import check_generation_coverage, check_spans
from ..parallel.base import ParallelEngine, RunReport, validate_report
from ..runtime.deme import TimedDemeRuntime
from ..spec import ENGINE_BUILDERS, build_run, build_value
from .digest import result_fingerprint, trace_digest
from .invariants import CheckContext, Violation, check_trace
from .specs import exemplar_spec

__all__ = [
    "EngineAudit",
    "audit_engine",
    "audit_engines",
    "contract_engine_names",
    "contract_run",
]


@dataclass
class EngineAudit:
    """Outcome of one engine's generic contract audit."""

    engine: str
    report: RunReport
    fingerprint: str
    deterministic: bool
    schema_problems: list[str] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    obs_problems: list[str] = field(default_factory=list)
    #: span count of the observed run (0 for untimed engines)
    span_count: int = 0

    @property
    def ok(self) -> bool:
        return (
            self.deterministic
            and not self.schema_problems
            and not self.violations
            and not self.obs_problems
        )

    def describe(self) -> str:
        if self.ok:
            return f"{self.engine}: ok (fingerprint {self.fingerprint[:12]})"
        parts = []
        if not self.deterministic:
            parts.append("nondeterministic across same-seed runs")
        parts.extend(self.schema_problems)
        parts.extend(str(v) for v in self.violations)
        parts.extend(self.obs_problems)
        return f"{self.engine}: FAILED — " + "; ".join(parts)


def contract_engine_names() -> list[str]:
    """Builders whose exemplar builds a parallel engine: the audited names."""
    return [
        name
        for name in ENGINE_BUILDERS
        if isinstance(build_run(exemplar_spec(name)), ParallelEngine)
    ]


def _contract(name: str, seed: int) -> tuple[ParallelEngine, Trace, RunReport]:
    """Build and run engine ``name``'s exemplar spec at ``seed``, traced."""
    spec = exemplar_spec(name, seed=seed)
    if name not in contract_engine_names():
        raise ValueError(f"engine {name!r} is sequential and has no contract scenario")
    params = {k: build_value(v) for k, v in spec.engine.params.items()}
    if "cluster" not in params:
        params["trace"] = Trace()
    engine = ENGINE_BUILDERS.get(name).factory(seed=seed, **params)
    report = engine.run(**{k: build_value(v) for k, v in spec.run.items()})
    report.extras["spec_digest"] = spec.digest()
    return engine, engine._report_trace(), report


def contract_run(name: str, seed: int = 0) -> tuple[Trace, RunReport]:
    """Execute engine ``name``'s contract scenario: ``(trace, report)``."""
    _, trace, report = _contract(name, seed)
    return trace, report


def audit_engine(name: str, seed: int = 0) -> EngineAudit:
    """Run engine ``name``'s contract scenario twice and audit it."""
    engine, trace_a, report_a = _contract(name, seed)
    trace_b, report_b = contract_run(name, seed)
    fp_a = result_fingerprint(report_a)
    deterministic = (
        fp_a == result_fingerprint(report_b)
        and trace_digest(trace_a) == trace_digest(trace_b)
    )
    obs_problems, span_count = _audit_observability(name, seed, trace_a, fp_a)
    timed = isinstance(engine, TimedDemeRuntime)
    context = CheckContext(conserved_kinds=("migration",) if timed else ())
    return EngineAudit(
        engine=name,
        report=report_a,
        fingerprint=fp_a,
        deterministic=deterministic,
        schema_problems=validate_report(report_a, engine=name),
        violations=check_trace(trace_a, context),
        obs_problems=obs_problems,
        span_count=span_count,
    )


def _audit_observability(
    name: str, seed: int, trace_plain: Trace, fingerprint_plain: str
) -> tuple[list[str], int]:
    """Third contract run with observability *enabled*: the run must be
    behaviourally untouched and its span timeline structurally sound."""
    with obs_session(label=f"audit-{name}") as session:
        trace_obs, report_obs = contract_run(name, seed)
    problems: list[str] = []
    if result_fingerprint(report_obs) != fingerprint_plain:
        problems.append("enabling observability changed the result fingerprint")
    if trace_digest(trace_obs) != trace_digest(trace_plain):
        problems.append("enabling observability changed the trace digest")
    problems.extend(check_spans(session.spans))
    problems.extend(check_generation_coverage(session.spans, trace_obs))
    return problems, len(session.spans)


def audit_engines(
    names: list[str] | None = None, seed: int = 0
) -> dict[str, EngineAudit]:
    """Audit each named engine (default: every audited builder)."""
    return {n: audit_engine(n, seed) for n in (names or contract_engine_names())}
