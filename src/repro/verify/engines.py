"""Engine contract audits over the engine-builder registry.

Each engine has exactly one registration: its builder in
:data:`~repro.spec.registry.ENGINE_BUILDERS`.  The builder's exemplar
spec is the engine's *contract scenario* — a small fully seeded run —
and auditing an engine is checking that document with
:func:`~repro.verify.specs.check_spec`: round-trip, same-seed
determinism (trace digest and result fingerprint, with observability
enabled on the last run), report schema, span soundness and the
streaming trace invariants.  ``python -m repro.verify engines`` audits
all of them; the cross-engine contract test suite reads the same
results.
"""

from __future__ import annotations

from ..cluster.trace import Trace
from ..parallel.base import ParallelEngine, RunReport
from ..spec import ENGINE_BUILDERS, build_run
from .specs import SpecCheckResult, check_spec, execute, exemplar_spec

__all__ = [
    "audit_engine",
    "audit_engines",
    "contract_engine_names",
    "contract_run",
]


def contract_engine_names() -> list[str]:
    """Builders whose exemplar builds a parallel engine."""
    return [
        name
        for name in ENGINE_BUILDERS
        if isinstance(build_run(exemplar_spec(name)), ParallelEngine)
    ]


def contract_run(name: str, seed: int = 0) -> tuple[Trace, RunReport]:
    """Execute parallel engine ``name``'s contract scenario: ``(trace, report)``."""
    _, trace, report = execute(exemplar_spec(name, seed=seed))
    if trace is None:
        raise ValueError(f"engine {name!r} is sequential and has no contract scenario")
    return trace, report


def audit_engine(name: str, seed: int = 0) -> SpecCheckResult:
    """Check engine ``name``'s exemplar spec at ``seed``."""
    return check_spec(exemplar_spec(name, seed=seed), label=name)


def audit_engines(
    names: list[str] | None = None, seed: int = 0
) -> dict[str, SpecCheckResult]:
    """Audit each named engine (default: every registered builder)."""
    return {n: audit_engine(n, seed) for n in (names or list(ENGINE_BUILDERS))}
