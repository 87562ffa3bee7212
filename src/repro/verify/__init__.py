"""Deterministic-simulation verification subsystem.

FoundationDB-style testing for the simulated parallel machine: every
run is a pure function of its ``repro-runspec/v1`` document (engine,
seed, cluster, fault plan, tie-break jitter seed), so bugs found by
random fuzzing are reproduced from one printed document and shrunk to a
minimal fault plan.  The pieces:

- :mod:`~repro.verify.invariants` — streaming trace-invariant rules
  (time monotonicity, no dispatch to dead nodes, message conservation,
  generation/best monotonicity), checked post-hoc over a finished trace.
- :mod:`~repro.verify.digest` — canonical trace digests, result
  fingerprints and :func:`audit_determinism`, the one run-N-times loop.
- :mod:`~repro.verify.specs` — :func:`check_spec`, the one run checker:
  JSON round-trip, determinism, report schema, observability and trace
  invariants over a :class:`~repro.spec.RunSpec`.
- :mod:`~repro.verify.fuzzer` / :mod:`~repro.verify.shrink` — randomised
  run-spec sampling, the fuzz driver
  (``python -m repro.verify fuzz --seed 0 --runs 25``) and the greedy
  fault-plan shrinker.
- :mod:`~repro.verify.engines` — every engine builder's exemplar spec
  is its contract scenario (``python -m repro.verify engines``).

``python -m repro.verify replay FILE`` checks any run-spec document or
``specs`` batch.  The observability invariants themselves (spans nest
properly; every trace-emitted generation is covered by a sim-time span)
live in :mod:`repro.obs.validate` and are re-exported here for symmetry.
"""

from ..obs.validate import check_generation_coverage, check_spans

from .digest import AuditResult, audit_determinism, result_fingerprint, trace_digest
from .engines import (
    audit_engine,
    audit_engines,
    contract_engine_names,
    contract_run,
)
from .fuzzer import FuzzFailure, FuzzReport, fuzz, sample_spec
from .invariants import (
    INVARIANTS,
    CheckContext,
    Rule,
    Violation,
    check_trace,
    default_rules,
)
from .shrink import ShrinkResult, shrink_spec
from .specs import SpecCheckResult, check_context, check_spec, execute, exemplar_spec

__all__ = [
    "AuditResult",
    "audit_engine",
    "audit_engines",
    "contract_engine_names",
    "contract_run",
    "audit_determinism",
    "result_fingerprint",
    "trace_digest",
    "FuzzFailure",
    "FuzzReport",
    "fuzz",
    "sample_spec",
    "INVARIANTS",
    "CheckContext",
    "Rule",
    "Violation",
    "check_trace",
    "check_generation_coverage",
    "check_spans",
    "default_rules",
    "ShrinkResult",
    "shrink_spec",
    "SpecCheckResult",
    "check_context",
    "check_spec",
    "execute",
    "exemplar_spec",
]
