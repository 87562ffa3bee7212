"""Canonical trace digests and result fingerprints for determinism audits.

FoundationDB-style simulation testing only works if "same seed ⇒ same
run" is itself machine-checkable.  :func:`trace_digest` reduces a
:class:`~repro.cluster.trace.Trace` to a stable sha256 by serialising
every event into a canonical line — floats via ``repr`` (shortest
round-trip form), mapping fields sorted by key.  Two runs of the same
seeded scenario must produce byte-identical digests; any hidden global
state (wall clock, id counters leaking into payloads, dict-order
dependence) shows up as a digest mismatch.

The canonical line format itself lives in :mod:`repro.cluster.canon`, and
traces hash it *incrementally* as events are recorded — so
:func:`trace_digest` is an O(1) finalize, not a re-walk.  The original
post-hoc walker survives as :func:`trace_digest_walk`, the independent
reference implementation of the pinned byte format: the golden-digest
suite and the trace property tests assert the two agree hex-for-hex.

:func:`result_fingerprint` does the same for arbitrary result objects
(experiment reports, engine results) by walking dataclasses and plain
attributes into a canonical string.  ``Individual.uid`` is deliberately
excluded: uids come from a process-global counter, so they differ between
back-to-back runs even when the runs are behaviourally identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Callable

from ..cluster.canon import _norm
from ..cluster.trace import Trace

__all__ = [
    "trace_digest",
    "trace_digest_walk",
    "result_fingerprint",
    "audit_determinism",
    "AuditResult",
]


def trace_digest(trace: Trace) -> str:
    """Stable sha256 hex digest over the canonicalised event stream.

    Finalizes the trace's incrementally maintained hash (O(1)).
    """
    return trace.digest_hex()


def trace_digest_walk(trace: Trace) -> str:
    """The legacy post-hoc digest: re-canonicalise every retained event.

    Kept verbatim as the independent reference implementation of the
    pinned byte format.  Requires ``full`` retention (it walks
    ``trace.events``); the golden-digest suite and the trace property
    tests assert it always matches the incremental :func:`trace_digest`.
    """
    h = hashlib.sha256()
    for event in trace:
        fields = ",".join(
            f"{name}={_norm(value)}" for name, value in sorted(event.fields.items())
        )
        h.update(f"{_norm(event.time)}|{event.kind}|{fields}\n".encode())
    return h.hexdigest()


def result_fingerprint(obj: Any) -> str:
    """Stable sha256 hex digest of an arbitrary result object.

    Repeated ``Individual``/ndarray leaves (the same genome object
    referenced from records, deme bests and the report's best) are
    canonicalised once per walk via a memo — byte-identical output to the
    unmemoized walk, at a fraction of the cost on large-population
    reports.
    """
    return hashlib.sha256(_norm(obj, memo={}).encode()).hexdigest()


@dataclasses.dataclass(frozen=True)
class AuditResult:
    """Outcome of a same-seed determinism audit."""

    digests: tuple[str, ...]
    fingerprints: tuple[str, ...] = ()

    @property
    def deterministic(self) -> bool:
        return len(set(self.digests)) <= 1 and len(set(self.fingerprints)) <= 1

    def describe(self) -> str:
        if self.deterministic:
            return f"deterministic (digest {self.digests[0][:16]}…)" if self.digests else "deterministic"
        return (
            "NONDETERMINISTIC: digests "
            + ", ".join(d[:16] for d in self.digests)
            + (
                "; fingerprints " + ", ".join(f[:16] for f in self.fingerprints)
                if self.fingerprints
                else ""
            )
        )


def audit_determinism(
    factory: Callable[[], tuple[Trace, Any]],
    runs: int = 2,
) -> AuditResult:
    """Run ``factory`` (a fresh, fully seeded scenario) ``runs`` times.

    ``factory`` must build *everything* from scratch — cluster, engines,
    rngs — and return ``(trace, result)``.  Same seed must give the same
    trace digest and the same result fingerprint.
    """
    if runs < 2:
        raise ValueError(f"audit needs >= 2 runs, got {runs}")
    digests: list[str] = []
    fingerprints: list[str] = []
    for _ in range(runs):
        trace, result = factory()
        digests.append(trace_digest(trace))
        fingerprints.append(result_fingerprint(result))
    return AuditResult(digests=tuple(digests), fingerprints=tuple(fingerprints))
