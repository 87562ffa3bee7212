"""Canonical value serialisation shared by traces and digests.

The determinism story of this repo rests on one byte format: every trace
event canonicalises to the line ``{_norm(time)}|{kind}|{k=_norm(v),...}\\n``
(fields sorted by name, floats via ``repr`` — the shortest round-trip
form), and sha256 over the concatenated lines is the run's digest.  The
format is pinned by golden tests; changing a single byte here changes
every pinned digest in the repo.

:meth:`repro.cluster.trace.Trace.record` is the only producer of that
line: it assembles it inline per event with exact-type scalar dispatch
and the caches below, and falls back to :func:`_norm` for every
non-scalar value.  :mod:`repro.verify.digest` keeps the post-hoc walker
(:func:`~repro.verify.digest.trace_digest_walk`) as the independent
oracle.  This module lives under ``repro.cluster`` rather than
``repro.verify`` because the trace layer is imported by everything —
``verify`` importing ``cluster`` is fine, the reverse would cycle.

The caches (a bounded ``repr`` cache for repeated floats, a per-shape
field-order cache) exist because canonicalisation runs once per recorded
event on the hot path; they are behaviour-preserving shortcuts through
:func:`_norm`, never a second format.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from ..core.individual import Individual

__all__ = ["norm"]

_MAX_DEPTH = 12

#: bounded repr cache for non-zero floats.  Zeros are excluded on purpose:
#: ``-0.0 == 0.0`` so they would collide as dict keys, yet ``repr`` must
#: keep telling them apart.  (NaN keys never hit via equality — dicts still
#: short-circuit on identity, and the size bound caps any miss churn.)
_FLOAT_REPRS: dict[float, str] = {}
_FLOAT_CACHE_MAX = 4096


def _norm(
    value: Any,
    depth: int = 0,
    seen: set[int] | None = None,
    memo: dict[tuple[int, int], str] | None = None,
) -> str:
    """Canonical string form of ``value`` (stable across processes).

    ``memo``, when given, caches the canonical form of ``Individual`` and
    ``ndarray`` leaves keyed by ``(id(value), depth)`` for the duration of
    one walk — large-population reports reference the same genome objects
    many times, and re-stringifying them dominated fingerprint cost.  The
    depth in the key keeps the memoized output byte-identical to the
    unmemoized walk even near the depth cap.
    """
    if depth > _MAX_DEPTH:
        return "<depth>"
    if value is None or isinstance(value, bool):
        return repr(value)
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, int)):
        return repr(int(value))
    if isinstance(value, str):
        return repr(value)
    if isinstance(value, np.ndarray):
        if memo is None:
            return _norm(value.tolist(), depth + 1, seen)
        key = (id(value), depth)
        out = memo.get(key)
        if out is None:
            out = _norm(value.tolist(), depth + 1, seen, memo)
            memo[key] = out
        return out
    if isinstance(value, Individual):
        # uid is a process-global counter: behaviourally meaningless, so
        # it must never enter a fingerprint
        if memo is None:
            return (
                f"Individual(genome={_norm(value.genome, depth + 1, seen)},"
                f"fitness={_norm(value.fitness, depth + 1, seen)})"
            )
        key = (id(value), depth)
        out = memo.get(key)
        if out is None:
            out = (
                f"Individual(genome={_norm(value.genome, depth + 1, seen, memo)},"
                f"fitness={_norm(value.fitness, depth + 1, seen, memo)})"
            )
            memo[key] = out
        return out
    if seen is None:
        seen = set()
    oid = id(value)
    if oid in seen:
        return "<cycle>"
    if isinstance(value, dict):
        seen.add(oid)
        items = ",".join(
            f"{_norm(k, depth + 1, seen, memo)}:{_norm(v, depth + 1, seen, memo)}"
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        )
        seen.discard(oid)
        return "{" + items + "}"
    if isinstance(value, (list, tuple, set, frozenset)):
        seen.add(oid)
        elems = list(value)
        if isinstance(value, (set, frozenset)):
            elems = sorted(elems, key=str)
        body = ",".join(_norm(v, depth + 1, seen, memo) for v in elems)
        seen.discard(oid)
        return "[" + body + "]"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        seen.add(oid)
        fields = ",".join(
            f"{f.name}={_norm(getattr(value, f.name), depth + 1, seen, memo)}"
            for f in dataclasses.fields(value)
            if f.name != "uid"
        )
        seen.discard(oid)
        return f"{type(value).__name__}({fields})"
    attrs = getattr(value, "__dict__", None)
    if isinstance(attrs, dict) and attrs:
        seen.add(oid)
        body = _norm(
            {k: v for k, v in attrs.items() if not k.startswith("_")},
            depth + 1, seen, memo,
        )
        seen.discard(oid)
        return f"{type(value).__name__}{body}"
    # opaque object: only its type is stable across processes
    return f"<{type(value).__name__}>"


#: public alias — :mod:`repro.verify.digest` re-exports this as its walker
norm = _norm


def _float_repr(value: float) -> str:
    """repr a non-zero float and (size permitting) cache it."""
    r = repr(value)
    if len(_FLOAT_REPRS) < _FLOAT_CACHE_MAX:
        _FLOAT_REPRS[value] = r
    return r


#: field-name tuple (kwargs order) -> tuple of ("name=", name) in sorted
#: order — one sort per event *shape* instead of one per event.  Bounded:
#: shapes are as finite as call sites, but a runaway producer must not
#: grow this dict without limit.
_NAME_ORDERS: dict[tuple[str, ...], tuple[tuple[str, str], ...]] = {}
_NAME_ORDERS_MAX = 4096
