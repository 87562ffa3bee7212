"""Property-based tests for the columnar trace store.

The columnar rewrite of :class:`repro.cluster.trace.Trace` (interned
kinds, parallel arrays, lazy event views) must be observationally
identical to the old list-of-events store for *any* program of
``record()`` calls:

1. Round-trip — events read back in order with exact times, kinds and
   field dicts; ``of_kind`` equals a filtered scan; ``count``/``kinds``
   match recomputation from scratch.
2. Digest — the incremental sha256 equals the legacy post-hoc walker.
3. Retention — compact mode changes only which events are *readable*,
   never the digest, counts, length or kind set.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.trace import COMPACT_KINDS, Trace
from repro.verify.digest import trace_digest_walk

# a small closed vocabulary keeps kind-index collisions likely, which is
# exactly what stresses the interning table
kinds = st.sampled_from(["msg", "generation", "migrate", "eval", "loss"])
field_names = st.sampled_from(["a", "b", "n", "x", "tag"])
# finite floats only: NaN != NaN would make the round-trip dict
# comparison fail for reasons unrelated to storage
scalars = st.one_of(
    st.integers(-(10**6), 10**6),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.booleans(),
    st.text(max_size=8),
    st.none(),
)
values = st.one_of(scalars, st.lists(scalars, max_size=3))
events = st.lists(
    st.tuples(
        st.floats(0, 1e3, allow_nan=False, allow_infinity=False),
        kinds,
        st.dictionaries(field_names, values, max_size=4),
    ),
    max_size=40,
)


def _replay(program, mode="full"):
    t = Trace(mode)
    for time, kind, fields in program:
        t.record(time, kind, **fields)
    return t


@settings(max_examples=60, deadline=None)
@given(program=events)
def test_columnar_roundtrip(program):
    t = _replay(program)
    assert len(t) == len(program)
    got = [(e.time, e.kind, e.fields) for e in t]
    want = [(time, kind, dict(fields)) for time, kind, fields in program]
    assert got == want
    # the events property exposes the same views
    assert [(e.time, e.kind, e.fields) for e in t.events] == want


@settings(max_examples=60, deadline=None)
@given(program=events)
def test_of_kind_equals_filtered_scan(program):
    t = _replay(program)
    for kind in {k for _, k, _ in program} | {"never"}:
        by_index = t.of_kind(kind)
        by_scan = [e for e in t if e.kind == kind]
        assert by_index == by_scan
        assert t.count(kind) == len(by_scan)
    assert t.kinds() == {k for _, k, _ in program}


@settings(max_examples=60, deadline=None)
@given(program=events)
def test_incremental_digest_equals_walker(program):
    t = _replay(program)
    assert t.digest_hex() == trace_digest_walk(t)


@settings(max_examples=40, deadline=None)
@given(program=events)
def test_retention_changes_visibility_not_accounting(program):
    full = _replay(program, "full")
    compact = _replay(program, "compact")
    assert compact.digest_hex() == full.digest_hex()
    assert len(compact) == len(full)
    assert compact.kinds() == full.kinds()
    for kind in full.kinds():
        assert compact.count(kind) == full.count(kind)
    for kind in full.kinds() & COMPACT_KINDS:
        assert compact.of_kind(kind) == full.of_kind(kind)


@settings(max_examples=30, deadline=None)
@given(program=events, cut=st.integers(0, 40))
def test_digest_prefix_property(program, cut):
    """Finalizing mid-stream then continuing equals one straight run —
    hashlib state must never be corrupted by a digest_hex() call."""
    t = Trace("compact")
    for i, (time, kind, fields) in enumerate(program):
        if i == cut:
            t.digest_hex()
        t.record(time, kind, **fields)
    assert t.digest_hex() == _replay(program).digest_hex()


@settings(max_examples=30, deadline=None)
@given(program=events)
def test_pickle_roundtrip_preserves_digest(program):
    import pickle

    t = _replay(program)
    clone = pickle.loads(pickle.dumps(t))
    assert clone.digest_hex() == t.digest_hex()
    assert [(e.time, e.kind, e.fields) for e in clone] == [
        (e.time, e.kind, e.fields) for e in t
    ]


@settings(max_examples=30, deadline=None)
@given(
    program=events,
    extra=st.floats(0, 10, allow_nan=False, allow_infinity=False),
)
def test_identity_time_cache_matches_fresh_floats(program, extra):
    """Recording the same float object repeatedly (the sim emits bursts
    sharing one ``sim.now``) must digest identically to fresh equal
    floats."""
    shared = extra  # one object, recorded three times
    a = _replay(program)
    b = _replay(program)
    for k in ("msg", "eval", "loss"):
        a.record(shared, k, i=1)
        b.record(float(str(shared)) if math.isfinite(shared) else shared, k, i=1)
    assert a.digest_hex() == b.digest_hex()
