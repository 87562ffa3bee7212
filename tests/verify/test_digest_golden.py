"""Golden pins for the canonical digest byte format.

The hex digests and canonical-line bytes below are *frozen*: every
published experiment fingerprint depends on them.  If a change here is
intentional, every pinned digest in the repo (and downstream caches)
must be regenerated together — there is no compatible single-byte edit.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.cluster.canon import norm
from repro.cluster.trace import Trace
from repro.core.individual import Individual
from repro.verify.digest import result_fingerprint, trace_digest, trace_digest_walk

#: sha256 of the canonical lines of `_golden_trace()` — pinned forever
GOLDEN_DIGEST = "0e901fa4551333b8908e7306231eefb4b4d0907e2d94d93f58579ed9ddea3766"


def _golden_trace(mode: str = "full") -> Trace:
    t = Trace(mode)
    t.record(0.0, "boot")
    t.record(0.5, "msg", src=0, dst=1, payload=[1, 2, 3])
    t.record(1.0, "gen", best=-0.0, mean=1.5, note="a|b\nc")
    t.record(1.0, "gen", best=float("inf"), mean=float("nan"), note="x")
    t.record(2.5, "stats", arr=np.array([1.0, 2.5]), flag=True, n=10**20)
    return t


def _assert_line(time, kind, fields, line: str) -> None:
    """A one-event trace's digest is the sha256 of exactly ``line``, and
    the post-hoc walker agrees: ``Trace.record`` produced those bytes."""
    t = Trace()
    t.record(time, kind, **fields)
    expected = hashlib.sha256(line.encode()).hexdigest()
    assert t.digest_hex() == expected
    assert trace_digest_walk(t) == expected


class TestCanonicalLineGolden:
    """Exact line bytes, including the adversarial cases: negative zero,
    field values containing the ``|`` separator and newlines, ndarray
    leaves, bools, and ints beyond 64 bits."""

    def test_fields_sorted_by_name(self):
        _assert_line(
            0.5, "msg", {"src": 0, "dst": 1, "payload": [1, 2, 3]},
            "0.5|msg|dst=1,payload=[1,2,3],src=0\n",
        )

    def test_negative_zero_and_embedded_separators(self):
        _assert_line(
            1.0, "gen", {"best": -0.0, "mean": 1.5, "note": "a|b\nc"},
            "1.0|gen|best=-0.0,mean=1.5,note='a|b\\nc'\n",
        )

    def test_ndarray_bool_bigint(self):
        _assert_line(
            2.5, "stats", {"arr": np.array([1.0, 2.5]), "flag": True, "n": 10**20},
            "2.5|stats|arr=[1.0,2.5],flag=True,n=100000000000000000000\n",
        )

    def test_no_fields(self):
        _assert_line(0.0, "boot", {}, "0.0|boot|\n")

    def test_matches_norm_walker_per_field(self):
        fields = {"z": float("nan"), "a": [1, {"k": (2, 3)}], "m": None}
        expected = (
            f"{norm(7.25)}|k|"
            + ",".join(f"{k}={norm(v)}" for k, v in sorted(fields.items()))
            + "\n"
        )
        _assert_line(7.25, "k", fields, expected)


class TestGoldenDigest:
    def test_pinned_digest(self):
        assert _golden_trace().digest_hex() == GOLDEN_DIGEST

    def test_incremental_equals_walker(self):
        t = _golden_trace()
        assert trace_digest(t) == trace_digest_walk(t) == GOLDEN_DIGEST

    def test_compact_retention_same_digest(self):
        assert _golden_trace("compact").digest_hex() == GOLDEN_DIGEST

    def test_digest_stable_across_interleaved_queries(self):
        t = Trace()
        t.record(0.0, "boot")
        assert t.digest_hex()  # mid-stream finalize must not corrupt state
        t.record(0.5, "msg", src=0, dst=1, payload=[1, 2, 3])
        t.record(1.0, "gen", best=-0.0, mean=1.5, note="a|b\nc")
        t.record(1.0, "gen", best=float("inf"), mean=float("nan"), note="x")
        t.record(2.5, "stats", arr=np.array([1.0, 2.5]), flag=True, n=10**20)
        assert t.digest_hex() == GOLDEN_DIGEST


class TestMemoizedFingerprint:
    def _report(self):
        genome = np.arange(6, dtype=float)
        elite = Individual(genome=genome, fitness=1.25)
        # the same Individual and ndarray objects referenced repeatedly,
        # as hall-of-fame / per-deme-best structures do in real reports
        return {
            "elite": elite,
            "per_deme_best": [elite] * 8,
            "genomes": [genome] * 8,
            "history": [{"best": elite, "gen": g} for g in range(5)],
        }

    def test_memoized_matches_unmemoized_walk(self):
        report = self._report()
        unmemoized = hashlib.sha256(norm(report).encode()).hexdigest()
        assert result_fingerprint(report) == unmemoized

    def test_uid_still_excluded(self):
        g = np.ones(3)
        a = {"best": Individual(genome=g, fitness=0.5)}
        b = {"best": Individual(genome=g.copy(), fitness=0.5)}
        assert result_fingerprint(a) == result_fingerprint(b)

    def test_distinct_equal_objects_fingerprint_alike(self):
        # memo keys on id(): equal-but-distinct leaves must not diverge
        shared = np.array([1.0, 2.0])
        copies = {"a": np.array([1.0, 2.0]), "b": np.array([1.0, 2.0])}
        assert result_fingerprint({"a": shared, "b": shared}) == result_fingerprint(copies)

    def test_depth_capped_leaf_consistent(self):
        # the same object at different depths canonicalises differently
        # near the cap; the (id, depth) memo key must respect that
        arr = np.array([[1.0]])
        nested: object = arr
        for _ in range(11):
            nested = [nested]
        report = {"shallow": arr, "deep": nested}
        assert (
            result_fingerprint(report)
            == hashlib.sha256(norm(report).encode()).hexdigest()
        )
