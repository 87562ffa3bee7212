"""Tests for canonical trace digests and result fingerprints."""

import numpy as np

from repro.cluster.machine import SimulatedCluster
from repro.cluster.sim import Timeout
from repro.core.individual import Individual
from repro.verify.digest import audit_determinism, result_fingerprint, trace_digest
from repro.spec import ClusterSpec, EngineSpec, RunSpec
from repro.verify.specs import check_spec, exemplar_spec


def _tiny_trace_run():
    """One tiny timed run on a fresh cluster; returns (trace, result)."""
    cluster = SimulatedCluster(2)
    inbox = cluster.inbox("sink")

    def sender():
        yield Timeout(0.5)
        cluster.send(0, 1, inbox, "hello", kind="msg")
        cluster.record("generation", deme=0, generation=1, best=1.0)

    def receiver():
        item = yield inbox
        cluster.record("got", payload=item)

    cluster.sim.process(sender())
    cluster.sim.process(receiver())
    cluster.run()
    return cluster.trace, cluster.sim.now


class TestTraceDigest:
    def test_same_events_same_digest(self):
        a, _ = _tiny_trace_run()
        b, _ = _tiny_trace_run()
        assert trace_digest(a) == trace_digest(b)

    def test_different_events_different_digest(self):
        a, _ = _tiny_trace_run()
        b, _ = _tiny_trace_run()
        b.record(9.0, "extra")
        assert trace_digest(a) != trace_digest(b)

    def test_digest_independent_of_prior_simulations(self):
        """Back-to-back fresh runs digest identically.

        Regression for the process-global pid counter: pids used to be
        allocated module-wide, so any state leaking into traces would make
        the digest depend on how many simulations ran earlier.
        """
        first, _ = _tiny_trace_run()
        for _ in range(3):  # burn through pids/sims in between
            _tiny_trace_run()
        later, _ = _tiny_trace_run()
        assert trace_digest(first) == trace_digest(later)

    def test_audit_determinism_helper(self):
        result = audit_determinism(_tiny_trace_run, runs=3)
        assert result.deterministic
        assert len(set(result.digests)) == 1
        assert "deterministic" in result.describe()


class TestResultFingerprint:
    def test_uid_excluded_from_individuals(self):
        genome = np.array([1, 0, 1])
        a = Individual(genome=genome.copy(), fitness=2.0)
        b = Individual(genome=genome.copy(), fitness=2.0)
        assert a.uid != b.uid  # uids are process-global and differ...
        assert result_fingerprint(a) == result_fingerprint(b)  # ...fingerprints not

    def test_value_sensitivity(self):
        a = Individual(genome=np.array([1, 0, 1]), fitness=2.0)
        b = Individual(genome=np.array([1, 1, 1]), fitness=2.0)
        assert result_fingerprint(a) != result_fingerprint(b)

    def test_nested_structures_and_cycles(self):
        payload = {"xs": [1, 2.5, None, True], "name": "run"}
        payload["self"] = payload  # cycle must not recurse forever
        assert result_fingerprint(payload) == result_fingerprint(payload)

    def test_dict_order_irrelevant(self):
        assert result_fingerprint({"a": 1, "b": 2}) == result_fingerprint({"b": 2, "a": 1})


class TestScenarioDeterminism:
    def test_same_spec_same_digest_across_fresh_runs(self):
        base = exemplar_spec("sim-island", seed=3)
        params = dict(base.engine.params)
        params["cluster"] = ClusterSpec(3, tiebreak_jitter=5)
        spec = RunSpec(EngineSpec("sim-island", params), seed=3)
        a, b = check_spec(spec, runs=1), check_spec(spec, runs=1)
        assert a.trace_digest == b.trace_digest
        assert a.ok and b.ok
