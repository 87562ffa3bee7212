"""Integration test: a pinned run-spec document reproduces a pinned digest.

The document below was produced by the fuzzer once and frozen; it
exercises every moving part at once — a master-slave farm with a
permanent slave crash, a latency spike and schedule tie-break jitter.
Replaying it must be clean (all invariants and the sequential-equality
property hold) and must regenerate the exact canonical trace digest.

If the digest assertion fails, the simulation's behaviour changed: either
intentionally (re-pin after reviewing the trace diff) or a determinism
regression slipped in (fix it).
"""

from repro.spec import RunSpec
from repro.verify.specs import check_spec

PINNED_DOC = (
    '{"engine":{"$spec":"engine","name":"sim-master-slave","params":{'
    '"cluster":{"$spec":"cluster","bandwidth":1000000.0,"fault_plan":{'
    '"$spec":"fault-plan","dup_rate":0.0,"intervals":[[],[],[[0.05,Infinity]],[]],'
    '"latency_spikes":[[0.02,0.08,5.0]],"link_faults":[],"link_seed":0,'
    '"loss_rate":0.0,"partitions":[]},"latency":0.001,"n_nodes":4,"speeds":1.0,'
    '"tiebreak_jitter":11},'
    '"config":{"$spec":"config","params":{"elitism":1,"population_size":16}},'
    '"eval_cost":0.002,"fault_tolerant":true,'
    '"problem":{"$spec":"problem","name":"onemax","params":{"length":20}}}},'
    '"run":{"termination":4},"schema":"repro-runspec/v1","seed":7}'
)
PINNED_DIGEST = "293b258dd42ada54e565afc53a0129a3560158ce3c1bca6092e282c3ca8ec4df"


class TestPinnedReplay:
    def test_pinned_spec_replays_clean_with_known_digest(self):
        spec = RunSpec.from_json(PINNED_DOC)
        outcome = check_spec(spec)  # two runs must agree
        assert outcome.ok, outcome.describe()
        assert outcome.trace_digest == PINNED_DIGEST

    def test_pinned_line_round_trips(self):
        spec = RunSpec.from_json(PINNED_DOC)
        assert spec.to_json() == PINNED_DOC
        assert RunSpec.from_json(spec.to_json()) == spec
