"""Integration test: a pinned run-spec document reproduces a pinned digest.

The document below was produced by the fuzzer once and frozen; it
exercises every moving part at once — a master-slave farm with a
permanent slave crash, a latency spike and schedule tie-break jitter.
Replaying it must be clean (all invariants and the sequential-equality
property hold) and must regenerate the exact canonical trace digest.

If the digest assertion fails, the simulation's behaviour changed: either
intentionally (re-pin after reviewing the trace diff) or a determinism
regression slipped in (fix it).

The two farm documents pin the master's dispatch order on a 64-slave,
two-chunks-per-slave farm: slave 1 is down at the first dispatches and
repairs mid-generation (it must be skipped but stay idle, then be picked
up first once it is back), slave 2 takes the first chunk and crashes
with it, and a latency spike stretches the first round.  One document
re-dispatches the lost chunk, the other abandons it.
"""

import pytest

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


def _farm_doc(fault_tolerant: bool) -> str:
    always_up = ",".join(["[]"] * 62)  # slaves 3..64
    return (
        '{"engine":{"$spec":"engine","name":"sim-master-slave","params":{'
        '"chunks_per_worker":2,'
        '"cluster":{"$spec":"cluster","bandwidth":1000000.0,"fault_plan":{'
        '"$spec":"fault-plan","dup_rate":0.0,"intervals":[[],[[0.0,0.015]],'
        '[[0.003,Infinity]],' + always_up + '],'
        '"latency_spikes":[[0.0,0.02,4.0]],"link_faults":[],"link_seed":0,'
        '"loss_rate":0.0,"partitions":[]},"latency":0.001,"n_nodes":65,"speeds":1.0,'
        '"tiebreak_jitter":null},'
        '"config":{"$spec":"config","params":{"elitism":1,"population_size":160}},'
        '"eval_cost":0.002,"fault_tolerant":' + ("true" if fault_tolerant else "false")
        + ',"problem":{"$spec":"problem","name":"onemax","params":{"length":32}}}},'
        '"run":{"termination":3},"schema":"repro-runspec/v1","seed":5}'
    )


PINNED_FARM_DIGESTS = {
    True: "70a7d7469555319b788f06a0ea8e7f757023cd1ddc53722e2161e7fddcbcf5e7",
    False: "959b91d59a4b7d238872f2c93d5e28ae31d351c2399eea2fff98b7e0548ef404",
}


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


@pytest.mark.parametrize("fault_tolerant", [True, False])
class TestPinnedFarmDispatch:
    def test_farm_replays_clean_with_known_digest(self, fault_tolerant):
        spec = RunSpec.from_json(_farm_doc(fault_tolerant))
        assert spec.to_json() == _farm_doc(fault_tolerant)
        outcome = check_spec(spec)
        assert outcome.ok, outcome.describe()
        assert outcome.trace_digest == PINNED_FARM_DIGESTS[fault_tolerant]
