"""Mutation test: a deliberately injected lost-migrant bug must be caught.

This is the subsystem's acceptance check.  We patch
:meth:`SimulatedCluster._deliver` so migration messages silently vanish —
no inbox delivery, no ``migration-recv``, no ``migration-drop`` — which is
exactly the failure mode of a buggy transport that loses messages without
telling anyone.  The verification stack must:

1. catch it via the ``message-conservation`` invariant,
2. reproduce the failure from the run-spec document alone,
3. shrink the fault plan away (the bug needs no faults to manifest).

The safety net is only as good as its ability to catch a real planted
bug; if this test ever starts passing *without* the patch doing anything,
the invariant has rotted.
"""

from functools import partial
from unittest import mock

from repro.cluster.faults import FaultPlan
from repro.cluster.machine import SimulatedCluster
from repro.spec import RunSpec, cluster, engine, ga_config, operator, problem
from repro.verify.shrink import fault_plan, shrink_spec
from repro.verify.specs import check_spec

SPEC = RunSpec(
    engine=engine(
        "sim-island",
        problem=problem("onemax", length=24),
        n_islands=4,
        config=ga_config(population_size=16, elitism=1),
        cluster=cluster(
            4,
            latency=1e-3,
            bandwidth=1e6,
            fault_plan=FaultPlan(
                intervals=((), ((0.05, float("inf")),), (), ((0.1, 0.2),))
            ),
        ),
        eval_cost=2e-3,
        max_epochs=5,
        policy=operator("migration-policy", rate=1, replacement="worst-if-better"),
    ),
    seed=42,
)

execute_once = partial(check_spec, runs=1)


def _lossy_deliver():
    """Patch context: migrations vanish silently; other kinds untouched."""
    original = SimulatedCluster._deliver

    def deliver(self, mid, src, dst, inbox, payload, kind):
        if kind == "migration":
            return  # the injected bug: message lost without a trace record
        original(self, mid, src, dst, inbox, payload, kind)

    return mock.patch.object(SimulatedCluster, "_deliver", deliver)


class TestLostMigrantMutation:
    def test_unpatched_run_is_clean(self):
        outcome = execute_once(SPEC)
        assert outcome.ok, outcome.describe()

    def test_invariant_catches_the_injected_bug(self):
        with _lossy_deliver():
            outcome = execute_once(SPEC)
        assert not outcome.ok
        assert outcome.signature == "invariant:message-conservation"
        assert any("no receive, drop or loss receipt" in str(v) for v in outcome.violations)

    def test_replay_line_reproduces_the_failure(self):
        doc = SPEC.to_json()
        with _lossy_deliver():
            replayed = execute_once(RunSpec.from_json(doc))
        assert replayed.signature == "invariant:message-conservation"

    def test_shrinker_strips_irrelevant_faults(self):
        # the bug is in the transport, not the fault plan: shrinking under
        # the patch must remove every downtime interval
        with _lossy_deliver():
            result = shrink_spec(SPEC, run=execute_once)
        assert fault_plan(result.spec).intervals == ((), (), (), ())
        assert result.removed == 2
        assert result.outcome.signature == "invariant:message-conservation"
