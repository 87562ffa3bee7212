"""Unit tests for the trace-invariant rule engine (synthetic traces)."""

import pytest

from repro.cluster.trace import Trace
from repro.verify.invariants import (
    CheckContext,
    check_trace,
    default_rules,
)


def _rules_hit(violations):
    return {v.rule for v in violations}


class TestTimeMonotone:
    def test_ordered_trace_passes(self):
        trace = Trace()
        for t in (0.0, 0.5, 0.5, 1.0):
            trace.record(t, "tick")
        assert check_trace(trace) == []

    def test_regressing_time_flagged(self):
        trace = Trace()
        trace.record(1.0, "tick")
        trace.record(0.5, "tick")
        violations = check_trace(trace)
        assert _rules_hit(violations) == {"time-monotone"}
        assert violations[0].index == 1

    def test_nan_time_flagged(self):
        trace = Trace()
        trace.record(float("nan"), "tick")
        assert _rules_hit(check_trace(trace)) == {"time-monotone"}


class TestNoDispatchToDeadNode:
    def test_dispatch_to_live_node_passes(self):
        ctx = CheckContext(down_intervals=((), ((2.0, 3.0),)))
        trace = Trace()
        trace.record(1.0, "dispatch", chunk=0, node=1)
        trace.record(3.0, "dispatch", chunk=1, node=1)  # after repair
        assert check_trace(trace, ctx) == []

    def test_dispatch_during_downtime_flagged(self):
        ctx = CheckContext(down_intervals=((), ((2.0, 3.0),)))
        trace = Trace()
        trace.record(2.5, "dispatch", chunk=0, node=1)
        violations = check_trace(trace, ctx)
        assert _rules_hit(violations) == {"no-dispatch-to-dead-node"}

    def test_unknown_node_not_flagged(self):
        # context may cover fewer nodes than the trace mentions
        ctx = CheckContext(down_intervals=())
        trace = Trace()
        trace.record(1.0, "dispatch", chunk=0, node=5)
        assert check_trace(trace, ctx) == []


class TestMessageConservation:
    def test_send_recv_pair_passes(self):
        trace = Trace()
        trace.record(0.0, "migration", mid=0, src=0, dst=1)
        trace.record(0.1, "migration-recv", mid=0, src=0, dst=1)
        assert check_trace(trace) == []

    def test_send_drop_pair_passes(self):
        trace = Trace()
        trace.record(0.0, "migration", mid=0, src=0, dst=1)
        trace.record(0.1, "migration-drop", mid=0, src=0, dst=1)
        assert check_trace(trace) == []

    def test_lost_send_flagged_at_end(self):
        trace = Trace()
        trace.record(0.0, "migration", mid=0, src=0, dst=1)
        violations = check_trace(trace)
        assert _rules_hit(violations) == {"message-conservation"}
        assert violations[0].index == 0  # points at the orphaned send

    def test_receipt_without_send_flagged(self):
        trace = Trace()
        trace.record(0.1, "migration-recv", mid=7, src=0, dst=1)
        assert _rules_hit(check_trace(trace)) == {"message-conservation"}

    def test_duplicate_mid_flagged(self):
        trace = Trace()
        trace.record(0.0, "migration", mid=0, src=0, dst=1)
        trace.record(0.1, "migration", mid=0, src=1, dst=2)
        assert _rules_hit(check_trace(trace)) == {"message-conservation"}

    def test_unconserved_kinds_ignored(self):
        trace = Trace()
        trace.record(0.0, "msg", mid=0, src=0, dst=1)  # plain msg: no receipt needed
        assert check_trace(trace) == []

    def test_lost_receipt_closes_send(self):
        trace = Trace()
        trace.record(0.0, "migration", mid=0, src=0, dst=1)
        trace.record(0.1, "migration-lost", mid=0, src=0, dst=1, reason="loss")
        assert check_trace(trace) == []

    def test_dup_receipt_does_not_close_send(self):
        # the duplicate copy is extra: the original still needs its receipt
        trace = Trace()
        trace.record(0.0, "migration", mid=0, src=0, dst=1)
        trace.record(0.1, "migration-dup", mid=0, src=0, dst=1, delivered=True)
        assert _rules_hit(check_trace(trace)) == {"message-conservation"}
        trace.record(0.2, "migration-recv", mid=0, src=0, dst=1)
        assert check_trace(trace) == []

    def test_dup_of_unsent_mid_flagged(self):
        trace = Trace()
        trace.record(0.1, "migration-dup", mid=9, src=0, dst=1, delivered=False)
        assert _rules_hit(check_trace(trace)) == {"message-conservation"}


class TestNoSendWhileDead:
    RULES = ("no-send-while-dead",)

    def test_send_while_dead_receipt_flagged(self):
        trace = Trace()
        trace.record(1.0, "migration-send-while-dead", src=2, dst=0)
        violations = check_trace(trace, rule_names=self.RULES)
        assert _rules_hit(violations) == {"no-send-while-dead"}

    def test_conserved_send_from_down_node_flagged(self):
        ctx = CheckContext(down_intervals=((), ((0.5, 2.0),)))
        trace = Trace()
        trace.record(1.0, "migration", mid=0, src=1, dst=0)
        violations = check_trace(trace, ctx, self.RULES)
        assert _rules_hit(violations) == {"no-send-while-dead"}

    def test_send_from_live_node_passes(self):
        ctx = CheckContext(down_intervals=((), ((0.5, 2.0),)))
        trace = Trace()
        trace.record(3.0, "migration", mid=0, src=1, dst=0)  # after repair
        assert check_trace(trace, ctx, self.RULES) == []


class TestExactlyOnceApplication:
    RULES = ("exactly-once-application",)

    def test_distinct_parcels_pass(self):
        trace = Trace()
        trace.record(0.0, "migrant-apply", src=0, dst=1, seq=0, count=1)
        trace.record(0.1, "migrant-apply", src=0, dst=1, seq=1, count=1)
        trace.record(0.2, "migrant-apply", src=1, dst=0, seq=0, count=1)
        assert check_trace(trace, rule_names=self.RULES) == []

    def test_double_application_flagged(self):
        trace = Trace()
        trace.record(0.0, "migrant-apply", src=0, dst=1, seq=5, count=1)
        trace.record(0.1, "migrant-apply", src=0, dst=1, seq=5, count=1)
        violations = check_trace(trace, rule_names=self.RULES)
        assert _rules_hit(violations) == {"exactly-once-application"}

    def test_unsequenced_applications_out_of_scope(self):
        # fire-and-forget migration records no seq: never flagged
        trace = Trace()
        trace.record(0.0, "migrant-apply", src=0, dst=1, seq=None, count=1)
        trace.record(0.1, "migrant-apply", src=0, dst=1, seq=None, count=1)
        assert check_trace(trace, rule_names=self.RULES) == []


class TestGenerationMonotone:
    def test_per_deme_counters_independent(self):
        trace = Trace()
        trace.record(0.0, "generation", deme=0, generation=3)
        trace.record(0.1, "generation", deme=1, generation=1)
        trace.record(0.2, "generation", deme=0, generation=3)
        trace.record(0.3, "generation", deme=1, generation=2)
        assert check_trace(trace) == []

    def test_regression_flagged(self):
        trace = Trace()
        trace.record(0.0, "generation", deme=0, generation=2)
        trace.record(0.1, "generation", deme=0, generation=1)
        assert _rules_hit(check_trace(trace)) == {"generation-monotone"}

    def test_new_incarnation_may_rewind(self):
        # a supervisor-recovered deme resumes from its checkpointed (older)
        # generation under a bumped incarnation: legitimate, not a regression
        trace = Trace()
        trace.record(0.0, "generation", deme=0, generation=7, incarnation=0)
        trace.record(0.1, "generation", deme=0, generation=4, incarnation=1)
        trace.record(0.2, "generation", deme=0, generation=5, incarnation=1)
        assert check_trace(trace) == []

    def test_regression_within_incarnation_still_flagged(self):
        trace = Trace()
        trace.record(0.0, "generation", deme=0, generation=4, incarnation=1)
        trace.record(0.1, "generation", deme=0, generation=3, incarnation=1)
        assert _rules_hit(check_trace(trace)) == {"generation-monotone"}


class TestBestMonotone:
    RULES = ("best-monotone",)

    def test_improving_best_passes(self):
        trace = Trace()
        trace.record(0.0, "generation", deme=0, generation=0, best=1.0)
        trace.record(0.1, "generation", deme=0, generation=1, best=3.0)
        assert check_trace(trace, rule_names=self.RULES) == []

    def test_worsening_best_flagged(self):
        trace = Trace()
        trace.record(0.0, "generation", deme=0, generation=0, best=3.0)
        trace.record(0.1, "generation", deme=0, generation=1, best=1.0)
        violations = check_trace(trace, rule_names=self.RULES)
        assert _rules_hit(violations) == {"best-monotone"}

    def test_minimisation_direction(self):
        ctx = CheckContext(maximize=False)
        trace = Trace()
        trace.record(0.0, "generation", deme=0, generation=0, best=3.0)
        trace.record(0.1, "generation", deme=0, generation=1, best=1.0)
        assert check_trace(trace, ctx, self.RULES) == []
        trace.record(0.2, "generation", deme=0, generation=2, best=2.0)
        assert _rules_hit(check_trace(trace, ctx, self.RULES)) == {"best-monotone"}

    def test_missing_best_skipped(self):
        trace = Trace()
        trace.record(0.0, "generation", deme=0, generation=0, best=None)
        trace.record(0.1, "generation", deme=0, generation=1, best=2.0)
        assert check_trace(trace, rule_names=self.RULES) == []


class TestChecker:
    def test_unknown_rule_name_rejected(self):
        with pytest.raises(KeyError):
            default_rules(["not-a-rule"])
