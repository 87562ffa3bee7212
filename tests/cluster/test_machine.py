"""Unit tests for nodes, network, faults and the assembled cluster."""

import numpy as np
import pytest

from repro.cluster import (
    FaultPlan,
    Network,
    Node,
    SimulatedCluster,
    Timeout,
    lan_ethernet,
    sample_fault_plan,
    wan_internet,
)
from repro.topology import RingTopology


class TestNode:
    def test_compute_time_scales_with_speed(self):
        assert Node(0, speed=2.0).compute_time(10.0) == 5.0
        assert Node(0, speed=0.5).compute_time(10.0) == 20.0

    def test_invalid_speed(self):
        with pytest.raises(ValueError):
            Node(0, speed=0.0)

    def test_negative_work(self):
        with pytest.raises(ValueError):
            Node(0).compute_time(-1.0)

    def test_up_down_intervals(self):
        n = Node(0, down_intervals=[(5.0, 10.0)])
        assert n.is_up(4.9)
        assert not n.is_up(5.0)
        assert not n.is_up(9.9)
        assert n.is_up(10.0)

    def test_fails_during_overlap(self):
        n = Node(0, down_intervals=[(5.0, 10.0)])
        assert n.fails_during(8.0, 12.0)
        assert n.fails_during(0.0, 6.0)
        assert not n.fails_during(0.0, 5.0)
        assert not n.fails_during(10.0, 20.0)

    def test_permanent_crash(self):
        n = Node(0, down_intervals=[(3.0, float("inf"))])
        assert not n.is_up(1e12)
        assert n.next_up_time(4.0) == float("inf")

    def test_next_up_time_passthrough_when_up(self):
        assert Node(0).next_up_time(7.0) == 7.0

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            Node(0, down_intervals=[(5.0, 3.0)])


class TestNetwork:
    def test_single_switch_default(self):
        net = Network(4, latency=1e-3)
        assert net.hops(0, 3) == 1
        assert net.transit_time(0, 3, 0.0) == pytest.approx(1e-3)

    def test_self_send_free(self):
        assert Network(4).transit_time(2, 2, 1e9) == 0.0

    def test_bandwidth_term(self):
        net = Network(2, latency=0.0, bandwidth=100.0)
        assert net.transit_time(0, 1, 50.0) == pytest.approx(0.5)

    def test_hop_topology_multiplies_latency(self):
        net = Network(4, latency=1e-3, physical=RingTopology(4))
        assert net.hops(0, 2) == 2
        assert net.transit_time(0, 2, 0.0) == pytest.approx(2e-3)

    def test_physical_edges_treated_bidirectional(self):
        net = Network(4, physical=RingTopology(4))
        assert net.hops(0, 3) == 1  # reverse of the directed ring edge

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Network(5, physical=RingTopology(4))

    def test_presets_ordering(self):
        # Ethernet faster than WAN, as surveyed
        assert lan_ethernet().latency < wan_internet().latency
        assert lan_ethernet().bandwidth > wan_internet().bandwidth

    def test_preset_build(self):
        net = lan_ethernet().build(4)
        assert isinstance(net, Network) and net.n == 4


class TestFaultPlan:
    def test_no_mtbf_no_failures(self):
        plan = sample_fault_plan(4, horizon=100.0, mtbf=None)
        assert not plan.any_failures()

    def test_node_zero_spared_by_default(self):
        plan = sample_fault_plan(6, horizon=1000.0, mtbf=5.0, repair_time=1.0, seed=1)
        assert plan.for_node(0) == []
        assert plan.any_failures()

    def test_repairable_intervals_bounded(self):
        plan = sample_fault_plan(3, horizon=100.0, mtbf=10.0, repair_time=5.0, seed=2)
        for node in range(3):
            for a, b in plan.for_node(node):
                assert b - a == pytest.approx(5.0)

    def test_permanent_crash_single_interval(self):
        plan = sample_fault_plan(3, horizon=1000.0, mtbf=10.0, repair_time=None, seed=3)
        for node in range(1, 3):
            spans = plan.for_node(node)
            assert len(spans) <= 1
            if spans:
                assert spans[0][1] == float("inf")

    def test_total_downtime(self):
        plan = FaultPlan(intervals=(((10.0, 20.0),),))
        assert plan.total_downtime(0, horizon=15.0) == 5.0
        assert plan.total_downtime(0, horizon=100.0) == 10.0

    def test_deterministic_by_seed(self):
        p1 = sample_fault_plan(3, horizon=50.0, mtbf=5.0, repair_time=2.0, seed=9)
        p2 = sample_fault_plan(3, horizon=50.0, mtbf=5.0, repair_time=2.0, seed=9)
        assert p1 == p2


class TestSimulatedCluster:
    def test_heterogeneous_speeds(self):
        cl = SimulatedCluster(3, speeds=[1.0, 2.0, 4.0])
        assert cl.compute_time(0, 8.0) == 8.0
        assert cl.compute_time(2, 8.0) == 2.0

    def test_scalar_speed_broadcast(self):
        cl = SimulatedCluster(3, speeds=2.0)
        assert all(cl.node(i).speed == 2.0 for i in range(3))

    def test_send_delivers_after_transit(self):
        cl = SimulatedCluster(2, network=Network(2, latency=0.5))
        box = cl.inbox("dst")
        arrived = []

        def receiver():
            item = yield box
            arrived.append((cl.sim.now, item))

        def sender():
            cl.send(0, 1, box, "payload")
            yield Timeout(0)

        cl.sim.process(receiver())
        cl.sim.process(sender())
        cl.run()
        assert arrived == [(0.5, "payload")]

    def test_trace_records_sends(self):
        cl = SimulatedCluster(2)
        box = cl.inbox("x")

        def sender():
            cl.send(0, 1, box, "p", kind="migration")
            yield Timeout(0)

        cl.sim.process(sender())
        cl.run()
        assert cl.trace.count("migration") == 1
        event = cl.trace.of_kind("migration")[0]
        assert event["src"] == 0 and event["dst"] == 1

    def test_fault_plan_wired_into_nodes(self):
        plan = FaultPlan(intervals=((), ((1.0, 2.0),)))
        cl = SimulatedCluster(2, fault_plan=plan)
        assert cl.node(1).fails_during(0.5, 1.5)
        assert not cl.node(0).fails_during(0.0, 10.0)

    def test_mismatched_fault_plan_rejected(self):
        plan = FaultPlan(intervals=((),))
        with pytest.raises(ValueError):
            SimulatedCluster(2, fault_plan=plan)

    def test_mismatched_network_rejected(self):
        with pytest.raises(ValueError):
            SimulatedCluster(3, network=Network(2))
