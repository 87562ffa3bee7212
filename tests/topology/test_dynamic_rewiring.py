"""Migration rewiring under supervisor-driven deme abandonment.

The supervisor maintains a route overlay
(:meth:`~repro.runtime.deme.TimedDemeRuntime._rebuild_routes`) that
splices migration around abandoned demes.  These tests pin down that
overlay's semantics on its own and the end-to-end behaviour: an
abandoned deme stops receiving migrants, and a rejoined deme gets its
routes back.
"""

import math

import pytest

from repro.cluster import Network, SimulatedCluster
from repro.cluster.faults import FaultPlan
from repro.core import GAConfig
from repro.migration import MigrationPolicy
from repro.parallel import SimulatedIslandModel
from repro.problems import OneMax
from repro.topology import CompleteTopology


def _cluster(n_nodes, plan=None):
    return SimulatedCluster(
        n_nodes, network=Network(n_nodes, latency=1e-3, bandwidth=1e6), fault_plan=plan
    )


def _model(cluster, n_islands=5, *, topology=None, **kwargs):
    kwargs.setdefault("stop_when_any_solves", False)
    return SimulatedIslandModel(
        OneMax(64),
        n_islands,
        GAConfig(population_size=10, elitism=1),
        cluster=cluster,
        eval_cost=1e-3,
        migration_payload=16.0,
        max_epochs=10,
        policy=MigrationPolicy(rate=1, replacement="worst-if-better"),
        topology=topology,
        seed=11,
        **kwargs,
    )


class TestRouteOverlaySemantics:
    """Direct unit tests of the transitive splice on a 5-ring."""

    def _routes(self, abandoned, topology=None):
        model = _model(_cluster(5), topology=topology)
        model._rebuild_routes(set(abandoned))
        return model._routes

    def test_no_abandonment_keeps_base_edges(self):
        routes = self._routes(set())
        assert routes == [[1], [2], [3], [4], [0]]

    def test_single_abandoned_deme_is_spliced_around(self):
        routes = self._routes({2})
        assert routes[1] == [3]  # 1 -> (2) -> 3
        assert routes[2] == []  # the dead deme sends nowhere
        assert routes[0] == [1]  # untouched edges stay

    def test_consecutive_abandonments_splice_transitively(self):
        routes = self._routes({2, 3})
        assert routes[1] == [4]  # 1 -> (2) -> (3) -> 4
        assert routes[2] == [] and routes[3] == []

    def test_ring_contracts_to_surviving_pair(self):
        routes = self._routes({1, 2, 3})
        assert routes[0] == [4]
        assert routes[4] == [0]

    def test_sole_survivor_routes_to_nobody(self):
        routes = self._routes({0, 1, 2, 4})
        assert routes[3] == []  # never routes to itself

    def test_complete_topology_just_drops_the_dead(self):
        routes = self._routes({2}, topology=CompleteTopology(5))
        for i in (0, 1, 3, 4):
            assert sorted(routes[i]) == sorted(j for j in range(5) if j not in (i, 2))

    def test_rejoin_restores_base_routes(self):
        model = _model(_cluster(5))
        model._rebuild_routes({2})
        assert model._routes[1] == [3]
        # the supervisor's heartbeat-rejoin path rebuilds with the deme back
        model._rebuild_routes(set())
        assert model._routes[1] == [2]


class TestSupervisedAbandonmentEndToEnd:
    def _run_with_early_crash(self, topology=None, n_islands=5):
        # deme 1's node dies before it can ship a checkpoint -> abandoned
        intervals = tuple(
            ((0.005, math.inf),) if i == 1 else () for i in range(n_islands + 1)
        )
        cluster = _cluster(n_islands + 1, FaultPlan(intervals=intervals))
        result = _model(
            cluster,
            n_islands=n_islands,
            topology=topology,
            reliable_migration=True,
            supervised=True,
            checkpoint_every=2,
            heartbeat_grace=0.03,
        ).run()
        return cluster, result

    def test_abandoned_deme_stops_receiving_migrants(self):
        cluster, result = self._run_with_early_crash()
        assert result.abandoned_demes == 1
        abandon_time = next(
            e.time for e in cluster.trace if e.kind == "deme-abandoned"
        )
        late_applies = [
            e
            for e in cluster.trace
            if e.kind == "migrant-apply" and e.time > abandon_time and e["dst"] == 1
        ]
        assert late_applies == []

    def test_abandonment_metrics_reach_the_report_snapshot(self):
        _, result = self._run_with_early_crash()
        assert result.abandoned_demes == 1
        assert result.recoveries == 0
