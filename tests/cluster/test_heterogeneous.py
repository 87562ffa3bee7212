"""Tests for heterogeneous multi-site networks (Alba, Nebro & Troya 2002)."""

import numpy as np
import pytest

from repro.cluster import (
    HeterogeneousNetwork,
    SimulatedCluster,
    lan_ethernet,
    two_site_cluster_network,
    wan_internet,
)


class TestHeterogeneousNetwork:
    def test_intra_site_uses_lan(self):
        net = two_site_cluster_network(4)
        lan = lan_ethernet()
        assert net.transit_time(0, 1, 0.0) == pytest.approx(lan.latency)
        assert net.transit_time(4, 5, 0.0) == pytest.approx(lan.latency)

    def test_inter_site_uses_wan(self):
        net = two_site_cluster_network(4)
        wan = wan_internet()
        assert net.transit_time(0, 4, 0.0) == pytest.approx(wan.latency)
        # WAN is orders of magnitude slower than the LAN
        assert net.transit_time(0, 4, 0.0) > 10 * net.transit_time(0, 1, 0.0)

    def test_self_send_free(self):
        net = two_site_cluster_network(2)
        assert net.transit_time(1, 1, 1e9) == 0.0

    def test_is_local(self):
        net = two_site_cluster_network(3)
        assert net.is_local(0, 2)
        assert not net.is_local(0, 3)

    def test_mixed_site_presets(self):
        # site 0 on an Ethernet LAN, site 1 on a wide-area link
        net = HeterogeneousNetwork(
            [0, 0, 1, 1], [lan_ethernet(), wan_internet()]
        )
        assert net.transit_time(0, 1, 0.0) < net.transit_time(2, 3, 0.0)

    def test_bandwidth_term_applied(self):
        net = two_site_cluster_network(2)
        small = net.transit_time(0, 2, 1.0)
        big = net.transit_time(0, 2, 1e6)
        assert big > small

    def test_validation(self):
        with pytest.raises(ValueError):
            HeterogeneousNetwork([], [])
        with pytest.raises(ValueError):
            HeterogeneousNetwork([0, 2], [lan_ethernet()])  # gap in site ids
        with pytest.raises(ValueError):
            HeterogeneousNetwork([0, 1], [lan_ethernet()])  # missing preset


class TestIslandsAcrossTwoSites:
    def test_wan_migrations_cost_more_than_lan(self):
        """Alba 2002's heterogeneous setting: a ring spanning two LANs pays
        WAN latency only on the two cross-site links."""
        from repro.core import GAConfig
        from repro.migration import MigrationPolicy, PeriodicSchedule
        from repro.parallel import SimulatedIslandModel
        from repro.problems import OneMax

        n = 8
        cluster = SimulatedCluster(n, network=two_site_cluster_network(4))
        model = SimulatedIslandModel(
            OneMax(24), n, GAConfig(population_size=10),
            cluster=cluster, eval_cost=1e-3, max_epochs=60,
            schedule=PeriodicSchedule(2),
            policy=MigrationPolicy(rate=1, selection="best"),
            seed=1,
        )
        res = model.run()
        assert res.solved or res.epochs == 60
        migrations = cluster.trace.of_kind("migration")
        assert migrations
        local = [e for e in migrations if cluster.network.is_local(e["src"], e["dst"])]
        remote = [e for e in migrations if not cluster.network.is_local(e["src"], e["dst"])]
        assert local and remote  # ring 0..7 with sites {0-3},{4-7} crosses twice
        assert min(e["transit"] for e in remote) > max(e["transit"] for e in local)
