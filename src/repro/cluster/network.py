"""Interconnect model: latency + bandwidth over a hop topology.

A postal/LogP-flavoured cost model: sending ``size`` units from node ``i``
to node ``j`` takes ``latency * hops(i, j) + size / bandwidth`` seconds.
``hops`` comes from a physical :class:`~repro.topology.static.Topology`
(the survey's grids, toruses, hypercubes, rings) or defaults to 1 for a
switched LAN ("conventional local area network", Pereira 2003).
"""

from __future__ import annotations

import numpy as np

from ..topology.static import Topology

__all__ = ["Network", "NetworkPreset", "lan_ethernet", "wan_internet"]


class Network:
    """Message-cost model over ``n`` nodes.

    Parameters
    ----------
    n:
        Number of nodes.
    latency:
        Per-hop start-up cost in seconds (α in the α-β model).
    bandwidth:
        Payload units per second (β⁻¹).  ``inf`` means size-free messages.
    physical:
        Optional hop topology; ``None`` = single-switch network, 1 hop
        between any pair.
    """

    def __init__(
        self,
        n: int,
        latency: float = 1e-3,
        bandwidth: float = float("inf"),
        physical: Topology | None = None,
    ) -> None:
        if n < 1:
            raise ValueError(f"network size must be >= 1, got {n}")
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if physical is not None and physical.size != n:
            raise ValueError(
                f"physical topology has {physical.size} nodes, network has {n}"
            )
        self.n = n
        self.latency = latency
        self.bandwidth = bandwidth
        self.physical = physical
        self._hops = self._hop_matrix()

    def _hop_matrix(self) -> np.ndarray:
        if self.physical is None:
            m = np.ones((self.n, self.n))
            np.fill_diagonal(m, 0.0)
            return m
        # BFS distances via repeated Floyd–Warshall (sizes are small)
        dist = np.full((self.n, self.n), np.inf)
        np.fill_diagonal(dist, 0.0)
        for i, j in self.physical.edges():
            dist[i, j] = 1.0
            dist[j, i] = 1.0  # links are physically bidirectional
        for k in range(self.n):
            dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
        if not np.isfinite(dist).all():
            raise ValueError("physical topology is not connected")
        return dist

    def hops(self, src: int, dst: int) -> int:
        return int(self._hops[src, dst])

    def transit_time(self, src: int, dst: int, size: float = 1.0) -> float:
        """Seconds for a ``size``-unit message from ``src`` to ``dst``."""
        if src == dst:
            return 0.0
        cost = self.latency * self._hops[src, dst]
        if np.isfinite(self.bandwidth):
            cost += size / self.bandwidth
        return float(cost)


class NetworkPreset:
    """Named parameter sets for the survey's interconnect generations."""

    def __init__(self, name: str, latency: float, bandwidth: float) -> None:
        self.name = name
        self.latency = latency
        self.bandwidth = bandwidth

    def build(self, n: int, physical: Topology | None = None) -> Network:
        return Network(n, self.latency, self.bandwidth, physical)


def lan_ethernet() -> NetworkPreset:
    """100 Mb Ethernet LAN: ~0.5 ms latency, ~10 MB/s effective."""
    return NetworkPreset("ethernet-lan", latency=5e-4, bandwidth=1e7)


def wan_internet() -> NetworkPreset:
    """Internet/DREAM-style wide area: ~50 ms latency, ~0.5 MB/s."""
    return NetworkPreset("wan", latency=5e-2, bandwidth=5e5)
