"""Simulated parallel machine: event kernel, nodes, network, faults, traces."""

from .faults import FaultPlan, Partition, sample_fault_plan
from .heterogeneous import HeterogeneousNetwork, two_site_cluster_network
from .machine import SimulatedCluster
from .network import Network, NetworkPreset, lan_ethernet, wan_internet
from .node import Node
from .sim import Inbox, Process, SimulationError, Simulator, Timeout
from .trace import (
    COMPACT_KINDS,
    RETENTION_MODES,
    Trace,
    TraceEvent,
    TraceRetentionError,
    default_retention,
    trace_retention,
)

__all__ = [
    "Simulator",
    "Timeout",
    "Inbox",
    "Process",
    "SimulationError",
    "Node",
    "Network",
    "NetworkPreset",
    "HeterogeneousNetwork",
    "two_site_cluster_network",
    "lan_ethernet",
    "wan_internet",
    "FaultPlan",
    "Partition",
    "sample_fault_plan",
    "SimulatedCluster",
    "Trace",
    "TraceEvent",
    "TraceRetentionError",
    "RETENTION_MODES",
    "COMPACT_KINDS",
    "trace_retention",
    "default_retention",
]
