"""Deme interconnects (coarse-grained) and cell neighbourhoods (fine-grained)."""

from .neighborhood import (
    CompactNeighborhood,
    LinearNeighborhood,
    MooreNeighborhood,
    Neighborhood,
    VonNeumannNeighborhood,
)
from .static import (
    BidirectionalRingTopology,
    CompleteTopology,
    GridTopology,
    HypercubeTopology,
    IsolatedTopology,
    PipelineTopology,
    RandomRegularTopology,
    RingTopology,
    StarTopology,
    Topology,
    TorusTopology,
    TreeTopology,
    topology_by_name,
)

__all__ = [
    "Topology",
    "RingTopology",
    "BidirectionalRingTopology",
    "CompleteTopology",
    "StarTopology",
    "GridTopology",
    "TorusTopology",
    "HypercubeTopology",
    "RandomRegularTopology",
    "IsolatedTopology",
    "PipelineTopology",
    "TreeTopology",
    "topology_by_name",
    "Neighborhood",
    "VonNeumannNeighborhood",
    "MooreNeighborhood",
    "LinearNeighborhood",
    "CompactNeighborhood",
]
