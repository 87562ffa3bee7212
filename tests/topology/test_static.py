"""Unit tests for static topologies."""

import numpy as np
import pytest

from repro.topology import (
    BidirectionalRingTopology,
    CompleteTopology,
    GridTopology,
    HypercubeTopology,
    IsolatedTopology,
    PipelineTopology,
    RandomRegularTopology,
    RingTopology,
    StarTopology,
    TorusTopology,
    TreeTopology,
    topology_by_name,
)
from repro.topology.static import MAX_DEMES

CONNECTED = [
    RingTopology(8),
    BidirectionalRingTopology(8),
    CompleteTopology(8),
    StarTopology(8),
    GridTopology(2, 4),
    TorusTopology(2, 4),
    HypercubeTopology(3),
    RandomRegularTopology(8, k=3, seed=1),
    TreeTopology(3, 2),
]


@pytest.mark.parametrize("topo", CONNECTED, ids=lambda t: type(t).__name__)
class TestConnectedTopologies:
    def test_neighbors_in_range(self, topo):
        for i in range(topo.size):
            for j in topo.neighbors_out(i):
                assert 0 <= j < topo.size and j != i

    def test_in_out_consistency(self, topo):
        for i in range(topo.size):
            for j in topo.neighbors_out(i):
                assert i in topo.neighbors_in(j)

    def test_is_connected(self, topo):
        assert topo.is_connected()

    def test_out_of_range_raises(self, topo):
        with pytest.raises(IndexError):
            topo.neighbors_out(topo.size)
        with pytest.raises(IndexError):
            topo.neighbors_out(-1)

    def test_adjacency_matrix_matches_edges(self, topo):
        m = topo.adjacency_matrix()
        assert m.sum() == len(topo.edges())


class TestDiameters:
    def test_complete_diameter_one(self):
        assert CompleteTopology(6).diameter() == 1.0

    def test_unidirectional_ring_diameter(self):
        assert RingTopology(8).diameter() == 7.0

    def test_bidirectional_ring_diameter(self):
        assert BidirectionalRingTopology(8).diameter() == 4.0

    def test_hypercube_diameter_is_dimension(self):
        assert HypercubeTopology(4).diameter() == 4.0

    def test_star_diameter_two(self):
        assert StarTopology(8).diameter() == 2.0

    def test_isolated_not_connected(self):
        t = IsolatedTopology(4)
        assert not t.is_connected()
        assert t.neighbors_out(0) == []

    def test_diameter_ordering_drives_convergence_claims(self):
        # E6 relies on complete < torus/grid < ring
        assert (
            CompleteTopology(8).diameter()
            < TorusTopology(2, 4).diameter()
            <= RingTopology(8).diameter()
        )


class TestRing:
    def test_direction(self):
        t = RingTopology(4)
        assert t.neighbors_out(3) == [0]
        assert t.neighbors_in(0) == [3]

    def test_size_one_has_no_edges(self):
        assert RingTopology(1).neighbors_out(0) == []

    def test_size_two_bidirectional_no_duplicates(self):
        t = BidirectionalRingTopology(2)
        assert t.neighbors_out(0) == [1]


class TestPipeline:
    def test_endpoints(self):
        t = PipelineTopology(4)
        assert t.neighbors_out(3) == []
        assert t.neighbors_in(0) == []
        assert t.neighbors_out(1) == [2]

    def test_not_strongly_connected(self):
        assert not PipelineTopology(3).is_connected()


class TestGridTorus:
    def test_grid_corner_degree_two(self):
        t = GridTopology(3, 3)
        assert t.degree(0) == 2

    def test_grid_center_degree_four(self):
        t = GridTopology(3, 3)
        assert t.degree(4) == 4

    def test_torus_uniform_degree(self):
        t = TorusTopology(3, 3)
        assert all(t.degree(i) == 4 for i in range(9))

    def test_torus_2x2_no_duplicate_neighbors(self):
        t = TorusTopology(2, 2)
        for i in range(4):
            out = t.neighbors_out(i)
            assert len(out) == len(set(out))


class TestHypercube:
    def test_neighbors_differ_by_one_bit(self):
        t = HypercubeTopology(3)
        for i in range(8):
            for j in t.neighbors_out(i):
                assert bin(i ^ j).count("1") == 1

    def test_degree_is_dimension(self):
        assert all(HypercubeTopology(4).degree(i) == 4 for i in range(16))


class TestTree:
    def test_heap_layout(self):
        t = TreeTopology(3, 2)
        assert [list(t.layer(l)) for l in range(3)] == [[0], [1, 2], [3, 4, 5, 6]]
        assert [t.children(i) for i in range(7)] == [
            [1, 2], [3, 4], [5, 6], [], [], [], []
        ]
        assert [t.parent(i) for i in range(7)] == [None, 0, 0, 1, 1, 2, 2]
        assert [t.layer_of(i) for i in range(7)] == [0, 1, 1, 2, 2, 2, 2]

    @pytest.mark.parametrize("layers,branching", [(1, 1), (4, 1), (3, 2), (3, 3)])
    def test_parent_and_children_are_symmetric(self, layers, branching):
        t = TreeTopology(layers, branching)
        for i in range(t.size):
            expected = ([] if i == 0 else [t.parent(i)]) + t.children(i)
            assert t.neighbors_out(i) == t.neighbors_in(i) == expected
            for c in t.children(i):
                assert t.parent(c) == i
        assert len(t.edges()) == 2 * (t.size - 1)

    @pytest.mark.parametrize(
        "layers,branching,size", [(1, 1, 1), (5, 1, 5), (1, 3, 1), (3, 2, 7), (4, 3, 40)]
    )
    def test_size_is_the_sum_of_the_layers(self, layers, branching, size):
        t = TreeTopology(layers, branching)
        assert t.size == size == sum(len(t.layer(l)) for l in range(layers))
        assert t.diameter() == (2 * (layers - 1) if branching > 1 else layers - 1)

    def test_a_chain_is_a_bidirectional_pipeline(self):
        t = TreeTopology(4, 1)
        assert [t.neighbors_out(i) for i in range(4)] == [[1], [0, 2], [1, 3], [2]]

    def test_the_cap_is_reached_exactly(self):
        assert TreeTopology(MAX_DEMES, 1).size == MAX_DEMES
        with pytest.raises(ValueError, match="layers=1025, branching=1"):
            TreeTopology(MAX_DEMES + 1, 1)

    @pytest.mark.parametrize("layers,branching", [(10**6, 1), (10**6, 2), (2, 10**6)])
    def test_a_huge_tree_is_refused_before_it_is_built(self, layers, branching):
        with pytest.raises(ValueError, match=f"layers={layers}, branching={branching}"):
            TreeTopology(layers, branching)

    @pytest.mark.parametrize("layers,branching", [(0, 2), (3, 0)])
    def test_empty_shapes_are_refused(self, layers, branching):
        with pytest.raises(ValueError):
            TreeTopology(layers, branching)


class TestRandomRegular:
    def test_deterministic_by_seed(self):
        a = RandomRegularTopology(10, k=2, seed=3)
        b = RandomRegularTopology(10, k=2, seed=3)
        assert a.edges() == b.edges()

    def test_out_degree_exactly_k(self):
        t = RandomRegularTopology(10, k=3, seed=4)
        assert all(t.degree(i) == 3 for i in range(10))


class TestFactory:
    @pytest.mark.parametrize(
        "name,size",
        [
            ("ring", 6),
            ("biring", 6),
            ("complete", 6),
            ("star", 6),
            ("pipeline", 6),
            ("isolated", 6),
            ("grid", 6),
            ("torus", 6),
            ("hypercube", 8),
            ("random", 6),
        ],
    )
    def test_factory_builds_right_size(self, name, size):
        assert topology_by_name(name, size).size == size

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            topology_by_name("moebius", 4)

    def test_hypercube_requires_power_of_two(self):
        with pytest.raises(ValueError):
            topology_by_name("hypercube", 6)

    def test_grid_requires_factorable_size(self):
        with pytest.raises(ValueError):
            topology_by_name("grid", 7)
