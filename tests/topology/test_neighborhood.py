"""Unit tests for the cellular neighbourhoods."""

import numpy as np
import pytest

from repro.topology import (
    CompactNeighborhood,
    LinearNeighborhood,
    MooreNeighborhood,
    VonNeumannNeighborhood,
)


class TestNeighborhoods:
    def test_von_neumann_size(self):
        assert VonNeumannNeighborhood().size == 4

    def test_moore_size(self):
        assert MooreNeighborhood().size == 8

    def test_linear_arm(self):
        assert LinearNeighborhood(arm=2).size == 8

    def test_compact_radius(self):
        assert CompactNeighborhood(radius=2).size == 24

    def test_toroidal_wrap(self):
        nb = VonNeumannNeighborhood()
        coords = nb.neighbors(0, 0, 4, 4)
        assert (3, 0) in coords and (0, 3) in coords

    def test_flat_indices_consistent(self):
        nb = MooreNeighborhood()
        idx = nb.neighbor_indices(0, 4, 4)
        assert len(idx) == 8
        assert all(0 <= i < 16 for i in idx)
        assert len(set(idx)) == 8

    def test_no_self_in_neighborhood(self):
        for nb in (
            VonNeumannNeighborhood(),
            MooreNeighborhood(),
            LinearNeighborhood(2),
            CompactNeighborhood(2),
        ):
            assert (0, 0) not in nb.offsets
            assert 5 not in nb.neighbor_indices(5, 4, 4)

    def test_radius_ordering(self):
        # diffusion speed knob: compact(2) reaches further than von Neumann
        assert CompactNeighborhood(2).radius > VonNeumannNeighborhood().radius

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LinearNeighborhood(arm=0)
        with pytest.raises(ValueError):
            CompactNeighborhood(radius=0)
