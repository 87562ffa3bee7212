"""Static deme-interconnection topologies.

"Common underlying network topologies for parallel genetic algorithms have
been multi-grids (2-D), cubes, hybercube (4-D), various meshes, toruses,
pipelines, bi-directional and uni-directional rings." — survey §3.2.

A :class:`Topology` is a directed graph over deme indices ``0..n-1``:
``neighbors_out(i)`` are the demes ``i`` *sends* migrants to.  Cantú-Paz's
finding that "fully connected topologies" converge fastest (E6) is a
statement about these graphs' diameters/degrees.
"""

from __future__ import annotations

import abc
from bisect import bisect_right

import numpy as np

from ..core.rng import ensure_rng

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
]


class Topology(abc.ABC):
    """Directed migration graph over ``size`` demes."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"topology size must be >= 1, got {size}")
        self.size = size

    @abc.abstractmethod
    def neighbors_out(self, i: int) -> list[int]:
        """Demes that deme ``i`` sends migrants to."""

    def neighbors_in(self, i: int) -> list[int]:
        """Demes that send migrants to deme ``i`` (derived; override for speed)."""
        return [j for j in range(self.size) if i in self.neighbors_out(j)]

    def _check(self, i: int) -> None:
        if not 0 <= i < self.size:
            raise IndexError(f"deme index {i} out of range [0, {self.size})")

    # -- graph-theoretic characteristics ---------------------------------------
    def degree(self, i: int) -> int:
        return len(self.neighbors_out(i))

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.size) for j in self.neighbors_out(i)]

    def adjacency_matrix(self) -> np.ndarray:
        m = np.zeros((self.size, self.size), dtype=np.int8)
        for i, j in self.edges():
            m[i, j] = 1
        return m

    def diameter(self) -> float:
        """Longest shortest directed path (inf when not strongly connected)."""
        n = self.size
        if n == 1:
            return 0.0
        dist = np.full((n, n), np.inf)
        np.fill_diagonal(dist, 0.0)
        for i, j in self.edges():
            dist[i, j] = 1.0
        for k in range(n):  # Floyd–Warshall
            dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
        off = dist[~np.eye(n, dtype=bool)]
        return float(off.max()) if off.size else 0.0

    def is_connected(self) -> bool:
        return np.isfinite(self.diameter())

    @property
    def name(self) -> str:
        return type(self).__name__.replace("Topology", "").lower()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(size={self.size})"


class IsolatedTopology(Topology):
    """No edges at all — Cantú-Paz's impractical *isolated demes* control."""

    def neighbors_out(self, i: int) -> list[int]:
        self._check(i)
        return []

    def neighbors_in(self, i: int) -> list[int]:
        self._check(i)
        return []


class RingTopology(Topology):
    """Unidirectional ring: deme i → deme (i+1) mod n."""

    def neighbors_out(self, i: int) -> list[int]:
        self._check(i)
        if self.size == 1:
            return []
        return [(i + 1) % self.size]

    def neighbors_in(self, i: int) -> list[int]:
        self._check(i)
        if self.size == 1:
            return []
        return [(i - 1) % self.size]


class BidirectionalRingTopology(Topology):
    """Bidirectional ring: deme i ↔ both neighbours."""

    def neighbors_out(self, i: int) -> list[int]:
        self._check(i)
        if self.size == 1:
            return []
        if self.size == 2:
            return [1 - i]
        return [(i + 1) % self.size, (i - 1) % self.size]

    neighbors_in = neighbors_out


class PipelineTopology(Topology):
    """Open chain 0 → 1 → … → n-1 (the survey's 'pipeline')."""

    def neighbors_out(self, i: int) -> list[int]:
        self._check(i)
        return [i + 1] if i + 1 < self.size else []

    def neighbors_in(self, i: int) -> list[int]:
        self._check(i)
        return [i - 1] if i > 0 else []


#: the most demes an island model or a :class:`TreeTopology` may hold
MAX_DEMES = 1024


class TreeTopology(Topology):
    """Complete ``branching``-ary tree of ``layers`` levels in heap layout.

    Deme 0 is the root and the children of deme ``i`` are ``b*i+1 … b*i+b``,
    so layer ``l`` holds ``b**l`` consecutive demes, numbered left to right
    after the layer above.  Edges run both ways: a deme exchanges with its
    parent and its children (the hierarchical GA's promotion and
    demotion).  Trees over :data:`MAX_DEMES` demes are refused.
    """

    def __init__(self, layers: int, branching: int) -> None:
        if layers < 1:
            raise ValueError(f"need >= 1 layer, got {layers}")
        if branching < 1:
            raise ValueError(f"branching must be >= 1, got {branching}")
        # the first deme of each layer, counted only as far as the cap
        starts, width = [0], 1
        for _ in range(layers):
            if starts[-1] + width > MAX_DEMES:
                raise ValueError(
                    f"layers={layers}, branching={branching}: the tree has "
                    f"more than {MAX_DEMES} demes"
                )
            starts.append(starts[-1] + width)
            width *= branching
        super().__init__(starts[-1])
        self.layers, self.branching = layers, branching
        self._starts = starts

    def layer(self, l: int) -> range:
        """The demes of layer ``l`` (0 = the root's)."""
        return range(self._starts[l], self._starts[l + 1])

    def layer_of(self, i: int) -> int:
        self._check(i)
        return bisect_right(self._starts, i) - 1

    def parent(self, i: int) -> int | None:
        self._check(i)
        return (i - 1) // self.branching if i > 0 else None

    def children(self, i: int) -> list[int]:
        self._check(i)
        first = self.branching * i + 1
        return list(range(first, min(first + self.branching, self.size)))

    def neighbors_out(self, i: int) -> list[int]:
        parent = self.parent(i)
        return ([] if parent is None else [parent]) + self.children(i)

    neighbors_in = neighbors_out

    def __repr__(self) -> str:
        return f"TreeTopology(layers={self.layers}, branching={self.branching})"


class CompleteTopology(Topology):
    """Fully connected — Cantú-Paz's fastest-converging choice."""

    def neighbors_out(self, i: int) -> list[int]:
        self._check(i)
        return [j for j in range(self.size) if j != i]

    neighbors_in = neighbors_out


class StarTopology(Topology):
    """Hub-and-spokes: deme 0 exchanges with everyone, spokes only with 0."""

    def neighbors_out(self, i: int) -> list[int]:
        self._check(i)
        if i == 0:
            return list(range(1, self.size))
        return [0]

    neighbors_in = neighbors_out


class GridTopology(Topology):
    """2-D mesh without wraparound; size must equal rows*cols."""

    def __init__(self, rows: int, cols: int) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("rows and cols must be positive")
        super().__init__(rows * cols)
        self.rows, self.cols = rows, cols

    def _coords(self, i: int) -> tuple[int, int]:
        return divmod(i, self.cols)

    def neighbors_out(self, i: int) -> list[int]:
        self._check(i)
        r, c = self._coords(i)
        out = []
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            rr, cc = r + dr, c + dc
            if 0 <= rr < self.rows and 0 <= cc < self.cols:
                out.append(rr * self.cols + cc)
        return out

    neighbors_in = neighbors_out

    def __repr__(self) -> str:
        return f"GridTopology(rows={self.rows}, cols={self.cols})"


class TorusTopology(Topology):
    """2-D mesh with wraparound (the CRAY-T3D-style torus)."""

    def __init__(self, rows: int, cols: int) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("rows and cols must be positive")
        super().__init__(rows * cols)
        self.rows, self.cols = rows, cols

    def neighbors_out(self, i: int) -> list[int]:
        self._check(i)
        r, c = divmod(i, self.cols)
        out = []
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            rr, cc = (r + dr) % self.rows, (c + dc) % self.cols
            j = rr * self.cols + cc
            if j != i and j not in out:
                out.append(j)
        return out

    neighbors_in = neighbors_out

    def __repr__(self) -> str:
        return f"TorusTopology(rows={self.rows}, cols={self.cols})"


class HypercubeTopology(Topology):
    """d-dimensional hypercube over 2^d demes (Belding's machine)."""

    def __init__(self, dimensions: int) -> None:
        if dimensions < 0:
            raise ValueError(f"dimensions must be >= 0, got {dimensions}")
        super().__init__(2 ** dimensions)
        self.dimensions = dimensions

    def neighbors_out(self, i: int) -> list[int]:
        self._check(i)
        return [i ^ (1 << d) for d in range(self.dimensions)]

    neighbors_in = neighbors_out

    def __repr__(self) -> str:
        return f"HypercubeTopology(dimensions={self.dimensions})"


class RandomRegularTopology(Topology):
    """Random k-out-regular directed graph (deterministic given seed)."""

    def __init__(self, size: int, k: int = 2, seed: int = 0) -> None:
        super().__init__(size)
        if not 0 <= k < size:
            raise ValueError(f"need 0 <= k < size, got k={k}, size={size}")
        self.k = k
        rng = ensure_rng(seed)
        self._out: list[list[int]] = []
        for i in range(size):
            others = np.setdiff1d(np.arange(size), [i])
            self._out.append(sorted(int(x) for x in rng.choice(others, size=k, replace=False)))
        self._in: list[list[int]] = [[] for _ in range(size)]
        for i, outs in enumerate(self._out):
            for j in outs:
                self._in[j].append(i)

    def neighbors_out(self, i: int) -> list[int]:
        self._check(i)
        return list(self._out[i])

    def neighbors_in(self, i: int) -> list[int]:
        self._check(i)
        return list(self._in[i])


def topology_by_name(name: str, size: int, **kwargs) -> Topology:
    """Factory used by experiment configs ('ring', 'complete', …)."""
    name = name.lower()
    if name in ("ring", "unidirectional-ring"):
        return RingTopology(size)
    if name in ("biring", "bidirectional-ring"):
        return BidirectionalRingTopology(size)
    if name in ("complete", "full", "fully-connected"):
        return CompleteTopology(size)
    if name == "star":
        return StarTopology(size)
    if name == "pipeline":
        return PipelineTopology(size)
    if name == "isolated":
        return IsolatedTopology(size)
    if name == "grid":
        rows = kwargs.get("rows") or int(np.floor(np.sqrt(size)))
        cols = size // rows
        if rows * cols != size:
            raise ValueError(f"size {size} is not rows*cols = {rows}*{cols}")
        return GridTopology(rows, cols)
    if name == "torus":
        rows = kwargs.get("rows") or int(np.floor(np.sqrt(size)))
        cols = size // rows
        if rows * cols != size:
            raise ValueError(f"size {size} is not rows*cols = {rows}*{cols}")
        return TorusTopology(rows, cols)
    if name == "hypercube":
        d = int(np.log2(size))
        if 2 ** d != size:
            raise ValueError(f"hypercube size must be a power of 2, got {size}")
        return HypercubeTopology(d)
    if name == "random":
        return RandomRegularTopology(size, k=kwargs.get("k", 2), seed=kwargs.get("seed", 0))
    raise ValueError(f"unknown topology name: {name!r}")
