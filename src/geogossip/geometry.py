"""Sensor placement and geometric random graph construction.

Points are drawn uniformly in the unit square and joined by an edge whenever
their Euclidean distance is at most the connectivity radius (closed ball).
Adjacency is stored in CSR form (``indptr``/``indices``, neighbor ids sorted
ascending).  It is built in vectorised numpy through a bucket grid whose cell
side is at least the radius.  Each unordered pair of the 3x3 neighborhood
is tested once, from its own bucket or a forward offset: the closed-ball
test is exactly symmetric in IEEE arithmetic, so a kept pair gives both keys
``i * n + j`` and ``j * n + i``, sorted into CSR order.  The module also
holds the graph search: `_frontier_flood` floods a CSR from many origins at
once, one breadth-first frontier per round, and connectivity is that flood
from node 0.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_RADIUS_CONSTANT = 2.0


@dataclass(frozen=True)
class PointSet:
    """n sensor positions in [0,1]^2, reproducible from the seed."""

    xy: np.ndarray
    n: int
    seed: int | None = None


@dataclass(frozen=True)
class GeometricGraph:
    """Undirected geometric graph plus the bucket grid used to build it.

    Immutable after construction; shared read-only by the simulators, and
    by every run of one (n, seed) instance in a sweep.
    """

    points: PointSet
    radius: float
    indptr: np.ndarray
    indices: np.ndarray
    grid_side: int
    cell_start: np.ndarray    # prefix sums of bucket counts, len grid_side^2 + 1
    point_cell: np.ndarray    # bucket cell id per point

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    @property
    def n(self) -> int:
        return self.points.n

    def edge_count(self) -> int:
        return int(self.indices.shape[0]) // 2

    @cached_property
    def connected(self) -> bool:
        """is_connected(self), flooded on first read and kept with the
        graph, so runs that share a graph flood it once."""
        return is_connected(self)


def sample_points(n: int, seed: int) -> PointSet:
    """Draw n i.i.d. uniform points in the unit square.

    Args:
        n: number of sensors, at least 1.
        seed: RNG seed; identical seeds reproduce identical coordinates.

    Returns:
        PointSet with an (n, 2) float64 coordinate array.

    Raises:
        ValueError: if n < 1.
    """
    if n < 1:
        raise ValueError(f"need at least one point, got n={n}")
    rng = np.random.default_rng(seed)
    xy = rng.random((int(n), 2))
    return PointSet(xy=xy, n=int(n), seed=int(seed))


def connectivity_radius(n: float, c: float = DEFAULT_RADIUS_CONSTANT) -> float:
    """Radius c * sqrt(ln(n) / n) of the connectivity regime.

    Natural log by convention; c defaults to 2.0, which keeps G(n, r)
    connected in >= 99/100 seeds at n = 4096.

    Args:
        n: point count (any real >= 2 is accepted).
        c: positive scale constant.

    Raises:
        ValueError: if n < 2 or c is not positive.
    """
    if n < 2:
        raise ValueError(f"radius formula needs n >= 2, got {n}")
    if not c > 0:
        raise ValueError(f"radius constant must be positive, got {c}")
    return c * math.sqrt(math.log(n) / n)


def _concat_ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Concatenation of arange(start[k], start[k] + count[k]) over k."""
    total = int(count.sum())
    shift = np.repeat(start - (np.cumsum(count) - count), count)
    return np.arange(total, dtype=np.int64) + shift


def _grid_index(coord: np.ndarray, resolution: int) -> np.ndarray:
    # Bin of each coordinate among `resolution` equal bins of [0, 1].
    ix = (coord * resolution).astype(np.int64)
    return np.minimum(ix, resolution - 1)


def _frontier_flood(indptr, indices, origins):
    # Breadth-first floods from every origin at once over a CSR, one
    # frontier per round for all.  Returns (label, tx): label[v] is the
    # position in origins of the flood that reached node v, -1 for a node
    # none reached, and tx[i] sums the degrees of flood i's reached nodes.
    # A node two floods reach gets one of their labels, so the labels are
    # each flood's reached set only when no two origins share a component
    # (the engine's leaf CSR has no edge between leaves).
    n = indptr.shape[0] - 1
    origins = np.asarray(origins, dtype=np.int64)
    label = np.full(n, -1, dtype=np.int64)
    label[origins] = np.arange(origins.shape[0])
    front = origins
    mark = np.zeros(n, dtype=bool)
    while front.shape[0]:
        lo = indptr[front]
        cnt = indptr[front + 1] - lo
        nb = indices[_concat_ranges(lo, cnt)]
        new = label[nb] < 0
        nb = nb[new]
        label[nb] = label[front].repeat(cnt)[new]
        mark[nb] = True
        front = np.flatnonzero(mark)
        mark[front] = False
    reached = np.flatnonzero(label >= 0)
    tx = np.bincount(label[reached], weights=np.diff(indptr)[reached],
                     minlength=origins.shape[0])
    return label, tx.astype(np.int64)


def build_graph(points: PointSet, radius: float) -> GeometricGraph:
    """Build the geometric graph G(points, radius) with its bucket index.

    Args:
        points: sensor positions.
        radius: edge threshold in unit-square lengths, in (0, sqrt(2)].

    Returns:
        GeometricGraph with symmetric, irreflexive CSR adjacency; neighbor
        lists sorted by id.

    Raises:
        ValueError: if radius is not positive.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    px, py = np.asarray(points.xy, dtype=np.float64).T.copy()
    n = points.n
    grid_side = max(1, int(1.0 / radius))

    ix = _grid_index(px, grid_side)
    iy = _grid_index(py, grid_side)
    point_cell = ix * grid_side + iy
    order = np.argsort(point_cell, kind="stable").astype(np.int64)
    cell_start = np.searchsorted(point_cell[order],
                                 np.arange(grid_side * grid_side + 1))

    # Each unordered candidate pair is tested once: against the later points
    # of its own bucket (ids ascend there), then the four forward offsets.
    # Closed ball: dx*dx + dy*dy <= radius*radius is THE adjacency test
    # (oracle in tests/test_geometry.py), and fl(a - b) = -fl(b - a) makes
    # it symmetric, so a kept pair is an edge both ways.
    rsq = float(radius) * float(radius)
    after = np.arange(1, n + 1)
    count = cell_start[point_cell[order] + 1] - after
    i = np.repeat(order, count)
    j = order[_concat_ranges(after, count)]
    keys = []
    for ax, ay in ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1)):
        if ax or ay:  # (0, 0) tests the own-bucket i, j above
            nx = ix + ax
            ny = iy + ay
            src = np.flatnonzero((nx >= 0) & (nx < grid_side)
                                 & (ny >= 0) & (ny < grid_side))
            cell = nx[src] * grid_side + ny[src]
            count = cell_start[cell + 1] - cell_start[cell]
            i = np.repeat(src, count)
            j = order[_concat_ranges(cell_start[cell], count)]
        dx = px[j] - px[i]
        dy = py[j] - py[i]
        keep = dx * dx + dy * dy <= rsq
        i, j = i[keep], j[keep]
        keys += (i * n + j, j * n + i)
    # Row-major order with neighbor ids ascending within each row: row u
    # holds the keys in [u*n, u*n + n), less u*n its neighbor ids.
    indices = np.sort(np.concatenate(keys))
    indptr = np.searchsorted(indices, np.arange(n + 1) * n)
    indices -= np.repeat(np.arange(n) * n, np.diff(indptr))

    return GeometricGraph(points=points, radius=float(radius), indptr=indptr,
                          indices=indices, grid_side=grid_side,
                          cell_start=cell_start, point_cell=point_cell)


def is_connected(graph: GeometricGraph) -> bool:
    """True iff the graph has a single connected component: the frontier
    flood from node 0 reaches every node."""
    label, _ = _frontier_flood(graph.indptr, graph.indices, [0])
    return bool((label >= 0).all())
