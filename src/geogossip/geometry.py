"""Sensor placement and geometric random graph construction.

Points are drawn uniformly in the unit square and joined by an edge whenever
their Euclidean distance is at most the connectivity radius (closed ball).
Adjacency is stored in CSR form (``indptr``/``indices``, neighbor ids sorted
ascending).  It is built in vectorised numpy through a bucket grid whose cell
side is at least the radius: for each of the 9 offsets of the 3x3 cell
neighborhood, every (point, candidate) pair is gathered at once, tested
against the closed ball, and the kept pairs are sorted by ``i * n + j`` into
CSR order.  The module also holds the graph search: `_frontier_flood`
floods a CSR from many origins at once, one breadth-first frontier per round,
and connectivity is that flood from node 0.
"""

import math
from dataclasses import dataclass

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

    Immutable after construction; shared read-only by the simulators.
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
        ValueError: if n < 2 or c <= 0.
    """
    if n < 2:
        raise ValueError(f"radius formula needs n >= 2, got {n}")
    if c <= 0:
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
    while front.shape[0]:
        lo = indptr[front]
        cnt = indptr[front + 1] - lo
        nb = indices[_concat_ranges(lo, cnt)]
        new = label[nb] < 0
        nb = nb[new]
        label[nb] = label[front].repeat(cnt)[new]
        front = np.unique(nb)
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
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    xy = np.ascontiguousarray(points.xy, dtype=np.float64)
    n = points.n
    grid_side = max(1, int(1.0 / radius))

    ix = _grid_index(xy[:, 0], grid_side)
    iy = _grid_index(xy[:, 1], grid_side)
    point_cell = ix * grid_side + iy
    order = np.argsort(point_cell, kind="stable").astype(np.int64)
    counts = np.bincount(point_cell, minlength=grid_side * grid_side)
    cell_start = np.zeros(grid_side * grid_side + 1, dtype=np.int64)
    np.cumsum(counts, out=cell_start[1:])

    # Every (point, candidate) pair of the 3x3 neighborhood, one cell
    # offset at a time.  Closed ball: dx*dx + dy*dy <= radius*radius is THE
    # adjacency test; tests/test_geometry.py holds its brute-force oracle.
    rsq = float(radius) * float(radius)
    keys = []
    for ax in (-1, 0, 1):
        for ay in (-1, 0, 1):
            nx = ix + ax
            ny = iy + ay
            src = np.flatnonzero((nx >= 0) & (nx < grid_side)
                                 & (ny >= 0) & (ny < grid_side))
            cell = nx[src] * grid_side + ny[src]
            count = cell_start[cell + 1] - cell_start[cell]
            i = np.repeat(src, count)
            j = order[_concat_ranges(cell_start[cell], count)]
            dx = xy[j, 0] - xy[i, 0]
            dy = xy[j, 1] - xy[i, 1]
            keep = (dx * dx + dy * dy <= rsq) & (i != j)
            keys.append(i[keep] * n + j[keep])
    # Row-major order with neighbor ids ascending within each row.
    key = np.sort(np.concatenate(keys))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
    indices = key % n

    return GeometricGraph(points=points, radius=float(radius), indptr=indptr,
                          indices=indices, grid_side=grid_side,
                          cell_start=cell_start, point_cell=point_cell)


def is_connected(graph: GeometricGraph) -> bool:
    """True iff the graph has a single connected component: the frontier
    flood from node 0 reaches every node."""
    label, _ = _frontier_flood(graph.indptr, graph.indices, [0])
    return bool((label >= 0).all())
