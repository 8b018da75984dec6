"""Greedy geographic routing and in-cell flooding with exact hop accounting.

Routing forwards a packet to the neighbor strictly closest to the target
position (squared distances compared, ties broken by lowest node id via the
ascending neighbor order).  A node with no strictly closer neighbor is a dead
end: routing to a node fails there with the partial path, routing to a
position terminates there by design (the stop node is the locally nearest).

Flooding is breadth-first dissemination restricted to a cell's members; its
transmission count is the sum of in-cell degrees over reached nodes (every
reached node forwards once to each in-cell neighbor).
"""

from dataclasses import dataclass

import numpy as np

from .geometry import GeometricGraph, _concat_ranges


@dataclass(frozen=True)
class RouteResult:
    """Path taken by one greedy route; hops = len(path) - 1."""

    path: np.ndarray
    success: bool

    @property
    def hops(self) -> int:
        return int(self.path.shape[0]) - 1


@dataclass(frozen=True)
class FloodResult:
    """Reached member ids, transmission count, and any unreached members."""

    reached: np.ndarray
    transmissions: int
    unreached: np.ndarray

    @property
    def complete(self) -> bool:
        return self.unreached.shape[0] == 0


def _route_core(indptr, indices, xy, src, dst, tx, ty, path_buf):
    # dst >= 0: deliver to that node, success iff reached.
    # dst < 0: walk toward (tx, ty), stopping at the locally nearest node.
    # Strict distance decrease per hop bounds the path by n nodes.
    cur = src
    count = 1
    path_buf[0] = cur
    while cur != dst:
        dx = xy[cur, 0] - tx
        dy = xy[cur, 1] - ty
        best_d = dx * dx + dy * dy
        best = -1
        for k in range(indptr[cur], indptr[cur + 1]):
            nb = indices[k]
            dx = xy[nb, 0] - tx
            dy = xy[nb, 1] - ty
            d = dx * dx + dy * dy
            if d < best_d:
                best_d = d
                best = nb
        if best < 0:
            return count, dst < 0
        cur = best
        path_buf[count] = cur
        count += 1
    return count, True


def _flood_core(lindptr, lindices, origin, queue, stamp, stamp_id):
    # BFS over the in-cell adjacency; queue[:reached] holds reached ids.
    mark = stamp_id[0]
    stamp_id[0] += 1
    queue[0] = origin
    stamp[origin] = mark
    head = 0
    tail = 1
    transmissions = 0
    while head < tail:
        u = queue[head]
        head += 1
        transmissions += lindptr[u + 1] - lindptr[u]
        for k in range(lindptr[u], lindptr[u + 1]):
            v = lindices[k]
            if stamp[v] != mark:
                stamp[v] = mark
                queue[tail] = v
                tail += 1
    return tail, transmissions


def greedy_route(graph: GeometricGraph, src: int, dst: int) -> RouteResult:
    """Greedily route from sensor src toward sensor dst's position.

    Args:
        graph: the geometric graph.
        src, dst: distinct sensor ids.

    Returns:
        RouteResult; on a dead end success is False and path holds the
        partial route.

    Raises:
        ValueError: if src == dst.
    """
    if src == dst:
        raise ValueError(f"src and dst must differ, got both = {src}")
    buf = np.empty(graph.n, dtype=np.int64)
    count, ok = _route_core(graph.indptr, graph.indices, graph.points.xy,
                            int(src), int(dst),
                            graph.points.xy[dst, 0], graph.points.xy[dst, 1],
                            buf)
    return RouteResult(path=buf[:count].copy(), success=bool(ok))


def route_to_position(graph: GeometricGraph, src: int, x: float,
                      y: float) -> RouteResult:
    """Walk greedily toward a position; ends at the locally nearest node."""
    buf = np.empty(graph.n, dtype=np.int64)
    count, ok = _route_core(graph.indptr, graph.indices, graph.points.xy,
                            int(src), -1, float(x), float(y), buf)
    return RouteResult(path=buf[:count].copy(), success=bool(ok))


def restrict_edges(graph: GeometricGraph, keep_edge):
    """CSR adjacency keeping the edges (u, v) for which keep_edge(u, v) holds.

    keep_edge takes the source and target id arrays of every directed edge
    and returns a boolean mask over them; rows keep their ascending order.
    """
    n = graph.n
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    keep = keep_edge(src, graph.indices)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src[keep], minlength=n), out=indptr[1:])
    return indptr, graph.indices[keep].astype(np.int64, copy=False)


def restrict_adjacency(graph: GeometricGraph, member_mask: np.ndarray):
    """CSR adjacency keeping only edges between mask-true nodes."""
    return restrict_edges(graph, lambda u, v: member_mask[u] & member_mask[v])


def flood(graph: GeometricGraph, cell, origin: int) -> FloodResult:
    """Flood a packet through one cell from the origin member.

    Args:
        graph: the geometric graph.
        cell: object with a ``members`` id array (or the array itself).
        origin: sensor id inside the cell.

    Returns:
        FloodResult; members unreachable inside the cell are listed rather
        than raised (the engine counts them as protocol faults).

    Raises:
        ValueError: if origin is not a member of the cell.
    """
    members = np.asarray(getattr(cell, "members", cell), dtype=np.int64)
    # In-cell CSR over local ids (positions in the sorted member list),
    # built from the member rows alone: a member's row keeps the neighbors
    # that are members too, in their ascending order.
    ids = np.unique(members)
    start = int(np.searchsorted(ids, origin))
    if start == ids.shape[0] or ids[start] != origin:
        raise ValueError(f"origin {origin} is not a member of the cell")
    row_start = graph.indptr[ids]
    row_count = graph.indptr[ids + 1] - row_start
    nbr = graph.indices[_concat_ranges(row_start, row_count)]
    local = np.minimum(np.searchsorted(ids, nbr), ids.shape[0] - 1)
    keep = ids[local] == nbr
    row = np.repeat(np.arange(ids.shape[0]), row_count)
    lindptr = np.zeros(ids.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(row[keep], minlength=ids.shape[0]),
              out=lindptr[1:])
    queue = np.empty(ids.shape[0], dtype=np.int64)
    stamp = np.zeros(ids.shape[0], dtype=np.int64)
    stamp_id = np.ones(1, dtype=np.int64)
    reached_n, tx = _flood_core(lindptr, local[keep], start, queue, stamp,
                                stamp_id)
    reached = ids[np.sort(queue[:reached_n])]
    unreached = members[~np.isin(members, reached)]
    return FloodResult(reached=reached, transmissions=int(tx),
                       unreached=unreached)
