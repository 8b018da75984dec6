"""Greedy geographic routing and in-cell flooding with exact hop accounting.

Routing forwards a packet to the neighbor strictly closest to the target
position (squared distances compared, ties broken by lowest node id via the
ascending neighbor order).  A node with no strictly closer neighbor is a dead
end: routing to a node fails there with the partial path, routing to a
position terminates there by design (the stop node is the locally nearest).

Flooding is breadth-first dissemination restricted to a cell's members; its
transmission count is the sum of in-cell degrees over reached nodes (every
reached node forwards once to each in-cell neighbor).

Routing has one implementation, `_walk`, a lockstep router: it moves a batch
of packets one hop per round, all together, with numpy over the CSR arrays,
so a round costs a few array operations whatever the batch size.  A single
route is a batch of one.  Flooding runs on the graph search in `geometry`,
`_frontier_flood`: it floods from many origins at once, one breadth-first
frontier per round for all of them, and labels each reached node with its
origin.  A single flood is a batch of one origin over the graph that
`restrict_edges` restricts to the cell.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import GeometricGraph, _frontier_flood


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


def _walk(indptr, indices, xy, src, dst, tx, ty):
    # Greedy walks of many packets at once, one hop per round for all.
    # Walker i starts at src[i] and heads for (tx[i], ty[i]); dst[i] >= 0
    # retires it on reaching that node, dst[i] < 0 walks toward the
    # position until the locally nearest node.  Each round a live walker
    # moves to its strictly closest neighbour, the first in CSR order
    # among equals, or stops at a dead end (every degree-0 node is one).
    # Returns (trail, hops, ok): walker i's path is trail[:hops[i] + 1, i]
    # and later rows repeat its stop node, so trail[-1] holds every stop
    # node; ok[i] is False only for a node target not reached.
    px = xy[:, 0]
    py = xy[:, 1]
    cur = np.array(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    tx = np.asarray(tx, dtype=np.float64)
    ty = np.asarray(ty, dtype=np.float64)
    hops = np.zeros(cur.shape[0], dtype=np.int64)
    trail = [cur.copy()]
    live = np.flatnonzero(cur != dst)
    # Strict distance decrease visits a node at most once per walk, so
    # n - 1 hops bound every walk.
    for _ in range(indptr.shape[0] - 1):
        if live.shape[0] == 0:
            break
        c = cur[live]
        wx = tx[live]
        wy = ty[live]
        dx = px[c] - wx
        dy = py[c] - wy
        here = dx * dx + dy * dy
        # the walkers' CSR rows, concatenated, and each entry's squared
        # distance in place (the same IEEE operations as dx*dx + dy*dy)
        lo = indptr[c]
        cnt = indptr[c + 1] - lo
        end = cnt.cumsum()
        first = end - cnt
        pos = (lo - first).repeat(cnt)
        pos += np.arange(end[-1])
        nb = indices[pos]
        d = px[nb]
        d -= wx.repeat(cnt)
        d *= d
        e = py[nb]
        e -= wy.repeat(cnt)
        e *= e
        d += e
        has = np.flatnonzero(cnt)
        start = first[has]
        best = np.full(live.shape[0], np.inf)
        pick = np.zeros(live.shape[0], dtype=np.int64)
        if has.shape[0]:
            best[has] = np.minimum.reduceat(d, start)
            # the first neighbour at the minimum within each walker's row
            tie = np.flatnonzero(d == best.repeat(cnt))
            pick[has] = nb[tie[tie.searchsorted(start)]]
        move = best < here
        if not move.any():
            break
        stepped = live[move]
        cur[stepped] = pick[move]
        hops[stepped] += 1
        trail.append(cur.copy())
        live = stepped[cur[stepped] != dst[stepped]]
    return np.array(trail), hops, (cur == dst) | (dst < 0)


def _route_one(graph, src, dst, tx, ty):
    # One walker through _walk: (path, ok).
    trail, hops, ok = _walk(graph.indptr, graph.indices, graph.points.xy,
                            [src], [dst], [tx], [ty])
    return trail[:hops[0] + 1, 0], bool(ok[0])


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
    xy = graph.points.xy
    path, ok = _route_one(graph, src, dst, xy[dst, 0], xy[dst, 1])
    return RouteResult(path=path, success=ok)


def route_to_position(graph: GeometricGraph, src: int, x: float,
                      y: float) -> RouteResult:
    """Walk greedily toward a position; ends at the locally nearest node."""
    path, ok = _route_one(graph, src, -1, x, y)
    return RouteResult(path=path, success=ok)


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
        ValueError: if a member is not a sensor id, or origin is not a
            member of the cell.
    """
    members = np.asarray(getattr(cell, "members", cell), dtype=np.int64)
    if ((members < 0) | (members >= graph.n)).any():
        raise ValueError(f"cell members must be ids in [0, {graph.n})")
    inside = np.zeros(graph.n, dtype=bool)
    inside[members] = True
    if not 0 <= origin < graph.n or not inside[origin]:
        raise ValueError(f"origin {origin} is not a member of the cell")
    # The graph restricted to the cell: a member's row keeps the neighbors
    # that are members too; every other row is empty.
    indptr, indices = restrict_edges(graph, lambda u, v: inside[u] & inside[v])
    label, tx = _frontier_flood(indptr, indices, [origin])
    return FloodResult(reached=np.flatnonzero(label == 0),
                       transmissions=int(tx[0]),
                       unreached=members[label[members] < 0])
