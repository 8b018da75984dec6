"""Greedy geographic routing and in-cell flooding."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geogossip import (
    build_graph,
    build_hierarchy,
    connectivity_radius,
    flood,
    greedy_route,
    sample_points,
)
from geogossip.routing import _flood_core, _walk, route_to_position

from conftest import make_points


@pytest.fixture(scope="module")
def path3():
    """Three collinear sensors, each only seeing its direct neighbor."""
    pts = make_points([(0.1, 0.5), (0.3, 0.5), (0.5, 0.5)])
    return build_graph(pts, 0.25)


@pytest.fixture(scope="module")
def graph4096():
    pts = sample_points(4096, seed=2)
    return build_graph(pts, connectivity_radius(4096, 2.0))


# ----------------------------------------------------------------- greedy

def test_adjacent_pair_routes_in_one_hop():
    g = build_graph(make_points([(0.2, 0.2), (0.3, 0.2)]), 0.15)
    r = greedy_route(g, 0, 1)
    assert r.success
    assert np.array_equal(r.path, [0, 1])
    assert r.hops == 1


def test_complete_graph_routes_in_one_hop():
    g = build_graph(sample_points(12, seed=4), math.sqrt(2.0))
    for src in range(12):
        for dst in range(12):
            if src == dst:
                continue
            r = greedy_route(g, src, dst)
            assert r.success and r.hops == 1


def test_same_endpoint_rejected(path3):
    with pytest.raises(ValueError):
        greedy_route(path3, 1, 1)


def test_multi_hop_chain(path3):
    r = greedy_route(path3, 0, 2)
    assert r.success
    assert np.array_equal(r.path, [0, 1, 2])


def test_route_to_position_walks_to_nearest(path3):
    r = route_to_position(path3, 0, 0.52, 0.5)
    assert np.array_equal(r.path, [0, 1, 2])


def test_dead_end_reports_partial_path():
    # two pairs out of range of each other: the route cannot leave the pair
    g = build_graph(make_points([(0.1, 0.1), (0.15, 0.1),
                                 (0.8, 0.8), (0.85, 0.8)]), 0.1)
    r = greedy_route(g, 0, 3)
    assert not r.success
    assert r.path[0] == 0
    assert len(r.path) <= 2


def test_routes_succeed_at_scale(graph4096):
    g = graph4096
    radius = connectivity_radius(4096, 2.0)
    rng = np.random.default_rng(7)
    ok = 0
    trials = 10_000
    for _ in range(trials):
        src, dst = rng.choice(4096, size=2, replace=False)
        r = greedy_route(g, int(src), int(dst))
        if r.success:
            ok += 1
            # each hop covers at most one radius
            dist = math.dist(g.points.xy[src], g.points.xy[dst])
            assert r.hops >= math.ceil(dist / radius - 1e-9)
    assert ok / trials >= 0.99


def test_distance_strictly_decreases(graph4096):
    g = graph4096
    xy = g.points.xy
    rng = np.random.default_rng(13)
    for _ in range(200):
        src, dst = rng.choice(4096, size=2, replace=False)
        r = greedy_route(g, int(src), int(dst))
        d = np.hypot(xy[r.path, 0] - xy[dst, 0], xy[r.path, 1] - xy[dst, 1])
        assert np.all(np.diff(d) < 0)


def test_routing_deterministic(graph4096):
    a = greedy_route(graph4096, 17, 4000)
    b = greedy_route(graph4096, 17, 4000)
    assert np.array_equal(a.path, b.path) and a.success == b.success


def reference_walk(indptr, indices, xy, src, dst, tx, ty):
    # One packet, one neighbour at a time: (path, ok).  dst >= 0 delivers
    # to that node; dst < 0 walks toward (tx, ty) to the locally nearest
    # node.  The first strictly closest neighbour in CSR order wins.
    cur = src
    path = [cur]
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
            return path, dst < 0
        cur = best
        path.append(cur)
    return path, True


@st.composite
def walk_batches(draw):
    """A graph with isolated nodes and duplicate points, and a batch of
    walkers: node targets at the node (src == dst allowed), node targets
    with an unrelated position (retirement on passing the node), and
    position targets."""
    n = draw(st.integers(1, 200))
    radius = draw(st.sampled_from([0.001, 0.01, 0.05, 0.1, 0.2, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    xy = rng.random((n, 2))
    # Coordinates on a coarse dyadic grid make equal distances exact.
    grid = draw(st.sampled_from([0, 4, 16]))
    if grid:
        xy = np.round(xy * grid) / grid
    dups = rng.integers(0, n, size=(draw(st.integers(0, n // 2)), 2))
    xy[dups[:, 0]] = xy[dups[:, 1]]
    g = build_graph(make_points(xy), radius)
    m = draw(st.integers(1, 24))
    src = rng.integers(0, n, size=m)
    kind = rng.integers(0, 3, size=m)
    dst = np.where(kind == 2, -1, rng.integers(0, n, size=m))
    pos = rng.random((m, 2))
    if grid:
        pos = np.round(pos * grid) / grid
    at_node = kind == 0
    pos[at_node] = xy[dst[at_node]]
    return g, src, dst, pos


@settings(max_examples=300, deadline=None)
@given(walk_batches())
def test_walk_matches_reference_walker(case):
    g, src, dst, pos = case
    xy = g.points.xy
    trail, hops, ok = _walk(g.indptr, g.indices, xy, src, dst,
                            pos[:, 0], pos[:, 1])
    assert trail.shape == (hops.max() + 1, src.shape[0])
    for i in range(src.shape[0]):
        path, ok_i = reference_walk(g.indptr, g.indices, xy, int(src[i]),
                                    int(dst[i]), pos[i, 0], pos[i, 1])
        assert trail[:hops[i] + 1, i].tolist() == path
        assert np.all(trail[hops[i]:, i] == path[-1])
        assert bool(ok[i]) == ok_i


# ------------------------------------------------------------------ flood

def test_flood_chain_counts_both_directions(path3):
    r = flood(path3, np.array([0, 1, 2]), origin=0)
    assert np.array_equal(r.reached, [0, 1, 2])
    assert r.transmissions == 4
    assert r.complete


def test_flood_single_member_is_free(path3):
    r = flood(path3, np.array([1]), origin=1)
    assert np.array_equal(r.reached, [1])
    assert r.transmissions == 0
    assert r.complete


def test_flood_requires_member_origin(path3):
    with pytest.raises(ValueError):
        flood(path3, np.array([0, 1]), origin=2)


def test_flood_stays_inside_cell():
    # a-b-c-d chain; the cell covers only a and b, so the packet must not
    # leak over the b-c edge even though it exists in the graph
    pts = make_points([(0.1, 0.5), (0.3, 0.5), (0.5, 0.5), (0.7, 0.5)])
    g = build_graph(pts, 0.25)
    r = flood(g, np.array([0, 1]), origin=0)
    assert np.array_equal(r.reached, [0, 1])
    assert r.transmissions == 2
    assert r.complete


def test_flood_reports_unreached_members():
    pts = make_points([(0.1, 0.5), (0.3, 0.5), (0.5, 0.5)])
    g = build_graph(pts, 0.25)
    # members 0 and 2 are not adjacent and the relay 1 is outside the cell
    r = flood(g, np.array([0, 2]), origin=0)
    assert np.array_equal(r.reached, [0])
    assert np.array_equal(r.unreached, [2])
    assert not r.complete
    assert r.transmissions == 0


def test_flood_accepts_cell_objects(quad16):
    graph, hierarchy = quad16
    for cell in hierarchy.cells[1:]:
        r = flood(graph, cell, origin=int(cell.representative))
        assert r.complete
        assert np.array_equal(r.reached, cell.members)


def restrict_adjacency(graph, member_mask):
    # Reference: each member's CSR row keeps its member neighbours in
    # order; every other row is empty.
    indptr = [0]
    indices = []
    for u in range(graph.n):
        if member_mask[u]:
            indices.extend(v for v in graph.neighbors(u).tolist()
                           if member_mask[v])
        indptr.append(len(indices))
    return (np.array(indptr, dtype=np.int64),
            np.array(indices, dtype=np.int64))


def test_flood_matches_whole_graph_restriction():
    # reference: the flood over the whole graph's member-masked CSR
    # over random member sets (mostly split) and the hierarchy's squares
    pts = sample_points(300, seed=4)
    g = build_graph(pts, connectivity_radius(300, 2.0))
    rng = np.random.default_rng(21)
    sets = [rng.choice(g.n, size=int(rng.integers(1, 120)), replace=False)
            for _ in range(60)]
    sets += [cell.members for cell in build_hierarchy(pts, 64).cells]
    for members in sets:
        origin = int(members[rng.integers(0, members.shape[0])])
        mask = np.zeros(g.n, dtype=bool)
        mask[members] = True
        lindptr, lindices = restrict_adjacency(g, mask)
        order, tx = _flood_core(lindptr, lindices, origin)
        reached = np.sort(np.array(order, dtype=np.int64))
        r = flood(g, members, origin)
        assert np.array_equal(r.reached, reached)
        assert r.reached.dtype == reached.dtype
        assert r.transmissions == tx
        assert np.array_equal(r.unreached,
                              members[~np.isin(members, reached)])
