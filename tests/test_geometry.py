"""Geometric graph construction against the O(n^2) oracle."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geogossip import (build_graph, connectivity_radius, is_connected,
                       sample_points)
from geogossip.routing import restrict_edges

from conftest import SMALL_GRAPHS, make_points, small_graphs


def brute_force_adjacency(points, radius):
    """O(n^2) oracle: (indptr, indices) CSR identical to build_graph's."""
    xy = points.xy
    d = xy[:, None, :] - xy[None, :, :]
    within = (d[..., 0] ** 2 + d[..., 1] ** 2) <= radius * radius
    np.fill_diagonal(within, False)
    indptr = np.zeros(points.n + 1, dtype=np.int64)
    np.cumsum(within.sum(axis=1), out=indptr[1:])
    indices = np.nonzero(within)[1].astype(np.int64)
    return indptr, indices


def test_sample_points_deterministic():
    a = sample_points(4096, seed=7)
    b = sample_points(4096, seed=7)
    np.testing.assert_array_equal(a.xy, b.xy)


def test_sample_points_domain():
    pts = sample_points(1, seed=0)
    assert pts.xy.shape == (1, 2)
    assert np.all(pts.xy >= 0.0) and np.all(pts.xy <= 1.0)


def test_sample_points_rejects_zero():
    with pytest.raises(ValueError):
        sample_points(0, seed=0)


def test_sample_points_uniform_mean():
    pts = sample_points(10 ** 5, seed=3)
    assert abs(pts.xy[:, 0].mean() - 0.5) <= 0.01
    assert abs(pts.xy[:, 1].mean() - 0.5) <= 0.01


def test_connectivity_radius_values():
    # ln e = 1, so r = sqrt(1/e); the n=1000 value is direct arithmetic.
    assert connectivity_radius(math.e, 1.0) == pytest.approx(math.sqrt(1 / math.e))
    assert connectivity_radius(1000, 1.0) == math.sqrt(math.log(1000) / 1000)
    assert connectivity_radius(1000, 1.0) == pytest.approx(0.08311, abs=1e-5)
    assert connectivity_radius(1000, 2.0) == 2 * connectivity_radius(1000, 1.0)
    for n, c in [(1.5, 1.0), (1000, 0.0), (1000, -1.0)]:
        with pytest.raises(ValueError):
            connectivity_radius(n, c)


def test_exact_distance_is_adjacent():
    pts = make_points([[0.1, 0.1], [0.35, 0.1]])
    g = build_graph(pts, 0.25)
    assert list(g.indices) == [1, 0]


def test_full_radius_gives_complete_graph():
    pts = sample_points(40, seed=5)
    g = build_graph(pts, math.sqrt(2.0))
    assert g.indptr[-1] == 40 * 39


def test_build_graph_rejects_bad_radius():
    pts = sample_points(8, seed=0)
    with pytest.raises(ValueError):
        build_graph(pts, 0.0)


def test_bucket_grid_matches_brute_force():
    for seed in range(20):
        n = 100 + 20 * seed
        pts = sample_points(n, seed=seed)
        radius = 0.2 if seed % 2 else connectivity_radius(n, 2.0)
        g = build_graph(pts, radius)
        indptr, indices = brute_force_adjacency(pts, radius)
        np.testing.assert_array_equal(g.indptr, indptr)
        np.testing.assert_array_equal(g.indices, indices)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), radius=st.floats(0.001, 1.5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_build_graph_equals_brute_force(n, radius, seed):
    # radius > 0.5 gives grid_side == 1: a single bucket holds every point
    pts = sample_points(n, seed=seed)
    g = build_graph(pts, radius)
    indptr, indices = brute_force_adjacency(pts, radius)
    assert g.indptr.dtype == indptr.dtype and g.indices.dtype == indices.dtype
    np.testing.assert_array_equal(g.indptr, indptr)
    np.testing.assert_array_equal(g.indices, indices)


def test_duplicate_points_are_adjacent():
    # dx = dy = 0 between distinct ids is an edge; no node is its own neighbor
    pts = make_points([[0.3, 0.3], [0.7, 0.7], [0.3, 0.3], [0.3, 0.3]])
    g = build_graph(pts, 0.1)
    assert [list(g.neighbors(i)) for i in range(4)] == [[2, 3], [], [0, 3],
                                                        [0, 2]]
    indptr, indices = brute_force_adjacency(pts, 0.1)
    np.testing.assert_array_equal(g.indptr, indptr)
    np.testing.assert_array_equal(g.indices, indices)


def test_exact_distance_across_bucket_boundaries():
    # radius 5/16 gives grid_side 3 (boundaries at 1/3, 2/3); every offset
    # below is dyadic, so each squared distance equals radius^2 exactly.
    radius = 5.0 / 16.0
    pts = make_points([
        [0.25, 0.25],          # 0: bucket (0, 0)
        [0.4375, 0.5],         # 1: bucket (1, 1), dx=3/16, dy=4/16 from 0
        [0.5625, 0.25],        # 2: bucket (1, 0), dx=5/16 from 0
        [0.25, 0.5625],        # 3: bucket (0, 1), dy=5/16 from 0
        [0.5625 + 2 ** -40, 0.25 - 2 ** -40],  # 4: just outside 0's ball
    ])
    g = build_graph(pts, radius)
    assert g.grid_side == 3
    assert len(set(g.point_cell[:4].tolist())) == 4
    assert list(g.neighbors(0)) == [1, 2, 3]
    assert 0 not in g.neighbors(4)
    indptr, indices = brute_force_adjacency(pts, radius)
    np.testing.assert_array_equal(g.indptr, indptr)
    np.testing.assert_array_equal(g.indices, indices)


def test_edges_invariant_under_relabeling():
    pts = sample_points(200, seed=9)
    g = build_graph(pts, 0.2)
    perm = np.random.default_rng(1).permutation(200)
    gp = build_graph(make_points(pts.xy[perm]), 0.2)

    def edge_set(graph, relabel=None):
        pairs = set()
        for u in range(graph.n):
            for v in graph.indices[graph.indptr[u]:graph.indptr[u + 1]]:
                a, b = (u, int(v)) if relabel is None else (relabel[u], relabel[int(v)])
                pairs.add((min(a, b), max(a, b)))
        return pairs

    # node i of the permuted graph is node perm[i] of the original
    assert edge_set(gp, relabel=perm) == edge_set(g)


@settings(max_examples=25, deadline=None)
@given(r1=st.floats(0.05, 0.7), r2=st.floats(0.05, 0.7),
       seed=st.integers(0, 50))
def test_radius_monotonicity(r1, r2, seed):
    lo, hi = sorted((r1, r2))
    pts = sample_points(120, seed=seed)
    g_lo = build_graph(pts, lo)
    g_hi = build_graph(pts, hi)
    for u in range(120):
        small = set(g_lo.indices[g_lo.indptr[u]:g_lo.indptr[u + 1]])
        big = set(g_hi.indices[g_hi.indptr[u]:g_hi.indptr[u + 1]])
        assert small <= big


def test_is_connected_small_cases():
    pts = sample_points(30, seed=2)
    assert is_connected(build_graph(pts, math.sqrt(2.0)))
    two = make_points([[0.0, 0.0], [1.0, 1.0]])
    assert not is_connected(build_graph(two, 0.5))


def test_is_connected_two_clusters_one_bridge():
    # two 3x3 grids (spacing r/2) whose only cross pair at distance <= r is
    # (0.1875, 0.1875)-(0.3125, 0.1875), exactly r apart
    r = 0.125
    a = [[x, y] for x in (0.0625, 0.125, 0.1875)
         for y in (0.0625, 0.125, 0.1875)]
    b = [[x, y] for x in (0.3125, 0.375, 0.4375)
         for y in (0.1875, 0.25, 0.3125)]
    g = build_graph(make_points(a + b), r)
    side = np.arange(18) >= 9
    cross = [(u, int(v)) for u in range(18) for v in g.neighbors(u)
             if side[u] != side[v]]
    assert cross == [(8, 9), (9, 8)]
    assert is_connected(g)
    indptr, indices = restrict_edges(g, lambda u, v: side[u] == side[v])
    assert indices.shape[0] == g.indices.shape[0] - 2
    assert not is_connected(dataclasses.replace(g, indptr=indptr,
                                                indices=indices))


def python_bfs_connected(graph):
    # Reference: breadth-first search from node 0, one node at a time.
    seen = {0}
    queue = [0]
    for u in queue:
        for v in graph.neighbors(u).tolist():
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == graph.n


@settings(max_examples=200, deadline=None)
@given(small_graphs())
@example(SMALL_GRAPHS[0])
@example(SMALL_GRAPHS[1])
@example(SMALL_GRAPHS[2])
def test_is_connected_matches_python_bfs(graph):
    assert is_connected(graph) == python_bfs_connected(graph)


def test_default_constant_connects_whp():
    # the w.h.p. regime at c=2: expect >= 99 of 100 seeds connected
    hits = sum(
        is_connected(build_graph(sample_points(4096, seed=s),
                                 connectivity_radius(4096, 2.0)))
        for s in range(100)
    )
    assert hits >= 99
