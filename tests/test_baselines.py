"""Neighbor-averaging and position-routed baselines."""

import numpy as np
import pytest

from geogossip import (
    PointSet,
    build_graph,
    connectivity_radius,
    init_sim,
    route_to_position,
    run,
    sample_points,
    step,
)
from geogossip.engine import (BLOCK_VALUES, GEO_ATTEMPT_CAP, ROW_WIDTH,
                              geo_acceptance)

from conftest import LAST, LastRows, make_points


@pytest.fixture(scope="module")
def graph256b():
    pts = sample_points(256, seed=11)
    return build_graph(pts, connectivity_radius(256, 2.0))


# -------------------------------------------------------------------- boyd

def test_boyd_pair_average():
    pts = make_points([(0.2, 0.2), (0.3, 0.2)])
    g = build_graph(pts, 0.15)
    st = init_sim(g, seed=0, init_dist=np.array([-1.0, 1.0]),
                  algorithm="boyd")
    events = step(st)
    assert np.array_equal(st.x, [0.0, 0.0])
    assert events[0].action == "near" and events[0].count == 2
    assert st.ledger_totals()["near"] == 2
    assert st.ledger_totals()["far_routing"] == 0


def test_boyd_conserves_sum(graph256b):
    st = init_sim(graph256b, seed=5, init_dist="gauss", algorithm="boyd")
    run(st, max_ticks=50_000, stride=10_000)
    assert abs(st.x.sum() - st.sum0) <= 1e-9 * st.l1_0
    assert st.ledger_totals()["near"] == 2 * 50_000


def test_boyd_converges(graph256b):
    st = init_sim(graph256b, seed=3, init_dist="gradient", algorithm="boyd")
    series = run(st, max_ticks=500_000, target_ratio=0.1, stride=20_000)
    assert series.stop_reason == "target"
    assert st.fault_totals()["isolated_near"] == 0


def test_boyd_isolated_nodes_fault_not_crash():
    pts = make_points([(0.1, 0.1), (0.9, 0.1), (0.1, 0.9), (0.9, 0.9)])
    g = build_graph(pts, 0.05)   # no edges at all
    st = init_sim(g, seed=0, init_dist="gauss", algorithm="boyd")
    before = st.x.copy()
    for _ in range(10):
        step(st)
    assert st.fault_totals()["isolated_near"] == 10
    assert np.array_equal(st.x, before)


BLOCK = {a: BLOCK_VALUES // ROW_WIDTH[a] for a in ("boyd", "geo")}


@pytest.mark.parametrize("algorithm,stride",
                         [(a, s) for a in ("boyd", "geo")
                          for s in (1, 7, BLOCK[a] + 1)])
def test_bulk_with_isolated_nodes_matches_logged(algorithm, stride):
    # 10 of these 64 sensors have no neighbour and the rest have some, so
    # bulk blocks mix exchanges with ticks that exchange nothing.
    g = build_graph(sample_points(64, seed=1), 0.1)
    isolated = np.diff(g.indptr) == 0
    assert 0 < np.count_nonzero(isolated) < g.n
    ticks = 2 * BLOCK[algorithm] + 5
    a = init_sim(g, seed=3, init_dist="gauss", algorithm=algorithm)
    b = init_sim(g, seed=3, init_dist="gauss", algorithm=algorithm)
    for _ in range(ticks):
        step(a)
    run(b, max_ticks=ticks, stride=stride)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.ledger, b.ledger)
    assert np.array_equal(a.faults, b.faults)
    if algorithm == "boyd":
        assert a.fault_totals()["isolated_near"] > 0
        assert a.ledger_totals()["near"] > 0
        return
    # Every attempt from an isolated sensor stops where it started: no
    # candidate, so no exchange, no cap fault, target -1 and ok False.
    assert a.ledger_totals()["far_routing"] > 0
    c = init_sim(g, seed=3, init_dist="gauss", algorithm="geo")
    lonely = 0
    for _ in range(ticks):
        x, faults = c.x.copy(), c.faults.copy()
        (ev,) = step(c)
        if isolated[ev.node]:
            lonely += 1
            assert (ev.target, ev.count, ev.ok) == (-1, 0, False)
            assert np.array_equal(c.x, x)
            assert np.array_equal(c.faults, faults)
    assert lonely > 0


def test_boyd_deterministic(graph256b):
    a = init_sim(graph256b, seed=7, init_dist="uniform", algorithm="boyd")
    b = init_sim(graph256b, seed=7, init_dist="uniform", algorithm="boyd")
    run(a, max_ticks=5_000, stride=1_000)
    for _ in range(5_000):
        step(b)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.ledger, b.ledger)


def test_boyd_last_uniform_picks_last_node_and_neighbor(graph256b):
    st = init_sim(graph256b, seed=0, init_dist="gauss", algorithm="boyd")
    st.rng = LastRows()
    ev = step(st)[0]
    s = graph256b.n - 1
    assert (ev.node, ev.target) == \
        (s, graph256b.indices[graph256b.indptr[s + 1] - 1])


# --------------------------------------------------------------------- geo

def test_geo_round_trip_accounting(graph256b):
    st = init_sim(graph256b, seed=2, init_dist="gauss", algorithm="geo")
    total = st.x.sum()
    for _ in range(200):
        events = step(st)
        ev = events[0]
        assert ev.action == "far"
        assert ev.count % 2 == 0   # every routed hop is paid both ways
    assert st.ledger_totals()["far_routing"] >= 2 * 200 * 1
    assert st.ledger_totals()["near"] == 0
    assert abs(st.x.sum() - total) <= 1e-9 * st.l1_0


def test_geo_converges(graph256b):
    st = init_sim(graph256b, seed=3, init_dist="gradient", algorithm="geo")
    series = run(st, max_ticks=500_000, target_ratio=0.1, stride=20_000)
    assert series.stop_reason == "target"
    assert st.fault_totals()["routing_failure"] == 0


def test_geo_rejection_cap_fires_when_acceptance_is_zeroed(graph256b):
    st = init_sim(graph256b, seed=4, algorithm="geo")
    st.geo_accept[:] = 0.0
    events = step(st)
    ev = events[0]
    assert st.fault_totals()["geo_reject_cap"] == 1
    assert ev.ok   # the capped attempt still completes an exchange
    # one full attempt burst: at least CAP round trips were paid
    assert ev.count >= 2 * GEO_ATTEMPT_CAP


def test_geo_last_uniforms_pick_last_node_and_cap_in_one_row(graph256b):
    st = init_sim(graph256b, seed=4, algorithm="geo")
    st.geo_accept[:] = 0.0
    st.rng = LastRows()
    s = graph256b.n - 1
    route = route_to_position(graph256b, s, LAST, LAST)
    assert route.hops > 0   # the stop node is a candidate, not s itself
    ev = step(st)[0]
    assert (ev.node, ev.target, ev.ok) == (s, int(route.path[-1]), True)
    assert ev.count == 2 * GEO_ATTEMPT_CAP * route.hops
    assert st.fault_totals()["geo_reject_cap"] == 1
    assert st.rng.drawn == ROW_WIDTH["geo"]
    run(st, max_ticks=3, stride=2)   # the bulk path reads the same rows
    assert st.fault_totals()["geo_reject_cap"] == 3
    assert st.rng.drawn == 3 * ROW_WIDTH["geo"]


def test_geo_deterministic(graph256b):
    a = init_sim(graph256b, seed=9, init_dist="uniform", algorithm="geo")
    b = init_sim(graph256b, seed=9, init_dist="uniform", algorithm="geo")
    run(a, max_ticks=2_000, stride=500)
    for _ in range(2_000):
        step(b)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.ledger, b.ledger)
    assert np.array_equal(a.faults, b.faults)


def test_geo_acceptance_probabilities(graph256b):
    acc = geo_acceptance(graph256b)
    assert acc.shape == (256,)
    assert np.all(acc > 0) and np.all(acc <= 1)
    # crowded buckets are accepted with certainty
    assert np.any(acc == 1.0)
