"""Event engine: tick kernels, stepping, ledgers, faults."""

import bisect
import copy
import dataclasses
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as hst

from geogossip import affine, engine
from geogossip import (
    EmptyCellError,
    build_graph,
    build_hierarchy,
    build_schedule,
    connectivity_radius,
    greedy_route,
    init_sim,
    initial_values,
    replay_ledger,
    run,
    sample_points,
    step,
)
from geogossip.engine import block_rows
from geogossip.hierarchy import RepresentativeError

from conftest import LAST, LastRows, grid_points, make_points


def make_sim(graph, hierarchy, x0, seed=0, **sched_kw):
    kw = dict(mode="practical")
    kw.update(sched_kw)
    sched = build_schedule(graph.n, 1e-2, 1e-1, 1.0, hierarchy,
                           kw.pop("mode"), **kw)
    return init_sim(graph, hierarchy, sched, seed=seed, init_dist=x0)


def drain(st):
    """Apply the ops the kernels left in st.ops; return their events."""
    return engine._take_events(st)


def tick_row(n, s, coin=LAST, sibling=0.0):
    """A hier tick row fired by node s, its far coin and sibling pick."""
    return [(s + 0.5) / n, coin, sibling, 0.5]


def sibling_pick(hierarchy, c, cp):
    """The uniform with which _far from square c picks its sibling cp."""
    nsib = hierarchy.subdiv_at_depth[hierarchy.cell_depth[c] - 1] - 1
    k = cp - hierarchy.cell_child_start[hierarchy.cell_parent[c]] - (cp > c)
    return (k + 0.5) / nsib


@pytest.fixture(scope="module")
def quad_sim_parts(quad16):
    graph, hierarchy = quad16
    return graph, hierarchy


# ------------------------------------------------------------------- init

def test_init_only_root_square_awake(quad16):
    graph, hierarchy = quad16
    st = make_sim(graph, hierarchy, "spike")
    assert np.array_equal(np.flatnonzero(st.global_on), [0])
    assert not st.local_on.any()
    assert not st.counter.any()
    assert not st.cell_active.any()
    assert st.tick == 0
    assert st.x.mean() == pytest.approx(0.0, abs=1e-15)
    assert st.norm0 == pytest.approx(float(np.linalg.norm(st.x)))


def test_init_deterministic(quad16):
    graph, hierarchy = quad16
    a = make_sim(graph, hierarchy, "gauss", seed=3)
    b = make_sim(graph, hierarchy, "gauss", seed=3)
    assert np.array_equal(a.x, b.x)


def test_initial_values_distributions():
    rng = np.random.default_rng(0)
    xy = sample_points(32, 1).xy
    for dist in ("spike", "uniform", "gauss", "gradient"):
        x = initial_values(32, dist, rng, xy=xy)
        assert x.shape == (32,)
        assert abs(x.mean()) <= 1e-12
    explicit = initial_values(4, np.array([1.0, 2.0, 3.0, 4.0]), rng)
    assert np.allclose(explicit, [-1.5, -0.5, 0.5, 1.5])
    with pytest.raises(ValueError):
        initial_values(4, np.zeros(5), rng)
    with pytest.raises(ValueError):
        initial_values(4, "triangle", rng)


def test_init_rejects_inconsistent_inputs(quad16):
    graph, hierarchy = quad16
    sched = build_schedule(16, 1e-2, 1e-1, 1.0, hierarchy, "practical")
    with pytest.raises(ValueError):
        init_sim(graph, hierarchy, sched, seed=0, algorithm="fast")
    with pytest.raises(ValueError):
        init_sim(graph, None, None, seed=0)
    other = build_hierarchy(sample_points(16, seed=1), 4)
    with pytest.raises(ValueError):
        init_sim(graph, other, sched, seed=0)
    flat = build_hierarchy(graph.points, 100)
    with pytest.raises(ValueError):
        init_sim(graph, flat, sched, seed=0)


def test_init_rejects_a_start_without_a_finite_norm(quad16):
    # The squares of +-1e200 overflow float64, so no run could record an
    # error ratio; init_sim says so at once, without a numpy warning.
    graph, hierarchy = quad16
    sched = build_schedule(16, 1e-2, 1e-1, 1.0, hierarchy, "practical")
    x0 = np.where(np.arange(16) % 2 == 0, 1e200, -1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (x0, np.full(16, np.nan)):
            with pytest.raises(ValueError, match="norm"):
                init_sim(graph, hierarchy, sched, seed=0, init_dist=bad)
        st = init_sim(graph, hierarchy, sched, seed=0, init_dist=x0 * 1e-50)
    assert st.norm0 == pytest.approx(4e150)


# ---------------------------------------------- kernels, explicit uniforms

def test_near_exchange_averages_pair():
    pts = make_points([(0.1, 0.5), (0.3, 0.5), (0.5, 0.5)])
    graph = build_graph(pts, 0.25)
    hierarchy = build_hierarchy(pts, 10)
    st = make_sim(graph, hierarchy, np.array([1.0, -1.0, 0.0]))
    # node 0 has exactly one in-leaf neighbor, so the pick is forced
    engine._near(st, 0.5, 0)
    events = drain(st)
    assert np.allclose(st.x, [0.0, 0.0, 0.0])
    assert len(events) == 1
    ev = events[0]
    assert (ev.action, ev.node, ev.target, ev.count, ev.ok) == \
        ("near", 0, 1, 2, True)
    assert st.ledger_totals()["near"] == 2


def test_far_exchange_scaled_swap(quad16):
    graph, hierarchy = quad16
    x0 = np.zeros(16)
    x0[0], x0[1] = 1.0, -1.0   # node 0 represents its leaf square
    st = make_sim(graph, hierarchy, x0)
    assert engine._far(st, 0.0, 0, int(hierarchy.cell_of_rep[0]))
    ev = drain(st)[0]
    assert ev.action == "far" and ev.ok and ev.count == 2
    # kick size 0.4 * expected leaf count (4) times the difference
    assert st.x[0] == pytest.approx(-0.6)
    assert st.x[ev.target] == pytest.approx(1.6)
    assert st.x[1] == -1.0
    assert st.ledger_totals()["far_routing"] == 2
    c, cp = hierarchy.cell_of_rep[[0, ev.target]]
    assert st.counter[c] == 0 and st.counter[cp] == 0
    assert st.x.sum() == pytest.approx(0.0, abs=1e-12)


def test_far_exchange_conserves_sum_under_load(quad16):
    graph, hierarchy = quad16
    rng = np.random.default_rng(9)
    x0 = rng.normal(size=16)
    st = make_sim(graph, hierarchy, x0)
    total = st.x.sum()
    for _ in range(100):
        c = int(rng.integers(1, 5))
        engine._far(st, rng.random(), int(hierarchy.cell_rep[c]), c)
        drain(st)
    # the kicks compound the magnitudes, so judge drift against the scale
    assert abs(st.x.sum() - total) <= 1e-12 * np.abs(st.x).sum()


def test_activate_deactivate_leaf_round_trip(quad16):
    graph, hierarchy = quad16
    st = make_sim(graph, hierarchy, "spike")
    rep = int(hierarchy.cell_rep[1])
    members = hierarchy.members_of(1)
    # a leaf floods its members and changes no child square
    assert engine._toggle(st, rep, c=1, r=1, on=1) == []
    on = drain(st)
    assert on[0].action == "flood_on" and on[0].ok
    assert np.array_equal(np.sort(np.flatnonzero(st.local_on)), members)
    assert st.cell_active[1] == 1
    engine._toggle(st, rep, c=1, r=1, on=0)
    off = drain(st)
    assert off[0].action == "flood_off" and off[0].ok
    assert not st.local_on.any()
    assert st.cell_active[1] == 0
    # both floods traverse every in-leaf edge twice (4 nodes, complete)
    assert st.ledger_totals()["flood"] == 24


def test_deactivate_inactive_square_is_free(quad16):
    graph, hierarchy = quad16
    st = make_sim(graph, hierarchy, "spike")
    rep = int(hierarchy.cell_rep[1])
    assert not engine._toggle(st, rep, c=1, r=1, on=0)
    assert drain(st) == []
    assert st.ledger_totals()["flood"] == 0


def test_root_activate_wakes_children(quad16):
    graph, hierarchy = quad16
    st = make_sim(graph, hierarchy, "spike")
    root = int(hierarchy.cell_rep[0])
    st.counter[1:5] = 5
    engine._toggle(st, root, c=0, r=0, on=1)
    ev = drain(st)[0]
    assert ev.action == "activate" and ev.ok and ev.count == 4
    assert np.all(st.global_on[1:5] == 1)
    assert np.all(st.counter[1:5] == 0)
    assert st.ledger_totals()["activate"] == 4
    st.counter[1:5] = 3
    engine._toggle(st, root, c=0, r=0, on=0)
    drain(st)
    assert np.array_equal(np.flatnonzero(st.global_on), [0])
    assert np.all(st.counter[1:5] == 3)   # only activation resets
    assert st.ledger_totals()["deactivate"] == 4


def test_far_into_active_square_counts_concurrency(quad16):
    graph, hierarchy = quad16
    x0 = np.zeros(16)
    x0[0], x0[1] = 1.0, -1.0
    st = make_sim(graph, hierarchy, x0)
    assert hierarchy.cell_of_rep[0] == 1
    for c in range(2, 5):
        engine._toggle(st, int(hierarchy.cell_rep[c]), c=c, r=1, on=1)
    drain(st)
    engine._far(st, 0.0, 0, 1)
    assert drain(st)[0].ok  # the exchange still happens
    assert st.fault_totals()["concurrent_round"] == 1


@pytest.mark.parametrize("c, cp, in_band", [(3, 4, True), (2, 3, False)],
                         ids=["in-band", "out-of-band"])
def test_far_exchange_is_the_affine_update_on_square_sums(sparse128_short,
                                                          c, cp, in_band):
    # Two sibling leaves S and S' at constant values: a completed far
    # exchange moves their sums (A, B) as the affine pair update does, with
    # weights k/|S| and k/|S'| for the kick k = 0.4 E#.  Leaves 3 and 4 have
    # 8 and 9 members, leaf 2 has 10, so 2's weight 0.32 lies below 1/3:
    # update_matrix, which does not validate its weights, predicts it.
    graph, hierarchy, sched = sparse128_short
    st = init_sim(graph, hierarchy, sched, seed=0)
    S, P = hierarchy.members_of(c), hierarchy.members_of(cp)
    st.x[:] = 0.0
    st.x[S] = 1.0
    st.x[P] = -0.5
    sums = np.array([1.0 * len(S), -0.5 * len(P)])
    k = 0.4 * hierarchy.expected_at_depth[1]
    alpha = np.array([k / len(S), k / len(P)])
    assert in_band == bool(np.all((alpha > affine.ALPHA_LOW)
                                  & (alpha < affine.ALPHA_HIGH)))
    assert engine._far(st, sibling_pick(hierarchy, c, cp),
                       int(hierarchy.cell_rep[c]), c) == cp
    engine._apply(st.xv, st.ops)
    if in_band:
        want = affine.affine_pair_update(sums, 0, 1, alpha)
    else:
        want = affine.update_matrix(2, 0, 1, alpha) @ sums
    assert [st.x[S].sum(), st.x[P].sum()] == pytest.approx(want, abs=1e-12)


# ------------------------------------- the other squares a live tick changes

@pytest.mark.parametrize("on", [1, 0], ids=["restart", "round-end"])
def test_root_fan_out_changes_the_children_it_reached(sparse128_short, on):
    # A root restart changes each child its route reaches and resets its
    # counter; a round end changes the same children and leaves their
    # counters.  On sparse128 some routes fail, and those children are not
    # changed.
    graph, hierarchy, sched = sparse128_short
    assert hierarchy.total_levels == 2   # every other square is a child
    st = init_sim(graph, hierarchy, sched, seed=0)
    root = int(hierarchy.cell_rep[0])
    reached = [c for c in range(1, hierarchy.n_cells)
               if greedy_route(graph, root,
                               int(hierarchy.cell_rep[c])).success]
    assert 0 < len(reached) < hierarchy.n_cells - 1
    if on == 0:
        st.cell_active[0] = 1
        st.counter[0] = int(np.ceil(sched.time[0]))
    changed = engine._tick_hier(st, tick_row(graph.n, root), root)
    assert changed == [(c, on == 1) for c in reached]
    ev, = drain(st)
    assert (ev.action, ev.ok) == ("activate" if on else "deactivate", False)


def test_far_exchange_changes_its_partner_once_completed(sparse128_short):
    # A completed far exchange changes its partner square and resets its
    # counter; one that meets a dead end changes no other square.
    graph, hierarchy, sched = sparse128_short
    rep = hierarchy.cell_rep.tolist()
    for c, cp, ok in ((3, 4, True), (1, 11, False)):
        assert greedy_route(graph, rep[c], rep[cp]).success == ok
        st = init_sim(graph, hierarchy, sched, seed=0)
        st.global_on[c] = 1
        st.counter[c] = 1   # mid-round: no restart and no round end
        u = tick_row(graph.n, rep[c], coin=0.0,
                     sibling=sibling_pick(hierarchy, c, cp))
        assert engine._tick_hier(st, u, rep[c]) == ([(cp, True)] if ok
                                                     else [])
        assert [(ev.action, ev.target, ev.ok) for ev in drain(st)] == \
            [("far", rep[cp], ok)]


def test_plain_tick_and_leaf_flood_change_no_other_square(quad16):
    graph, hierarchy = quad16
    st = make_sim(graph, hierarchy, "spike")
    plain = int(np.flatnonzero(hierarchy.cell_of_rep < 0)[0])
    st.local_on[plain] = 1
    assert engine._tick_hier(st, tick_row(graph.n, plain), plain) == []
    rep = int(hierarchy.cell_rep[1])
    st.global_on[1] = 1
    assert engine._tick_hier(st, tick_row(graph.n, rep), rep) == []
    assert [ev.action for ev in drain(st)] == ["near", "flood_on", "near"]


def test_root_round_end_counts_one_root_round(quad16):
    # Ending the root's round adds 1 to ROOT_ROUNDS; winding down a root
    # with no running round sends nothing and adds 0.
    graph, hierarchy = quad16
    st = make_sim(graph, hierarchy, "spike")
    root = int(hierarchy.cell_rep[0])
    end = int(np.ceil(st.schedule.time[0]))
    for active in (0, 1):
        st.cell_active[0] = active
        st.counter[0] = end
        before = st.root_rounds
        changed = engine._tick_hier(st, tick_row(graph.n, root), root)
        assert st.root_rounds - before == active
        assert changed == [(c, False) for c in range(1, 5) if active]
        assert st.counter[0] == 0
    assert [ev.action for ev in drain(st)] == ["deactivate"]


def test_isolated_near_is_counted_not_crashed(straddler):
    graph, hierarchy = straddler
    x0 = np.arange(7.0) - 3.0
    st = make_sim(graph, hierarchy, x0)
    before = st.x.copy()
    engine._near(st, 0.5, 2)
    assert drain(st) == []
    assert st.fault_totals()["isolated_near"] == 1
    assert np.array_equal(st.x, before)
    assert st.ledger_totals()["near"] == 0


def test_flood_gap_counted_per_missed_member(straddler):
    graph, hierarchy = straddler
    st = make_sim(graph, hierarchy, "spike")
    leaf = int(hierarchy.leaf_of[2])
    engine._toggle(st, int(hierarchy.cell_rep[leaf]), c=leaf, r=1, on=1)
    ev = drain(st)[0]
    assert ev.action == "flood_on" and not ev.ok
    assert st.fault_totals()["flood_gap"] == 1
    assert np.array_equal(np.flatnonzero(st.local_on), [0, 1])


def test_single_member_square_costs_nothing():
    pts = make_points([(0.45, 0.45), (0.2, 0.2), (0.2, 0.8),
                       (0.8, 0.8), (0.8, 0.2)])
    graph = build_graph(pts, 1.5)
    hierarchy = build_hierarchy(pts, 2)
    st = make_sim(graph, hierarchy, "spike")
    leaf = int(hierarchy.leaf_of[2])
    rep = int(hierarchy.cell_rep[leaf])
    engine._toggle(st, rep, c=leaf, r=1, on=1)
    on = drain(st)
    assert on[0].count == 0 and on[0].ok
    assert np.array_equal(np.flatnonzero(st.local_on), [2])
    assert st.fault_totals()["flood_gap"] == 0
    engine._toggle(st, rep, c=leaf, r=1, on=0)
    drain(st)
    assert not st.local_on.any()
    assert st.ledger_totals()["flood"] == 0


# ------------------------------------------------------------ whole runs

@pytest.fixture(scope="module")
def sim256():
    pts = sample_points(256, seed=11)
    graph = build_graph(pts, connectivity_radius(256, 2.0))
    hierarchy = build_hierarchy(pts, 16.0)
    sched = build_schedule(256, 1e-2, 1e-1, 1.0, hierarchy, "practical")
    return graph, hierarchy, sched


def sparse128(c1):
    """A connected graph too sparse for greedy routing, so that some
    fan-outs and far exchanges meet a dead end; two depths."""
    pts = sample_points(128, 1)
    graph = build_graph(pts, connectivity_radius(128, 0.9))
    hierarchy = build_hierarchy(pts, 16.0)
    sched = build_schedule(128, 1e-2, 1e-1, 1.0, hierarchy, "practical",
                           c1=c1)
    return graph, hierarchy, sched


@pytest.fixture(scope="module")
def sparse128_short():
    """Rounds of 24 and 2 own ticks: within 6k ticks the root's rounds end
    and restart, and both its activations and deactivations fail."""
    return sparse128(0.2)


@pytest.fixture(scope="module")
def sparse128_long():
    """Leaf rounds of 190 own ticks: a leaf whose activation failed still
    counts its quiet ticks after 6k ticks, so a bulk runner that
    rescheduled it from the activation would lose those before it."""
    return sparse128(20.0)


def test_step_matches_bulk_run_exactly(sim256):
    graph, hierarchy, sched = sim256
    a = init_sim(graph, hierarchy, sched, seed=5, init_dist="gauss")
    b = init_sim(graph, hierarchy, sched, seed=5, init_dist="gauss")
    for _ in range(20_000):
        step(a)
    run(b, max_ticks=20_000, stride=5_000)
    assert a.tick == b.tick == 20_000
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.ledger, b.ledger)
    assert np.array_equal(a.faults, b.faults)


def test_event_log_replays_ledger(sim256):
    graph, hierarchy, sched = sim256
    st = init_sim(graph, hierarchy, sched, seed=5, init_dist="gauss")
    events = [ev for _ in range(20_000) for ev in step(st)]
    assert np.array_equal(replay_ledger(events), st.ledger)
    assert any(ev.action == "near" for ev in events)
    assert any(ev.action == "flood_on" for ev in events)


def test_every_count_reader_sees_its_entry_of_the_count_vector(sim256):
    # Distinct powers of two, so a sum names the entries it added.
    graph, hierarchy, sched = sim256
    st = init_sim(graph, hierarchy, sched, seed=5, init_dist="gauss")
    st.counts[:] = [1 << i for i in range(len(st.counts))]
    ledger, faults = [1, 2, 4, 8, 16], [32, 64, 128, 256, 512]
    assert st.ledger.tolist() == ledger
    assert st.faults.tolist() == faults
    assert st.root_rounds == 1024
    assert st.ledger_totals() == dict(zip(engine.LEDGER_NAMES, ledger))
    assert st.fault_totals() == dict(zip(engine.FAULT_NAMES, faults))
    row = engine.snapshot(st)
    assert (row.transmissions_total, row.transmissions_near,
            row.transmissions_far_routing, row.transmissions_control) == (
        31, 1, 2, 28)
    assert [row.fault_routing, row.fault_isolated_near,
            row.fault_concurrent_round, row.fault_flood_gap,
            row.fault_geo_reject] == faults
    # A copy's readers read the copy's counts.
    twin = copy.deepcopy(st)
    twin.counts[engine.LEDGER_NEAR] += 1
    assert twin.ledger[0] == 2 and st.ledger[0] == 1


def test_a_state_and_its_copies_each_write_through_their_own_view(sim256):
    graph, hierarchy, sched = sim256
    st = init_sim(graph, hierarchy, sched, seed=5, init_dist="gauss")
    x0 = st.x.copy()
    deep = copy.deepcopy(st)
    pickled = pickle.loads(pickle.dumps(st))
    for s in (st, deep, pickled):
        assert s.xv.obj is s.x
    assert deep.x is not st.x and pickled.x is not st.x
    # Stepping a copy through ticks with ops moves that copy's values only.
    ops = 0
    for _ in range(3_000):
        ops += sum(ev.action in ("near", "far") for ev in step(deep))
    assert ops > 0
    assert not np.array_equal(deep.x, x0)
    assert np.array_equal(st.x, x0) and np.array_equal(pickled.x, x0)
    # A copy run in bulk ends where a stepped copy does.
    bulk = copy.deepcopy(st)
    run(bulk, max_ticks=3_000, stride=1_000)
    assert_same_state(deep, bulk)
    assert np.array_equal(st.x, x0) and st.tick == 0


@pytest.mark.parametrize("algorithm, how", [
    ("hier", "bulk"), ("boyd", "bulk"), ("geo", "bulk"), ("hier", "logged"),
    ("hier", "target"), ("boyd", "target"), ("geo", "target"),
])
def test_counts_stay_python_ints(sim256, algorithm, how):
    st = fresh_state(sim256, algorithm)
    if how == "target":
        # a stop inside a block, which redraws the block up to the stop
        target = {"hier": 0.1, "boyd": 1e-3, "geo": 0.3}[algorithm]
        series = run(st, max_ticks=1_000_000, stride=7, target_ratio=target)
        assert series.stop_reason == "target"
        assert st.tick % block_rows(algorithm) != 0
    else:
        run(st, max_ticks=10_000, stride=1_000,
            event_sink=[].extend if how == "logged" else None)
    assert len(st.counts) == engine.ROOT_ROUNDS + 1
    assert all(type(v) is int for v in st.counts)
    assert sum(st.counts) > 0
    ledger, faults = st.ledger, st.faults
    assert ledger.dtype == np.int64 and faults.dtype == np.int64
    counts = list(st.counts)
    ledger += 1
    faults += 1
    assert st.counts == counts
    assert type(st.root_rounds) is int


def test_sum_conserved_over_run(sim256):
    graph, hierarchy, sched = sim256
    st = init_sim(graph, hierarchy, sched, seed=7, init_dist="gradient")
    run(st, max_ticks=50_000, stride=10_000)
    assert abs(st.x.sum() - st.sum0) <= 1e-6 * st.l1_0


def test_error_ratio_reaches_target(sim256):
    graph, hierarchy, sched = sim256
    st = init_sim(graph, hierarchy, sched, seed=1, init_dist="gradient")
    series = run(st, max_ticks=1_000_000, target_ratio=0.1, stride=20_000)
    assert series.stop_reason == "target"
    assert series.final.err_l2_ratio <= 0.1
    assert series.records[0].err_l2_ratio == pytest.approx(1.0)
    # All-zero values have nothing to average: the ratio reads 0 at once.
    zero = init_sim(graph, hierarchy, sched, seed=1,
                    init_dist=np.zeros(graph.n))
    series = run(zero, target_ratio=0.1)
    assert series.stop_reason == "target"
    assert (series.final.tick, series.final.err_l2_ratio) == (0, 0.0)


def test_single_leaf_reduces_to_neighbor_gossip():
    pts = sample_points(64, seed=3)
    graph = build_graph(pts, connectivity_radius(64, 2.0))
    hierarchy = build_hierarchy(pts, 1e4)
    sched = build_schedule(64, 1e-2, 1e-1, 1.0, hierarchy, "practical")
    st = init_sim(graph, hierarchy, sched, seed=1, init_dist="gauss")
    series = run(st, max_ticks=200_000, target_ratio=0.1, stride=2_000)
    assert series.stop_reason == "target"
    # no siblings anywhere, so no long-range traffic can exist
    assert st.ledger_totals()["far_routing"] == 0
    assert st.fault_totals()["routing_failure"] == 0


def test_unstable_schedule_reports_divergence():
    # gamma * C1 far below the Far kick scale makes the kicks compound;
    # the run must stop with a typed reason instead of recording nonfinite
    # rows or crashing
    pts = sample_points(256, seed=11)
    graph = build_graph(pts, connectivity_radius(256, 2.0))
    hierarchy = build_hierarchy(pts, 16.0)
    sched = build_schedule(256, 1e-2, 1e-1, 1.0, hierarchy, "practical",
                           c1=0.5, gamma=1.0)
    st = init_sim(graph, hierarchy, sched, seed=0, init_dist="spike")
    series = run(st, max_ticks=3_000_000, stride=20_000)
    assert series.stop_reason == "diverged"
    assert all(np.isfinite(r.err_l2_ratio) for r in series.records)


def test_run_of_diverged_state_has_no_final_record(sim256):
    # a state whose values are already not finite stops at its first
    # boundary with no record; final says so instead of raising
    graph, hierarchy, sched = sim256
    st = init_sim(graph, hierarchy, sched, seed=0, algorithm="boyd")
    st.x[0] = np.inf
    series = run(st, max_ticks=1000)
    assert series.stop_reason == "diverged"
    assert series.records == []
    assert series.final is None


def test_run_requires_stop_condition(sim256):
    graph, hierarchy, sched = sim256
    st = init_sim(graph, hierarchy, sched, seed=0)
    with pytest.raises(ValueError):
        run(st)
    with pytest.raises(ValueError):
        run(st, max_ticks=10, stride=0)


def test_logged_run_matches_silent_run(sim256):
    graph, hierarchy, sched = sim256
    a = init_sim(graph, hierarchy, sched, seed=2, init_dist="gauss")
    b = init_sim(graph, hierarchy, sched, seed=2, init_dist="gauss")
    sink = []
    run(a, max_ticks=5_000, stride=1_000, event_sink=sink.extend)
    run(b, max_ticks=5_000, stride=1_000)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.ledger, b.ledger)
    assert len(sink) > 0


def test_step_advances_tick(quad16):
    graph, hierarchy = quad16
    st = make_sim(graph, hierarchy, "spike")
    for expected in range(5):
        assert st.tick == expected
        step(st)


STATE_FIELDS = ("x", "ledger", "faults", "local_on", "global_on", "counter",
                "cell_active", "root_rounds")


def fresh_state(sim256, algorithm):
    graph, hierarchy, sched = sim256
    if algorithm != "hier":
        hierarchy = sched = None
    return init_sim(graph, hierarchy, sched, seed=5, init_dist="gauss",
                    algorithm=algorithm)


def assert_same_state(a, b):
    assert a.tick == b.tick
    for name in STATE_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    # equal generator states: neither path drew a value the other did not
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


@pytest.mark.parametrize("algorithm", ["hier", "boyd", "geo"])
def test_round_state_has_one_entry_per_square(sim256, algorithm):
    # global_on, counter and cell_active are indexed by cell id, from
    # init_sim through bulk and logged runs; boyd and geo have one square.
    squares = sim256[1].n_cells if algorithm == "hier" else 1
    st = fresh_state(sim256, algorithm)
    if algorithm == "hier":
        assert np.array_equal(np.flatnonzero(st.global_on), [0])
    bulk = fresh_state(sim256, algorithm)
    run(bulk, max_ticks=2000, stride=700)
    logged = fresh_state(sim256, algorithm)
    run(logged, max_ticks=2000, stride=700, event_sink=lambda events: None)
    for state in (st, bulk, logged):
        for name in ("global_on", "counter", "cell_active"):
            assert getattr(state, name).shape == (squares,), name


@pytest.fixture(scope="module")
def graph2048():
    """A graph for boyd and geo on which a short stride's block has far
    fewer ops than n, so it writes x only at its ops' endpoints."""
    pts = sample_points(2048, seed=11)
    return build_graph(pts, connectivity_radius(2048, 2.0)), None, None


@pytest.mark.parametrize("sim, algorithm", [
    *(pytest.param("sim256", a, id=a) for a in ("hier", "boyd", "geo")),
    *(pytest.param("graph2048", a, id=f"{a}-n2048") for a in ("boyd", "geo")),
])
def test_bulk_run_is_stride_and_block_invariant(request, sim, algorithm):
    sim = request.getfixturevalue(sim)
    rows = block_rows(algorithm)
    ticks = 3 * rows + 5
    states = []
    for stride in (1, 7, sim[0].n, rows + 1):
        st = fresh_state(sim, algorithm)
        run(st, max_ticks=ticks, stride=stride)
        states.append(st)
    assert states[0].ledger.sum() > 0
    for st in states[1:]:
        assert_same_state(states[0], st)


@pytest.mark.parametrize("algorithm", ["hier", "boyd", "geo"])
def test_step_matches_bulk_across_block_boundary(sim256, algorithm):
    ticks = block_rows(algorithm) + 3
    a = fresh_state(sim256, algorithm)
    b = fresh_state(sim256, algorithm)
    for _ in range(ticks):
        step(a)
    run(b, max_ticks=ticks, stride=ticks)
    assert_same_state(a, b)
    # A step after a bulk run returns its own tick's events and no more.
    events = step(b)
    assert events and {ev.tick for ev in events} == {ticks}
    assert events == step(a)


@pytest.mark.parametrize("sim, algorithm", [
    *(pytest.param("sim256", a, id=a) for a in ("hier", "boyd", "geo")),
    pytest.param("sparse128_short", "hier", id="hier-sparse"),
    pytest.param("sparse128_long", "hier", id="hier-sparse-long"),
])
@pytest.mark.parametrize("stride", ["1", "7", "block+1"])
def test_logged_run_matches_stepping_and_bulk(request, sim, algorithm,
                                              stride):
    # A logged run hands step the rows of its blocks; a step-only loop
    # draws one row a tick, and the bulk run draws the same blocks.  ticks
    # is no multiple of 7 or of a block plus one, so the last stride ends
    # mid-block.  On sparse128 some fan-outs fail, and the bulk runner
    # must reschedule only the children whose route succeeded.
    name = sim
    sim = request.getfixturevalue(sim)
    rows = block_rows(algorithm)
    stride = {"1": 1, "7": 7, "block+1": rows + 1}[stride]
    ticks = rows + 1 + rows // 2
    assert ticks % stride or stride == 1
    stepped = fresh_state(sim, algorithm)
    stepped_events = [ev for _ in range(ticks) for ev in step(stepped)]
    logged = fresh_state(sim, algorithm)
    logged_events = []
    run(logged, max_ticks=ticks, stride=stride,
        event_sink=logged_events.extend)
    bulk = fresh_state(sim, algorithm)
    run(bulk, max_ticks=ticks, stride=stride)
    assert stepped.ledger.sum() > 0
    failed = {ev.action for ev in stepped_events if not ev.ok}
    if name == "sparse128_short":
        assert {"activate", "deactivate"} <= failed
    if name == "sparse128_long":
        # the leaves the root's activation cannot reach still count
        _, hierarchy, sched = sim
        root, *reps = hierarchy.cell_rep.tolist()
        cut = [c for c, s in enumerate(reps, 1)
               if not stepped.routes[(root, s)][1]]
        assert "activate" in failed and cut
        assert all(stepped.counter[c] < sched.time[1] for c in cut)
    assert logged_events == stepped_events
    assert_same_state(stepped, logged)
    assert_same_state(stepped, bulk)


@pytest.mark.parametrize("algorithm", ["hier", "boyd", "geo"])
def test_logged_run_sinks_each_block_in_one_call(sim256, algorithm):
    # At a stride of two blocks and three rows, the run's blocks are rows,
    # rows, 3, rows, 2 ticks: each sink call holds the events of the
    # ticks since the last one, at most one block of them, in tick order.
    rows = block_rows(algorithm)
    ticks = 3 * rows + 5
    logged = fresh_state(sim256, algorithm)
    calls = []

    def sink(events):
        calls.append((logged.tick, events))

    run(logged, max_ticks=ticks, stride=2 * rows + 3, event_sink=sink)
    assert [t for t, _ in calls] == [rows, 2 * rows, 2 * rows + 3,
                                     3 * rows + 3, ticks]
    start = 0
    for end, events in calls:
        assert all(start <= ev.tick < end for ev in events)
        start = end
    joined = [ev for _, events in calls for ev in events]
    assert [ev.tick for ev in joined] == sorted(ev.tick for ev in joined)
    stepped = fresh_state(sim256, algorithm)
    assert joined == [ev for _ in range(ticks) for ev in step(stepped)]
    assert joined
    assert_same_state(stepped, logged)


@pytest.mark.parametrize("sim, algorithm", [
    pytest.param("sparse128_short", "hier", id="hier"),
    pytest.param("sim256", "boyd", id="boyd"),
    pytest.param("sim256", "geo", id="geo"),
])
def test_logged_ticks_emit_python_scalars(request, monkeypatch, sim,
                                          algorithm):
    # The per-tick kernels read array entries as Python scalars: every
    # event a logged run's step returns is an Event of exactly these field
    # types, and every op reaches _apply as (int, int, float).  On
    # sparse128_short, hier reaches every action, and its far exchanges
    # both complete and fail.
    st = fresh_state(request.getfixturevalue(sim), algorithm)
    apply = engine._apply
    ops = []

    def recording(x, pending):
        ops.extend(pending)
        apply(x, pending)

    monkeypatch.setattr(engine, "_apply", recording)
    events = []
    run(st, max_ticks=6_000, stride=3_000, event_sink=events.extend)
    assert events and ops
    for ev in events:
        assert type(ev) is engine.Event
        assert tuple(map(type, ev)) == (int, str, int, int, int, bool), ev
    for op in ops:
        assert tuple(map(type, op)) == (int, int, float), op
    if algorithm == "hier":
        assert {ev.action for ev in events} == set(engine.EVENT_LEDGER)
        assert {ev.ok for ev in events if ev.action == "far"} == {True,
                                                                  False}


def test_root_deactivation_stops_bulk_and_logged_alike(sim256):
    # Both paths count the root's ended rounds in state.root_rounds, and
    # run stops at the first stride boundary after it grows.
    a = fresh_state(sim256, "hier")
    b = fresh_state(sim256, "hier")
    sa = run(a, max_ticks=1_000_000, stride=1_000,
             stop_on_root_deactivation=True)
    sb = run(b, max_ticks=1_000_000, stride=1_000,
             stop_on_root_deactivation=True, event_sink=lambda evs: None)
    assert sa.stop_reason == sb.stop_reason == "root_deactivation"
    assert a.tick == 127_000
    assert a.root_rounds == b.root_rounds == 1
    assert_same_state(a, b)


@pytest.mark.parametrize("algorithm", ["hier", "boyd", "geo"])
def test_run_stops_at_its_start_or_target_alike_logged_and_bulk(sim256,
                                                                algorithm):
    # A run whose start meets a stop writes the start's row only, returns
    # that stop and draws nothing, with or without an event sink.
    for stop, kw in (("max_ticks", dict(max_ticks=0)),
                     ("target", dict(target_ratio=1.0))):
        for logged in (False, True):
            st = fresh_state(sim256, algorithm)
            drawn = st.rng.bit_generator.state
            calls = []
            series = run(st, **kw,
                         event_sink=calls.append if logged else None)
            assert series.stop_reason == stop
            assert [r.tick for r in series.records] == [0]
            assert calls == []
            assert st.rng.bit_generator.state == drawn
    # Without max_ticks a logged run's blocks end only at record ticks, and
    # a target stop leaves it where the bulk run stops inside a block.
    bulk = fresh_state(sim256, algorithm)
    logged = fresh_state(sim256, algorithm)
    sb = run(bulk, target_ratio=0.3, stride=37)
    sl = run(logged, target_ratio=0.3, stride=37, event_sink=lambda evs: None)
    assert sb.stop_reason == sl.stop_reason == "target"
    assert sb.records == sl.records
    assert bulk.tick % block_rows(algorithm) and bulk.tick > 37
    assert_same_state(bulk, logged)


@pytest.fixture(scope="module")
def deep4096():
    """grid_points(64) at threshold 8: splits 64, 4, 4, so four depths."""
    pts = grid_points(64)
    graph = build_graph(pts, connectivity_radius(4096, 2.0))
    hierarchy = build_hierarchy(pts, threshold=8)
    sched = build_schedule(4096, 1e-2, 1e-1, 1.0, hierarchy, "practical")
    return graph, hierarchy, sched


def test_deep_hierarchy_step_matches_bulk_at_any_stride(deep4096):
    graph, hierarchy, sched = deep4096
    assert hierarchy.total_levels == 4
    ticks = 100_000
    logged = init_sim(graph, hierarchy, sched, seed=5, init_dist="gauss")
    events = [ev for _ in range(ticks) for ev in step(logged)]
    # The comparison below is not vacuous: the run floods leaves, wakes
    # children from a non-root square, and exchanges at several depths.
    totals = logged.ledger_totals()
    assert totals["activate"] > 0 and totals["flood"] > 0
    assert totals["far_routing"] > 0
    woken = {int(hierarchy.cell_depth[ev.target]) for ev in events
             if ev.action == "activate"}
    assert woken - {0}
    far_depths = {int(hierarchy.cell_depth[hierarchy.cell_of_rep[ev.node]])
                  for ev in events if ev.action == "far"}
    assert len(far_depths) > 1
    for stride in (7, graph.n, block_rows("hier") + 1):
        st = init_sim(graph, hierarchy, sched, seed=5, init_dist="gauss")
        run(st, max_ticks=ticks, stride=stride)
        assert_same_state(logged, st)


@pytest.fixture(scope="module")
def short_rounds1024():
    """grid_points(32) at threshold 8: splits 36 and 4, so three depths.
    Far probabilities are those of c1 = 0.03 and gamma = 256, rare enough
    that the values stay finite.  Rounds last 9, 12 and 5 own ticks at
    depths 0, 1 and 2, so within 100k ticks rounds end and restart all
    over the hierarchy, and a parent often ends its round while its
    children still count theirs."""
    pts = grid_points(32)
    graph = build_graph(pts, connectivity_radius(1024, 2.0))
    hierarchy = build_hierarchy(pts, threshold=8)
    sched = build_schedule(1024, 1e-2, 1e-1, 1.0, hierarchy, "practical",
                           c1=0.03, gamma=256.0)
    sched = dataclasses.replace(sched, time=np.array([9.0, 12.0, 5.0]))
    return graph, hierarchy, sched


def changed_then_ticks(hierarchy, events, fired):
    """Which outside changes of a representative's state the stepped log
    shows, each followed by another tick of that representative inside
    the same bulk block (blocks of block_rows("hier") rows from the run
    start, whatever the stride): "activate" or "deactivate" by its parent,
    "far" (a completed far exchange reset its counter), "root" (the root
    ended its round)."""
    rows = block_rows("hier")
    own_ticks = {}
    for t, s in enumerate(fired.tolist()):
        own_ticks.setdefault(s, []).append(t)

    def ticks_again(node, t):
        own = own_ticks.get(node, [])
        i = bisect.bisect_right(own, t)
        return i < len(own) and own[i] // rows == t // rows

    kinds = set()
    for ev in events:
        if ev.action in ("activate", "deactivate") and ev.ok:
            start = hierarchy.cell_child_start[ev.target]
            m = hierarchy.subdiv_at_depth[hierarchy.cell_depth[ev.target]]
            if any(ticks_again(int(s), ev.tick)
                   for s in hierarchy.cell_rep[start:start + m]):
                kinds.add(ev.action)
            if ev.action == "deactivate" and ev.target == 0 \
                    and ticks_again(ev.node, ev.tick):
                kinds.add("root")
        elif ev.action == "far" and ev.ok and ticks_again(ev.target,
                                                         ev.tick):
            kinds.add("far")
    return kinds


def test_woken_representatives_step_matches_bulk(short_rounds1024):
    # The bulk runner runs a quiet representative's ticks as plain ticks
    # until a live tick changes its state; the stepped run must agree when
    # the blocks hold every kind of such change, at strides that record
    # inside blocks and across them.
    graph, hierarchy, sched = short_rounds1024
    assert hierarchy.total_levels == 3
    ticks = 100_000
    logged = init_sim(graph, hierarchy, sched, seed=5, init_dist="gauss")
    # step draws the same rows as the bulk runner; replay who fired when
    rows = copy.deepcopy(logged.rng).random((ticks, engine.ROW_WIDTH["hier"]))
    fired = (rows[:, 0] * graph.n).astype(np.int64)
    events = [ev for _ in range(ticks) for ev in step(logged)]
    assert np.isfinite(logged.x).all()
    assert changed_then_ticks(hierarchy, events, fired) == {
        "activate", "deactivate", "far", "root"}
    for stride in (3000, block_rows("hier") + 1, 3 * block_rows("hier") + 5):
        st = init_sim(graph, hierarchy, sched, seed=5, init_dist="gauss")
        run(st, max_ticks=ticks, stride=stride)
        assert_same_state(logged, st)


def is_live(state, u, s):
    """Whether the tick of row u, fired by s, is live in the state before
    it: a representative's restart, passing far coin or round end."""
    h = state.hierarchy
    c = h.cell_of_rep[s]
    if c < 0:
        return False
    r = h.cell_depth[c]
    root = h.cell_parent[c] < 0
    on = state.global_on[c] == 1
    return bool(on and (state.counter[c] == 0
                        or not root and u[1] < state.schedule.far_prob[r])
                or (state.cell_active[c] == 1 or root)
                and state.counter[c] >= state.schedule.time[r])


def stepped_ticks(monkeypatch, bulk, key):
    """Call bulk(); return the ticks key(u) names, for the rows u that
    reached _tick_hier."""
    tick_hier = engine._tick_hier
    seen = []

    def recording(st, u, s):
        seen.append(key(u))
        return tick_hier(st, u, s)

    monkeypatch.setattr(engine, "_tick_hier", recording)
    bulk()
    monkeypatch.undo()
    return seen


def test_bulk_run_steps_exactly_the_live_ticks(short_rounds1024,
                                               monkeypatch):
    # Every tick the bulk runner steps in Python is live, and every live
    # tick is stepped: the quiet ticks before a live one are built in
    # numpy, even in a block where the square's round ends.
    graph, hierarchy, sched = short_rounds1024
    ticks = 30_000
    stepped = init_sim(graph, hierarchy, sched, seed=5, init_dist="gauss")
    rows = stepped.rng.random((ticks, engine.ROW_WIDTH["hier"]))
    live = []
    for t, u in enumerate(rows.tolist()):
        if is_live(stepped, u, int(u[0] * graph.n)):
            live.append(t)
        step(stepped, u)
    reps = np.count_nonzero(hierarchy.cell_of_rep[
        (rows[:, 0] * graph.n).astype(np.int64)] >= 0)
    assert 0 < len(live) < reps // 2
    tick_of = {row.tobytes(): t for t, row in enumerate(rows)}
    bulk = init_sim(graph, hierarchy, sched, seed=5, init_dist="gauss")
    assert stepped_ticks(monkeypatch,
                         lambda: run(bulk, max_ticks=ticks, stride=3000),
                         lambda u: tick_of[u.tobytes()]) == live
    assert_same_state(stepped, bulk)


def test_bulk_live_ticks_emit_their_stepped_events(short_rounds1024,
                                                   monkeypatch):
    # The bulk runner stamps each live tick's events with that tick, so
    # they are the stepped run's events at the same ticks.
    graph, hierarchy, sched = short_rounds1024
    ticks = 30_000
    stepped = init_sim(graph, hierarchy, sched, seed=5, init_dist="gauss")
    rows = stepped.rng.random((ticks, engine.ROW_WIDTH["hier"]))
    stepped_events = {}
    for t, u in enumerate(rows.tolist()):
        stepped_events[t] = step(stepped, u)
    tick_of = {row.tobytes(): t for t, row in enumerate(rows)}
    tick_hier = engine._tick_hier
    emitted = {}

    def recording(st, u, s):
        seen = len(st.events)
        changed = tick_hier(st, u, s)
        emitted[tick_of[u.tobytes()]] = st.events[seen:]
        return changed

    monkeypatch.setattr(engine, "_tick_hier", recording)
    bulk = init_sim(graph, hierarchy, sched, seed=5, init_dist="gauss")
    run(bulk, max_ticks=ticks, stride=3000)
    monkeypatch.undo()
    assert sum(map(len, emitted.values())) > 0
    for t, events in emitted.items():
        assert all(ev.tick == t for ev in events)
        assert events == stepped_events[t]
    assert_same_state(stepped, bulk)


@pytest.mark.parametrize("kind", ["far", "activate", "deactivate"])
def test_outside_event_reschedules_a_pending_live_tick(quad16, monkeypatch,
                                                       kind):
    # Leaf 1's representative a has a live tick pending later in the
    # block when tick 0 changes its state from outside.  A completed far
    # exchange from leaf 2, or the root's activation, resets its counter:
    # its round end at its fourth tick gives way to a restart at its
    # first.  The root's deactivation turns its global state off: its far
    # coin at its second tick no longer counts, and it steps nothing.
    graph, hierarchy = quad16
    sched = build_schedule(graph.n, 1e-2, 1e-1, 1.0, hierarchy, "practical")
    a, b, root = (int(hierarchy.cell_rep[c]) for c in (1, 2, 0))
    end = int(np.ceil(sched.time[1]))

    def fresh():
        st = init_sim(graph, hierarchy, sched, seed=0, init_dist="gauss")
        st.global_on[[1, 2]] = 1
        st.cell_active[[1, 2]] = 1
        st.local_on[hierarchy.members_of(1)] = 1
        st.local_on[hierarchy.members_of(2)] = 1
        st.counter[2] = 1
        if kind == "deactivate":
            st.cell_active[0] = 1
            st.counter[0] = int(np.ceil(sched.time[0]))
            st.counter[1] = 5
        else:
            st.counter[1] = end - 3
        return st

    # Row t is (node, far coin, sibling, neighbour); u[3] also names t.
    first = {"far": b, "activate": root, "deactivate": root}[kind]
    nodes = [first, a, a, a, a]
    coins = [0.0, LAST, 0.0 if kind == "deactivate" else LAST, LAST, LAST]
    U = np.array([[(s + 0.5) / graph.n, coin, 0.0, (t + 0.5) / len(nodes)]
                  for t, (s, coin) in enumerate(zip(nodes, coins))])
    stepped = fresh()
    live = []
    for t, u in enumerate(U.tolist()):
        if is_live(stepped, u, nodes[t]):
            live.append(t)
        step(stepped, u)
    assert live == {"far": [0, 1], "activate": [0, 1],
                    "deactivate": [0]}[kind]
    bulk = fresh()

    def one_block():
        engine._apply(bulk.x, engine._run_block(bulk, U, []).ops)
        bulk.tick = len(nodes)

    assert stepped_ticks(monkeypatch, one_block,
                         lambda u: int(u[3] * len(nodes))) == live
    assert_same_state(stepped, bulk)


def test_root_round_end_is_live_while_its_round_is_off(quad16, monkeypatch):
    # The root's round end is live whether or not its round runs: at its
    # counter's end an idle root has nothing to wind down but still resets
    # the counter, so its next tick restarts the round.  A runner that
    # tested only active squares for a round end would leave the root
    # stuck at the end of its count.
    graph, hierarchy = quad16
    sched = build_schedule(graph.n, 1e-2, 1e-1, 1.0, hierarchy, "practical")
    root = int(hierarchy.cell_rep[0])

    def fresh():
        st = init_sim(graph, hierarchy, sched, seed=0, init_dist="gauss")
        st.counter[0] = int(np.ceil(sched.time[0]))
        return st

    # Row t is (node, far coin, sibling, neighbour); u[3] also names t.
    U = np.array([[(root + 0.5) / graph.n, LAST, 0.0, (t + 0.5) / 2]
                  for t in range(2)])
    stepped = fresh()
    assert stepped.cell_active[0] == 0
    live = []
    for t, u in enumerate(U.tolist()):
        if is_live(stepped, u, root):
            live.append(t)
        step(stepped, u)
    assert live == [0, 1]
    assert stepped.cell_active[0] == 1
    bulk = fresh()

    def one_block():
        engine._apply(bulk.x, engine._run_block(bulk, U, []).ops)
        bulk.tick = 2

    assert stepped_ticks(monkeypatch, one_block,
                         lambda u: int(u[3] * 2)) == live
    assert_same_state(stepped, bulk)


@pytest.mark.parametrize("algorithm, stop, sim", [
    ("hier", "target", "sim256"),
    ("boyd", "target", "sim256"),
    ("geo", "target", "sim256"),
    ("hier", "root_deactivation", "short_rounds1024"),
    ("hier", "diverged", "sim256"),
])
def test_stop_inside_a_block_ends_in_the_stepped_state(request, algorithm,
                                                       stop, sim):
    # A bulk run records inside its blocks; a stop there reruns the block
    # from its start up to the stop, so the run ends in the stepped state
    # at the stop tick, generator included.  Each case stops past its
    # first block, so the rerun starts mid-run.
    graph, hierarchy, sched = request.getfixturevalue(sim)
    if algorithm != "hier":
        hierarchy = sched = None
    init = "gauss"
    kw = {"stop_on_root_deactivation": stop == "root_deactivation"}
    if stop == "target":
        kw["target_ratio"] = {"hier": 0.1, "boyd": 1e-3, "geo": 0.3}[algorithm]
    if stop == "diverged":
        # test_unstable_schedule_reports_divergence's schedule, from values
        # near the norm's overflow, so the run diverges within 20k ticks
        sched = build_schedule(256, 1e-2, 1e-1, 1.0, hierarchy, "practical",
                               c1=0.5, gamma=1.0)
        init = 1e140 * np.random.default_rng(0).standard_normal(graph.n)

    def fresh():
        return init_sim(graph, hierarchy, sched, seed=5, init_dist=init,
                        algorithm=algorithm)

    bulk = fresh()
    series = run(bulk, max_ticks=1_000_000, stride=7, **kw)
    assert series.stop_reason == stop
    rows = block_rows(algorithm)
    assert bulk.tick > rows and bulk.tick % rows != 0
    stepped = fresh()
    for _ in range(bulk.tick):
        step(stepped)
    assert_same_state(stepped, bulk)
    if stop != "diverged":   # a diverged run records no row at its stop
        assert series.final == engine.snapshot(stepped)


def test_geo_stop_inside_a_block_routes_each_row_once(sim256, monkeypatch):
    # geo writes no protocol array, so a stop inside its second block only
    # redraws the rows up to the stop: no row is routed twice.
    graph = sim256[0]
    tick_geo = engine._tick_geo
    routed = []

    def counting(state, U, nodes):
        routed.append(U.shape[0])
        return tick_geo(state, U, nodes)

    monkeypatch.setattr(engine, "_tick_geo", counting)
    bulk = init_sim(graph, seed=5, init_dist="gauss", algorithm="geo")
    series = run(bulk, max_ticks=1_000_000, stride=7, target_ratio=0.45)
    monkeypatch.undo()
    rows = block_rows("geo")
    assert series.stop_reason == "target"
    assert rows < bulk.tick < 2 * rows
    assert routed == [rows, rows]
    stepped = init_sim(graph, seed=5, init_dist="gauss", algorithm="geo")
    for _ in range(bulk.tick):
        step(stepped)
    assert_same_state(stepped, bulk)
    assert series.final == engine.snapshot(stepped)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(n=hst.integers(256, 1024), threshold=hst.integers(4, 16),
       seed=hst.integers(0, 2**31 - 1), c1=hst.floats(0.02, 1.0),
       stride=hst.integers(1, 3 * block_rows("hier") + 1))
def test_bulk_run_matches_stepping_on_deep_hierarchies(n, threshold, seed,
                                                       c1, stride):
    # Three or four depths (at these sizes only three build); small c1
    # shortens every round, so rounds end and far exchanges land within
    # the budget.  Two-split runs can diverge, but stay finite for 20k
    # ticks.  A record can fall inside a bulk block, whose protocol state
    # and generator are already at the block end, so each row and x are
    # compared at every record, and the whole state once run returns.
    pts = sample_points(n, seed)
    try:
        hierarchy = build_hierarchy(pts, threshold)
    except (EmptyCellError, RepresentativeError):
        assume(False)
    assume(3 <= hierarchy.total_levels <= 4)
    graph = build_graph(pts, connectivity_radius(n, 2.0))
    sched = build_schedule(n, 1e-2, 1e-1, 1.0, hierarchy, "practical",
                           c1=c1, gamma=64.0)
    stepped = init_sim(graph, hierarchy, sched, seed=seed, init_dist="gauss")
    bulk = init_sim(graph, hierarchy, sched, seed=seed, init_dist="gauss")

    def step_to(rec):
        while stepped.tick < rec.tick:
            step(stepped)
        assert rec == engine.snapshot(stepped)
        assert np.array_equal(stepped.x, bulk.x)

    series = run(bulk, max_ticks=20_000, stride=stride, on_record=step_to)
    assert series.stop_reason == "max_ticks"
    assert_same_state(stepped, bulk)
    assert np.isfinite(bulk.x).all()


def test_pick_from_unit_interval_stays_in_range():
    # int(u * m) with u = LAST is m - 1 for every count m a pick can have
    m = np.arange(1, 2**20 + 1, dtype=np.int64)
    assert np.array_equal((LAST * m).astype(np.int64), m - 1)


def test_last_uniform_picks_last_node_and_neighbor(sim256):
    graph, hierarchy, sched = sim256
    st = init_sim(graph, hierarchy, sched, seed=0, init_dist="gauss")
    s = st.n - 1
    assert hierarchy.cell_of_rep[s] == -1   # a plain sensor
    st.local_on[s] = 1
    st.rng = LastRows()
    events = step(st)
    last_nb = int(st.leaf_indices[st.leaf_indptr[s + 1] - 1])
    assert [(ev.action, ev.node, ev.target) for ev in events] == \
        [("near", s, last_nb)]
    engine._near(st, LAST, s)
    assert drain(st)[0].target == last_nb


def test_last_uniform_picks_last_sibling(quad16):
    graph, hierarchy = quad16
    for c in range(1, 5):   # the four leaves, siblings under the root
        st = make_sim(graph, hierarchy, "spike")
        siblings = [k for k in range(1, 5) if k != c]
        engine._far(st, LAST, int(hierarchy.cell_rep[c]), c)
        assert drain(st)[0].target == hierarchy.cell_rep[siblings[-1]]


def test_near_neighbor_pick_is_uniform(sim256):
    graph, hierarchy, sched = sim256
    st = init_sim(graph, hierarchy, sched, seed=0)
    deg = np.diff(st.leaf_indptr)
    s = int(np.argmax(deg))
    nbrs = st.leaf_indices[st.leaf_indptr[s]:st.leaf_indptr[s + 1]]
    draws = 40_000
    hits = np.zeros(st.n, dtype=np.int64)
    for u in np.random.default_rng(3).random(draws):
        engine._near(st, u, s)
        hits[st.events.pop().target] += 1
    assert hits[nbrs].sum() == draws
    p = 1.0 / deg[s]
    assert np.all(np.abs(hits[nbrs] - draws * p)
                  <= 5 * np.sqrt(draws * p * (1 - p)))
