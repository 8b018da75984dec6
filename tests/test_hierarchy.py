"""Partition tree construction, representative assignment, schedules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geogossip import (
    build_hierarchy,
    build_schedule,
    dump_hierarchy,
    sample_points,
    subdivision_factor,
)
from geogossip.hierarchy import (
    EmptyCellError,
    RepresentativeError,
    ScheduleOverflowError,
    _finite_pow,
    count_concentration,
    default_threshold,
)

from conftest import grid_points, make_points


def sensor_level(h):
    """Per-sensor level: total_levels - depth of the represented cell for
    a representative, 0 for every other sensor."""
    level = np.zeros(h.points.n, dtype=np.int64)
    reps = h.cell_of_rep >= 0
    level[reps] = h.total_levels - h.cell_depth[h.cell_of_rep[reps]]
    return level


def cell_bounds(h, c):
    """(x0, y0, x1, y1) of cell c from its grid position and the per-axis
    resolution of its depth."""
    splits = [math.isqrt(int(f)) for f in h.subdiv_at_depth[:-1]]
    K = int(np.prod(splits[:int(h.cell_depth[c])], dtype=np.int64))
    gx, gy = int(h.cell_grid[c, 0]), int(h.cell_grid[c, 1])
    return gx / K, gy / K, (gx + 1) / K, (gy + 1) / K


# ---------------------------------------------------------------- split factor

def test_subdivision_factor_examples():
    assert subdivision_factor(1e4) == 100
    assert subdivision_factor(16.0) == 4
    assert subdivision_factor(256.0) == 16
    assert subdivision_factor(4096.0) == 64


def test_subdivision_factor_tie_prefers_smaller():
    # sqrt(64) = 8 sits exactly between 4 and 16; the coarser split wins
    assert subdivision_factor(64.0) == 4


def test_subdivision_factor_rejects_nonpositive():
    with pytest.raises(ValueError):
        subdivision_factor(0.0)
    with pytest.raises(ValueError):
        subdivision_factor(-3.0)


def test_subdivision_factor_is_even_square():
    for e in np.geomspace(1.1, 1e8, 60):
        f = subdivision_factor(float(e))
        k = math.isqrt(f)
        assert k * k == f and k % 2 == 0 and k >= 2


# ---------------------------------------------------------------- hand traces

def test_trace_single_leaf():
    pts = sample_points(100, 5)
    h = build_hierarchy(pts, 1e4)
    assert h.total_levels == 1
    assert h.n_cells == 1
    assert h.subdiv_at_depth[h.cell_depth[0]] == 0   # the root is a leaf
    assert np.array_equal(h.subdiv_at_depth, [0])
    # the lone representative holds the top level
    level = sensor_level(h)
    assert level[h.cell_rep[0]] == 1
    assert np.count_nonzero(level) == 1


def test_trace_two_levels():
    pts = sample_points(4096, 9)
    h = build_hierarchy(pts, 64.0)
    assert h.total_levels == 2
    assert np.array_equal(h.subdiv_at_depth, [64, 0])
    assert np.allclose(h.expected_at_depth, [4096.0, 64.0])
    assert h.n_cells == 1 + 64
    assert np.all(h.subdiv_at_depth[h.cell_depth[1:]] == 0)


def test_trace_deep_grid():
    # 64 x 64 lattice: every cell at every depth is exactly populated
    h = build_hierarchy(grid_points(64), 8.0)
    assert h.total_levels == 4
    assert np.array_equal(h.subdiv_at_depth, [64, 4, 4, 0])
    assert np.allclose(h.expected_at_depth, [4096.0, 64.0, 16.0, 4.0])
    assert h.n_cells == 1 + 64 + 256 + 1024
    counts = np.diff(h.cell_member_start)
    assert np.array_equal(counts[h.cell_depth == 3], np.full(1024, 4))
    # levels: root rep at 4, leaf reps at 1
    level = sensor_level(h)
    assert level[h.cell_rep[0]] == 4
    leaf_reps = h.cell_rep[h.cell_depth == 3]
    assert np.array_equal(level[leaf_reps] >= 1,
                          np.ones(1024, dtype=bool))


def test_default_threshold_collapses_desk_sizes():
    # (ln n)^8 exceeds n itself for every desk-scale n, so the root stays
    # a single leaf unless the caller overrides the threshold
    for n in (128, 1024, 4096):
        assert default_threshold(n) > n
        h = build_hierarchy(sample_points(n, 1), default_threshold(n))
        assert h.total_levels == 1


# ---------------------------------------------------------------- invariants

def test_leaves_partition_sensors(hier256):
    h = hier256
    n = h.points.n
    leaf_ids = np.flatnonzero(h.subdiv_at_depth[h.cell_depth] == 0)
    seen = np.concatenate([h.members_of(c) for c in leaf_ids])
    assert np.array_equal(np.sort(seen), np.arange(n))
    assert np.array_equal(np.sort(h.leaf_of[seen]),
                          np.sort(np.repeat(leaf_ids, np.diff(
                              h.cell_member_start)[leaf_ids])))


def test_every_depth_partitions_sensors(hier256):
    h = hier256
    n = h.points.n
    for d in range(h.total_levels):
        ids = np.flatnonzero(h.cell_depth == d)
        seen = np.concatenate([h.members_of(c) for c in ids])
        assert np.array_equal(np.sort(seen), np.arange(n))


def test_members_sorted_and_consistent(hier256):
    h = hier256
    for c in range(h.n_cells):
        members = h.members_of(c)
        assert np.array_equal(members, np.sort(members))
        x0, y0, x1, y1 = cell_bounds(h, c)
        xy = h.points.xy[members]
        assert np.all((xy[:, 0] >= x0) & (xy[:, 0] < x1 + 1e-12))
        assert np.all((xy[:, 1] >= y0) & (xy[:, 1] < y1 + 1e-12))


def test_representatives_unique_and_nearest(hier256):
    h = hier256
    xy = h.points.xy
    reps = h.cell_rep
    assert len(set(reps.tolist())) == h.n_cells
    # replay the claim pass: breadth-first, nearest unclaimed member to the
    # cell center, ties to the smaller id
    taken = set()
    for c in range(h.n_cells):
        members = h.members_of(c)
        x0, y0, x1, y1 = cell_bounds(h, c)
        cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
        d2 = (xy[members, 0] - cx) ** 2 + (xy[members, 1] - cy) ** 2
        free = [(d2[i], int(members[i])) for i in range(len(members))
                if int(members[i]) not in taken]
        want = min(free)[1]
        assert h.cell_rep[c] == want
        assert h.cell_of_rep[want] == c
        taken.add(want)


def test_levels_match_depths(hier256):
    # each representative represents exactly its own cell and every other
    # sensor none, so a rep's level is total_levels minus its cell's depth
    h = hier256
    assert np.array_equal(h.cell_of_rep[h.cell_rep], np.arange(h.n_cells))
    non_reps = np.ones(h.points.n, dtype=bool)
    non_reps[h.cell_rep] = False
    assert np.all(h.cell_of_rep[non_reps] == -1)
    levels = [int(ln.rsplit("level=", 1)[1])
              for ln in dump_hierarchy(h).splitlines()]
    assert levels == (h.total_levels - h.cell_depth).tolist()
    assert np.array_equal(sensor_level(h)[h.cell_rep], levels)


@pytest.mark.parametrize("build", [
    lambda: build_hierarchy(grid_points(64), 8.0),
    lambda: build_hierarchy(sample_points(256, 11), 16.0),
    lambda: build_hierarchy(sample_points(4096, 9), 64.0),
    lambda: build_hierarchy(sample_points(100, 5), 1e4),
], ids=["grid-4-depths", "n256", "n4096", "single-leaf"])
def test_children_are_flat_ranges(build):
    # the children of c at depth r are exactly the ids
    # [cell_child_start[c], + subdiv_at_depth[r]), one level deeper, and
    # with k = sqrt(subdiv_at_depth[r]) they tile c's grid square: each
    # child's grid position // k is c's, at distinct positions; the dumped
    # path of child j extends its parent's by j
    h = build()
    m = h.subdiv_at_depth[h.cell_depth]
    paths = [ln.split(" ", 1)[0] for ln in dump_hierarchy(h).splitlines()]
    assert h.cell_parent[0] == -1 and paths[0] == "/"
    assert np.array_equal(np.bincount(h.cell_parent[1:],
                                      minlength=h.n_cells), m)
    for c in range(h.n_cells):
        start = int(h.cell_child_start[c])
        kids = np.arange(start, start + int(m[c]))
        assert np.all(h.cell_parent[kids] == c)
        assert np.all(h.cell_depth[kids] == h.cell_depth[c] + 1)
        prefix = "" if c == 0 else paths[c] + "."
        assert [paths[i] for i in kids] == \
            [f"{prefix}{j}" for j in range(kids.shape[0])]
        if kids.shape[0]:
            k = math.isqrt(int(m[c]))
            grid = h.cell_grid[kids]
            assert np.all(grid // k == h.cell_grid[c])
            assert len({tuple(g) for g in grid.tolist()}) == k * k


@settings(max_examples=40, deadline=None)
@given(n=st.integers(16, 4096), seed=st.integers(0, 2 ** 32 - 1),
       threshold=st.floats(2.0, 128.0))
def test_every_cell_nests_in_its_parent(n, seed, threshold):
    # each cell's members lie in its parent's and in its own bounds:
    # closed at the lower edge, open at the upper, closed at 1.0
    try:
        h = build_hierarchy(sample_points(n, seed), threshold)
    except (EmptyCellError, RepresentativeError):
        return
    for c in range(1, h.n_cells):
        parent = h.members_of(int(h.cell_parent[c]))
        assert np.all(np.isin(h.members_of(c), parent))
    for c in range(h.n_cells):
        x0, y0, x1, y1 = cell_bounds(h, c)
        xy = h.points.xy[h.members_of(c)]
        for lo, hi, v in ((x0, x1, xy[:, 0]), (y0, y1, xy[:, 1])):
            assert np.all(v >= lo)
            assert np.all(v < hi) if hi < 1.0 else np.all(v <= 1.0)


def test_cells_nest_a_rounding_error_below_a_grid_line():
    # 735^2 lattice points at threshold 20 split 28 then 6 cells an axis.
    # x = 0.6071428571428571 lies an ulp below 17/28: x * 28 rounds up to
    # 17, x * 168 rounds down to 101 = 6 * 17 - 1.  Binning each depth off
    # x alone puts the point outside its leaf's parent; every cell on the
    # leaf's chain of parents must hold it.
    xy = grid_points(735).xy.copy()
    xy[0, 0] = 0.6071428571428571
    h = build_hierarchy(make_points(xy), 20.0)
    assert np.array_equal(h.subdiv_at_depth, [784, 36, 0])
    c = int(h.leaf_of[0])
    assert h.cell_grid[c, 0] == 101
    while c >= 0:
        assert 0 in h.members_of(c)
        c = int(h.cell_parent[c])


def test_boundary_points_go_up_and_right():
    # (0.5, 0.5) sits on both interior edges; lower-closed binning puts it
    # in the upper-right quadrant
    pts = make_points([(0.25, 0.25), (0.2, 0.2), (0.75, 0.25), (0.8, 0.2),
                       (0.25, 0.75), (0.2, 0.8), (0.5, 0.5), (0.75, 0.75)])
    h = build_hierarchy(pts, 4.0)
    assert np.array_equal(h.subdiv_at_depth, [4, 0])
    bounds = cell_bounds(h, int(h.leaf_of[6]))
    assert bounds[0] == 0.5 and bounds[1] == 0.5


def test_boundary_point_at_one_clamps_to_last_cell():
    pts = make_points([(0.25, 0.25), (0.2, 0.2), (0.75, 0.25),
                       (0.25, 0.75), (0.8, 0.8), (1.0, 1.0)])
    h = build_hierarchy(pts, 2.0)
    bounds = cell_bounds(h, int(h.leaf_of[5]))
    assert bounds[2] == 1.0 and bounds[3] == 1.0


def test_empty_cell_raises():
    pts = make_points([(.05, .05), (.1, .1), (.15, .05), (.05, .15), (.2, .2)])
    with pytest.raises(EmptyCellError) as exc:
        build_hierarchy(pts, 2.0)
    assert exc.value.depth == 1
    assert "no sensors" in str(exc.value)


def test_threshold_below_one_rejected():
    with pytest.raises(ValueError):
        build_hierarchy(sample_points(64, 0), 0.5)


def test_build_deterministic():
    a = build_hierarchy(sample_points(512, 21), 64.0)
    b = build_hierarchy(sample_points(512, 21), 64.0)
    assert dump_hierarchy(a) == dump_hierarchy(b)
    assert np.array_equal(a.cell_rep, b.cell_rep)
    assert np.array_equal(a.member_ids, b.member_ids)


def test_dump_format(quad16):
    _, h = quad16
    text = dump_hierarchy(h)
    lines = text.splitlines()
    assert len(lines) == h.n_cells
    assert lines[0].startswith("/ depth=0 expected=16 count=16 rep=")
    assert all(" level=" in ln for ln in lines)


# ------------------------------------------------------------- concentration

def test_concentration_single_leaf_is_exact():
    h = build_hierarchy(sample_points(200, 3), 1e4)
    rep = count_concentration(h)
    assert rep.deviations.shape == (1,)
    assert rep.deviations[0] == 0.0
    assert rep.frac_within_tenth == 1.0


def test_concentration_large_n():
    # at n = 1e6 each depth-1 cell expects ~977 sensors, so the relative
    # count deviation should stay inside 1/10 for at least 99% of cells
    ok = total = 0
    for seed in range(10):
        h = build_hierarchy(sample_points(1_000_000, seed), 5000.0)
        assert h.total_levels == 2
        rep = count_concentration(h)
        d1 = rep.deviations[rep.depths == 1]
        ok += int((d1 <= 0.1).sum())
        total += d1.size
    assert total == 10 * 1024
    assert ok / total >= 0.99


def test_concentration_desk_scale_report():
    h = build_hierarchy(sample_points(1024, 0), 64.0)
    rep = count_concentration(h)
    assert rep.deviations.shape == (h.n_cells,)
    assert np.array_equal(rep.depths, h.cell_depth)
    assert 0.0 <= rep.frac_within_tenth <= rep.frac_within_half <= 1.0


# ----------------------------------------------------------------- schedules

@pytest.fixture(scope="module")
def hier4096():
    return build_hierarchy(sample_points(4096, 9), 64.0)


def test_schedule_single_leaf_base_case():
    h = build_hierarchy(sample_points(100, 5), 1e4)
    s = build_schedule(100, 1e-2, 1e-1, 1.0, h, "paper")
    assert s.depth_count == 1
    assert s.eps[0] == 1e-2 and s.delta[0] == 1e-1
    assert s.time[0] == (math.log(100 / 1e-2) * math.log(10.0)) ** 16
    assert s.far_prob[0] == (1 / 100) / s.time[0]


def test_schedule_paper_recursions(hier4096):
    s = build_schedule(4096, 1e-2, 1e-1, 1.0, hier4096, "paper")
    assert s.eps[1] == 1e-2 / (25 * 4096.0 ** 4.5)
    assert s.delta[1] == 1e-1 / 64.0 ** 2
    base = (math.log(4096 / s.eps[1]) * math.log(1 / s.delta[1])) ** 16
    assert s.time[1] == base
    grow = (math.log(64 / 1e-2) * math.log(10.0)) ** 16
    assert s.time[0] == pytest.approx(base * 4096 * grow, rel=1e-12)


def test_schedule_paper_far_prob_identity(hier4096):
    for a in (0.5, 1.0, 2.0):
        s = build_schedule(4096, 1e-2, 1e-1, a, hier4096, "paper")
        assert np.allclose(s.far_prob * s.time, 4096.0 ** (-a), rtol=1e-12)


def test_schedule_practical_round_lengths(hier4096):
    s = build_schedule(4096, 1e-2, 1e-1, 1.0, hier4096, "practical",
                       c1=4.0, gamma=8.0)
    # merging m = 64 reps at accuracy 1e-2 takes C1 * m * ln(m/eps) ticks
    assert s.time[0] == pytest.approx(4.0 * 64 * math.log(6400.0), rel=1e-12)
    assert s.time[0] == pytest.approx(2243.6, rel=1e-4)
    # the leaf round drops the m factor and uses the shrunken budget
    assert s.eps[1] == 1e-2 / 64
    assert s.time[1] == pytest.approx(4.0 * math.log(64 / s.eps[1]), rel=1e-12)
    assert np.allclose(s.far_prob, (1 / 8.0) / s.time)


def test_schedule_budgets_strictly_decrease():
    h = build_hierarchy(grid_points(64), 8.0)
    for mode in ("paper", "practical"):
        s = build_schedule(4096, 1e-2, 1e-1, 1.0, h, mode)
        assert np.all(np.diff(s.eps) < 0)
        assert np.all(np.diff(s.delta) < 0)
        assert np.all(s.far_prob > 0) and np.all(s.far_prob <= 1)
        assert np.all(s.time >= 1.0)


def test_schedule_paper_overflow():
    h = build_hierarchy(grid_points(64), 8.0)
    with pytest.raises(ScheduleOverflowError) as exc:
        build_schedule(4096, 1e-2, 1e-1, 10.0, h, "paper")
    assert exc.value.what in ("time", "eps", "delta", "far_prob")


def test_schedule_overflow_names_its_depth_and_quantity():
    # 256 ** (3.5 + 1e6) leaves the double range in the first eps step.
    h = build_hierarchy(grid_points(64), 8.0)
    with pytest.raises(ScheduleOverflowError) as exc:
        build_schedule(256, 0.1, 0.1, 1e6, h, "paper")
    assert (exc.value.depth, exc.value.what) == (1, "eps")
    assert str(exc.value) == "schedule eps exceeds the numeric range at depth 1"


@pytest.mark.parametrize("base", [math.inf, math.nan])
def test_finite_pow_rejects_a_non_finite_power(base):
    # inf and nan raise no OverflowError when raised to a power.
    with pytest.raises(ScheduleOverflowError) as exc:
        _finite_pow(base, 16, 2, "time")
    assert (exc.value.depth, exc.value.what) == (2, "time")


def test_schedule_argument_validation(hier4096):
    good = dict(n=4096, eps0=1e-2, delta0=1e-1, a=1.0,
                hierarchy=hier4096, mode="practical")
    build_schedule(**good)
    for key, bad in [("eps0", 0.0), ("eps0", 1.0), ("delta0", -0.1),
                     ("delta0", 2.0), ("a", 0.0), ("mode", "fast")]:
        with pytest.raises(ValueError):
            build_schedule(**{**good, key: bad})
    with pytest.raises(ValueError):
        build_schedule(**good, c1=0.0)
    with pytest.raises(ValueError):
        build_schedule(**good, gamma=0.5)
