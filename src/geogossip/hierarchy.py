"""Recursive square partition, representative levels, and round schedules.

The unit square is subdivided into k x k grids (k even) while the expected
sensor count of a cell exceeds the leaf threshold.  Every cell gets a
representative: the member sensor nearest the cell center, ties by lowest id,
with uniqueness across the whole tree enforced by claiming representatives in
breadth-first order (shallower cells first) and falling back to the
next-nearest member on collision.

Cell membership uses half-open bounds: left/bottom edges closed, right/top
open, except the outer right/top edge of the unit square which is closed.
Equivalently, the grid index of a point at per-axis resolution K is
min(floor(x * K), K - 1).

The module also builds the per-depth round schedule (accuracy eps_r, failure
budget delta_r, round length time_r in representative ticks, and per-tick Far
probability) in two modes: the literal 16th-power recursion ("paper") and a
runnable variant ("practical") sized from the per-round exchange count.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import PointSet

DEFAULT_A = 1.0
DEFAULT_GAMMA = 8.0
# Far kicks scale pair differences by 0.4 * expected cell size, so a kick
# landing before the previous one has spread compounds; gamma * C1 sets how
# rare the kicks are.  No stable ratio to the kick coefficient is known.
# Measured with practical schedules: one-split hierarchies (n = 2048 and
# 4096, tau = 64, gamma * C1 = 64) reach error ratio 0.1, but every
# two-split hierarchy tried diverged.  At n = 8192, tau = 64 that includes
# gamma * C1 = 100 and 128, above three times the kick coefficient there
# (3 * 0.4 * 82 = 98): error ratio 1.6e3 and 1.1e3 at 95M ticks, rising.
DEFAULT_C1 = 4.0


class EmptyCellError(RuntimeError):
    """A partition cell contains no sensors; the protocol cannot run."""

    def __init__(self, path: tuple, depth: int):
        self.path = path
        self.depth = depth
        super().__init__(
            f"cell {format_path(path)} at depth {depth} has no sensors; "
            "resample the points or raise the leaf threshold")


class RepresentativeError(RuntimeError):
    """Every member of a cell is already claimed as another representative."""


class ScheduleOverflowError(OverflowError):
    """A schedule quantity left the double range at some depth."""

    def __init__(self, depth: int, what: str):
        self.depth = depth
        self.what = what
        super().__init__(f"schedule {what} exceeds the numeric range at depth {depth}")


def format_path(path: tuple) -> str:
    return "/" if not path else ".".join(str(i) for i in path)


@dataclass
class SquareCell:
    """One node of the recursive partition tree."""

    path: tuple
    bounds: tuple          # (x0, y0, x1, y1)
    depth: int
    expected_count: float
    members: np.ndarray    # sensor ids, ascending
    subdivision: int       # k*k split applied to this cell, 0 for leaves
    representative: int
    index: int             # id in breadth-first order, root = 0
    children: list = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return self.subdivision == 0

    @property
    def center(self) -> tuple:
        x0, y0, x1, y1 = self.bounds
        return ((x0 + x1) / 2.0, (y0 + y1) / 2.0)


@dataclass(frozen=True)
class LevelAssignment:
    """Per-sensor level: total - depth for representatives, 0 otherwise."""

    level: np.ndarray
    total: int


@dataclass(frozen=True)
class Hierarchy:
    """Flat per-cell arrays consumed by the simulation kernels, plus the
    partition tree derived from them on first use."""

    levels: LevelAssignment
    points: PointSet
    threshold: float
    cell_parent: np.ndarray    # (n_cells,) parent cell id, -1 for root
    cell_depth: np.ndarray
    cell_rep: np.ndarray
    cell_expected: np.ndarray
    cell_subdiv: np.ndarray
    cell_child_start: np.ndarray   # children occupy [start, start+count)
    cell_child_count: np.ndarray
    cell_member_start: np.ndarray  # (n_cells+1,) offsets into member_ids
    cell_grid: np.ndarray      # (n_cells, 2) grid position at the cell's depth
    member_ids: np.ndarray
    leaf_of: np.ndarray        # (n,) leaf cell id per sensor
    cell_of_rep: np.ndarray    # (n,) represented cell id, -1 for non-reps
    subdiv_at_depth: np.ndarray    # per-depth split factor, 0 at leaf depth
    expected_at_depth: np.ndarray

    @property
    def n_cells(self) -> int:
        return int(self.cell_rep.shape[0])

    @cached_property
    def cells(self) -> list:
        """SquareCell objects in BFS order; cells[i].index == i."""
        return _build_cell_objects(self)

    @property
    def root(self) -> SquareCell:
        return self.cells[0]

    @property
    def total_levels(self) -> int:
        return self.levels.total

    @property
    def leaf_depth(self) -> int:
        return self.levels.total - 1

    def members_of(self, cell_id: int) -> np.ndarray:
        return self.member_ids[self.cell_member_start[cell_id]:
                               self.cell_member_start[cell_id + 1]]


def default_threshold(n: int) -> float:
    """Leaf threshold (ln n)^8; collapses desk-scale inputs to one leaf."""
    return math.log(n) ** 8


def subdivision_factor(expected_count: float) -> int:
    """Split factor k^2, k the even integer with k^2 nearest sqrt(expected).

    Ties go to the smaller k (coarser split keeps cells populated).

    Args:
        expected_count: expected sensors in the cell, > 0.

    Raises:
        ValueError: if expected_count <= 0.
    """
    if expected_count <= 0:
        raise ValueError(f"expected_count must be positive, got {expected_count}")
    root = math.sqrt(expected_count)
    best_k = 2
    best = abs(4.0 - root)
    k = 4
    # any k with k*k - root >= best can no longer win strictly
    while k * k - root < best:
        d = abs(k * k - root)
        if d < best:
            best = d
            best_k = k
        k += 2
    return best_k * best_k


def _grid_index(coord: np.ndarray, resolution: int) -> np.ndarray:
    ix = (coord * resolution).astype(np.int64)
    return np.minimum(ix, resolution - 1)


def build_hierarchy(points: PointSet, threshold: float) -> Hierarchy:
    """Partition the unit square over the given points.

    Cells subdivide while their expected count n * area exceeds threshold,
    every subdivision being a k x k grid with k^2 = subdivision_factor.
    All cells at a given depth share the same expected count, so leaves sit
    at a single uniform depth and the level count is 1 + that depth.

    Args:
        points: sensor positions.
        threshold: leaf threshold tau >= 1.

    Returns:
        Hierarchy with representatives and levels assigned.

    Raises:
        ValueError: if threshold < 1.
        EmptyCellError: if any cell at any depth holds no sensors.
        RepresentativeError: if a cell has no unclaimed member left.
    """
    if threshold < 1:
        raise ValueError(f"leaf threshold must be >= 1, got {threshold}")
    n = points.n
    xy = points.xy

    # per-depth expected counts and split factors
    expected = [float(n)]
    splits = []            # per-axis k at each subdivided depth
    while expected[-1] > threshold:
        factor = subdivision_factor(expected[-1])
        splits.append(int(math.isqrt(factor)))
        expected.append(expected[-1] / factor)
    depth_count = len(expected)
    total_levels = depth_count

    subdiv_at_depth = np.zeros(depth_count, dtype=np.int64)
    for d, k in enumerate(splits):
        subdiv_at_depth[d] = k * k
    expected_at_depth = np.asarray(expected, dtype=np.float64)

    # per-depth grid resolution and point grid coordinates
    resolutions = [1]
    for k in splits:
        resolutions.append(resolutions[-1] * k)

    # local cell index per depth, ordered so children of one parent are
    # contiguous and parents follow their own depth order
    point_local = [np.zeros(n, dtype=np.int64)]
    cells_per_depth = [1]
    grid_local = [np.zeros(1, dtype=np.int64)]   # grid position -> local index
    for d in range(1, depth_count):
        K = resolutions[d]
        k = splits[d - 1]
        gx = np.arange(K, dtype=np.int64)
        gxx, gyy = np.meshgrid(gx, gx, indexing="ij")
        parent_grid = (gxx // k) * resolutions[d - 1] + (gyy // k)
        local = grid_local[d - 1][parent_grid.ravel()] * (k * k) \
            + (gxx.ravel() % k) * k + (gyy.ravel() % k)
        grid_local.append(local)
        px = _grid_index(xy[:, 0], K)
        py = _grid_index(xy[:, 1], K)
        point_local.append(local[px * K + py])
        cells_per_depth.append(K * K)

    depth_offset = np.zeros(depth_count + 1, dtype=np.int64)
    np.cumsum(cells_per_depth, out=depth_offset[1:])
    n_cells = int(depth_offset[-1])

    # members grouped per cell, ids ascending inside each cell
    cell_member_start = np.zeros(n_cells + 1, dtype=np.int64)
    member_ids = np.empty(n * depth_count, dtype=np.int64)
    pos = 0
    for d in range(depth_count):
        counts = np.bincount(point_local[d], minlength=cells_per_depth[d])
        if counts.min() == 0:
            local = int(np.flatnonzero(counts == 0)[0])
            raise EmptyCellError(_path_of(local, d, splits), d)
        order = np.argsort(point_local[d], kind="stable").astype(np.int64)
        member_ids[pos:pos + n] = order
        base = depth_offset[d]
        # end offsets per cell; the last one doubles as the next depth's start
        cell_member_start[base + 1:base + cells_per_depth[d] + 1] = \
            pos + np.cumsum(counts)
        pos += n

    cell_depth = np.empty(n_cells, dtype=np.int64)
    cell_parent = np.full(n_cells, -1, dtype=np.int64)
    cell_subdiv = np.zeros(n_cells, dtype=np.int64)
    cell_expected = np.empty(n_cells, dtype=np.float64)
    cell_child_start = np.zeros(n_cells, dtype=np.int64)
    cell_child_count = np.zeros(n_cells, dtype=np.int64)
    for d in range(depth_count):
        base, end = int(depth_offset[d]), int(depth_offset[d + 1])
        cell_depth[base:end] = d
        cell_expected[base:end] = expected[d]
        if d + 1 < depth_count:
            factor = splits[d] * splits[d]
            cell_subdiv[base:end] = factor
            ids = np.arange(end - base, dtype=np.int64)
            cell_child_start[base:end] = depth_offset[d + 1] + ids * factor
            cell_child_count[base:end] = factor
            cell_parent[depth_offset[d + 1]:depth_offset[d + 2]] = \
                base + np.repeat(ids, factor)

    # representatives: nearest member to the center, ties by id, claimed
    # breadth-first so shallower cells win collisions
    cell_rep = np.full(n_cells, -1, dtype=np.int64)
    cell_of_rep = np.full(n, -1, dtype=np.int64)
    taken = np.zeros(n, dtype=bool)
    cell_grid = np.empty((n_cells, 2), dtype=np.int64)
    centers = np.empty((n_cells, 2), dtype=np.float64)
    for d in range(depth_count):
        base, end = int(depth_offset[d]), int(depth_offset[d + 1])
        cell_grid[base:end] = _grid_positions(resolutions[d], grid_local[d])
        centers[base:end] = (cell_grid[base:end] + 0.5) / resolutions[d]
    for c in range(n_cells):
        members = member_ids[cell_member_start[c]:cell_member_start[c + 1]]
        dx = xy[members, 0] - centers[c, 0]
        dy = xy[members, 1] - centers[c, 1]
        for idx in np.argsort(dx * dx + dy * dy, kind="stable"):
            s = int(members[idx])
            if not taken[s]:
                taken[s] = True
                cell_rep[c] = s
                cell_of_rep[s] = c
                break
        if cell_rep[c] < 0:
            raise RepresentativeError(
                f"no unclaimed member left for cell {c} at depth {int(cell_depth[c])}")

    level = np.zeros(n, dtype=np.int64)
    reps = cell_of_rep >= 0
    level[reps] = total_levels - cell_depth[cell_of_rep[reps]]
    levels = LevelAssignment(level=level, total=total_levels)

    leaf_base = int(depth_offset[depth_count - 1])
    leaf_of = (leaf_base + point_local[depth_count - 1]).astype(np.int64)

    return Hierarchy(
        levels=levels, points=points,
        threshold=float(threshold), cell_parent=cell_parent,
        cell_depth=cell_depth, cell_rep=cell_rep, cell_expected=cell_expected,
        cell_subdiv=cell_subdiv, cell_child_start=cell_child_start,
        cell_child_count=cell_child_count, cell_member_start=cell_member_start,
        cell_grid=cell_grid, member_ids=member_ids, leaf_of=leaf_of,
        cell_of_rep=cell_of_rep,
        subdiv_at_depth=subdiv_at_depth, expected_at_depth=expected_at_depth)


def _path_of(local: int, depth: int, splits: list) -> tuple:
    digits = []
    for d in range(depth - 1, -1, -1):
        factor = splits[d] * splits[d]
        digits.append(int(local % factor))
        local //= factor
    return tuple(reversed(digits))


def _grid_positions(K, local_map):
    # invert grid position -> local index into local index -> grid position
    gx = np.arange(K, dtype=np.int64)
    gxx, gyy = np.meshgrid(gx, gx, indexing="ij")
    out = np.empty((K * K, 2), dtype=np.int64)
    out[local_map, 0] = gxx.ravel()
    out[local_map, 1] = gyy.ravel()
    return out


def _build_cell_objects(h: Hierarchy) -> list:
    splits = [math.isqrt(int(f)) for f in h.subdiv_at_depth[:-1]]
    resolutions = np.cumprod([1] + splits).tolist()
    depth_start = np.searchsorted(h.cell_depth, np.arange(len(resolutions)))
    cells = []
    for c in range(h.n_cells):
        d = int(h.cell_depth[c])
        K = resolutions[d]
        gx, gy = int(h.cell_grid[c, 0]), int(h.cell_grid[c, 1])
        cells.append(SquareCell(
            path=_path_of(c - int(depth_start[d]), d, splits),
            bounds=(gx / K, gy / K, (gx + 1) / K, (gy + 1) / K), depth=d,
            expected_count=float(h.cell_expected[c]),
            members=h.members_of(c), subdivision=int(h.cell_subdiv[c]),
            representative=int(h.cell_rep[c]), index=c))
    for cell in cells:
        start = int(h.cell_child_start[cell.index])
        cell.children = cells[start:start + int(h.cell_child_count[cell.index])]
    return cells


@dataclass(frozen=True)
class ConcentrationReport:
    """Per-cell |count/expected - 1| and summary fractions."""

    deviations: np.ndarray
    depths: np.ndarray
    frac_within_tenth: float
    frac_within_half: float


def count_concentration(hierarchy: Hierarchy) -> ConcentrationReport:
    """Relative deviation of actual from expected counts, per cell."""
    counts = np.diff(hierarchy.cell_member_start).astype(np.float64)
    dev = np.abs(counts / hierarchy.cell_expected - 1.0)
    return ConcentrationReport(
        deviations=dev, depths=hierarchy.cell_depth.copy(),
        frac_within_tenth=float(np.mean(dev <= 0.1)),
        frac_within_half=float(np.mean(dev <= 0.5)))


def dump_hierarchy(hierarchy: Hierarchy) -> str:
    """Textual tree, one line per cell, stable across runs for golden tests."""
    lines = []
    level = hierarchy.levels
    for cell in hierarchy.cells:
        count = int(hierarchy.cell_member_start[cell.index + 1]
                    - hierarchy.cell_member_start[cell.index])
        rep_level = int(level.level[cell.representative])
        lines.append(
            f"{format_path(cell.path)} depth={cell.depth} "
            f"expected={cell.expected_count:.6g} count={count} "
            f"rep={cell.representative} level={rep_level}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ParamSchedule:
    """Per-depth accuracy, failure budget, round length, Far probability.

    time is measured in ticks of the representative's own clock; far_prob is
    the per-own-tick probability of a long-range exchange.
    """

    mode: str
    a: float
    gamma: float
    c1: float
    eps: np.ndarray
    delta: np.ndarray
    time: np.ndarray
    far_prob: np.ndarray

    @property
    def depth_count(self) -> int:
        return int(self.time.shape[0])


def _finite_pow(base: float, exp: float, depth: int, what: str) -> float:
    try:
        v = float(base) ** float(exp)
    except OverflowError:
        raise ScheduleOverflowError(depth, what) from None
    if not math.isfinite(v):
        raise ScheduleOverflowError(depth, what)
    return v


def build_schedule(n: int, eps0: float, delta0: float, a: float,
                   hierarchy: Hierarchy, mode: str,
                   c1: float = DEFAULT_C1,
                   gamma: float = DEFAULT_GAMMA) -> ParamSchedule:
    """Build the per-depth round schedule for the given hierarchy.

    Paper mode prices the deepest rounds at
    (ln(n/eps) * ln(1/delta))^16 and multiplies each shallower depth by
    n^a * (ln(subdiv_r/eps_r) * ln(1/delta_r))^16, shrinking the accuracy
    and failure budgets per depth by 25 * n^(3.5+a) and subdiv^(2a).
    Practical mode sizes a round at depth r as C1 * m * ln(m/eps_r)
    representative ticks, where m is the number of round participants (the
    subdivision factor, or, in a leaf, one tick per participant covers the
    same exchange count so the m factor drops), replaces n^a by the
    separation factor gamma in the Far probability, and splits the budgets
    across the children actually merged: eps and delta shrink per depth by
    the subdivision factor.  Folding the paper-mode budget shrink into round
    lengths makes deep rounds several times longer, which both burns
    neighbor exchanges while cells idle at depth and spaces Far kicks so
    densely relative to redistribution that the kick coefficient
    (0.4 * expected cell size) compounds and the state diverges.

    Args:
        n: sensor count.
        eps0: root accuracy target, in (0, 1).
        delta0: root failure budget, in (0, 1).
        a: paper-mode accuracy exponent, > 0; practical mode ignores it.
        hierarchy: built partition (supplies per-depth subdivision factors).
        mode: "paper" or "practical".
        c1: practical round-length constant, > 0.
        gamma: practical separation factor, >= 1.

    Raises:
        ValueError: on out-of-range arguments or unknown mode.
        ScheduleOverflowError: when eps, delta, time, or far_prob leaves the
            representable range at some depth (expected in paper mode at
            large a).
    """
    if not 0 < eps0 < 1:
        raise ValueError(f"eps0 must lie in (0, 1), got {eps0}")
    if not 0 < delta0 < 1:
        raise ValueError(f"delta0 must lie in (0, 1), got {delta0}")
    if a <= 0:
        raise ValueError(f"a must be positive, got {a}")
    if mode not in ("paper", "practical"):
        raise ValueError(f"mode must be 'paper' or 'practical', got {mode!r}")
    if c1 <= 0:
        raise ValueError(f"c1 must be positive, got {c1}")
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")

    depths = hierarchy.total_levels
    subdiv = hierarchy.subdiv_at_depth
    eps = np.empty(depths, dtype=np.float64)
    delta = np.empty(depths, dtype=np.float64)
    eps[0] = eps0
    delta[0] = delta0
    for r in range(1, depths):
        if mode == "paper":
            eps[r] = eps[r - 1] / (25.0 * _finite_pow(n, 3.5 + a, r, "eps"))
            delta[r] = delta[r - 1] / _finite_pow(subdiv[r - 1], 2.0 * a, r,
                                                  "delta")
        else:
            eps[r] = eps[r - 1] / subdiv[r - 1]
            delta[r] = delta[r - 1] / subdiv[r - 1]
        if eps[r] <= 0 or delta[r] <= 0:
            raise ScheduleOverflowError(r, "eps/delta underflow")

    time = np.empty(depths, dtype=np.float64)
    if mode == "paper":
        last = depths - 1
        time[last] = _finite_pow(
            math.log(n / eps[last]) * math.log(1.0 / delta[last]), 16, last, "time")
        for r in range(depths - 2, -1, -1):
            grow = _finite_pow(
                math.log(subdiv[r] / eps[r]) * math.log(1.0 / delta[r]), 16, r, "time")
            time[r] = float(time[r + 1]) * _finite_pow(n, a, r, "time") * grow
            if not math.isfinite(time[r]):
                raise ScheduleOverflowError(r, "time")
        n_pow = float(n) ** (-a)
        far_prob = n_pow / time
        if np.any(far_prob <= 0) or np.any(far_prob > 1):
            bad = int(np.flatnonzero((far_prob <= 0) | (far_prob > 1))[0])
            raise ScheduleOverflowError(bad, "far_prob")
    else:
        for r in range(depths):
            if subdiv[r] > 0:
                m = float(subdiv[r])
                time[r] = c1 * m * math.log(m / eps[r])
            else:
                m = hierarchy.expected_at_depth[r]
                time[r] = c1 * math.log(m / eps[r])
            if not math.isfinite(time[r]):
                raise ScheduleOverflowError(r, "time")
            time[r] = max(1.0, time[r])
        far_prob = (1.0 / gamma) / time

    return ParamSchedule(mode=mode, a=float(a), gamma=float(gamma),
                         c1=float(c1), eps=eps, delta=delta, time=time,
                         far_prob=far_prob)
