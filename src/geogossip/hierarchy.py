"""Recursive square partition, representative levels, and round schedules.

The unit square is subdivided into k x k grids (k even) while the expected
sensor count of a cell exceeds the leaf threshold.  Every cell gets a
representative: the member sensor nearest the cell center, ties by lowest id,
with uniqueness across the whole tree enforced by claiming representatives in
breadth-first order (shallower cells first) and falling back to the
next-nearest member on collision.  A representative of a cell at depth d
holds level total_levels - d; every other sensor holds level 0.

Cell membership uses half-open bounds: left/bottom edges closed, right/top
open, except the outer right/top edge of the unit square which is closed.
Equivalently, the grid index of a point at per-axis resolution K is
min(floor(x * K), K - 1).

Cells are numbered by one recurrence.  The root is local cell 0 of depth 0;
a depth-d cell's children, in a k x k grid, are local cells
parent * k^2 + (gx % k) * k + gy % k of depth d + 1, where (gx, gy) is the
child's grid position at resolution K_{d+1} = K_d * k.  So a child's grid
position is its parent's times k plus divmod(offset, k).

The module also builds the per-depth round schedule (accuracy eps_r, failure
budget delta_r, round length time_r in representative ticks, and per-tick Far
probability) in two modes: the literal 16th-power recursion ("paper") and a
runnable variant ("practical") sized from the per-round exchange count.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import PointSet, _grid_index

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
# Schedule modes: the paper's recursion and the runnable variant.
MODES = ("paper", "practical")


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


@dataclass(frozen=True)
class SquareCell:
    """One cell as the benchmark's flood probe reads it."""

    members: np.ndarray    # sensor ids, ascending
    representative: int
    is_leaf: bool


@dataclass(frozen=True)
class Hierarchy:
    """The partition as flat arrays.  Cells are numbered breadth-first,
    root = 0, each depth contiguous; within a depth, the children of local
    cell p are local cells p * k^2 + j, j the row-major offset
    (gx % k) * k + gy % k in p's k x k grid.  A fact shared by every cell of
    a depth is stored once per depth (index an *_at_depth array by
    cell_depth)."""

    points: PointSet
    cell_parent: np.ndarray    # (n_cells,) parent cell id, -1 for root
    cell_depth: np.ndarray
    cell_rep: np.ndarray
    # children of a cell at depth r occupy [start, start + subdiv_at_depth[r])
    cell_child_start: np.ndarray
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

    @property
    def total_levels(self) -> int:
        return int(self.expected_at_depth.shape[0])

    def members_of(self, cell_id: int) -> np.ndarray:
        return self.member_ids[self.cell_member_start[cell_id]:
                               self.cell_member_start[cell_id + 1]]

    @cached_property
    def cells(self) -> list:
        """One SquareCell per cell id.  Only the benchmark's flood probe
        (perfbench/workloads.py) reads this; nothing in the package does."""
        leaf = (self.subdiv_at_depth[self.cell_depth] == 0).tolist()
        return [SquareCell(self.members_of(c), int(self.cell_rep[c]), leaf[c])
                for c in range(self.n_cells)]


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
        Hierarchy with representatives assigned.

    Raises:
        ValueError: if threshold < 1.
        EmptyCellError: if any cell at any depth holds no sensors.
        RepresentativeError: if a cell has no unclaimed member left.
    """
    if threshold < 1:
        raise ValueError(f"leaf threshold must be >= 1, got {threshold}")
    n = points.n
    xy = points.xy

    # per-depth expected counts and per-axis split factors k
    expected = [float(n)]
    splits = []
    while expected[-1] > threshold:
        factor = subdivision_factor(expected[-1])
        splits.append(math.isqrt(factor))
        expected.append(expected[-1] / factor)
    depth_count = len(expected)
    subdiv_at_depth = np.array([k * k for k in splits] + [0], dtype=np.int64)
    cells_per_depth = np.cumprod([1] + [k * k for k in splits])
    depth_offset = np.zeros(depth_count + 1, dtype=np.int64)
    np.cumsum(cells_per_depth, out=depth_offset[1:])
    n_cells = int(depth_offset[-1])
    cell_depth = np.repeat(np.arange(depth_count, dtype=np.int64),
                           cells_per_depth)

    # Per depth: each point's local cell id, and each cell's grid position,
    # by the numbering recurrence.  A depth's grid index is read off the
    # leaf-resolution index, so a point's cells nest by construction
    # (binning each depth off x alone can split them a rounding error
    # below a grid line when k is not a power of two).
    leaf_res = math.prod(splits)
    px = _grid_index(xy[:, 0], leaf_res)
    py = _grid_index(xy[:, 1], leaf_res)
    local = np.zeros(n, dtype=np.int64)
    grid = np.zeros((1, 2), dtype=np.int64)
    resolution = 1
    cell_member_start = np.zeros(n_cells + 1, dtype=np.int64)
    member_ids = np.empty(n * depth_count, dtype=np.int64)
    cell_parent = np.full(n_cells, -1, dtype=np.int64)
    cell_child_start = np.zeros(n_cells, dtype=np.int64)
    cell_grid = np.empty((n_cells, 2), dtype=np.int64)
    centers = np.empty((n_cells, 2), dtype=np.float64)
    for d in range(depth_count):
        base, end = depth_offset[d], depth_offset[d + 1]
        if d:
            k = splits[d - 1]
            resolution *= k
            step = leaf_res // resolution
            local = local * (k * k) + (px // step % k) * k + py // step % k
            offset = np.stack(divmod(np.arange(k * k), k), axis=1)
            grid = (grid[:, None] * k + offset).reshape(-1, 2)
            up = depth_offset[d - 1]
            cell_parent[base:end] = up + np.arange(end - base) // (k * k)
            cell_child_start[up:base] = base + np.arange(0, end - base, k * k)
        # members grouped per cell, ids ascending inside each cell
        counts = np.bincount(local, minlength=end - base)
        if counts.min() == 0:
            empty = int(np.flatnonzero(counts == 0)[0])
            raise EmptyCellError(_path_of(empty, d, splits), d)
        member_ids[d * n:(d + 1) * n] = np.argsort(local, kind="stable")
        # end offsets per cell; the last one doubles as the next depth's start
        cell_member_start[base + 1:end + 1] = d * n + np.cumsum(counts)
        cell_grid[base:end] = grid
        centers[base:end] = (grid + 0.5) / resolution

    # representatives: nearest member to the center, ties by id, claimed
    # breadth-first so shallower cells win collisions
    cell_rep = np.full(n_cells, -1, dtype=np.int64)
    cell_of_rep = np.full(n, -1, dtype=np.int64)
    taken = np.zeros(n, dtype=bool)
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

    return Hierarchy(
        points=points, cell_parent=cell_parent, cell_depth=cell_depth,
        cell_rep=cell_rep, cell_child_start=cell_child_start,
        cell_member_start=cell_member_start, cell_grid=cell_grid,
        member_ids=member_ids, leaf_of=depth_offset[-2] + local,
        cell_of_rep=cell_of_rep, subdiv_at_depth=subdiv_at_depth,
        expected_at_depth=np.asarray(expected, dtype=np.float64))


def _path_of(local: int, depth: int, splits: list) -> tuple:
    digits = []
    for d in range(depth - 1, -1, -1):
        factor = splits[d] * splits[d]
        digits.append(int(local % factor))
        local //= factor
    return tuple(reversed(digits))


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
    expected = hierarchy.expected_at_depth[hierarchy.cell_depth]
    dev = np.abs(counts / expected - 1.0)
    return ConcentrationReport(
        deviations=dev, depths=hierarchy.cell_depth.copy(),
        frac_within_tenth=float(np.mean(dev <= 0.1)),
        frac_within_half=float(np.mean(dev <= 0.5)))


def dump_hierarchy(hierarchy: Hierarchy) -> str:
    """Textual tree, one line per cell, stable across runs for golden tests.

    Each cell's representative represents that cell alone, so its level is
    total_levels - depth.
    """
    h = hierarchy
    splits = [math.isqrt(int(f)) for f in h.subdiv_at_depth[:-1]]
    depth_start = np.searchsorted(h.cell_depth, np.arange(h.total_levels))
    counts = np.diff(h.cell_member_start)
    lines = []
    for c in range(h.n_cells):
        d = int(h.cell_depth[c])
        path = _path_of(c - int(depth_start[d]), d, splits)
        lines.append(
            f"{format_path(path)} depth={d} "
            f"expected={float(h.expected_at_depth[d]):.6g} "
            f"count={int(counts[c])} rep={int(h.cell_rep[c])} "
            f"level={h.total_levels - d}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ParamSchedule:
    """Per-depth accuracy, failure budget, round length, Far probability.

    time is measured in ticks of the representative's own clock; far_prob is
    the per-own-tick probability of a long-range exchange.
    """

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
        mode: one of MODES.
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
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
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

    return ParamSchedule(eps=eps, delta=delta, time=time, far_prob=far_prob)
