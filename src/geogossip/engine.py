"""Discrete-event simulator with exact per-packet transmission accounting.

One tick fires one uniformly random sensor.  A plain sensor only averages
locally.  A representative additionally administers its square: on its own
ticks it (re)starts the square's round when its counter sits at zero, makes
a long-range exchange with a sibling representative with a small scheduled
probability, and winds the round down once its counter passes the scheduled
duration.  All routing, flooding, and value updates complete within the
firing tick; nothing is in flight between ticks.

Every packet hop lands in exactly one ledger category (near, far_routing,
activate, deactivate, flood).  Protocol faults (routing dead ends, sensors
with no in-leaf neighbor, long-range packets arriving mid-round, flood gaps,
rejection-sampling cap hits) are counted, never raised.

The comparison protocols run under the same tick model and accounting.
boyd: the firing sensor averages with a uniformly random graph neighbor
(2 transmissions per exchange).  geo: the firing sensor draws a uniform
position in the unit square, routes toward it, and treats the stop node as
the candidate partner.  Because that law favors sensors covering more area,
a rejection step accepts a candidate with probability proportional to its
local bucket count (capped at 1), approximating a uniform partner.  Every
attempt, accepted or not, pays the round trip: 2 hops' worth per routing
hop.  After GEO_ATTEMPT_CAP rejections the last candidate is accepted anyway
and the cap fault is counted, keeping tick cost bounded.

Randomness is drawn outside the kernels.  Every tick reads one fixed row of
uniforms from [0, 1); column 0 picks the firing node, and a pick among m
choices is int(u * m).  hier rows are (node, far coin, sibling, neighbor),
boyd rows are (node, neighbor), and geo attempt a reads (x, y, acceptance
coin) from columns 1+3a .. 3+3a; columns a tick does not use are discarded.
`run` draws the rows in blocks of at most BLOCK_VALUES values, for the
bulk runner and for its logged loop, which hands `step` one row of a block
at a time as a list of Python floats; `step` called without a row draws
its own.  A Generator emits doubles strictly in sequence, so every path
sees the same rows and ends in the same state at any stride.

The tick kernels are Python over numpy arrays, and they are control
only.  They take the SimState and read every array under its one name:
state.x, state.hierarchy.cell_parent, state.schedule.far_prob, and so on.
They update counters, protocol states, ledger and faults, but never write
x: each value update is appended to state.ops as an op (a, b, k).  k == 0.0
is a midpoint, both ends taking their mean; any other k is a far exchange's
kick, d = k * (x[b] - x[a]) added at a and taken from b.  `_apply` applies
ops in order.  Each kernel also appends one (action, node, target, count,
ok) tuple of Python scalars to state.events, so `step` returns a replayable
event log from the identical code path the bulk runner uses.

`init_sim`, `step` and `run` are the whole stepping surface.  `step` is the
one per-tick entry point and applies its ops to x before it returns; `run`
advances stride by stride, through `step` when it logs events and through
the bulk runner otherwise.

The bulk runner runs a hier tick in Python only when it can change
protocol state.  A representative's tick is live when it would restart its
square's round (global_on set, counter 0), pass its far coin (global_on
set, a parent, u[1] < far_prob), or end a round (counter at time while the
square is active, or at the root).  Any other tick is quiet and does
exactly what a plain sensor's tick does, a near exchange while its leaf is
on, plus counter += 1 while counter < time.  So each block classifies each
cell once, from its state at the block start, its tick count k and whether
any of its far coins passes: if none of its ticks can be live, its ticks
are built in numpy with the plain ones and its counter ends at
min(c0 + k, ceil(time)), or stays c0 when c0 >= time.  This is exact
because only a live tick changes another representative's state, and in
three ways only: its parent's activation (global_on = 1, counter = 0) or
deactivation (global_on = 0), and a completed far exchange (counter = 0).
Each appends an event naming its target, which the runner reads to wake a
quiet target: its counter catches up with its earlier quiet ticks unless
the event reset it, and its later ticks run in Python.  A built tick reads
local_on, which changes only in a leaf's flood, so the built ticks before
each live leaf tick read a snapshot taken just before it; boyd builds
every tick that way.  geo never reads x, so `_tick_geo` takes a whole
block of rows: attempt a of every tick still pending is routed in one
lockstep `_walk` call, and only the rejected ticks try again; `step` passes
it a block of one row.  A block's ops are merged in tick order and applied
through a memoryview of x, which touches only the ops' endpoints and reads
and writes them as Python floats: the same IEEE doubles in the same order
as `step`, so bulk and stepped runs stay bit-identical.  The bulk runner
empties the event list after every block.
"""

import heapq
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .geometry import GeometricGraph
from .hierarchy import Hierarchy, ParamSchedule
from .metrics import MetricsRecord
from .routing import _flood_core, _route_one, _walk, restrict_edges

LEDGER_NEAR = 0
LEDGER_FAR = 1
LEDGER_ACTIVATE = 2
LEDGER_DEACTIVATE = 3
LEDGER_FLOOD = 4
LEDGER_NAMES = ("near", "far_routing", "activate", "deactivate", "flood")

FAULT_ROUTING = 0
FAULT_ISOLATED_NEAR = 1
FAULT_CONCURRENT = 2
FAULT_FLOOD_GAP = 3
FAULT_GEO_REJECT = 4
FAULT_NAMES = ("routing_failure", "isolated_near", "concurrent_round",
               "flood_gap", "geo_reject_cap")

# Ledger category of each event action.
EVENT_LEDGER = {"near": LEDGER_NEAR, "far": LEDGER_FAR,
                "activate": LEDGER_ACTIVATE, "deactivate": LEDGER_DEACTIVATE,
                "flood_on": LEDGER_FLOOD, "flood_off": LEDGER_FLOOD}

INIT_DISTRIBUTIONS = ("spike", "uniform", "gauss", "gradient")

GEO_ATTEMPT_CAP = 64

# Uniforms per tick row, and the most values one bulk draw holds (this bounds
# the memory of a long stride to 128 KB).
ROW_WIDTH = {"hier": 4, "boyd": 2, "geo": 1 + 3 * GEO_ATTEMPT_CAP}
BLOCK_VALUES = 16384

Event = namedtuple("Event", ["tick", "action", "node", "target", "count",
                             "ok"])


def _route(state, src, dst):
    # Greedy route from node src to node dst: (hops, ok).  The graph is
    # fixed for a run, so each (src, dst) route is computed once.
    key = (src, dst)
    hit = state.routes.get(key)
    if hit is None:
        xy = state.graph.points.xy
        path, ok = _route_one(state.graph, src, dst, xy[dst, 0], xy[dst, 1])
        hit = state.routes[key] = (path.shape[0] - 1, ok)
    return hit


def _flood(state, origin):
    # Flood from origin over the leaf CSR: (reached ids, transmissions).
    # The leaf CSR is fixed for a run, so each origin floods once.
    hit = state.floods.get(origin)
    if hit is None:
        order, tx = _flood_core(state.leaf_indptr, state.leaf_indices,
                                origin)
        hit = state.floods[origin] = (np.array(order, dtype=np.int64),
                                      int(tx))
    return hit


def _apply(x, ops):
    # Apply value ops (a, b, k) to the array x in order, through a memoryview
    # (items as Python floats; the rest of x untouched).  k == 0.0 is a
    # midpoint; any other k is an antisymmetric kick of k times the
    # difference, which moves both ends equally and keeps the pair sum.
    x = memoryview(x)
    for a, b, k in ops:
        if k == 0.0:
            m = 0.5 * (x[a] + x[b])
            x[a] = m
            x[b] = m
        else:
            d = k * (x[b] - x[a])
            x[a] += d
            x[b] -= d


def _near(state, u, s):
    # u may be a Python float (a logged run's rows are lists), and a Python
    # float times a numpy int takes numpy's slow reflected path, about ten
    # times the cost of float times int.  So a per-tick kernel reads each
    # array entry it multiplies or emits as a Python int, as lo, deg and v
    # are here.
    indptr = state.leaf_indptr
    lo = int(indptr[s])
    deg = int(indptr[s + 1]) - lo
    if deg == 0:
        state.faults[FAULT_ISOLATED_NEAR] += 1
        return
    v = int(state.leaf_indices[lo + int(u * deg)])
    state.ops.append((s, v, 0.0))
    state.ledger[LEDGER_NEAR] += 2
    state.events.append(("near", s, v, 2, True))


def _near_ops(state, s, u):
    # _near over arrays of firing sensors s and their neighbour uniforms u.
    # Returns (keep, v): the mask of sensors that exchange and their
    # partners.  Isolated sensors count a fault each instead.
    indptr = state.leaf_indptr
    lo = indptr[s]
    deg = indptr[s + 1] - lo
    keep = deg > 0
    v = state.leaf_indices[lo[keep]
                           + (u[keep] * deg[keep]).astype(np.int64)]
    state.faults[FAULT_ISOLATED_NEAR] += keep.shape[0] - v.shape[0]
    state.ledger[LEDGER_NEAR] += 2 * v.shape[0]
    return keep, v


def _tick_geo(state, U, nodes):
    # U holds the block's tick rows and nodes their firing nodes,
    # nodes[t] = int(U[t, 0] * n).  Attempt a of every tick still pending
    # is routed in one _walk call; a tick is done once its candidate (a
    # stop node other than the firing node) passes the acceptance coin.
    g = state.graph
    accept = state.geo_accept
    m = nodes.shape[0]
    total = np.zeros(m, dtype=np.int64)
    cand = np.full(m, -1, dtype=np.int64)
    accepted = np.zeros(m, dtype=bool)
    pending = np.arange(m)
    for a in range(GEO_ATTEMPT_CAP):
        if pending.shape[0] == 0:
            break
        s = nodes[pending]
        trail, hops, _ok = _walk(g.indptr, g.indices, g.points.xy, s,
                                 np.full(s.shape[0], -1),
                                 U[pending, 1 + 3 * a], U[pending, 2 + 3 * a])
        c = trail[-1]
        total[pending] += 2 * hops
        moved = c != s
        cand[pending[moved]] = c[moved]
        done = moved & (U[pending, 3 + 3 * a] < accept[c])
        accepted[pending[done]] = True
        pending = pending[~done]
    # After the cap the last candidate is accepted anyway; a tick with no
    # candidate at all exchanges nothing.
    capped = pending[cand[pending] >= 0]
    accepted[capped] = True
    state.faults[FAULT_GEO_REJECT] += capped.shape[0]
    state.ledger[LEDGER_FAR] += int(total.sum())
    s_l, c_l, ok_l = nodes.tolist(), cand.tolist(), accepted.tolist()
    state.ops.extend((s, c, 0.0) for s, c, ok in zip(s_l, c_l, ok_l) if ok)
    state.events.extend(("far", s, c, t, ok)
                        for s, c, t, ok in zip(s_l, c_l, total.tolist(),
                                               ok_l))


def geo_acceptance(graph: GeometricGraph) -> np.ndarray:
    """Per-sensor acceptance probability for geo's rejection sampling.

    A sensor in a crowded bucket covers little area and is rarely the
    routing target, so it is accepted more readily: acceptance is the
    bucket count over the expected count n/grid_side^2, capped at 1.
    """
    counts = np.diff(graph.cell_start).astype(np.float64)
    per_node = counts[graph.point_cell]
    expected = graph.n / float(graph.grid_side) ** 2
    return np.minimum(1.0, per_node / expected)


def _far(state, u, s, c):
    # Returns whether the exchange completed.
    h = state.hierarchy
    r = h.cell_depth[c]
    nsib = int(h.subdiv_at_depth[r - 1]) - 1
    if nsib <= 0:
        return False
    cp = int(h.cell_child_start[h.cell_parent[c]]) + int(u * nsib)
    if cp >= c:
        cp += 1
    sp = int(h.cell_rep[cp])
    hops, ok = _route(state, s, sp)
    if not ok:
        state.ledger[LEDGER_FAR] += hops
        state.faults[FAULT_ROUTING] += 1
        state.events.append(("far", s, sp, hops, False))
        return False
    if state.cell_active[cp] == 1:
        state.faults[FAULT_CONCURRENT] += 1
    back, ok = _route(state, sp, s)
    hops += back
    state.ledger[LEDGER_FAR] += hops
    if not ok:
        state.faults[FAULT_ROUTING] += 1
        state.events.append(("far", s, sp, hops, False))
        return False
    state.ops.append((s, sp, 0.4 * h.expected_at_depth[r]))
    state.counter[s] = 0
    state.counter[sp] = 0
    state.events.append(("far", s, sp, hops, True))
    return True


def _toggle(state, s, c, r, on):
    # Start (on=1) or end (on=0) square c's round, c at depth r: flood local
    # states (a leaf) or route to the child representatives.  A square with no
    # running round has nothing to wind down; the repeat trigger fires every
    # own tick once counter passes time, so make that free.  Returns whether
    # anything was sent.
    if on == 0 and state.cell_active[c] == 0:
        return False
    state.cell_active[c] = on
    h = state.hierarchy
    m = h.subdiv_at_depth[r]
    if m == 0:
        reached, tx = _flood(state, s)
        state.local_on[reached] = on
        state.ledger[LEDGER_FLOOD] += tx
        gap = (int(h.cell_member_start[c + 1] - h.cell_member_start[c])
               - len(reached))
        if gap > 0:
            state.faults[FAULT_FLOOD_GAP] += gap
        state.events.append(("flood_on" if on == 1 else "flood_off", s,
                             int(c), tx, gap == 0))
        return True
    total = 0
    ok_all = True
    start = h.cell_child_start[c]
    for ci in range(start, start + m):
        dst = h.cell_rep[ci]
        hops, ok = _route(state, s, dst)
        total += hops
        if ok:
            state.global_on[dst] = on
            if on == 1:
                state.counter[dst] = 0
        else:
            state.faults[FAULT_ROUTING] += 1
            ok_all = False
    if on == 1:
        state.ledger[LEDGER_ACTIVATE] += total
        state.events.append(("activate", s, int(c), total, ok_all))
    else:
        state.ledger[LEDGER_DEACTIVATE] += total
        state.events.append(("deactivate", s, int(c), total, ok_all))
    return True


def _tick_hier(state, u, s):
    # u is the tick's row; s = int(u[0] * n) is its firing node.
    h = state.hierarchy
    c = h.cell_of_rep[s]
    if c < 0:
        # a plain sensor
        if state.local_on[s] == 1:
            _near(state, u[3], s)
        return
    r = h.cell_depth[c]
    counter = state.counter
    if state.global_on[s] == 1:
        if counter[s] == 0:
            _toggle(state, s, c, r, 1)
        if h.cell_parent[c] >= 0 and u[1] < state.schedule.far_prob[r]:
            if _far(state, u[2], s, c):
                # A completed long-range exchange ends the tick; the reset
                # counter must survive to restart the round next own tick.
                return
    if state.local_on[s] == 1:
        _near(state, u[3], s)
    if counter[s] >= state.schedule.time[r]:
        sent = _toggle(state, s, c, r, 0)
        if h.cell_parent[c] < 0:
            counter[s] = 0
            state.root_rounds += sent
    else:
        counter[s] += 1


def _quiet_counter(c, k, time):
    # A counter after k quiet ticks from c: it counts up to ceil(time) and
    # stops there, and one already at or past time stays.
    return np.maximum(c, np.minimum(c + k, np.ceil(time)))


def _run_hier(state, U, nodes):
    # The live/quiet rule is in the module docstring.  Live cells' ticks
    # run through _tick_hier in tick order, from a heap that wake() extends
    # with a woken cell's later ticks.  Each live tick records the tick of
    # the op it emitted (at most one: a completed far exchange ends the
    # tick before its near step).  The remaining ticks, plain and quiet,
    # are near exchanges on the local_on snapshot; the ops are merged in
    # tick order and applied in one pass.
    h = state.hierarchy
    sched = state.schedule
    counter = state.counter
    cells = h.cell_of_rep[nodes]
    rep_t = np.flatnonzero(cells >= 0)
    rep_s = nodes[rep_t]
    rep_c = cells[rep_t]
    depth = h.cell_depth[rep_c]
    # Per representative tick, its cell's inputs: tick count in the block,
    # whether any of those ticks passes the far coin, and the start state.
    count = np.bincount(rep_c, minlength=h.n_cells)[rep_c]
    coin = np.bincount(rep_c[U[rep_t, 1] < sched.far_prob[depth]],
                       minlength=h.n_cells)[rep_c] > 0
    time = sched.time[depth]
    c0 = counter[rep_s]
    child = h.cell_parent[rep_c] >= 0
    live_t = ((state.global_on[rep_s] == 1) & ((c0 == 0) | coin & child)
              | ((state.cell_active[rep_c] == 1) | ~child)
              & (c0 + count - 1 >= time))
    live = np.zeros(h.n_cells, dtype=bool)
    live[rep_c[live_t]] = True
    heap = rep_t[live_t].tolist()

    def wake(c, t, sync):
        # A live tick at t changed the state of c's quiet representative.
        if live[c]:
            return
        live[c] = True
        own = rep_t[rep_c == c]
        i = int(np.searchsorted(own, t))
        if sync:
            s = h.cell_rep[c]
            counter[s] = _quiet_counter(counter[s], i,
                                        sched.time[h.cell_depth[c]])
        for later in own[i:].tolist():
            heapq.heappush(heap, later)

    on_at = np.empty(nodes.shape[0], dtype=np.uint8)
    local_on = state.local_on
    events = state.events
    ops = state.ops
    op_t = []
    py_t = []
    done = 0
    while heap:
        t = heapq.heappop(heap)
        s = int(nodes[t])
        c = cells[t]
        leaf = h.subdiv_at_depth[h.cell_depth[c]] == 0
        if leaf and t > done:
            on_at[done:t] = local_on[nodes[done:t]]
            done = t
        seen = len(events)
        _tick_hier(state, U[t], s)
        py_t.append(t)
        if len(ops) > len(op_t):
            op_t.append(t)
        for action, _, target, _, ok in events[seen:]:
            if action == "far":
                if ok:
                    wake(h.cell_of_rep[target], t, False)
            elif action == "activate" or action == "deactivate":
                # only the children whose route succeeded changed state
                start = h.cell_child_start[target]
                for ci in range(start, start + h.subdiv_at_depth[
                        h.cell_depth[target]]):
                    if _route(state, s, h.cell_rep[ci])[1]:
                        wake(ci, t, action == "deactivate")
    on_at[done:] = local_on[nodes[done:]]
    on_at[py_t] = 0
    fire_t = np.flatnonzero(on_at)
    fire_s = nodes[fire_t]
    quiet = ~live[rep_c]
    counter[rep_s[quiet]] = _quiet_counter(c0, count, time)[quiet]
    keep, v = _near_ops(state, fire_s, U[fire_t, 3])
    a = fire_s[keep]
    k = np.zeros(v.shape[0])
    if ops:
        ra, rb, rk = zip(*ops)
        order = np.argsort(np.concatenate([fire_t[keep], op_t]),
                           kind="stable")
        a = np.concatenate([a, ra])[order]
        v = np.concatenate([v, rb])[order]
        k = np.concatenate([k, rk])[order]
        ops.clear()
    _apply(state.x, zip(a.tolist(), v.tolist(), k.tolist()))


@dataclass
class MetricsSeries:
    """Recorded rows of one run plus the stop condition that fired."""

    records: list
    stop_reason: str

    @property
    def final(self) -> MetricsRecord:
        return self.records[-1]


@dataclass
class SimState:
    """Complete mutable state of one simulation run."""

    algorithm: str
    seed: int
    graph: GeometricGraph
    hierarchy: Hierarchy
    schedule: ParamSchedule
    rng: np.random.Generator
    tick: int
    x: np.ndarray
    local_on: np.ndarray
    global_on: np.ndarray
    counter: np.ndarray
    cell_active: np.ndarray
    ledger: np.ndarray
    faults: np.ndarray
    norm0: float
    sum0: float
    l1_0: float
    # CSR adjacency a near exchange picks its partner from: in-leaf edges
    # for hier; boyd and geo have no squares, so the whole graph is their
    # one leaf.
    leaf_indptr: np.ndarray = field(repr=False)
    leaf_indices: np.ndarray = field(repr=False)
    # geo's per-sensor acceptance probabilities (None for hier and boyd).
    geo_accept: np.ndarray = field(repr=False)
    # Rounds the root square has ended: root deactivations that sent
    # something.  `run` reads it to stop on root deactivation.
    root_rounds: int = 0
    # (action, node, target, count, ok) per kernel call since `step` or the
    # bulk block loop last emptied it, all Python scalars.
    events: list = field(default_factory=list, repr=False)
    # Value ops (a, b, k) the kernels emitted and `_apply` has not yet
    # applied to x.
    ops: list = field(default_factory=list, repr=False)
    # Memoised floods (origin -> (reached, tx)) and node-to-node routes
    # ((src, dst) -> (path, ok)); both depend only on the fixed graph.
    floods: dict = field(default_factory=dict, repr=False)
    routes: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def error_ratio(self) -> float:
        if self.norm0 == 0.0:
            return 0.0
        # np.linalg.norm's own arithmetic for a real vector
        return math.sqrt(self.x.dot(self.x)) / self.norm0

    def ledger_totals(self) -> dict:
        return dict(zip(LEDGER_NAMES, (int(v) for v in self.ledger)))

    def fault_totals(self) -> dict:
        return dict(zip(FAULT_NAMES, (int(v) for v in self.faults)))


def initial_values(n: int, init_dist, rng: np.random.Generator,
                   xy=None) -> np.ndarray:
    if isinstance(init_dist, np.ndarray):
        x = np.asarray(init_dist, dtype=np.float64).copy()
        if x.shape != (n,):
            raise ValueError(f"initial values must have shape ({n},), "
                             f"got {x.shape}")
    elif init_dist == "spike":
        x = np.full(n, -1.0 / n)
        x[0] += 1.0
    elif init_dist == "uniform":
        x = rng.random(n) * 2.0 - 1.0
    elif init_dist == "gauss":
        x = rng.standard_normal(n)
    elif init_dist == "gradient":
        # Smooth worst-case-like field: values follow the horizontal
        # coordinate, putting the energy into the slowest graph modes.
        # Spike and the iid draws spread energy evenly over all modes, so
        # most of their norm dies in purely local smoothing; this field is
        # the one whose decay requires domain-scale transport.
        x = xy[:, 0].copy()
    else:
        raise ValueError(f"unknown initial distribution {init_dist!r}; "
                         f"expected one of {INIT_DISTRIBUTIONS} or an array")
    return x - x.mean()


def init_sim(graph: GeometricGraph, hierarchy=None, schedule=None, *,
             seed, init_dist="spike", algorithm: str = "hier",
             record_seed=None) -> SimState:
    """Build a ready-to-run simulation state.

    Values are drawn from the chosen initial distribution and centered to
    mean zero.  All protocol states start off except the root
    representative's global state; all counters start at zero.

    Args:
        graph: connected geometric graph to simulate on.
        hierarchy: square hierarchy (required for algorithm "hier").
        schedule: round durations and long-range probabilities ("hier").
        seed: seed (or SeedSequence) for the simulation's random stream.
        init_dist: "spike", "uniform", "gauss", "gradient", or an explicit
            value array.
        algorithm: "hier", "boyd", or "geo".
        record_seed: seed value stamped into metrics rows (defaults to
            `seed`, which then must be an integer).

    Returns:
        SimState at tick 0.

    Raises:
        ValueError: on inconsistent inputs.
    """
    if algorithm not in ("hier", "boyd", "geo"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if record_seed is None:
        record_seed = int(seed)
    n = graph.n
    rng = np.random.default_rng(seed)
    x = initial_values(n, init_dist, rng, xy=graph.points.xy)

    local_on = np.zeros(n, dtype=np.uint8)
    global_on = np.zeros(n, dtype=np.uint8)
    counter = np.zeros(n, dtype=np.int64)
    ledger = np.zeros(len(LEDGER_NAMES), dtype=np.int64)
    faults = np.zeros(len(FAULT_NAMES), dtype=np.int64)

    if algorithm == "hier":
        if hierarchy is None or schedule is None:
            raise ValueError(
                "algorithm 'hier' needs both a hierarchy and a schedule")
        if not np.array_equal(hierarchy.points.xy, graph.points.xy):
            raise ValueError("hierarchy and graph were built from "
                             "different point sets")
        if schedule.depth_count != hierarchy.leaf_depth + 1:
            raise ValueError(
                f"schedule covers {schedule.depth_count} depths but the "
                f"hierarchy has {hierarchy.leaf_depth + 1}")
        cell_active = np.zeros(hierarchy.n_cells, dtype=np.uint8)
        global_on[hierarchy.cell_rep[0]] = 1
        leaf_of = hierarchy.leaf_of
        lindptr, lindices = restrict_edges(
            graph, lambda u, v: leaf_of[u] == leaf_of[v])
    else:
        hierarchy = None
        schedule = None
        cell_active = np.zeros(1, dtype=np.uint8)
        lindptr, lindices = graph.indptr, graph.indices

    return SimState(
        algorithm=algorithm, seed=int(record_seed), graph=graph,
        hierarchy=hierarchy, schedule=schedule, rng=rng, tick=0, x=x,
        local_on=local_on, global_on=global_on, counter=counter,
        cell_active=cell_active, ledger=ledger, faults=faults,
        norm0=float(np.linalg.norm(x)), sum0=float(x.sum()),
        l1_0=float(np.abs(x).sum()),
        leaf_indptr=lindptr, leaf_indices=lindices,
        geo_accept=geo_acceptance(graph) if algorithm == "geo" else None,
    )


def _take_events(state: SimState, tick: int) -> list:
    # Applies the pending value ops, then returns the buffered kernel
    # events as Event tuples (the kernels emit Python scalars, so no field
    # is converted); empties both buffers.
    if state.ops:
        _apply(state.x, state.ops)
        state.ops.clear()
    out = [Event(tick, *ev) for ev in state.events]
    state.events.clear()
    return out


def step(state: SimState, u=None) -> list:
    """Advance one tick and return the events it produced.

    u is the tick's row of ROW_WIDTH uniforms, a list or an array; without
    it, step draws the row from state.rng.
    """
    tick = state.tick
    if u is None:
        u = state.rng.random(ROW_WIDTH[state.algorithm])
    s = int(u[0] * state.n)
    if state.algorithm == "hier":
        _tick_hier(state, u, s)
    elif state.algorithm == "boyd":
        _near(state, u[1], s)
    else:
        _tick_geo(state, np.array([u]), np.array([s]))
    state.tick = tick + 1
    return _take_events(state, tick)


def replay_ledger(events) -> np.ndarray:
    """Rebuild ledger category totals from an event log."""
    ledger = np.zeros(len(LEDGER_NAMES), dtype=np.int64)
    for ev in events:
        ledger[EVENT_LEDGER[ev.action]] += ev.count
    return ledger


def format_event(ev: Event) -> str:
    return f"{ev.tick} {ev.node} {ev.action} {ev.target} {ev.count}"


def snapshot(state: SimState, err_l2_ratio=None) -> MetricsRecord:
    """Current tick as one metrics row (err_l2_ratio: a known error_ratio)."""
    if err_l2_ratio is None:
        err_l2_ratio = state.error_ratio()
    lg, ft = state.ledger.tolist(), state.faults.tolist()
    return MetricsRecord(
        algorithm=state.algorithm, n=state.n, seed=state.seed,
        tick=state.tick,
        transmissions_total=sum(lg),
        transmissions_near=lg[LEDGER_NEAR],
        transmissions_far_routing=lg[LEDGER_FAR],
        transmissions_control=(lg[LEDGER_ACTIVATE] + lg[LEDGER_DEACTIVATE]
                               + lg[LEDGER_FLOOD]),
        err_l2_ratio=err_l2_ratio,
        fault_routing=ft[FAULT_ROUTING],
        fault_isolated_near=ft[FAULT_ISOLATED_NEAR],
        fault_concurrent_round=ft[FAULT_CONCURRENT],
        fault_flood_gap=ft[FAULT_FLOOD_GAP],
        fault_geo_reject=ft[FAULT_GEO_REJECT],
    )


def _row_blocks(state: SimState, ticks: int):
    # The next ticks' rows from state.rng, in blocks of at most
    # BLOCK_VALUES values.
    width = ROW_WIDTH[state.algorithm]
    rows = BLOCK_VALUES // width
    for start in range(0, ticks, rows):
        yield state.rng.random((min(rows, ticks - start), width))


def _run_chunk(state: SimState, ticks: int) -> None:
    for U in _row_blocks(state, ticks):
        nodes = (U[:, 0] * state.n).astype(np.int64)
        if state.algorithm == "hier":
            _run_hier(state, U, nodes)
        elif state.algorithm == "boyd":
            # A boyd tick is a near exchange on the full adjacency.
            keep, v = _near_ops(state, nodes, U[:, 1])
            _apply(state.x, zip(nodes[keep].tolist(), v.tolist(),
                                itertools.repeat(0.0)))
        else:
            _tick_geo(state, U, nodes)
            _apply(state.x, state.ops)
            state.ops.clear()
        # _run_hier reads only its live ticks' events; keep the buffer to
        # one block.
        state.events.clear()
    state.tick += ticks


def run(state: SimState, *, max_ticks=None, target_ratio=None,
        stop_on_root_deactivation: bool = False, stride=None,
        on_record=None, event_sink=None) -> MetricsSeries:
    """Run until a stop condition fires, recording one row per stride.

    Error ratios are recomputed exactly (full norm) at stride boundaries,
    which is also where stop conditions are evaluated.

    Args:
        state: simulation state (advanced in place).
        max_ticks: stop at this tick count.
        target_ratio: stop once the error ratio falls to this value.
        stop_on_root_deactivation: stop when the root square completes a
            round.
        stride: ticks between records (default: n).
        on_record: called with each MetricsRecord as it is produced.
        event_sink: called with each tick's event list (this routes the run
            through the stepper; results are identical to the bulk path).

    Returns:
        MetricsSeries with the recorded rows and the stop reason, one of
        "max_ticks", "target", "root_deactivation", "diverged".  A run is
        diverged when the error ratio stops being finite (value overflow);
        no record is written for the boundary that detected it.

    Raises:
        ValueError: if no stop condition is given.
    """
    if max_ticks is None and target_ratio is None and \
            not stop_on_root_deactivation:
        raise ValueError("at least one stop condition is required")
    if stride is None:
        stride = max(1, state.n)
    stride = int(stride)
    if stride <= 0:
        raise ValueError(f"stride must be positive, got {stride}")

    def emit(rec):
        records.append(rec)
        if on_record is not None:
            on_record(rec)

    records = []
    emit(snapshot(state))
    if target_ratio is not None and records[-1].err_l2_ratio <= target_ratio:
        return MetricsSeries(records, "target")
    if max_ticks is not None and state.tick >= max_ticks:
        return MetricsSeries(records, "max_ticks")

    while True:
        chunk = stride
        if max_ticks is not None:
            chunk = min(chunk, max_ticks - state.tick)
        rounds = state.root_rounds
        if event_sink is None:
            _run_chunk(state, chunk)
        else:
            # The same kernels one tick at a time, on the rows the bulk
            # path draws, so the random stream and all state match it bit
            # for bit.  Each block becomes Python floats with one tolist().
            # `step` is looked up as a module global each tick:
            # perfbench's tracer rebinds engine.step to time every tick.
            for U in _row_blocks(state, chunk):
                for u in U.tolist():
                    event_sink(step(state, u))
        err = state.error_ratio()
        if not math.isfinite(err):
            return MetricsSeries(records, "diverged")
        rec = snapshot(state, err)
        emit(rec)
        if target_ratio is not None and rec.err_l2_ratio <= target_ratio:
            return MetricsSeries(records, "target")
        if stop_on_root_deactivation and state.root_rounds > rounds:
            return MetricsSeries(records, "root_deactivation")
        if max_ticks is not None and state.tick >= max_ticks:
            return MetricsSeries(records, "max_ticks")
