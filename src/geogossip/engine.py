"""Discrete-event simulator with exact per-packet transmission accounting.

One tick fires one uniformly random sensor.  A plain sensor only averages
locally.  A representative additionally administers its square: on its own
ticks it (re)starts the square's round when its counter sits at zero, makes
a long-range exchange with a sibling representative with a small scheduled
probability, and winds the round down once its counter passes the scheduled
duration.  All routing, flooding, and value updates complete within the
firing tick; nothing is in flight between ticks.  A square's round state
(global_on, counter, cell_active) has one entry per square, indexed by
cell id; boyd and geo have one square, the unit square.

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
`run` draws the rows in blocks of at most `block_rows(algorithm)` rows.
A logged run hands `step` one row of a block at a time as a list of Python
floats, and any other run hands the whole block to the bulk kernels; `step`
called without a row draws its own.  A Generator emits doubles strictly in
sequence, so every path sees the same rows and ends in the same state at
any stride.

The tick kernels are Python over numpy arrays, and they are control
only.  They take the SimState and read every array under its one name:
state.x, state.hierarchy.cell_parent, state.schedule.far_prob, and so on.
They update counters, protocol states and state.counts, a list of Python
ints, but never write x: each value update is appended to state.ops as an
op (a, b, k).  k == 0.0 is a midpoint, both ends taking their mean; any
other k is a far exchange's kick, d = k * (x[b] - x[a]) added at a and
taken from b.  `_apply` applies ops in order through state.xv, the one
memoryview of x the state makes.  The per-tick kernels read every array
entry with .item(i), so they compute on Python scalars, never on boxed
numpy ones.  Each kernel call builds one Event of Python scalars from a
tuple (`_event`: the namedtuple's class through tuple.__new__, not its
Python-level __new__), stamped with state.tick, and appends it to
state.events, so `step` returns a replayable event log from the identical
code path the bulk runner uses: it hands back the kernels' list as it
stands and puts a fresh one on the state.  Every op comes with an event,
so a tick without one returns at once.

`init_sim`, `step` and `run` are the whole stepping surface.  `step` is the
one per-tick entry point and applies its ops to x before it returns.  `run`
has one block loop.  A logged run also ends each block at the next record
tick, steps the block's rows through `step`, and hands its sink the
block's events in one call.  Otherwise blocks hold `block_rows` rows
whatever the stride, and a record costs a norm, not a block: after a
block's kernels run, its ops are applied up to each record tick inside it,
and state.counts is rebound to its row there.  The block's kernels return
a Block: its ops in tick order and, for each record tick, the number of ops
before it and the counts at it.  One builder makes the hier and boyd
blocks: it runs the near ticks built in numpy and places each op of a
tick stepped in Python after the built ops of earlier ticks, by position
(one searchsorted; no stepped tick is built).  A record tick finds the
built and stepped ops and counts before it with one searchsorted per
array; geo counts its accepted ops by the same rule and reads its counts
from its per-tick totals.  A stop at a record inside a block, at most
once per run, redraws the block's rows up to the stop from the generator
saved at the block start, and hier reruns them from its state saved
there.

The bulk runner runs a hier tick in Python only when it is live, that is
when it can change protocol state.  A representative's tick is live when it
would restart its square's round (global_on set, counter 0), pass its far
coin (global_on set, a parent, u[1] < far_prob), or end a round (counter at
time while the square is active, or at the root).  Any other tick is quiet
and does exactly what a plain sensor's tick does, a near exchange while its
leaf is on, plus counter += 1 while counter < time.  So k quiet ticks take a
counter c to min(c + k, ceil(time)), or leave it when c >= time.  Each
block first tests each square once, from its state at the block start, its
tick count and whether any of its far coins passes; a square none of whose
ticks can be live has its ticks built in numpy with the plain ones, and
its counter counts them all at the block end.  The ticks of every other
square are tested in tick order by the live rule, on the square's state as
it stands: a live one is stepped in Python, and a quiet one only counts
its counter up, its near exchange built in numpy with the plain ones.
This is exact because only a live tick changes another square's state,
and in three ways only: its parent's activation (global_on = 1, counter =
0) or deactivation (global_on = 0), and a completed far exchange (counter
= 0).  `_toggle` and `_far`, which make these changes, return the squares
they changed, and `_tick_hier` returns them in order, each with whether
its counter was reset.  A changed square whose ticks were not being tested
first counts its quiet ticks before the live one, unless its counter was
reset, and its later ticks join the test.  A built tick reads local_on, which
changes only in a leaf's flood, so the built ticks before each live leaf
tick read a snapshot taken just before it; boyd builds every tick that way.

A live tick's control traffic is memoised, as the graph and the leaf
squares are fixed for a run: a fan-out's routes (to a square's children,
or a far exchange's two legs) go through one lockstep `_walk` call, and the
run's first flood floods every leaf from its representative in one
`_frontier_flood` call.  `_walk` takes the graph and reads its padded table
of neighbour coordinates, which `routing` builds on a graph's first route
and keeps until another graph is routed on; `boyd`, which never routes,
never builds it.  The runner sets state.tick to each live tick before
stepping it, so its events carry their own ticks as stepped ones
do, and empties the event list after every block.  geo never reads x, so
`_tick_geo` takes a whole block of rows: attempt a of every tick still
pending is routed in one lockstep `_walk` call, and only the rejected
ticks try again.  It builds no event; `step` passes it a block of one row
and builds the tick's one event from the totals it returns.  A block's ops
are applied in tick order through state.xv, which touches only the ops'
endpoints and reads and writes them as Python floats: the same IEEE
doubles in the same order as `step`, so bulk and stepped runs stay
bit-identical.
"""

import functools
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .geometry import GeometricGraph
from .hierarchy import Hierarchy, ParamSchedule
from .metrics import MetricsRecord
from .routing import _frontier_flood, _walk, restrict_edges

# A run's counts are one list of Python ints, state.counts, indexed by
# these: the ledger categories, then the faults, then the rounds the root
# has ended.
LEDGER_NEAR = 0
LEDGER_FAR = 1
LEDGER_ACTIVATE = 2
LEDGER_DEACTIVATE = 3
LEDGER_FLOOD = 4
LEDGER_NAMES = ("near", "far_routing", "activate", "deactivate", "flood")

FAULT_ROUTING = 5
FAULT_ISOLATED_NEAR = 6
FAULT_CONCURRENT = 7
FAULT_FLOOD_GAP = 8
FAULT_GEO_REJECT = 9
FAULT_NAMES = ("routing_failure", "isolated_near", "concurrent_round",
               "flood_gap", "geo_reject_cap")

ROOT_ROUNDS = 10
LEDGER = slice(LEDGER_NEAR, FAULT_ROUTING)
FAULTS = slice(FAULT_ROUTING, ROOT_ROUNDS)

# Ledger category of each event action.
EVENT_LEDGER = {"near": LEDGER_NEAR, "far": LEDGER_FAR,
                "activate": LEDGER_ACTIVATE, "deactivate": LEDGER_DEACTIVATE,
                "flood_on": LEDGER_FLOOD, "flood_off": LEDGER_FLOOD}

INIT_DISTRIBUTIONS = ("spike", "uniform", "gauss", "gradient")

GEO_ATTEMPT_CAP = 64

# Uniforms per tick row, and the most rows and values one bulk block holds
# (the values bound its rows to 512 KB).
ROW_WIDTH = {"hier": 4, "boyd": 2, "geo": 1 + 3 * GEO_ATTEMPT_CAP}
BLOCK_ROWS = 4096
BLOCK_VALUES = 65536

Event = namedtuple("Event", ["tick", "action", "node", "target", "count",
                             "ok"])
# The kernels build each Event from one tuple through tuple.__new__ (0.22
# us against 0.53 us for the namedtuple's Python-level __new__); the result
# is the same Event.
_event = functools.partial(tuple.__new__, Event)
# `snapshot` builds each MetricsRecord the same way, its ratio checked.
_record = functools.partial(tuple.__new__, MetricsRecord)

# One bulk block's outcome.  ops iterates its value ops (a, b, k) in tick
# order; for each record offset (a tick counted from the block start),
# before holds the number of ops of the ticks before it and counts the row
# of state.counts at it.
Block = namedtuple("Block", ["ops", "before", "counts"])

# The protocol arrays a hier block start saves, so that a stop inside the
# block can rerun it up to the stop.
BLOCK_SAVED = ("local_on", "global_on", "counter", "cell_active", "counts")


def block_rows(algorithm: str) -> int:
    """Rows in one of `run`'s blocks of algorithm's ticks."""
    return min(BLOCK_ROWS, BLOCK_VALUES // ROW_WIDTH[algorithm])


def _route_all(state, pairs):
    # Greedy routes between node pairs (src, dst) into state.routes as
    # (hops, ok): the pairs not there yet walk in one lockstep _walk call.
    # The graph is fixed for a run, so each route is computed once.
    todo = [p for p in pairs if p not in state.routes]
    if todo:
        g = state.graph
        xy = g.points.xy
        src, dst = np.array(todo, dtype=np.int64).T
        _, hops, ok = _walk(g, src, dst, xy[dst, 0], xy[dst, 1])
        state.routes.update(zip(todo, zip(hops.tolist(), ok.tolist())))


def _flood(state, origin):
    # The flood from a leaf representative over the leaf CSR: (reached ids
    # in ascending order, transmissions).  The leaf CSR is fixed for a run
    # and has no edge between leaves, so the first flood of a run floods
    # every leaf from its representative in one _frontier_flood call and
    # memoises them all.
    if not state.floods:
        h = state.hierarchy
        reps = h.cell_rep[h.subdiv_at_depth[h.cell_depth] == 0]
        label, tx = _frontier_flood(state.leaf_indptr, state.leaf_indices,
                                    reps)
        ids = np.flatnonzero(label >= 0)
        ids = ids[np.argsort(label[ids], kind="stable")]
        ends = np.cumsum(np.bincount(label[ids], minlength=reps.shape[0]))
        state.floods.update(zip(reps.tolist(),
                                zip(np.split(ids, ends[:-1]), tx.tolist())))
    return state.floods[origin]


def _apply(x, ops):
    # Apply value ops (a, b, k) in order, writing through the buffer x: the
    # state's memoryview of its values (state.xv, items as Python floats;
    # the rest of x untouched), or an array, whose items give the same
    # doubles.  k == 0.0 is a midpoint; any other k is an antisymmetric kick
    # of k times the difference, which moves both ends equally and keeps the
    # pair sum.
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
    # The per-tick kernels read every array entry with .item(i), which
    # returns a Python scalar (0.07 us; int(a[i]) boxes a numpy scalar
    # first and takes 0.13 us), so no numpy scalar reaches their arithmetic
    # or their output: u, a Python float in a logged run, times a numpy
    # int would take numpy's slow reflected path.  lo, deg and v are
    # Python ints here.
    indptr = state.leaf_indptr
    lo = indptr.item(s)
    deg = indptr.item(s + 1) - lo
    if deg == 0:
        state.counts[FAULT_ISOLATED_NEAR] += 1
        return
    v = state.leaf_indices.item(lo + int(u * deg))
    state.ops.append((s, v, 0.0))
    state.counts[LEDGER_NEAR] += 2
    state.events.append(_event((state.tick, "near", s, v, 2, True)))


def _tick_geo(state, U, nodes):
    # U holds the block's tick rows and nodes their firing nodes,
    # nodes[t] = int(U[t, 0] * n).  Attempt a of every tick still pending
    # is routed in one _walk call; a tick is done once its candidate (a
    # stop node other than the firing node) passes the acceptance coin.
    # Appends the accepted ticks' ops but no event, and returns per tick
    # its routing transmissions, whether it exchanged and whether it hit
    # the attempt cap.
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
        trail, hops, _ok = _walk(g, s, np.full(s.shape[0], -1),
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
    capped = np.zeros(m, dtype=bool)
    capped[pending[cand[pending] >= 0]] = True
    accepted |= capped
    state.counts[FAULT_GEO_REJECT] += int(np.count_nonzero(capped))
    state.counts[LEDGER_FAR] += int(total.sum())
    state.ops.extend(zip(nodes[accepted].tolist(), cand[accepted].tolist(),
                         itertools.repeat(0.0)))
    return total, accepted, capped


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
    # Returns the partner square of a completed exchange, or None.
    h = state.hierarchy
    r = h.cell_depth.item(c)
    # c has a parent, and a parent has at least 4 children.
    nsib = h.subdiv_at_depth.item(r - 1) - 1
    cp = h.cell_child_start.item(h.cell_parent.item(c)) + int(u * nsib)
    if cp >= c:
        cp += 1
    sp = h.cell_rep.item(cp)
    _route_all(state, [(s, sp), (sp, s)])
    hops, ok = state.routes[(s, sp)]
    if ok:
        if state.cell_active.item(cp) == 1:
            state.counts[FAULT_CONCURRENT] += 1
        back, ok = state.routes[(sp, s)]
        hops += back
    state.counts[LEDGER_FAR] += hops
    if not ok:
        state.counts[FAULT_ROUTING] += 1
        state.events.append(_event((state.tick, "far", s, sp, hops, False)))
        return None
    state.ops.append((s, sp, 0.4 * h.expected_at_depth.item(r)))
    state.counter[c] = 0
    state.counter[cp] = 0
    state.events.append(_event((state.tick, "far", s, sp, hops, True)))
    return cp


def _toggle(state, s, c, r, on):
    # Start (on=1) or end (on=0) square c's round, c at depth r: flood local
    # states (a leaf) or route to the child representatives.  A square with no
    # running round has nothing to wind down; the repeat trigger fires every
    # own tick once counter passes time, so make that free.  Ending a round
    # of the root (c == 0) counts it in ROOT_ROUNDS.  Returns the child
    # squares whose round state changed: those whose route got through.
    if on == 0 and state.cell_active.item(c) == 0:
        return []
    state.cell_active[c] = on
    if on == 0 and c == 0:
        state.counts[ROOT_ROUNDS] += 1
    h = state.hierarchy
    m = h.subdiv_at_depth.item(r)
    if m == 0:
        reached, tx = _flood(state, s)
        state.local_on[reached] = on
        state.counts[LEDGER_FLOOD] += tx
        gap = (h.cell_member_start.item(c + 1) - h.cell_member_start.item(c)
               - len(reached))
        if gap > 0:
            state.counts[FAULT_FLOOD_GAP] += gap
        state.events.append(_event((state.tick,
                                    "flood_on" if on == 1 else "flood_off",
                                    s, c, tx, gap == 0)))
        return []
    start = h.cell_child_start.item(c)
    reps = h.cell_rep[start:start + m].tolist()
    _route_all(state, [(s, dst) for dst in reps])
    total = 0
    reached = []
    for child, dst in enumerate(reps, start):
        hops, ok = state.routes[(s, dst)]
        total += hops
        if ok:
            state.global_on[child] = on
            if on == 1:
                state.counter[child] = 0
            reached.append(child)
        else:
            state.counts[FAULT_ROUTING] += 1
    action = "activate" if on == 1 else "deactivate"
    state.counts[EVENT_LEDGER[action]] += total
    state.events.append(_event((state.tick, action, s, c, total,
                                len(reached) == m)))
    return reached


def _tick_hier(state, u, s):
    # u is the tick's row; s = int(u[0] * n) is its firing node.  Returns
    # the (square, counter_reset) pairs of the other squares the tick
    # changed, in the order its kernels changed them: an activation or a
    # completed far exchange resets the square's counter, a deactivation
    # leaves it.
    h = state.hierarchy
    c = h.cell_of_rep.item(s)
    if c < 0:
        # a plain sensor
        if state.local_on.item(s) == 1:
            _near(state, u[3], s)
        return []
    r = h.cell_depth.item(c)
    counter = state.counter
    root = c == 0
    changed = []
    if state.global_on.item(c) == 1:
        if counter.item(c) == 0:
            changed = [(ci, True) for ci in _toggle(state, s, c, r, 1)]
        if not root and u[1] < state.schedule.far_prob.item(r):
            cp = _far(state, u[2], s, c)
            if cp is not None:
                # A completed long-range exchange ends the tick; the reset
                # counter must survive to restart the round next own tick.
                return changed + [(cp, True)]
    if state.local_on.item(s) == 1:
        _near(state, u[3], s)
    cnt = counter.item(c)
    if cnt >= state.schedule.time.item(r):
        changed += [(ci, False) for ci in _toggle(state, s, c, r, 0)]
        if root:
            counter[c] = 0
    else:
        counter[c] = cnt + 1
    return changed


def _near_block(state, offs, t, s, u, live_t, live, op_t):
    # The Block of a hier or boyd block at the record offsets offs
    # (ascending).  Its ticks t (ascending) are near exchanges built here,
    # of firing sensors s with neighbour uniforms u, on the leaf CSR; its
    # ticks live_t were stepped in Python, and their ops wait in state.ops,
    # op_t[i] being the tick of op i.  live[i] holds the counts at the block
    # start (i = 0) and after live tick i.  A built tick adds 2 near
    # transmissions, or one isolated fault when s has no in-leaf neighbour.
    # The built ops stay one lazy zip, read in segments with the live ops
    # between them: a list made _apply slower (ROADMAP, "Dead ends").
    indptr = state.leaf_indptr
    lo = indptr[s]
    deg = indptr[s + 1] - lo
    keep = deg > 0
    a = s[keep]
    v = state.leaf_indices[lo[keep]
                           + (u[keep] * deg[keep]).astype(np.int64)]
    kept_t = t[keep]
    lone_t = t[~keep]
    state.counts[FAULT_ISOLATED_NEAR] += lone_t.shape[0]
    state.counts[LEDGER_NEAR] += 2 * kept_t.shape[0]
    built = np.searchsorted(kept_t, offs)
    counts = np.array(live)[np.searchsorted(live_t, offs)]
    counts[:, LEDGER_NEAR] += 2 * built
    counts[:, FAULT_ISOLATED_NEAR] += np.searchsorted(lone_t, offs)
    ops = zip(a.tolist(), v.tolist(), itertools.repeat(0.0))
    parts = []
    last = 0
    for p, op in zip(np.searchsorted(kept_t, op_t).tolist(), state.ops):
        parts += itertools.islice(ops, p - last), (op,)
        last = p
    parts.append(ops)
    state.ops = []
    return Block(itertools.chain.from_iterable(parts),
                 (built + np.searchsorted(op_t, offs)).tolist(),
                 counts.tolist())


def _quiet_counter(c, k, time):
    # A counter after k quiet ticks from c: it counts up to ceil(time) and
    # stops there, and one already at or past time stays.
    return np.maximum(c, np.minimum(c + k, np.ceil(time)))


def _run_hier(state, U, nodes, offs):
    # The live rule is in the module docstring.  flag marks the cells whose
    # ticks are tested in Python: those the filter passes and those a live
    # tick changes.  Their ticks are walked in tick order, and a cell a live
    # tick flags restarts the walk from the next tick.  Each live tick
    # records the tick of the op it emitted (at most one: a completed far
    # exchange ends the tick before its near step) and the counts after it.
    # The remaining ticks, plain and quiet, are near exchanges on the
    # local_on snapshot, which _near_block builds, placing the live ticks'
    # ops among theirs.
    h = state.hierarchy
    sched = state.schedule
    counter = state.counter
    global_on = state.global_on
    cell_active = state.cell_active
    cells = h.cell_of_rep[nodes]
    rep_t = np.flatnonzero(cells >= 0)
    rep_c = cells[rep_t]
    time = sched.time[h.cell_depth]
    coin_t = U[rep_t, 1] < sched.far_prob[h.cell_depth[rep_c]]
    # The filter: whether any tick of a cell in the block can be live, from
    # its tick count, whether any of its far coins passes, and its state at
    # the block start.  Only the cells it passes have their ticks tested in
    # Python: testing every representative tick gives the same output from
    # 10 to 57 times the tests in criterion-7 runs (ROADMAP, "Dead ends").
    n_own = np.bincount(rep_c, minlength=h.n_cells)
    coin = np.bincount(rep_c[coin_t], minlength=h.n_cells) > 0
    child = h.cell_parent >= 0
    restart = (global_on == 1) & ((counter == 0) | coin & child)
    ends = ((cell_active == 1) | ~child) & (counter + n_own - 1 >= time)
    flag = (n_own > 0) & (restart | ends)
    leaf = (h.subdiv_at_depth == 0)[h.cell_depth]
    on_at = np.empty(nodes.shape[0], dtype=np.uint8)
    local_on = state.local_on
    ops = state.ops
    op_t = []
    py_t = []
    live_counts = [state.counts.copy()]
    done = 0
    t0 = state.tick
    start = 0
    while start is not None:
        walk = start + np.flatnonzero(flag[rep_c[start:]])
        start = None
        for i in walk.tolist():
            c = rep_c.item(i)
            cnt = counter.item(c)
            if not (global_on.item(c) == 1
                    and (cnt == 0 or c != 0 and coin_t.item(i))
                    or cnt >= time.item(c)
                    and (cell_active.item(c) == 1 or c == 0)):
                # a quiet tick; its near exchange is built with the rest
                if cnt < time.item(c):
                    counter[c] = cnt + 1
                continue
            t = rep_t.item(i)
            if leaf.item(c) and t > done:
                on_at[done:t] = local_on[nodes[done:t]]
                done = t
            state.tick = t0 + t
            for ci, reset in _tick_hier(state, U[t], h.cell_rep.item(c)):
                if flag.item(ci):
                    continue
                if not reset:
                    counter[ci] = _quiet_counter(
                        counter[ci], np.count_nonzero(rep_c[:i] == ci),
                        time[ci])
                flag[ci] = True
                start = i + 1
            py_t.append(t)
            live_counts.append(state.counts.copy())
            if len(ops) > len(op_t):
                op_t.append(t)
            if start is not None:
                break
    state.tick = t0
    on_at[done:] = local_on[nodes[done:]]
    on_at[py_t] = 0
    fire_t = np.flatnonzero(on_at)
    # Every cell never flagged counts all its ticks as quiet.
    quiet = ~flag
    counter[quiet] = _quiet_counter(counter[quiet], n_own[quiet], time[quiet])
    return _near_block(state, offs, fire_t, nodes[fire_t], U[fire_t, 3],
                       py_t, live_counts, op_t)


@dataclass
class MetricsSeries:
    """Recorded rows of one run plus the stop condition that fired."""

    records: list
    stop_reason: str

    @property
    def final(self) -> MetricsRecord | None:
        """The last record, or None for a run that recorded none (a state
        already diverged when the run began)."""
        return self.records[-1] if self.records else None


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
    # The one memoryview of x that `_apply` writes through, made with the
    # state (and again by __setstate__ for a copy or an unpickled state).
    xv: memoryview = field(init=False, repr=False)
    local_on: np.ndarray
    # One entry per square, indexed by cell id (boyd and geo have one).
    global_on: np.ndarray
    counter: np.ndarray
    cell_active: np.ndarray
    # The run's counts, a list of Python ints indexed by LEDGER_*, FAULT_*
    # and ROOT_ROUNDS.  The root's rounds are its deactivations that sent
    # something; `run` reads them to stop on root deactivation.
    counts: list
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
    # One Event per kernel call, stamped with state.tick and made of
    # Python scalars, since `step` last took the list or the bulk block
    # loop last emptied it.
    events: list = field(default_factory=list, repr=False)
    # Value ops (a, b, k) the kernels emitted and `_apply` has not yet
    # applied to x.
    ops: list = field(default_factory=list, repr=False)
    # Memoised leaf floods (representative -> (reached ids, tx)) and
    # node-to-node routes ((src, dst) -> (hops, ok)); both depend only on
    # the fixed graph and hierarchy.
    floods: dict = field(default_factory=dict, repr=False)
    routes: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.xv = memoryview(self.x)

    # A memoryview can be neither copied nor pickled: a copy drops it and
    # makes its own of its own x.
    def __getstate__(self):
        state = self.__dict__.copy()
        del state["xv"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.xv = memoryview(self.x)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def error_ratio(self) -> float:
        if self.norm0 == 0.0:
            return 0.0
        # np.linalg.norm's own arithmetic for a real vector
        return math.sqrt(self.x.dot(self.x)) / self.norm0

    @property
    def ledger(self) -> np.ndarray:
        return np.array(self.counts[LEDGER], dtype=np.int64)

    @property
    def faults(self) -> np.ndarray:
        return np.array(self.counts[FAULTS], dtype=np.int64)

    @property
    def root_rounds(self) -> int:
        return self.counts[ROOT_ROUNDS]

    def ledger_totals(self) -> dict:
        return dict(zip(LEDGER_NAMES, self.counts[LEDGER]))

    def fault_totals(self) -> dict:
        return dict(zip(FAULT_NAMES, self.counts[FAULTS]))


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
    mean zero.  All protocol states start off except the root square's
    global state; all counters start at zero.

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
        ValueError: on inconsistent inputs, or initial values whose norm
            is not finite.
    """
    if algorithm not in ROW_WIDTH:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if record_seed is None:
        record_seed = int(seed)
    n = graph.n
    rng = np.random.default_rng(seed)
    x = initial_values(n, init_dist, rng, xy=graph.points.xy)
    with np.errstate(over="ignore"):
        norm0 = float(np.linalg.norm(x))
    if not math.isfinite(norm0):
        # run's error ratios would be nan from the first record on
        raise ValueError(f"initial values have norm {norm0}: they must be "
                         f"finite and their squares must sum below the "
                         f"float64 maximum")

    if algorithm == "hier":
        if hierarchy is None or schedule is None:
            raise ValueError(
                "algorithm 'hier' needs both a hierarchy and a schedule")
        if not np.array_equal(hierarchy.points.xy, graph.points.xy):
            raise ValueError("hierarchy and graph were built from "
                             "different point sets")
        if schedule.depth_count != hierarchy.total_levels:
            raise ValueError(
                f"schedule covers {schedule.depth_count} depths but the "
                f"hierarchy has {hierarchy.total_levels}")
        leaf_of = hierarchy.leaf_of
        lindptr, lindices = restrict_edges(
            graph, lambda u, v: leaf_of[u] == leaf_of[v])
    else:
        hierarchy = None
        schedule = None
        lindptr, lindices = graph.indptr, graph.indices
    # boyd and geo have no hierarchy: the unit square is their one square.
    n_cells = 1 if hierarchy is None else hierarchy.n_cells
    global_on = np.zeros(n_cells, dtype=np.uint8)
    global_on[0] = hierarchy is not None   # hier's root square starts on
    return SimState(
        algorithm=algorithm, seed=int(record_seed), graph=graph,
        hierarchy=hierarchy, schedule=schedule, rng=rng, tick=0, x=x,
        local_on=np.zeros(n, dtype=np.uint8), global_on=global_on,
        counter=np.zeros(n_cells, dtype=np.int64),
        cell_active=np.zeros(n_cells, dtype=np.uint8),
        counts=[0] * (ROOT_ROUNDS + 1),
        norm0=norm0, sum0=float(x.sum()),
        l1_0=float(np.abs(x).sum()),
        leaf_indptr=lindptr, leaf_indices=lindices,
        geo_accept=geo_acceptance(graph) if algorithm == "geo" else None,
    )


def _take_events(state: SimState) -> list:
    # Applies the pending value ops, then returns the kernels' event list
    # as it stands and puts a fresh one on the state.
    if state.ops:
        _apply(state.xv, state.ops)
        state.ops.clear()
    events = state.events
    state.events = []
    return events


def step(state: SimState, u=None) -> list:
    """Advance one tick and return the events it produced.

    u is the tick's row of ROW_WIDTH uniforms, a list or an array; without
    it, step draws the row from state.rng.
    """
    if u is None:
        u = state.rng.random(ROW_WIDTH[state.algorithm])
    s = int(u[0] * len(state.x))
    if state.algorithm == "hier":
        _tick_hier(state, u, s)
    elif state.algorithm == "boyd":
        _near(state, u[1], s)
    else:
        # An accepted tick's partner is its op's other end; a tick with no
        # candidate at all names -1.
        total, accepted, _ = _tick_geo(state, np.array([u]), np.array([s]))
        ok = accepted.item(0)
        state.events.append(_event((state.tick, "far", s,
                                    state.ops[-1][1] if ok else -1,
                                    total.item(0), ok)))
    state.tick += 1
    # Every op comes with an event, so a tick without one is done.
    if not state.events:
        return []
    return _take_events(state)


def replay_ledger(events) -> np.ndarray:
    """Rebuild ledger category totals from an event log."""
    ledger = [0] * len(LEDGER_NAMES)
    for ev in events:
        ledger[EVENT_LEDGER[ev.action]] += ev.count
    return np.array(ledger, dtype=np.int64)


def format_events(events) -> str:
    """Event log lines, one per event: tick node action target count."""
    return "".join([f"{t} {s} {action} {v} {count}\n"
                    for t, action, s, v, count, _ in events])


def snapshot(state: SimState, err_l2_ratio=None) -> MetricsRecord:
    """Current tick as one metrics row (err_l2_ratio: a known error_ratio)."""
    if err_l2_ratio is None:
        err_l2_ratio = state.error_ratio()
    if not (err_l2_ratio >= 0.0):
        raise ValueError(f"err_l2_ratio must be >= 0, got {err_l2_ratio}")
    c = state.counts
    return _record((state.algorithm, len(state.x), state.seed, state.tick,
                    sum(c[LEDGER]), c[LEDGER_NEAR], c[LEDGER_FAR],
                    c[LEDGER_ACTIVATE] + c[LEDGER_DEACTIVATE]
                    + c[LEDGER_FLOOD], err_l2_ratio, *c[FAULTS]))


def _run_block(state: SimState, U, offs) -> Block:
    # One block of rows through the bulk kernels, its Block taken at the
    # record offsets offs (ascending, in [0, rows]).  The protocol state and
    # the counts end at the block end; x waits for the returned ops.
    nodes = (U[:, 0] * len(state.x)).astype(np.int64)
    m = nodes.shape[0]
    if state.algorithm == "hier":
        block = _run_hier(state, U, nodes, offs)
    elif state.algorithm == "boyd":
        # A boyd tick is a near exchange on the full adjacency.
        block = _near_block(state, offs, np.arange(m), nodes, U[:, 1], [],
                            [state.counts.copy()], [])
    else:
        # The counts up to each tick, from geo's per-tick totals.
        live = np.repeat([state.counts], m + 1, axis=0)
        total, accepted, capped = _tick_geo(state, U, nodes)
        live[1:, LEDGER_FAR] += np.cumsum(total)
        live[1:, FAULT_GEO_REJECT] += np.cumsum(capped)
        block = Block(iter(state.ops),
                      np.searchsorted(np.flatnonzero(accepted), offs).tolist(),
                      live[offs].tolist())
        state.ops = []
    # A bulk block's events have no reader; keep the buffer to one block.
    state.events.clear()
    return block


def _run_blocks(state: SimState, stride: int, max_ticks, record,
                event_sink) -> str:
    # Blocks of block_rows rows (fewer only before max_ticks, and with an
    # event sink before a record tick); record() takes the row at each
    # record tick b and names the stop it fires, if any.  A logged block
    # looks step up as a module global each tick (perfbench's tracer
    # rebinds engine.step to time every tick) and records at its end, where
    # step has left the state complete.  A bulk block rebinds state.counts
    # at its end to the list the kernels left.  After a stop at b before the
    # block end, the redrawn rows are the block's first b - t0, as the
    # Generator emits doubles in sequence; boyd and geo write no protocol
    # array, so theirs are dropped.  x needs no copy, as the kernels never
    # read it and the ops before b are already applied.
    width = ROW_WIDTH[state.algorithm]
    rows = block_rows(state.algorithm)
    hier = state.algorithm == "hier"
    due = state.tick + stride
    while True:
        t0 = state.tick
        t1 = t0 + rows if max_ticks is None else min(t0 + rows, max_ticks)
        if event_sink is not None:
            t1 = min(t1, due)
        marks = list(range(due, t1 + 1, stride))
        due += len(marks) * stride
        if t1 == max_ticks and (not marks or marks[-1] < t1):
            marks.append(t1)
        if event_sink is not None:
            events = []
            for u in state.rng.random((t1 - t0, width)).tolist():
                events += step(state, u)
            event_sink(events)
            reason = record() if marks else None
            if reason is not None:
                return reason
            continue
        rng_state = state.rng.bit_generator.state
        if hier:
            saved = [getattr(state, name).copy() for name in BLOCK_SAVED]
        offs = np.array(marks, dtype=np.int64) - t0
        block = _run_block(state, state.rng.random((t1 - t0, width)), offs)
        end = state.counts
        done = 0
        for b, j, counts in zip(marks, block.before, block.counts):
            _apply(state.xv, itertools.islice(block.ops, j - done))
            done = j
            state.counts = counts
            state.tick = b
            reason = record()
            if reason is not None:
                if b < t1:
                    state.rng.bit_generator.state = rng_state
                    U = state.rng.random((b - t0, width))
                    if hier:
                        for name, arr in zip(BLOCK_SAVED, saved):
                            getattr(state, name)[:] = arr
                        state.tick = t0
                        _run_block(state, U, offs[:0])
                        state.tick = b
                return reason
        _apply(state.xv, block.ops)
        state.counts = end
        state.tick = t1


def run(state: SimState, *, max_ticks=None, target_ratio=None,
        stop_on_root_deactivation: bool = False, stride=None,
        on_record=None, event_sink=None) -> MetricsSeries:
    """Run until a stop condition fires, recording one row per stride.

    Error ratios are recomputed exactly (full norm) at stride boundaries,
    which is also where stop conditions are evaluated.  A norm that
    overflows raises no numpy warning: it is the "diverged" stop.

    Args:
        state: simulation state (advanced in place).
        max_ticks: stop at this tick count.
        target_ratio: stop once the error ratio falls to this value.
        stop_on_root_deactivation: stop when the root square completes a
            round.
        stride: ticks between records (default: n).
        on_record: called with each MetricsRecord as it is produced.  It
            sees the row only: a bulk run records inside a block whose
            protocol state and random stream are already past the row's
            tick, so the state is the stepped state only once `run`
            returns.
        event_sink: called with the events of each block of rows the run
            draws (at most `block_rows` ticks, in tick order).  Such a run
            steps each row through `step` and ends its blocks at record
            ticks too; its rows, records and state are those of the run
            without a sink.

    Returns:
        MetricsSeries with the recorded rows and the stop reason, one of
        "max_ticks", "target", "root_deactivation", "diverged".  A run is
        diverged when the error ratio stops being finite (value overflow);
        no record is written for the boundary that detected it, so a run
        of a state that has already diverged returns no record at all.

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

    def record():
        # The row at state.tick, then the stop it fires, if any.
        err = state.error_ratio()
        if not math.isfinite(err):
            return "diverged"
        rec = snapshot(state, err)
        records.append(rec)
        if on_record is not None:
            on_record(rec)
        if target_ratio is not None and err <= target_ratio:
            return "target"
        if stop_on_root_deactivation and state.root_rounds > rounds:
            return "root_deactivation"
        if max_ticks is not None and state.tick >= max_ticks:
            return "max_ticks"
        return None

    records = []
    rounds = state.root_rounds   # the first record after it grows stops
    # A norm overflows only as the values diverge, which record() reports.
    with np.errstate(over="ignore"):
        reason = record()
        if reason is None:
            reason = _run_blocks(state, stride, max_ticks, record,
                                 event_sink)
    return MetricsSeries(records, reason)
