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
They update counters, protocol states and state.counts, but never write
x: each value update is appended to state.ops as an op (a, b, k).  k == 0.0
is a midpoint, both ends taking their mean; any other k is a far exchange's
kick, d = k * (x[b] - x[a]) added at a and taken from b.  `_apply` applies
ops in order.  Each kernel call also appends one Event of Python scalars,
stamped with state.tick, to state.events, so `step` returns a replayable
event log from the identical code path the bulk runner uses: it hands back
the kernels' list as it stands and puts a fresh one on the state.  Every op
comes with an event, so a tick without one returns at once.

`init_sim`, `step` and `run` are the whole stepping surface.  `step` is the
one per-tick entry point and applies its ops to x before it returns.  `run`
has one block loop.  A logged run also ends each block at the next record
tick, steps the block's rows through `step`, and hands its sink the
block's events in one call.  Otherwise blocks hold `block_rows` rows
whatever the stride, and a record costs a norm, not a block: after a
block's kernels run, its ops are applied up to each record tick inside it,
and state.counts is set to its value there.  The block's kernels return a
Block: its ops in tick order and, for each record tick, the number of ops
before it and the counts at it.  One builder makes the hier and boyd
blocks: it runs the near ticks built in numpy, merges their ops in tick
order with those of the ticks stepped in Python, and finds each record
tick's ops and counts with one searchsorted per array (the built ticks,
and the counts after each stepped tick).  geo reads them from its
per-tick totals.  A stop at a record inside a block, at most once per run,
redraws the block's rows up to the stop from the generator saved at the
block start, and hier reruns them from its state saved there.

The bulk runner runs a hier tick in Python only when it is live, that is
when it can change protocol state.  A representative's tick is live when it
would restart its square's round (global_on set, counter 0), pass its far
coin (global_on set, a parent, u[1] < far_prob), or end a round (counter at
time while the square is active, or at the root).  Any other tick is quiet
and does exactly what a plain sensor's tick does, a near exchange while its
leaf is on, plus counter += 1 while counter < time.  So k quiet ticks take a
counter c to min(c + k, ceil(time)), or leave it when c >= time, and a
square's next live tick follows from its state alone: a restart can only be
its next tick, a far coin only one that passes, and a round end only the
tick at which its counter reaches ceil(time).  Each block first tests each
square once, from its state at the block start, its tick count and whether
any of its far coins passes; a square none of whose ticks can be live has
its ticks built in numpy with the plain ones.  Each other square schedules
its next live tick, steps it in Python and schedules again, its quiet ticks
before that one built in numpy and counted into its counter when the
counter is next read.  This is exact because only a live tick changes
another square's state, and in three ways only: its parent's
activation (global_on = 1, counter = 0) or deactivation (global_on = 0), and
a completed far exchange (counter = 0).  Each appends an event naming its
target, which the runner reads to reschedule the target from its next
tick, after counting its earlier quiet ticks unless the event reset its
counter.  A built tick reads local_on, which changes only in a leaf's
flood, so the built ticks before each live leaf tick read a snapshot taken
just before it; boyd builds every tick that way.

A live tick's control traffic is memoised, as the graph and the leaf
squares are fixed for a run: a fan-out's routes (to a square's children,
or a far exchange's two legs) go through one lockstep `_walk` call, and the
run's first flood floods every leaf from its representative in one
`_frontier_flood` call.  The runner sets state.tick to each live tick
before stepping it, so its events carry their own ticks as stepped ones
do, and empties the event list after every block.  geo never reads x, so
`_tick_geo` takes a whole block of rows: attempt a of every tick still
pending is routed in one lockstep `_walk` call, and only the rejected
ticks try again.  It builds no event; `step` passes it a block of one row
and builds the tick's one event from the totals it returns.  A block's ops
are merged in tick order and applied through a memoryview of x, which
touches only the ops' endpoints and reads and writes them as Python
floats: the same IEEE doubles in the same order as `step`, so bulk and
stepped runs stay bit-identical.
"""

import bisect
import heapq
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .geometry import GeometricGraph
from .hierarchy import Hierarchy, ParamSchedule
from .metrics import MetricsRecord
from .routing import _frontier_flood, _walk, restrict_edges

# A run's counts are one int64 vector, state.counts, indexed by these: the
# ledger categories, then the faults, then the rounds the root has ended.
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
        _, hops, ok = _walk(g.indptr, g.indices, xy, src, dst, xy[dst, 0],
                            xy[dst, 1])
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
        state.counts[FAULT_ISOLATED_NEAR] += 1
        return
    v = int(state.leaf_indices[lo + int(u * deg)])
    state.ops.append((s, v, 0.0))
    state.counts[LEDGER_NEAR] += 2
    state.events.append(Event(state.tick, "near", s, v, 2, True))


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
    # Returns whether the exchange completed.
    h = state.hierarchy
    r = h.cell_depth[c]
    # c has a parent, and a parent has at least 4 children.
    nsib = int(h.subdiv_at_depth[r - 1]) - 1
    cp = int(h.cell_child_start[h.cell_parent[c]]) + int(u * nsib)
    if cp >= c:
        cp += 1
    sp = int(h.cell_rep[cp])
    _route_all(state, [(s, sp), (sp, s)])
    hops, ok = state.routes[(s, sp)]
    if ok:
        if state.cell_active[cp] == 1:
            state.counts[FAULT_CONCURRENT] += 1
        back, ok = state.routes[(sp, s)]
        hops += back
    state.counts[LEDGER_FAR] += hops
    if not ok:
        state.counts[FAULT_ROUTING] += 1
        state.events.append(Event(state.tick, "far", s, sp, hops, False))
        return False
    state.ops.append((s, sp, 0.4 * h.expected_at_depth[r]))
    state.counter[c] = 0
    state.counter[cp] = 0
    state.events.append(Event(state.tick, "far", s, sp, hops, True))
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
        state.counts[LEDGER_FLOOD] += tx
        gap = (int(h.cell_member_start[c + 1] - h.cell_member_start[c])
               - len(reached))
        if gap > 0:
            state.counts[FAULT_FLOOD_GAP] += gap
        state.events.append(Event(state.tick,
                                  "flood_on" if on == 1 else "flood_off", s,
                                  int(c), tx, gap == 0))
        return True
    start = int(h.cell_child_start[c])
    reps = h.cell_rep[start:start + m].tolist()
    _route_all(state, [(s, dst) for dst in reps])
    total = 0
    ok_all = True
    for child, dst in enumerate(reps, start):
        hops, ok = state.routes[(s, dst)]
        total += hops
        if ok:
            state.global_on[child] = on
            if on == 1:
                state.counter[child] = 0
        else:
            state.counts[FAULT_ROUTING] += 1
            ok_all = False
    action = "activate" if on == 1 else "deactivate"
    state.counts[EVENT_LEDGER[action]] += total
    state.events.append(Event(state.tick, action, s, int(c), total, ok_all))
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
    if state.global_on[c] == 1:
        if counter[c] == 0:
            _toggle(state, s, c, r, 1)
        if h.cell_parent[c] >= 0 and u[1] < state.schedule.far_prob[r]:
            if _far(state, u[2], s, c):
                # A completed long-range exchange ends the tick; the reset
                # counter must survive to restart the round next own tick.
                return
    if state.local_on[s] == 1:
        _near(state, u[3], s)
    if counter[c] >= state.schedule.time[r]:
        sent = _toggle(state, s, c, r, 0)
        if h.cell_parent[c] < 0:
            counter[c] = 0
            state.counts[ROOT_ROUNDS] += sent
    else:
        counter[c] += 1


def _near_block(state, offs, t, s, u, live_t, live, op_t):
    # The Block of a hier or boyd block at the record offsets offs
    # (ascending).  Its ticks t (ascending) are near exchanges built here,
    # of firing sensors s with neighbour uniforms u, on the leaf CSR; its
    # ticks live_t were stepped in Python, and their ops wait in state.ops,
    # op_t[i] being the tick of op i.  live[i] holds the counts at the block
    # start (i = 0) and after live tick i.  A built tick adds 2 near
    # transmissions, or one isolated fault when s has no in-leaf neighbour.
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
    counts = np.array(live)[np.searchsorted(live_t, offs)]
    counts[:, LEDGER_NEAR] += 2 * np.searchsorted(kept_t, offs)
    counts[:, FAULT_ISOLATED_NEAR] += np.searchsorted(lone_t, offs)
    t = kept_t
    k = itertools.repeat(0.0)
    if state.ops:
        ra, rb, rk = zip(*state.ops)
        t = np.concatenate([kept_t, op_t])
        order = np.argsort(t, kind="stable")
        t = t[order]
        k = np.concatenate([np.zeros(a.shape[0]), rk])[order].tolist()
        a = np.concatenate([a, ra])[order]
        v = np.concatenate([v, rb])[order]
        state.ops.clear()
    return Block(zip(a.tolist(), v.tolist(), k),
                 np.searchsorted(t, offs).tolist(), counts.tolist())


def _quiet_counter(c, k, time):
    # A counter after k quiet ticks from c: it counts up to ceil(time) and
    # stops there, and one already at or past time stays.
    return np.maximum(c, np.minimum(c + k, np.ceil(time)))


def _run_hier(state, U, nodes, offs):
    # The live rule is in the module docstring.  Only scheduled cells have
    # ticks stepped in Python: those whose state at the block start lets
    # any of their ticks in the block be live, and those an event reaches.
    # schedule(c) pushes c's next own tick that can be live onto a heap,
    # and a cell rescheduled before that tick leaves a stale entry, which
    # is dropped.  The heap runs the live ticks through _tick_hier in tick
    # order.  A cell's counter catches up only when it is read: pos[c]
    # indexes c's first own tick not yet counted, and advance() counts the
    # quiet ticks before a later one.  Each live tick records the tick of
    # the op it emitted (at most one: a completed far exchange ends the
    # tick before its near step) and the counts after it.  The remaining
    # ticks, plain and quiet, are near exchanges on the local_on snapshot,
    # which _near_block builds and merges with the live ticks' ops.
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
    # the block start.  It is schedule()'s rule over all cells in numpy, so
    # only the cells it passes cost a Python schedule() call: scheduling
    # every cell with a tick gives the same output from 14 to 73 times the
    # calls in criterion-7 runs (ROADMAP, "Dead ends").
    n_own = np.bincount(rep_c, minlength=h.n_cells)
    coin = np.bincount(rep_c[coin_t], minlength=h.n_cells) > 0
    child = h.cell_parent >= 0
    restart = (global_on == 1) & ((counter == 0) | coin & child)
    ends = ((cell_active == 1) | ~child) & (counter + n_own - 1 >= time)
    maybe = (n_own > 0) & (restart | ends)
    # Cell c's own ticks in tick order are own_t[first[c]:first[c + 1]],
    # and next_coin[i] is the first index from i on whose far coin passes.
    by_cell = np.argsort(rep_c, kind="stable")
    own_t = rep_t[by_cell].tolist()
    first = np.zeros(h.n_cells + 1, dtype=np.int64)
    np.cumsum(n_own, out=first[1:])
    idx = np.arange(len(own_t) + 1)
    idx[:-1][~coin_t[by_cell]] = len(own_t)
    next_coin = np.minimum.accumulate(idx[::-1])[::-1].tolist()
    pos = first[:-1].tolist()
    end = first[1:].tolist()
    due = [-1] * h.n_cells   # own_t index of a cell's scheduled tick, or -1
    rep = h.cell_rep.tolist()
    cell_depth = h.cell_depth.tolist()
    parent = h.cell_parent.tolist()
    round_end = np.ceil(sched.time).astype(np.int64).tolist()
    leaf_depth = (h.subdiv_at_depth == 0).tolist()
    heap = []

    def advance(c, i):
        # Count c's quiet ticks before own_t[i].
        counter[c] = _quiet_counter(counter[c], i - pos[c], time[c])
        pos[c] = i

    def schedule(c):
        # A restart (global_on, counter 0) can only be c's next tick, a far
        # coin only one that passes, and a round end only the tick at which
        # its quiet ticks bring the counter to ceil(time).
        i = pos[c]
        cnt = int(counter[c])
        j = end[c]
        if global_on[c] == 1:
            if cnt == 0:
                j = i
            elif parent[c] >= 0:
                j = min(j, next_coin[i])
        if cell_active[c] == 1 or parent[c] < 0:
            j = min(j, i + max(0, round_end[cell_depth[c]] - cnt))
        if j < end[c]:
            due[c] = j
            heapq.heappush(heap, own_t[j])
        else:
            due[c] = -1

    for c in np.flatnonzero(maybe).tolist():
        schedule(c)
    on_at = np.empty(nodes.shape[0], dtype=np.uint8)
    local_on = state.local_on
    events = state.events
    ops = state.ops
    op_t = []
    py_t = []
    live_counts = [state.counts.tolist()]
    done = 0
    t0 = state.tick
    while heap:
        t = heapq.heappop(heap)
        c = int(cells[t])
        j = due[c]
        if j < 0 or own_t[j] != t:
            continue
        due[c] = -1
        advance(c, j)
        pos[c] = j + 1
        if leaf_depth[cell_depth[c]] and t > done:
            on_at[done:t] = local_on[nodes[done:t]]
            done = t
        s = rep[c]
        seen = len(events)
        state.tick = t0 + t
        _tick_hier(state, U[t], s)
        py_t.append(t)
        live_counts.append(state.counts.tolist())
        if len(ops) > len(op_t):
            op_t.append(t)
        for _, action, _, target, _, ok in events[seen:]:
            # Each event that changed another cell's state reschedules it
            # from its first tick after t.  An activation or a completed
            # far exchange set its counter to 0; a deactivation left it,
            # so it first counts the quiet ticks before t.
            if action == "far":
                hit = [int(h.cell_of_rep[target])] if ok else []
            elif action == "activate" or action == "deactivate":
                # only the children whose route succeeded changed state
                start = h.cell_child_start[target]
                hit = [ci for ci in range(start, start + h.subdiv_at_depth[
                    cell_depth[target]]) if state.routes[(s, rep[ci])][1]]
            else:
                hit = []
            for ci in hit:
                i = bisect.bisect_left(own_t, t, pos[ci], end[ci])
                if action == "deactivate":
                    advance(ci, i)
                else:
                    pos[ci] = i
                schedule(ci)
        schedule(c)
    state.tick = t0
    on_at[done:] = local_on[nodes[done:]]
    on_at[py_t] = 0
    fire_t = np.flatnonzero(on_at)
    # Every cell's ticks not yet counted are quiet.
    counter[:] = _quiet_counter(counter, first[1:] - np.array(pos), time)
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
    local_on: np.ndarray
    # One entry per square, indexed by cell id (boyd and geo have one).
    global_on: np.ndarray
    counter: np.ndarray
    cell_active: np.ndarray
    # The run's counts, indexed by LEDGER_*, FAULT_* and ROOT_ROUNDS.  The
    # root's rounds are its deactivations that sent something; `run` reads
    # them to stop on root deactivation.
    counts: np.ndarray
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
        return self.counts[LEDGER]

    @property
    def faults(self) -> np.ndarray:
        return self.counts[FAULTS]

    @property
    def root_rounds(self) -> int:
        return int(self.counts[ROOT_ROUNDS])

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
        counts=np.zeros(ROOT_ROUNDS + 1, dtype=np.int64),
        norm0=norm0, sum0=float(x.sum()),
        l1_0=float(np.abs(x).sum()),
        leaf_indptr=lindptr, leaf_indices=lindices,
        geo_accept=geo_acceptance(graph) if algorithm == "geo" else None,
    )


def _take_events(state: SimState) -> list:
    # Applies the pending value ops, then returns the kernels' event list
    # as it stands and puts a fresh one on the state.
    if state.ops:
        _apply(state.x, state.ops)
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
        ok = bool(accepted[0])
        state.events.append(Event(state.tick, "far", s,
                                  state.ops[-1][1] if ok else -1,
                                  int(total[0]), ok))
    state.tick += 1
    # Every op comes with an event, so a tick without one is done.
    if not state.events:
        return []
    return _take_events(state)


def replay_ledger(events) -> np.ndarray:
    """Rebuild ledger category totals from an event log."""
    ledger = np.zeros(len(LEDGER_NAMES), dtype=np.int64)
    for ev in events:
        ledger[EVENT_LEDGER[ev.action]] += ev.count
    return ledger


def format_events(events) -> str:
    """Event log lines, one per event: tick node action target count."""
    return "".join([f"{t} {s} {action} {v} {count}\n"
                    for t, action, s, v, count, _ in events])


def snapshot(state: SimState, err_l2_ratio=None) -> MetricsRecord:
    """Current tick as one metrics row (err_l2_ratio: a known error_ratio)."""
    if err_l2_ratio is None:
        err_l2_ratio = state.error_ratio()
    c = state.counts.tolist()
    return MetricsRecord(
        algorithm=state.algorithm, n=state.n, seed=state.seed,
        tick=state.tick,
        transmissions_total=sum(c[LEDGER]),
        transmissions_near=c[LEDGER_NEAR],
        transmissions_far_routing=c[LEDGER_FAR],
        transmissions_control=(c[LEDGER_ACTIVATE] + c[LEDGER_DEACTIVATE]
                               + c[LEDGER_FLOOD]),
        err_l2_ratio=err_l2_ratio,
        fault_routing=c[FAULT_ROUTING],
        fault_isolated_near=c[FAULT_ISOLATED_NEAR],
        fault_concurrent_round=c[FAULT_CONCURRENT],
        fault_flood_gap=c[FAULT_FLOOD_GAP],
        fault_geo_reject=c[FAULT_GEO_REJECT],
    )


def _run_block(state: SimState, U, offs) -> Block:
    # One block of rows through the bulk kernels, its Block taken at the
    # record offsets offs (ascending, in [0, rows]).  The protocol state and
    # the counts end at the block end; x waits for the returned ops.
    nodes = (U[:, 0] * state.n).astype(np.int64)
    m = nodes.shape[0]
    if state.algorithm == "hier":
        block = _run_hier(state, U, nodes, offs)
    elif state.algorithm == "boyd":
        # A boyd tick is a near exchange on the full adjacency.
        block = _near_block(state, offs, np.arange(m), nodes, U[:, 1], [],
                            [state.counts.tolist()], [])
    else:
        # The counts and the accepted ops up to each tick, from geo's
        # per-tick totals.
        live = np.repeat(state.counts[None], m + 1, axis=0)
        total, accepted, capped = _tick_geo(state, U, nodes)
        live[1:, LEDGER_FAR] += np.cumsum(total)
        live[1:, FAULT_GEO_REJECT] += np.cumsum(capped)
        before = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(accepted, out=before[1:])
        block = Block(iter(state.ops), before[offs].tolist(),
                      live[offs].tolist())
        state.ops = []
    # _run_hier reads only its live ticks' events; keep the buffer to one
    # block.
    state.events.clear()
    return block


def _run_blocks(state: SimState, stride: int, max_ticks, record,
                event_sink) -> str:
    # Blocks of block_rows rows (fewer only before max_ticks, and with an
    # event sink before a record tick), whatever the stride; record() takes
    # the row at each record tick b and names the stop it fires, if any.
    # With an event sink, the block's rows go one by one through `step`,
    # looked up as a module global each tick (perfbench's tracer rebinds
    # engine.step to time every tick), and its events go to the sink in one
    # call.  step applies each tick's ops to x at once, so the state is
    # complete at the block end, which is where such a block records.
    # Otherwise the block's rows go through the bulk kernels, after which
    # the protocol state is at the block end and its ops wait.  At each b
    # inside the block, the ops of ticks before b are applied and the
    # counts set to theirs at b before record().  A stop before the block
    # end restores the generator saved at the block start and redraws the
    # block's first b - t0 rows: the Generator emits doubles in sequence,
    # so it draws the same rows.  hier also restores its protocol state
    # saved there and reruns those rows; boyd and geo write no protocol
    # array, so their redrawn rows are dropped.  x needs no copy, as the
    # kernels never read it and the ops before b are already applied.
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
        end = state.counts.tolist()
        done = 0
        for b, j, counts in zip(marks, block.before, block.counts):
            _apply(state.x, itertools.islice(block.ops, j - done))
            done = j
            state.counts[:] = counts
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
        _apply(state.x, block.ops)
        state.counts[:] = end
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
