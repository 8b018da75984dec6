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
The bulk runner draws the rows in blocks of at most BLOCK_VALUES values;
`step` draws one row.  A Generator emits doubles strictly in sequence, so
both see the same rows and end in the same state at any stride.

The tick kernels are compiled with numba when available; the same functions
run under plain numpy when GEOGOSSIP_DISABLE_NUMBA is set.  Each tick also
writes a compact event buffer so `step` can return a replayable event log
from the identical code path the bulk runner uses.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from ._jit import maybe_njit
from .geometry import GeometricGraph
from .hierarchy import Hierarchy, ParamSchedule
from .metrics import MetricsRecord
from .routing import _flood_core, _route_core, restrict_edges

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

EV_NEAR = 0
EV_FAR = 1
EV_ACTIVATE = 2
EV_DEACTIVATE = 3
EV_FLOOD_ON = 4
EV_FLOOD_OFF = 5
EVENT_NAMES = ("near", "far", "activate", "deactivate", "flood_on",
               "flood_off")
EVENT_LEDGER = (LEDGER_NEAR, LEDGER_FAR, LEDGER_ACTIVATE, LEDGER_DEACTIVATE,
                LEDGER_FLOOD, LEDGER_FLOOD)

INIT_DISTRIBUTIONS = ("spike", "uniform", "gauss", "gradient")

GEO_ATTEMPT_CAP = 64

# Uniforms per tick row, and the most values one bulk draw holds (this bounds
# the memory of a long stride to 128 KB).
ROW_WIDTH = {"hier": 4, "boyd": 2, "geo": 1 + 3 * GEO_ATTEMPT_CAP}
BLOCK_VALUES = 16384

GraphT = namedtuple("GraphT", ["indptr", "indices", "xy"])
LeafT = namedtuple("LeafT", ["indptr", "indices"])
CellT = namedtuple("CellT", [
    "parent", "depth", "rep", "expected", "child_start", "child_count",
    "member_start", "level", "cell_of_rep",
])
SchedT = namedtuple("SchedT", ["time", "far_prob"])
MutT = namedtuple("MutT", ["x", "local_on", "global_on", "counter",
                           "cell_active", "ledger", "faults"])
ScratchT = namedtuple("ScratchT", ["queue", "stamp", "stamp_id", "path",
                                   "events"])

Event = namedtuple("Event", ["tick", "action", "node", "target", "count",
                             "ok"])


@maybe_njit
def _near(L, M, W, u, s, nev):
    deg = L.indptr[s + 1] - L.indptr[s]
    if deg == 0:
        M.faults[FAULT_ISOLATED_NEAR] += 1
        return nev
    v = L.indices[L.indptr[s] + int(u * deg)]
    m = 0.5 * (M.x[s] + M.x[v])
    M.x[s] = m
    M.x[v] = m
    M.ledger[LEDGER_NEAR] += 2
    W.events[nev, 0] = EV_NEAR
    W.events[nev, 1] = s
    W.events[nev, 2] = v
    W.events[nev, 3] = 2
    W.events[nev, 4] = 1
    return nev + 1


@maybe_njit
def _tick_geo(G, accept, M, W, u, s):
    # u is the tick's row; s = int(u[0] * n) is its firing node.
    total = 0
    cand = -1
    accepted = False
    for a in range(GEO_ATTEMPT_CAP):
        cnt, _ok = _route_core(G.indptr, G.indices, G.xy, s, -1, u[1 + 3 * a],
                               u[2 + 3 * a], W.path)
        c = W.path[cnt - 1]
        total += 2 * (cnt - 1)
        if c == s:
            continue
        cand = c
        if u[3 + 3 * a] < accept[c]:
            accepted = True
            break
    if not accepted and cand >= 0:
        M.faults[FAULT_GEO_REJECT] += 1
        accepted = True
    M.ledger[LEDGER_FAR] += total
    if accepted:
        m = 0.5 * (M.x[s] + M.x[cand])
        M.x[s] = m
        M.x[cand] = m
    W.events[0, 0] = EV_FAR
    W.events[0, 1] = s
    W.events[0, 2] = cand
    W.events[0, 3] = total
    W.events[0, 4] = 1 if accepted else 0
    return 1


@maybe_njit
def _run_boyd(L, M, W, U):
    # A boyd tick is a near exchange on the full adjacency.
    nodes = (U[:, 0] * M.x.shape[0]).astype(np.int64)
    for t in range(nodes.shape[0]):
        _near(L, M, W, U[t, 1], nodes[t], 0)


@maybe_njit
def _run_geo(G, accept, M, W, U):
    nodes = (U[:, 0] * M.x.shape[0]).astype(np.int64)
    for t in range(nodes.shape[0]):
        _tick_geo(G, accept, M, W, U[t], nodes[t])


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


@maybe_njit
def _far(G, C, M, W, u, s, c, nev):
    p = C.parent[c]
    nsib = C.child_count[p] - 1
    if nsib <= 0:
        return nev, False
    cp = C.child_start[p] + int(u * nsib)
    if cp >= c:
        cp += 1
    sp = C.rep[cp]
    W.events[nev, 0] = EV_FAR
    W.events[nev, 1] = s
    W.events[nev, 2] = sp
    cnt, ok = _route_core(G.indptr, G.indices, G.xy, s, sp, G.xy[sp, 0],
                          G.xy[sp, 1], W.path)
    hops = cnt - 1
    if not ok:
        M.ledger[LEDGER_FAR] += hops
        M.faults[FAULT_ROUTING] += 1
        W.events[nev, 3] = hops
        W.events[nev, 4] = 0
        return nev + 1, False
    if M.cell_active[cp] == 1:
        M.faults[FAULT_CONCURRENT] += 1
    cnt, ok = _route_core(G.indptr, G.indices, G.xy, sp, s, G.xy[s, 0],
                          G.xy[s, 1], W.path)
    hops += cnt - 1
    M.ledger[LEDGER_FAR] += hops
    W.events[nev, 3] = hops
    if not ok:
        M.faults[FAULT_ROUTING] += 1
        W.events[nev, 4] = 0
        return nev + 1, False
    # Both ends move by the same scaled difference, so the pair sum (and
    # with it the global sum) is preserved exactly.
    d = 0.4 * C.expected[c] * (M.x[sp] - M.x[s])
    M.x[s] += d
    M.x[sp] -= d
    M.counter[s] = 0
    M.counter[sp] = 0
    W.events[nev, 4] = 1
    return nev + 1, True


@maybe_njit
def _toggle(G, L, C, M, W, s, c, lvl, on, nev):
    # Start (on=1) or end (on=0) square c's round: flood local states (level
    # 1) or route to the child representatives (level > 1).  A square with no
    # running round has nothing to wind down; the repeat trigger fires every
    # own tick once counter passes time, so make that free.
    if on == 0 and M.cell_active[c] == 0:
        return nev
    M.cell_active[c] = on
    if lvl == 1:
        reached, tx = _flood_core(L.indptr, L.indices, s, W.queue, W.stamp,
                                  W.stamp_id)
        for qi in range(reached):
            M.local_on[W.queue[qi]] = on
        M.ledger[LEDGER_FLOOD] += tx
        gap = (C.member_start[c + 1] - C.member_start[c]) - reached
        if gap > 0:
            M.faults[FAULT_FLOOD_GAP] += gap
        W.events[nev, 0] = EV_FLOOD_ON if on == 1 else EV_FLOOD_OFF
        W.events[nev, 3] = tx
        W.events[nev, 4] = 1 if gap == 0 else 0
    else:
        total = 0
        ok_all = 1
        for ci in range(C.child_start[c], C.child_start[c] + C.child_count[c]):
            dst = C.rep[ci]
            cnt, ok = _route_core(G.indptr, G.indices, G.xy, s, dst,
                                  G.xy[dst, 0], G.xy[dst, 1], W.path)
            total += cnt - 1
            if ok:
                M.global_on[dst] = on
                if on == 1:
                    M.counter[dst] = 0
            else:
                M.faults[FAULT_ROUTING] += 1
                ok_all = 0
        if on == 1:
            M.ledger[LEDGER_ACTIVATE] += total
            W.events[nev, 0] = EV_ACTIVATE
        else:
            M.ledger[LEDGER_DEACTIVATE] += total
            W.events[nev, 0] = EV_DEACTIVATE
        W.events[nev, 3] = total
        W.events[nev, 4] = ok_all
    W.events[nev, 1] = s
    W.events[nev, 2] = c
    return nev + 1


@maybe_njit
def _tick_hier(G, L, C, S, M, W, u, s):
    # u is the tick's row; s = int(u[0] * n) is its firing node.
    nev = 0
    root_deact = False
    lvl = C.level[s]
    if lvl == 0:
        if M.local_on[s] == 1:
            nev = _near(L, M, W, u[3], s, nev)
        return nev, root_deact
    c = C.cell_of_rep[s]
    r = C.depth[c]
    if M.global_on[s] == 1:
        if M.counter[s] == 0:
            nev = _toggle(G, L, C, M, W, s, c, lvl, 1, nev)
        if C.parent[c] >= 0 and u[1] < S.far_prob[r]:
            nev, done = _far(G, C, M, W, u[2], s, c, nev)
            if done:
                # A completed long-range exchange ends the tick; the reset
                # counter must survive to restart the round next own tick.
                return nev, root_deact
    if M.local_on[s] == 1:
        nev = _near(L, M, W, u[3], s, nev)
    if M.counter[s] >= S.time[r]:
        done = _toggle(G, L, C, M, W, s, c, lvl, 0, nev)
        if C.parent[c] < 0:
            root_deact = done > nev
            M.counter[s] = 0
        nev = done
    else:
        M.counter[s] += 1
    return nev, root_deact


@maybe_njit
def _run_hier(G, L, C, S, M, W, U):
    nodes = (U[:, 0] * M.x.shape[0]).astype(np.int64)
    level = C.level
    local_on = M.local_on
    root_deact = False
    for t in range(nodes.shape[0]):
        s = nodes[t]
        # A plain sensor whose leaf is off changes nothing; local_on only
        # changes inside ticks that are not skipped.
        if level[s] == 0 and local_on[s] == 0:
            continue
        _nev, rd = _tick_hier(G, L, C, S, M, W, U[t], s)
        if rd:
            root_deact = True
    return root_deact


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
    _G: GraphT = field(repr=False, default=None)
    _L: LeafT = field(repr=False, default=None)
    _C: CellT = field(repr=False, default=None)
    _S: SchedT = field(repr=False, default=None)
    _M: MutT = field(repr=False, default=None)
    _W: ScratchT = field(repr=False, default=None)
    _geo_accept: np.ndarray = field(repr=False, default=None)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def root_representative(self) -> int:
        return int(self.hierarchy.cell_rep[0])

    def error_ratio(self) -> float:
        if self.norm0 == 0.0:
            return 0.0
        return float(np.linalg.norm(self.x)) / self.norm0

    def ledger_totals(self) -> dict:
        return dict(zip(LEDGER_NAMES, (int(v) for v in self.ledger)))

    def fault_totals(self) -> dict:
        return dict(zip(FAULT_NAMES, (int(v) for v in self.faults)))


def leaf_adjacency(graph: GeometricGraph, leaf_of: np.ndarray):
    """CSR adjacency keeping only edges inside a common leaf square."""
    return restrict_edges(graph, lambda u, v: leaf_of[u] == leaf_of[v])


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
        init_dist: "spike", "uniform", "gauss", or an explicit value array.
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
        lindptr, lindices = leaf_adjacency(graph, hierarchy.leaf_of)
        cell_bundle = CellT(
            parent=hierarchy.cell_parent, depth=hierarchy.cell_depth,
            rep=hierarchy.cell_rep, expected=hierarchy.cell_expected,
            child_start=hierarchy.cell_child_start,
            child_count=hierarchy.cell_child_count,
            member_start=hierarchy.cell_member_start,
            level=hierarchy.levels.level, cell_of_rep=hierarchy.cell_of_rep)
        sched_bundle = SchedT(time=schedule.time, far_prob=schedule.far_prob)
    else:
        hierarchy = None
        schedule = None
        cell_active = np.zeros(1, dtype=np.uint8)
        lindptr, lindices = graph.indptr, graph.indices
        cell_bundle = None
        sched_bundle = None

    state = SimState(
        algorithm=algorithm, seed=int(record_seed), graph=graph,
        hierarchy=hierarchy, schedule=schedule, rng=rng, tick=0, x=x,
        local_on=local_on, global_on=global_on, counter=counter,
        cell_active=cell_active, ledger=ledger, faults=faults,
        norm0=float(np.linalg.norm(x)), sum0=float(x.sum()),
        l1_0=float(np.abs(x).sum()),
    )
    state._G = GraphT(indptr=graph.indptr, indices=graph.indices,
                      xy=graph.points.xy)
    state._L = LeafT(indptr=lindptr, indices=lindices)
    state._C = cell_bundle
    state._S = sched_bundle
    state._M = MutT(x=x, local_on=local_on, global_on=global_on,
                    counter=counter, cell_active=cell_active, ledger=ledger,
                    faults=faults)
    state._W = ScratchT(queue=np.empty(n, dtype=np.int64),
                        stamp=np.zeros(n, dtype=np.int64),
                        stamp_id=np.ones(1, dtype=np.int64),
                        path=np.empty(n + 1, dtype=np.int64),
                        events=np.zeros((8, 5), dtype=np.int64))
    if algorithm == "geo":
        state._geo_accept = geo_acceptance(graph)
    return state


def _decode_events(state: SimState, nev: int, tick: int) -> list:
    out = []
    for k in range(nev):
        row = state._W.events[k]
        out.append(Event(tick=tick, action=EVENT_NAMES[row[0]],
                         node=int(row[1]), target=int(row[2]),
                         count=int(row[3]), ok=bool(row[4])))
    return out


def step(state: SimState) -> list:
    """Advance one tick and return the events it produced."""
    tick = state.tick
    u = state.rng.random(ROW_WIDTH[state.algorithm])
    s = int(u[0] * state.n)
    if state.algorithm == "hier":
        nev, _rd = _tick_hier(state._G, state._L, state._C, state._S,
                              state._M, state._W, u, s)
    elif state.algorithm == "boyd":
        nev = _near(state._L, state._M, state._W, u[1], s, 0)
    else:
        nev = _tick_geo(state._G, state._geo_accept, state._M, state._W, u, s)
    state.tick = tick + 1
    return _decode_events(state, nev, tick)


def _rep_cell(state: SimState, s: int) -> int:
    if state.algorithm != "hier":
        raise ValueError("protocol ops need algorithm 'hier'")
    if state._C.level[s] < 1:
        raise ValueError(f"node {s} is not a representative")
    return int(state._C.cell_of_rep[s])


def near_exchange(state: SimState, s: int) -> list:
    """Average s with a uniform in-leaf neighbor; returns the events.

    An in-leaf-isolated s is a no-op that counts an isolated_near fault.
    The caller picks s; the protocol itself only issues this for nodes
    whose local state is on.  Draws the one uniform it needs.
    """
    nev = _near(state._L, state._M, state._W, state.rng.random(), int(s), 0)
    return _decode_events(state, nev, state.tick)


def far_exchange(state: SimState, s: int) -> list:
    """Run s's long-range exchange with a uniform sibling representative.

    Routes there and back (hops are ledgered even on a failed leg), applies
    the antisymmetric kick 0.4 * E# * (difference) at both ends, and resets
    both counters, which restarts local averaging in both squares.  Draws
    the one uniform it needs.
    """
    c = _rep_cell(state, s)
    if state._C.parent[c] < 0:
        raise ValueError("the root square has no siblings to exchange with")
    nev, _done = _far(state._G, state._C, state._M, state._W,
                      state.rng.random(), int(s), c, 0)
    return _decode_events(state, nev, state.tick)


def activate_square(state: SimState, s: int) -> list:
    """Start s's square's round: flood local states on (level 1) or route
    wake-ups to the child representatives (level > 1)."""
    c = _rep_cell(state, s)
    nev = _toggle(state._G, state._L, state._C, state._M, state._W, int(s),
                  c, int(state._C.level[s]), 1, 0)
    return _decode_events(state, nev, state.tick)


def deactivate_square(state: SimState, s: int) -> list:
    """End s's square's round; a no-op (no transmissions) when the square
    is not active."""
    c = _rep_cell(state, s)
    nev = _toggle(state._G, state._L, state._C, state._M, state._W, int(s),
                  c, int(state._C.level[s]), 0, 0)
    return _decode_events(state, nev, state.tick)


def run_logged(state: SimState, ticks: int) -> list:
    """Step `ticks` times, collecting the full event log."""
    events = []
    for _ in range(ticks):
        events.extend(step(state))
    return events


def replay_ledger(events) -> np.ndarray:
    """Rebuild ledger category totals from an event log."""
    ledger = np.zeros(len(LEDGER_NAMES), dtype=np.int64)
    codes = {name: EVENT_LEDGER[i] for i, name in enumerate(EVENT_NAMES)}
    for ev in events:
        ledger[codes[ev.action]] += ev.count
    return ledger


def format_event(ev: Event) -> str:
    return f"{ev.tick} {ev.node} {ev.action} {ev.target} {ev.count}"


def snapshot(state: SimState) -> MetricsRecord:
    """Current tick as one metrics row."""
    lg = state.ledger
    return MetricsRecord(
        algorithm=state.algorithm, n=state.n, seed=state.seed,
        tick=state.tick,
        transmissions_total=int(lg.sum()),
        transmissions_near=int(lg[LEDGER_NEAR]),
        transmissions_far_routing=int(lg[LEDGER_FAR]),
        transmissions_control=int(lg[LEDGER_ACTIVATE] + lg[LEDGER_DEACTIVATE]
                                  + lg[LEDGER_FLOOD]),
        err_l2_ratio=state.error_ratio(),
        fault_routing=int(state.faults[FAULT_ROUTING]),
        fault_isolated_near=int(state.faults[FAULT_ISOLATED_NEAR]),
        fault_concurrent_round=int(state.faults[FAULT_CONCURRENT]),
        fault_flood_gap=int(state.faults[FAULT_FLOOD_GAP]),
        fault_geo_reject=int(state.faults[FAULT_GEO_REJECT]),
    )


def _run_chunk(state: SimState, ticks: int) -> bool:
    width = ROW_WIDTH[state.algorithm]
    rows = BLOCK_VALUES // width
    root_deact = False
    for start in range(0, ticks, rows):
        U = state.rng.random((min(rows, ticks - start), width))
        if state.algorithm == "hier":
            root_deact |= bool(_run_hier(state._G, state._L, state._C,
                                         state._S, state._M, state._W, U))
        elif state.algorithm == "boyd":
            _run_boyd(state._L, state._M, state._W, U)
        else:
            _run_geo(state._G, state._geo_accept, state._M, state._W, U)
    return root_deact


def _advance(state: SimState, ticks: int, event_sink) -> bool:
    if event_sink is None:
        rd = _run_chunk(state, ticks)
        state.tick += ticks
        return rd
    # The logged path runs the same kernels one tick at a time, so the
    # random stream and all state match the bulk path bit for bit.
    rd = False
    for _ in range(ticks):
        events = step(state)
        for ev in events:
            if ev.target == 0 and ev.action in ("deactivate", "flood_off"):
                rd = True
        event_sink(events)
    return rd


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
        root_deact = _advance(state, chunk, event_sink)
        if not math.isfinite(state.error_ratio()):
            return MetricsSeries(records, "diverged")
        rec = snapshot(state)
        emit(rec)
        if target_ratio is not None and rec.err_l2_ratio <= target_ratio:
            return MetricsSeries(records, "target")
        if stop_on_root_deactivation and root_deact:
            return MetricsSeries(records, "root_deactivation")
        if max_ticks is not None and state.tick >= max_ticks:
            return MetricsSeries(records, "max_ticks")
