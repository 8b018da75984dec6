"""Comparison protocols under the same tick model and packet accounting.

boyd: the firing sensor averages with a uniformly random graph neighbor
(2 transmissions per exchange).

geo: the firing sensor draws a uniform position in the unit square, routes
toward it, and treats the stop node as the candidate partner.  Because the
candidate law favors sensors covering more area, a rejection-sampling step
accepts a candidate with probability proportional to its local bucket count
(capped at 1), approximating a uniform partner.  Every attempt, accepted or
not, pays the round trip: 2 hops' worth per routing hop.  After
GEO_ATTEMPT_CAP rejections the last candidate is accepted anyway and the
cap fault is counted, keeping tick cost bounded.
"""

import numpy as np

from ._jit import maybe_njit
from .engine import EV_FAR, FAULT_GEO_REJECT, LEDGER_FAR, _near, step
from .geometry import GeometricGraph
from .routing import _route_core

GEO_ATTEMPT_CAP = 64


@maybe_njit
def _tick_geo(G, accept, M, W, rng):
    n = M.x.shape[0]
    s = rng.integers(0, n)
    total = 0
    cand = -1
    accepted = False
    for _attempt in range(GEO_ATTEMPT_CAP):
        px = rng.random()
        py = rng.random()
        cnt, _ok = _route_core(G.indptr, G.indices, G.xy, s, -1, px, py,
                               W.path)
        c = W.path[cnt - 1]
        total += 2 * (cnt - 1)
        if c == s:
            continue
        cand = c
        if rng.random() < accept[c]:
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
    # A boyd tick is a near exchange on the full adjacency; U holds one
    # (node, neighbor) row per tick.
    nodes = (U[:, 0] * M.x.shape[0]).astype(np.int64)
    for t in range(nodes.shape[0]):
        _near(L, M, W, U[t, 1], nodes[t], 0)


@maybe_njit
def _run_geo(G, accept, M, W, rng, ticks):
    for _ in range(ticks):
        _tick_geo(G, accept, M, W, rng)


def geo_acceptance(graph: GeometricGraph) -> np.ndarray:
    """Per-sensor acceptance probability for rejection sampling.

    A sensor in a crowded bucket covers little area and is rarely the
    routing target, so it is accepted more readily: acceptance is the
    bucket count over the expected count n/grid_side^2, capped at 1.
    """
    counts = np.diff(graph.cell_start).astype(np.float64)
    per_node = counts[graph.point_cell]
    expected = graph.n / float(graph.grid_side) ** 2
    return np.minimum(1.0, per_node / expected)


def boyd_step(state) -> None:
    """One exchange of the neighbor-averaging baseline (`engine.step`)."""
    step(state)


def geo_gossip_step(state) -> None:
    """One position-targeted exchange with rejection sampling
    (`engine.step`)."""
    step(state)
