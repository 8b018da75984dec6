"""The benchmark's four workloads, their output checks and their metrics.

A workload is a fixed batch of program runs ("instances") derived from the
workload seed.  One pass runs the whole batch; a benchmark run repeats
passes, and every pass must reproduce the first pass's output bytes.

Instances are batched, and the hier workloads stop at a fixed tick budget
rather than at the error target, because one instance's cost to target
depends strongly on its seed: ticks to 0.1 for single n=512 hier runs spread
by 20-45% of the median between seeds (interquartile range over 10-18
seeds), which a run of affordable length cannot average away.  boyd and geo
reach the target steadily enough to run to it.

Times come from spans around the program's own calls (`Timers`), so the
output checks never count.  A unit is one top-level program call:
run_experiment per instance, or kernel_verify.  Every unit time is scaled
to reference speed (see REF_S), because the machines this runs on change
speed by up to 1.5x for seconds to minutes at a time.  Each unit's wall and
run time is then its median over passes, and set-up time is the median over
passes of the batch's set-up.
"""

import hashlib
import inspect
import io
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from geogossip import affine, engine, experiment, metrics
from geogossip.experiment import ExperimentConfig

from tracer import Tracer

now = time.perf_counter

WORKLOADS = ("hier-converge", "hier-logged", "baselines-sweep",
             "kernel-verify")

# Per-workload sizes.  "full" is what the benchmark measures; "smoke" runs
# the same code paths at toy sizes in a few seconds.
SIZES = {
    "full": {
        "hier-converge": dict(n=512, instances=12, ticks=100_000),
        "hier-logged": dict(n=512, instances=8, ticks=25_000),
        "baselines-sweep": dict(n=512, instances=6, stride=32),
        "kernel-verify": dict(trials=125, calls=2),
        "probe_routes": 200,
        "probe_floods": 16,
    },
    "smoke": {
        "hier-converge": dict(n=128, instances=1, ticks=20_000),
        "hier-logged": dict(n=128, instances=1, ticks=20_000),
        "baselines-sweep": dict(n=128, instances=1, stride=32),
        "kernel-verify": dict(trials=10, calls=1),
        "probe_routes": 10,
        "probe_floods": 2,
    },
}

# The paper's protocol in practical mode, as in the scaling acceptance test.
HIER_BASE = dict(algorithm="hier", threshold=64, gamma=16.0, c1=4.0,
                 mode="practical", init="gradient", eps=0.1)


def instance_seeds(seed, count):
    """Distinct program seeds for a batch; disjoint across workload seeds
    up to 1000 instances per batch."""
    return [seed * 1000 + i for i in range(count)]


def hier_configs(seed, size):
    return [ExperimentConfig(**HIER_BASE, n=size["n"], seed=s,
                             max_ticks=size["ticks"])
            for s in instance_seeds(seed, size["instances"])]


# --------------------------------------------------------------------------
# outcomes and checks


@dataclass
class Outcome:
    """One instance's counts and the checks it failed (empty when good)."""

    key: str
    ticks: int = 0
    ledger: list = field(default_factory=list)
    faults: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def tx(self) -> int:
        return int(sum(self.ledger))


@dataclass
class Pass:
    """One pass over a workload's batch."""

    outcomes: list
    digest: str
    results: list          # ExperimentResult objects (graph probes)
    event_texts: list = field(default_factory=list)   # one per instance


def _state_outcome(key, res, csv_rows, stop):
    st = res.state
    out = Outcome(key=key, ticks=int(st.tick),
                  ledger=[int(v) for v in st.ledger],
                  faults=[int(v) for v in st.faults])
    if res.series.stop_reason != stop:
        out.problems.append(f"stop reason {res.series.stop_reason}, "
                            f"wanted {stop}")
    drift = abs(float(st.x.sum()) - st.sum0)
    if not drift <= 1e-6 * st.l1_0:
        out.problems.append(f"sum drift {drift:.3g} above 1e-6*l1_0")
    if st.fault_totals()["routing_failure"] != 0:
        out.problems.append("routing failures")
    if not res.connected:
        out.problems.append("graph not connected")
    final = engine.snapshot(st)
    if not csv_rows or csv_rows[-1] != final \
            or csv_rows[-1] != res.series.final:
        out.problems.append("last CSV row differs from the final state")
    return out


def _rows_by_run(text):
    rows = {}
    for rec in metrics.read_csv(io.StringIO(text)):
        rows.setdefault((rec.algorithm, rec.n, rec.seed), []).append(rec)
    return rows


def parse_events(text):
    """Event log lines back into engine.Event tuples."""
    out = []
    for line in text.splitlines():
        tick, node, action, target, count = line.split(" ")
        out.append(engine.Event(tick=int(tick), action=action,
                                node=int(node), target=int(target),
                                count=int(count), ok=True))
    return out


def _digest(*texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()


def _failed(key):
    """An exception is a failed instance, not a crashed benchmark."""
    traceback.print_exc(file=sys.stderr)
    return Outcome(key=key, problems=["exception"])


# --------------------------------------------------------------------------
# one pass per workload


def _pass_hier(seed, size, logged):
    """Each instance through run_experiment: bulk kernels, or with an event
    log, which steps one tick at a time and formats every event."""
    outcomes, results, texts, events = [], [], [], []
    for cfg in hier_configs(seed, size):
        key = f"hier/{cfg.seed}"
        buf = io.StringIO()
        ev = io.StringIO() if logged else None
        try:
            res = experiment.run_experiment(cfg, csv_fh=buf, event_fh=ev)
        except Exception:  # noqa: BLE001 - counted, the batch goes on
            outcomes.append(_failed(key))
            continue
        text = buf.getvalue()
        rows = _rows_by_run(text).get(("hier", cfg.n, cfg.seed), [])
        out = _state_outcome(key, res, rows, "max_ticks")
        texts.append(text)
        if logged:
            evtext = ev.getvalue()
            texts.append(evtext)
            events.append(evtext)
            replay = engine.replay_ledger(parse_events(evtext))
            if not np.array_equal(replay, res.state.ledger):
                out.problems.append("event-log ledger replay differs from "
                                    "the state's ledger")
        outcomes.append(out)
        results.append(res)
    return Pass(outcomes, _digest(*texts), results, event_texts=events)


def pass_hier_converge(seed, size):
    return _pass_hier(seed, size, logged=False)


def pass_hier_logged(seed, size):
    return _pass_hier(seed, size, logged=True)


def pass_baselines_sweep(seed, size):
    base = ExperimentConfig(algorithm="boyd", seed=0, init="gradient",
                            eps=0.1, stride=size["stride"])
    buf = io.StringIO()
    try:
        results = experiment.sweep(base, (size["n"],),
                                   instance_seeds(seed, size["instances"]),
                                   algorithms=("boyd", "geo"), csv_fh=buf)
    except Exception:  # noqa: BLE001 - the whole sweep counts as failed
        return Pass([_failed("sweep")], "", [])
    text = buf.getvalue()
    rows = _rows_by_run(text)
    outcomes = [_state_outcome(f"{r.state.algorithm}/{r.state.seed}", r,
                               rows.get((r.state.algorithm, r.state.n,
                                         r.state.seed), []), "target")
                for r in results]
    return Pass(outcomes, _digest(text), results)


def pass_kernel_verify(seed, size):
    outcomes, texts = [], []
    for s in instance_seeds(seed, size["calls"]):
        try:
            rows = experiment.kernel_verify(trials=size["trials"], seed=s)
        except Exception:  # noqa: BLE001 - counted as a failed verification
            outcomes.append(_failed(f"verify/{s}"))
            continue
        outcomes.append(Outcome(key=f"verify/{s}", problems=[
            f"{r.name} FAIL" for r in rows if not r.passed]))
        texts.append("\n".join(repr(r) for r in rows))
    return Pass(outcomes, _digest(*texts), [])


PASSES = {
    "hier-converge": pass_hier_converge,
    "hier-logged": pass_hier_logged,
    "baselines-sweep": pass_baselines_sweep,
    "kernel-verify": pass_kernel_verify,
}


def warm_jit():
    """Compile every kernel once when numba is active; returns seconds.

    The compile cache is off, so every process pays this: it is set-up.
    """
    from geogossip._jit import NUMBA_DISABLED
    if NUMBA_DISABLED:
        return 0.0
    t0 = now()
    for algo in ("hier", "boyd", "geo"):
        cfg = ExperimentConfig(**{**HIER_BASE, "algorithm": algo}, n=64,
                               seed=0, max_ticks=256)
        experiment.run_experiment(cfg, csv_fh=io.StringIO(),
                                  event_fh=io.StringIO())
    experiment.kernel_verify(trials=2, seed=0)
    return now() - t0


# --------------------------------------------------------------------------
# timers (always on) and unit times


_NST_SIG = inspect.signature(affine.norm_square_trajectories)
UNIT_SPANS = ("experiment.run_experiment", "experiment.kernel_verify")
RUN_SPANS = ("engine.run", "affine.norm_square_trajectories")


# The machine's speed for interpreted code is read from a fixed piece of
# work (Reference) just before every top-level program call and once after
# the last.  REF_S is its duration on the machine the baseline was measured
# on, in that machine's fast state; a call's time multiplied by REF_S over
# the mean of its two readings is its reference-speed time.
REF_S = 0.0028


class Reference:
    """Work independent of geogossip, made of the three kinds the
    interpreted kernels are made of: an integer loop, numpy scalar reads
    and writes, and scalar Generator draws.  Of several loops tried, the
    three together tracked the program's slowdowns closest."""

    def __init__(self):
        self.a = np.zeros(64)
        self.b = np.random.default_rng(0).random(64)
        self.rng = np.random.default_rng(1)

    def _once(self):
        acc = 0
        for i in range(25_000):
            acc += i * i
        a, b = self.a, self.b
        for i in range(4_000):
            a[i & 63] = b[(i * 7) & 63] + 1.0
        for _ in range(600):
            self.rng.integers(0, 512)

    def seconds(self):
        """Median duration of five runs."""
        times = []
        for _ in range(5):
            t0 = now()
            self._once()
            times.append(now() - t0)
        return statistics.median(times)


class Timers:
    """Spans around the top-level program calls, set-up, engine.run and
    the Monte Carlo kernel: a handful per instance, cheap enough for the
    untraced run.  Also counts the kernel's pair updates, and reads the
    Reference before every top-level call (`refs`)."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.updates = 0
        self.reference = Reference()
        self.refs = []

    def read_reference(self):
        self.refs.append(self.reference.seconds())

    def _reference(self, idx, args, kwargs):
        self.read_reference()
        # the reading is not part of the call: the span starts after it
        self.tracer.start[idx] = now()
        return args, kwargs

    def _count_updates(self, idx, args, kwargs):
        bound = _NST_SIG.bind(*args, **kwargs)
        self.updates += int(bound.arguments["ticks"]) \
            * int(bound.arguments["trials"])
        return args, kwargs

    def targets(self):
        return {
            "experiment.run_experiment": (experiment.run_experiment,
                                          self._reference, None),
            "experiment.kernel_verify": (experiment.kernel_verify,
                                         self._reference, None),
            "experiment.build_state": (experiment.build_state, None, None),
            "engine.run": (engine.run, None, None),
            "affine.norm_square_trajectories": (
                affine.norm_square_trajectories, self._count_updates, None),
        }


def unit_times(tracer):
    """[(wall, setup, run)] per top-level program call, in call order.

    Set-up is build_state (config to ready SimState); for kernel_verify it
    is the deterministic checks before the first Monte Carlo call.
    """
    units = {}
    for i in range(len(tracer.start)):
        name = tracer.names[tracer.name_of[i]]
        if name in UNIT_SPANS:
            units[i] = [tracer.end[i] - tracer.start[i], 0.0, 0.0, None]
    for i in range(len(tracer.start)):
        u = units.get(tracer.parent[i])
        if u is None:
            continue
        name = tracer.names[tracer.name_of[i]]
        span = tracer.end[i] - tracer.start[i]
        if name == "experiment.build_state":
            u[1] += span
        elif name in RUN_SPANS:
            u[2] += span
            if name == "affine.norm_square_trajectories" and u[3] is None:
                u[3] = tracer.start[i]
    out = []
    for i, (wall, setup, run, first_mc) in sorted(units.items()):
        if first_mc is not None:
            setup = first_mc - tracer.start[i]
        out.append((wall, setup, run))
    return out


def scale(units, refs):
    """Unit times at reference speed: each unit's times multiplied by REF_S
    over the mean of the readings before and after it."""
    return [tuple(t * 2 * REF_S / (refs[i] + refs[i + 1]) for t in u)
            for i, u in enumerate(units)]


def run_pass(workload, seed, size, targets_of):
    """One pass under a fresh tracer fed by targets_of(tracer).targets();
    returns (pass, tracer, that hook object)."""
    tracer = Tracer(run_id=seed)
    hooks = targets_of(tracer)
    tracer.install(hooks.targets())
    try:
        return PASSES[workload](seed, size), tracer, hooks
    finally:
        tracer.uninstall()


def run_workload(workload, seed, seconds, size_name="full", min_passes=2):
    """Measure one workload untraced; returns (report, passes, units at
    reference speed).

    Passes repeat while another fits in `seconds`, at least `min_passes`.
    """
    size = SIZES[size_name][workload]
    jit_s = warm_jit()
    passes, units, scaled, updates = [], [], [], []
    t_start = now()
    while True:
        t0 = now()
        p, tracer, timers = run_pass(workload, seed, size, Timers)
        timers.read_reference()
        pass_s = now() - t0
        if passes:
            # later passes only need their digest and outcomes; holding
            # their states would make peak memory depend on the pass count
            p.results, p.event_texts = [], []
        passes.append(p)
        raw = unit_times(tracer)
        units.append(raw)
        scaled.append(scale(raw, timers.refs))
        updates.append(timers.updates)
        elapsed = now() - t_start
        if len(passes) >= min_passes and elapsed + pass_s > seconds:
            break
    report = summarize(workload, passes, scaled, updates[0], jit_s)
    report["raw"] = summarize(workload, passes, units, updates[0],
                              jit_s)["e2e"]
    return report, passes, scaled


def percentile(values, q):
    """Nearest-rank percentile of a non-empty sequence, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def summarize(workload, passes, units, updates, jit_s):
    first = passes[0]
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(1 for p in passes for o in p.outcomes if o.problems)
    mismatched = sum(1 for p in passes[1:] if p.digest != first.digest)
    problems = sorted({f"{o.key}: {msg}" for p in passes
                       for o in p.outcomes for msg in o.problems})
    if mismatched:
        problems.append(f"{mismatched} pass(es) not byte-identical to the "
                        f"first")
    if workload == "kernel-verify":
        ticks = updates
        tx = 2 * ticks          # one pair exchange is two transmissions
    else:
        ticks = sum(o.ticks for o in first.outcomes)
        tx = sum(o.tx for o in first.outcomes)
    # every pass makes the same calls, so units line up by position
    per_unit = list(zip(*units))
    wall = sum(statistics.median(u[0] for u in unit) for unit in per_unit)
    run = sum(statistics.median(u[2] for u in unit) for unit in per_unit)
    setup = statistics.median(sum(u[1] for u in p) for p in units)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = {
        "wall_s": wall,
        "setup_s": jit_s + setup,
        "run_s": run,
        "ticks_per_s": ticks / run if run else 0.0,
        "peak_rss_mb": rss_mb,
        "ticks_to_target": float(ticks),
        "tx_to_target": float(tx),
    }
    return {
        "attempted": attempted + len(passes) - 1,
        "failed": failed + mismatched,
        "passes": len(passes),
        "problems": problems,
        "e2e": e2e,
    }


# --------------------------------------------------------------------------
# traced run


STEP_CLASSES = ("idle", "near", "flood", "wake", "far")
_CLASS_OF_ACTION = {"near": 1, "flood_on": 2, "flood_off": 2,
                    "activate": 3, "deactivate": 3, "far": 4}


def classify(actions):
    """Tick class from its event actions: the costliest event wins."""
    return STEP_CLASSES[max((_CLASS_OF_ACTION[a] for a in actions),
                            default=0)]


class FullTrace:
    """Spans around every public call the workloads make, plus the
    per-tick and per-record bookkeeping the per-layer metrics need."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.timers = Timers(tracer)
        self.step_class = {}        # step span -> class
        self.events = {"flood_n": 0, "flood_tx": 0, "far_ok": 0,
                       "far_failed": 0}
        self.run_state = {}         # engine.run span -> its SimState

    def _run_before(self, idx, args, kwargs):
        self.run_state[idx] = args[0]
        tr = self.tracer
        rec = kwargs.get("on_record")
        if rec is not None:
            kwargs["on_record"] = tr.wrap("metrics.csv_write", rec)
        sink = kwargs.get("event_sink")
        if sink is not None:
            kwargs["event_sink"] = tr.wrap("experiment.event_write", sink)
        return args, kwargs

    def _step_after(self, idx, args, events):
        self.step_class[idx] = classify(ev.action for ev in events)
        for ev in events:
            if ev.action in ("flood_on", "flood_off"):
                self.events["flood_n"] += 1
                self.events["flood_tx"] += ev.count
            elif ev.action == "far":
                self.events["far_ok" if ev.ok else "far_failed"] += 1

    def targets(self):
        from geogossip import geometry, hierarchy
        t = self.timers.targets()
        t["engine.run"] = (engine.run, self._run_before, None)
        t.update({
            "geometry.sample_points": (geometry.sample_points, None, None),
            "geometry.build_graph": (geometry.build_graph, None, None),
            "geometry.is_connected": (geometry.is_connected, None, None),
            "hierarchy.build_hierarchy": (hierarchy.build_hierarchy, None,
                                          None),
            "hierarchy.build_schedule": (hierarchy.build_schedule, None,
                                         None),
            "engine.init_sim": (engine.init_sim, None, None),
            "engine.step": (engine.step, None, self._step_after),
            "experiment.sweep": (experiment.sweep, None, None),
        })
        return t


def _route_probe(graph, seed, count, tracer):
    """Seeded greedy routes on the workload's graph through the public
    routing calls; neighbour scans are counted from indptr along each
    returned path (the last node is scanned only where the walk stopped
    there without reaching its destination)."""
    from geogossip import routing
    rng = np.random.default_rng([seed, 7])
    deg = np.diff(graph.indptr)
    src = rng.integers(0, graph.n, size=(count, 2))
    pos = rng.random((count, 2))
    to_pos = tracer.wrap("routing.route_to_position",
                         routing.route_to_position)
    to_node = tracer.wrap("routing.greedy_route", routing.greedy_route)
    hops = scans = routes = 0
    for (s, d), (x, y) in zip(src, pos):
        r = to_pos(graph, int(s), float(x), float(y))
        hops += r.hops
        scans += int(deg[r.path].sum())
        routes += 1
        if s == d:
            continue
        r = to_node(graph, int(s), int(d))
        hops += r.hops
        scans += int(deg[r.path].sum()) - (int(deg[d]) if r.success else 0)
        routes += 1
    return hops / routes, scans / routes


def _flood_probe(hier, graph, seed, count, tracer):
    from geogossip import routing
    leaves = [c for c in hier.cells if c.is_leaf]
    rng = np.random.default_rng([seed, 11])
    pick = rng.choice(len(leaves), size=min(count, len(leaves)),
                      replace=False)
    fl = tracer.wrap("routing.flood", routing.flood)
    for i in pick:
        cell = leaves[int(i)]
        fl(graph, cell, int(cell.representative))


def _mean_span_us(tracer, name):
    idx = tracer.spans(name)
    if not idx:
        return 0.0
    return 1e6 * sum(tracer.end[i] - tracer.start[i] for i in idx) / len(idx)


def traced_layers(workload, seed, sizes):
    """One traced pass of a workload, then the routing and flood probes on
    its last graph; returns (pass, tracer, its units at reference speed,
    layer metrics)."""
    traced, tracer, full = run_pass(workload, seed, sizes[workload],
                                    FullTrace)
    full.timers.read_reference()
    units = scale(unit_times(tracer), full.timers.refs)
    graphs = [r.state.graph for r in traced.results if r is not None]
    hiers = [r.state.hierarchy for r in traced.results
             if r is not None and r.state.hierarchy is not None]
    hops = scans = 0.0
    if graphs:
        hops, scans = _route_probe(graphs[-1], seed, sizes["probe_routes"],
                                   tracer)
    if hiers:
        _flood_probe(hiers[-1], graphs[-1], seed, sizes["probe_floods"],
                     tracer)
    return traced, tracer, units, layer_metrics(tracer, full, traced, hops,
                                                scans)


def trace_workload(workload, seed, size_name="full", spans_path=None,
                   timed=()):
    """One untraced pass, then one traced pass and the probes.

    Returns (report, layer metrics).  The traced pass must reproduce the
    untraced pass's output bytes and exact counts.  A metric named in
    `timed` (the times and rates) whose layer the workload never calls is
    measured on a smoke-size traced pass of the workloads that do call it,
    and listed in report["probed"].
    """
    sizes = SIZES[size_name]
    report, passes, units = run_workload(workload, seed, 0.0, size_name,
                                         min_passes=1)
    plain = passes[0]
    traced, tracer, traced_units, layers = traced_layers(workload, seed,
                                                         sizes)
    if spans_path is not None:
        tracer.write(spans_path)

    problems = report["problems"] + sorted(
        {f"traced {o.key}: {msg}" for o in traced.outcomes
         for msg in o.problems})
    if traced.digest != plain.digest:
        problems.append("traced pass output differs from the untraced pass")
    exact = [(o.ledger, o.faults, o.ticks) for o in plain.outcomes]
    if exact != [(o.ledger, o.faults, o.ticks) for o in traced.outcomes]:
        problems.append("traced exact counts differ from the untraced run")
    if workload == "hier-logged":
        steps = {c: layers[f"engine.steps.{c}"] for c in STEP_CLASSES}
        if steps_from_log(plain.event_texts, plain.outcomes) != steps:
            problems.append("traced step classes differ from the untraced "
                            "event log")
    plain_s = sum(u[0] for u in units[0])
    traced_s = sum(u[0] for u in traced_units)
    layers["trace.overhead_frac"] = (traced_s - plain_s) / plain_s

    missing = [k for k in timed if not layers[k]]
    probed = {}
    for other in WORKLOADS:
        if not missing:
            break
        if other == workload:
            continue
        probe, _, _, got = traced_layers(other, seed, SIZES["smoke"])
        problems += sorted({f"probe {other} {o.key}: {msg}"
                            for o in probe.outcomes for msg in o.problems})
        for name in [k for k in missing if got[k]]:
            probed[name] = got[name]
            missing.remove(name)
    layers.update(probed)

    failed = report["failed"] + (len(problems) > len(report["problems"]))
    report = dict(report, attempted=report["attempted"] + 1, failed=failed,
                  problems=problems, probed=sorted(probed))
    return report, layers


def steps_from_log(texts, outcomes):
    """Tick classes from per-instance event logs; a tick without a line is
    idle."""
    counts = dict.fromkeys(STEP_CLASSES, 0)
    for text, out in zip(texts, outcomes):
        by_tick = {}
        for ev in parse_events(text):
            by_tick.setdefault(ev.tick, []).append(ev.action)
        for actions in by_tick.values():
            counts[classify(actions)] += 1
        counts["idle"] += out.ticks - len(by_tick)
    return {c: float(v) for c, v in counts.items()}


def layer_metrics(tracer, full, traced, hops, scans):
    """Per-layer metrics of the traced pass.  A layer the workload does not
    reach reads 0."""
    st = tracer.self_times()
    res = [r for r in traced.results if r is not None]
    m = {
        "geometry.build_graph_s": st.get("geometry.build_graph", 0.0),
        "geometry.sample_points_s": st.get("geometry.sample_points", 0.0),
        "geometry.is_connected_s": st.get("geometry.is_connected", 0.0),
        "geometry.edges": float(sum(r.state.graph.edge_count()
                                    for r in res)),
        "hierarchy.build_hierarchy_s": st.get("hierarchy.build_hierarchy",
                                              0.0),
        "hierarchy.build_schedule_s": st.get("hierarchy.build_schedule",
                                             0.0),
        "hierarchy.cells": float(sum(r.state.hierarchy.n_cells for r in res
                                     if r.state.hierarchy is not None)),
        "hierarchy.depths": float(max((r.state.hierarchy.total_levels
                                       for r in res
                                       if r.state.hierarchy is not None),
                                      default=0)),
        "engine.init_sim_s": st.get("engine.init_sim", 0.0),
    }

    # stride: time between consecutive record callbacks of one engine.run
    strides = []
    parent = tracer.parent
    last = {}
    for i in tracer.spans("metrics.csv_write"):
        p = parent[i]
        if p in last:
            strides.append(1e3 * (tracer.start[i] - last[p]))
        last[p] = tracer.start[i]
    m["engine.stride_ms_p50"] = percentile(strides, 0.5) if strides else 0.0
    m["engine.stride_ms_p99"] = percentile(strides, 0.99) if strides else 0.0
    m["engine.stride_samples"] = float(len(strides))

    ledger = np.zeros(5, dtype=np.int64)
    faults = np.zeros(5, dtype=np.int64)
    for o in traced.outcomes:
        if o.ledger:
            ledger += o.ledger
            faults += o.faults
    for name, v in zip(engine.LEDGER_NAMES, ledger):
        m[f"engine.tx.{name}"] = float(v)
    for name, v in zip(engine.FAULT_NAMES, faults):
        m[f"engine.faults.{name}"] = float(v)

    by_class = {c: [] for c in STEP_CLASSES}
    for i, cls in full.step_class.items():
        by_class[cls].append(tracer.end[i] - tracer.start[i])
    steps = sum(len(v) for v in by_class.values())
    for c in STEP_CLASSES:
        m[f"engine.steps.{c}"] = float(len(by_class[c]))
        m[f"engine.step_us.{c}"] = \
            1e6 * statistics.mean(by_class[c]) if by_class[c] else 0.0
    m["engine.useful_tick_frac"] = \
        (steps - len(by_class["idle"])) / steps if steps else 0.0
    ev = full.events
    m["engine.flood_tx_per_flood"] = \
        ev["flood_tx"] / ev["flood_n"] if ev["flood_n"] else 0.0
    m["engine.far.ok"] = float(ev["far_ok"])
    m["engine.far.failed"] = float(ev["far_failed"])

    # engine.run self time per algorithm; every run starts at tick 0
    child = tracer.child_totals()
    per_algo = {"geo": [0.0, 0, 0], "boyd": [0.0, 0, 0]}
    for i, state in full.run_state.items():
        acc = per_algo.setdefault(state.algorithm, [0.0, 0, 0])
        acc[0] += tracer.end[i] - tracer.start[i] - child[i]
        acc[1] += int(state.tick)
        acc[2] += int(state.ledger[engine.LEDGER_FAR])
    for algo in ("geo", "boyd"):
        busy, ticks, _ = per_algo[algo]
        m[f"baselines.{algo}.tick_us"] = 1e6 * busy / ticks if ticks else 0.0
    _, ticks, far_tx = per_algo["geo"]
    # a geo attempt pays two transmissions per routing hop (round trip)
    m["baselines.geo.hops_per_tick"] = far_tx / 2 / ticks if ticks else 0.0

    m["routing.route_to_position_us"] = _mean_span_us(
        tracer, "routing.route_to_position")
    m["routing.greedy_route_us"] = _mean_span_us(tracer,
                                                 "routing.greedy_route")
    m["routing.hops_per_route"] = float(hops)
    m["routing.neighbor_scans_per_route"] = float(scans)
    m["routing.flood_us"] = _mean_span_us(tracer, "routing.flood")

    traj = st.get("affine.norm_square_trajectories", 0.0)
    m["affine.trajectories_s"] = traj
    m["affine.updates_per_s"] = full.timers.updates / traj if traj else 0.0
    m["experiment.kernel_verify_det_s"] = st.get("experiment.kernel_verify",
                                                 0.0)

    csv_spans = tracer.spans("metrics.csv_write")
    m["metrics.csv_rows"] = float(len(csv_spans))
    m["metrics.csv_write_us"] = _mean_span_us(tracer, "metrics.csv_write")
    m["experiment.event_lines"] = float(sum(t.count("\n")
                                            for t in traced.event_texts))
    m["experiment.event_bytes"] = float(sum(len(t.encode())
                                            for t in traced.event_texts))
    m["experiment.event_write_s"] = sum(
        (tracer.end[i] - tracer.start[i]
         for i in tracer.spans("experiment.event_write")), 0.0)
    return m
