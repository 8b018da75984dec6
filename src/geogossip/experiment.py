"""Experiment configuration, orchestration, sweeps, and kernel checks.

Configs are flat key=value files (one pair per line, `#` starts a comment).
Unknown keys are rejected with line numbers so typos cannot silently fall
back to defaults.  The seed must be supplied (file or flag); there is no
wall-clock seeding anywhere.

One experiment builds points -> graph -> hierarchy -> schedule -> engine
state, runs to its stop condition, and streams metrics rows to CSV with a
flush at every stride so an interrupted run still leaves a parseable file.
Points and graph depend only on (n, seed, radius_c), so a sweep builds each
(n, seed) instance once, in the run that first needs it, and hands that
graph, with its connectivity flood, to the instance's later runs.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import affine, engine, metrics
from .geometry import DEFAULT_RADIUS_CONSTANT, GeometricGraph, \
    build_graph, connectivity_radius, sample_points
from .hierarchy import DEFAULT_A, DEFAULT_C1, DEFAULT_GAMMA, MODES, \
    EmptyCellError, RepresentativeError, ScheduleOverflowError, \
    build_hierarchy, build_schedule, default_threshold

ALGORITHMS = tuple(engine.ROW_WIDTH)
# The config keys whose value is one of a fixed set, and that set.
CHOICES = {"algorithm": ALGORITHMS, "mode": MODES,
           "init": engine.INIT_DISTRIBUTIONS}
# What a run raises when its sampled points cannot carry its hierarchy or
# schedule; sweep records it per run.
BUILD_ERRORS = (EmptyCellError, RepresentativeError, ScheduleOverflowError)


class ConfigError(ValueError):
    """Invalid configuration file or value."""


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass
class ExperimentConfig:
    """Everything one run needs; field names double as config-file keys
    and, with dashes for underscores, as command-line flags."""

    algorithm: str = "hier"
    n: int = 256
    seed: int = None
    radius_c: float = DEFAULT_RADIUS_CONSTANT
    threshold: float = None
    mode: str = "practical"
    a: float = DEFAULT_A
    gamma: float = DEFAULT_GAMMA
    c1: float = DEFAULT_C1
    eps: float = 0.01
    delta: float = 0.1
    max_ticks: int = 10_000_000
    init: str = "spike"
    output: str = None
    stride: int = None
    stop_on_root: bool = False
    fault_limit: int = 0

    def validate(self) -> None:
        for key, allowed in CHOICES.items():
            if getattr(self, key) not in allowed:
                raise ConfigError(f"{key} must be one of {allowed}, got "
                                  f"{getattr(self, key)!r}")
        if self.n < 4:
            raise ConfigError(f"n must be at least 4, got {self.n}")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.radius_c > 0:
            raise ConfigError(f"radius_c must be positive, got "
                              f"{self.radius_c}")
        if self.threshold is not None and not self.threshold >= 1:
            raise ConfigError(f"threshold must be at least 1, got "
                              f"{self.threshold}")
        if not self.a > 0:
            raise ConfigError(f"a must be positive, got {self.a}")
        if not self.gamma >= 1:
            raise ConfigError(f"gamma must be at least 1, got {self.gamma}")
        if not self.c1 > 0:
            raise ConfigError(f"c1 must be positive, got {self.c1}")
        if not 0 < self.eps < 1:
            raise ConfigError(f"eps must lie in (0, 1), got {self.eps}")
        if not 0 < self.delta < 1:
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        if self.max_ticks < 0:
            raise ConfigError(f"max_ticks must be >= 0, got {self.max_ticks}")
        if self.stride is not None and self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        if self.fault_limit < 0:
            raise ConfigError(f"fault_limit must be >= 0, got "
                              f"{self.fault_limit}")

    def require_seed(self) -> None:
        if self.seed is None:
            raise ConfigError("seed is required (config key 'seed' or the "
                              "--seed flag); wall-clock seeding is not "
                              "supported")

    def effective_threshold(self) -> float:
        if self.threshold is not None:
            return float(self.threshold)
        return default_threshold(self.n)


# config-file keys and their value parsers, one per ExperimentConfig field
_KEY_PARSERS = {f.name: _parse_bool if f.type is bool else f.type
                for f in dataclasses.fields(ExperimentConfig)}


def parse_config(text: str, base: ExperimentConfig = None,
                 ) -> ExperimentConfig:
    """Parse key=value lines into a config, starting from `base`.

    Raises:
        ConfigError: on malformed lines, unknown keys, or bad values, with
            the 1-based line number.
    """
    cfg = dataclasses.replace(base) if base is not None \
        else ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got "
                              f"{raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            setattr(cfg, key, _KEY_PARSERS[key](value))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: "
                              f"{exc}") from exc
    return cfg


def load_config(path, base: ExperimentConfig = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text, base)


def build_state(config: ExperimentConfig, graph: GeometricGraph = None,
                ) -> engine.SimState:
    """Construct the full simulation pipeline for a validated config.

    The point set uses the seed directly; the simulation stream uses a
    spawned child so tick randomness is independent of the geometry draws.
    `graph`, if given, is the config's instance as an earlier run built it;
    it is used as is, and the hierarchy is built on its points.  Without
    one, the points and graph are built here.

    Raises:
        ValueError: if `graph` was built for another n, seed or radius.
    """
    config.require_seed()
    radius = connectivity_radius(config.n, config.radius_c)
    if graph is None:
        graph = build_graph(sample_points(config.n, config.seed), radius)
    for key, built, wanted in (("n", graph.n, config.n),
                               ("seed", graph.points.seed, config.seed),
                               ("radius", graph.radius, radius)):
        if built != wanted:
            raise ValueError(f"graph was built for {key}={built}, the "
                             f"config needs {key}={wanted}")
    hierarchy = None
    schedule = None
    if config.algorithm == "hier":
        hierarchy = build_hierarchy(graph.points,
                                    config.effective_threshold())
        schedule = build_schedule(config.n, config.eps, config.delta,
                                  config.a, hierarchy, config.mode,
                                  c1=config.c1, gamma=config.gamma)
    sim_seed = np.random.SeedSequence(entropy=config.seed, spawn_key=(1,))
    return engine.init_sim(graph, hierarchy, schedule, seed=sim_seed,
                           init_dist=config.init,
                           algorithm=config.algorithm,
                           record_seed=config.seed)


@dataclass
class ExperimentResult:
    """One run's series, its summary line, and the final state; or, for a
    sweep run that could not build, only the error it raised."""

    config: ExperimentConfig
    series: engine.MetricsSeries
    state: engine.SimState
    connected: bool
    error: Exception = None

    @property
    def summary(self) -> str:
        rec = self.series.final
        st = self.state
        faults = ",".join(f"{k}={v}" for k, v in st.fault_totals().items()
                          if v > 0) or "none"
        return (f"{st.algorithm} n={st.n} seed={st.seed}: "
                f"stop={self.series.stop_reason} ticks={st.tick} "
                f"time={st.tick / st.n:.1f} "
                f"ratio={rec.err_l2_ratio:.6g} "
                f"tx={rec.transmissions_total} "
                f"(near={rec.transmissions_near} "
                f"far={rec.transmissions_far_routing} "
                f"control={rec.transmissions_control}) "
                f"faults: {faults} "
                f"connected={'yes' if self.connected else 'NO'}")

    def delivery_faults(self) -> int:
        faults = self.state.fault_totals()
        return faults["routing_failure"] + faults["flood_gap"]


def run_experiment(config: ExperimentConfig, csv_fh=None, event_fh=None,
                   write_header: bool = True, graph: GeometricGraph = None,
                   ) -> ExperimentResult:
    """Run one configured simulation, streaming rows to csv_fh if given.

    The config is checked first (the one check a run's config gets), then
    the state is built before anything is written, on `graph` if given
    (see build_state); a graph's connectivity is flooded once, however
    many runs share it.  Rows are flushed at every stride so a truncated
    run still parses.
    """
    config.validate()
    state = build_state(config, graph)
    connected = state.graph.connected

    on_record = None
    if csv_fh is not None:
        if write_header:
            metrics.write_header(csv_fh)

        def on_record(rec):
            csv_fh.write(rec.to_line() + "\n")
            csv_fh.flush()

    event_sink = None
    if event_fh is not None:
        def event_sink(events):
            event_fh.write(engine.format_events(events))

    series = engine.run(
        state,
        max_ticks=config.max_ticks,
        target_ratio=config.eps,
        stop_on_root_deactivation=config.stop_on_root,
        stride=config.stride,
        on_record=on_record,
        event_sink=event_sink,
    )
    return ExperimentResult(config=config, series=series, state=state,
                            connected=connected)


def sweep(config: ExperimentConfig, ns, seeds, algorithms=None, csv_fh=None,
          ) -> list:
    """Run the cross product of algorithms x ns x seeds into one CSV.

    Runs execute in sorted (algorithm, n, seed) order, which is also the
    row order, so merged output is deterministic.  The first run of an
    (n, seed) instance that builds its state builds the instance's points
    and graph; the instance's later runs are handed that graph, so their
    results share it.  The graphs are held for this call only.  A run that
    raises one of BUILD_ERRORS writes no row and leaves no graph behind;
    its result carries the error, with no series and no state, and the
    sweep goes on.

    Returns:
        list of ExperimentResult in execution order.

    Raises:
        ConfigError: if ns, seeds or algorithms is empty, an algorithm is
            unknown, or the first run's config holds a bad value.
    """
    if algorithms is None:
        algorithms = [config.algorithm]
    algorithms = sorted(set(algorithms))
    ns = sorted(set(int(v) for v in ns))
    seeds = sorted(set(int(v) for v in seeds))
    if not ns or not seeds:
        raise ConfigError("sweep needs at least one n and one seed")
    if not algorithms:
        raise ConfigError("sweep needs at least one algorithm")
    for algo in algorithms:
        if algo not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {algo!r}")
    graphs = {}
    results = []
    first = True
    for algo in algorithms:
        for n in ns:
            for seed in seeds:
                cfg = dataclasses.replace(config, algorithm=algo, n=n,
                                          seed=seed)
                try:
                    # only the run's build_state raises these, before any
                    # row is written
                    result = run_experiment(cfg, csv_fh=csv_fh,
                                            write_header=first,
                                            graph=graphs.get((n, seed)))
                except BUILD_ERRORS as exc:
                    result = ExperimentResult(cfg, None, None, None, exc)
                else:
                    first = False
                    graphs[n, seed] = result.state.graph
                results.append(result)
    return results


@dataclass(frozen=True)
class VerifyRow:
    """One line of the kernel verification table."""

    name: str
    n: int
    trials: int
    statistic: float
    bound: float
    passed: bool

    def __str__(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (f"{self.name:<24} n={self.n:<4} trials={self.trials:<6} "
                f"statistic={self.statistic:<12.6g} "
                f"bound={self.bound:<12.6g} {verdict}")


def _per_vector(alphas, f):
    # the sizes of the weight vectors and f of each, for the exact checks
    if len(alphas) == 0:
        raise ValueError("alphas must hold at least one weight vector")
    return np.array([len(a) for a in alphas]), np.array([f(a) for a in alphas])


def check_second_moment(alphas) -> VerifyRow:
    """Closed-form E[A^T A] against pair enumeration: the largest entry gap
    over the weight vectors (at least one), within 1e-12."""
    n, gap = _per_vector(alphas, lambda a: np.max(np.abs(
        affine.expected_quadratic_form(a)
        - affine.enumerated_quadratic_form(a))))
    return _least_margin("second-moment-oracle", n, 0, gap, 1e-12)


def check_contraction(alphas) -> VerifyRow:
    """Contraction factor minus contraction_bound(n): the largest excess
    over the weight vectors (at least one), within 1e-9."""
    n, excess = _per_vector(alphas, lambda a: affine.contraction_factor(a)
                            - affine.contraction_bound(len(a)))
    return _least_margin("contraction-bound", n, 0, excess, 1e-9)


def _least_margin(name, n, trials, stat, bound) -> VerifyRow:
    # one row for a check made at several points: the point with the least
    # margin speaks for all of them; its size n and its bound may be given
    # once for all points
    stat, bound, n = np.broadcast_arrays(stat, bound, n)
    k = int(np.argmax(stat - bound))
    return VerifyRow(name, int(n[k]), trials, float(stat[k]), float(bound[k]),
                     bool(np.all(stat <= bound)))


def check_mean_square_decay(traj, n: int) -> VerifyRow:
    """Mean of |x(t)|^2 / |x(0)|^2 under (1 - 1/(2n))^t + 3 SE at every
    tick of a (trials, ticks + 1) trajectory block.

    Each trial is normalised by its own t=0 value, so the ratio is exactly
    1 at t=0, where the check passes by construction; the row reports the
    tick t >= 1 with the least margin, so the block needs ticks >= 1.

    Raises:
        ValueError: if the block has no tick after t=0.
    """
    if traj.shape[1] < 2:
        raise ValueError(f"traj must hold a tick after t=0, got a block of "
                         f"shape {traj.shape}")
    trials = traj.shape[0]
    rel = traj / traj[:, :1]
    mean = rel.mean(axis=0)
    se = rel.std(axis=0, ddof=1) / math.sqrt(trials)
    # a tick at which every trial has the same ratio (few trials, early
    # on, none touched yet) has no spread to estimate an SE from: take
    # 1/trials, the SE had one of the trials moved by the full 1
    se[se == 0.0] = 1.0 / trials
    bound = affine.mean_square_decay_bound(np.arange(rel.shape[1]), n) \
        + 3.0 * se
    return _least_margin("mc-mean-square-decay", n, trials, mean[1:],
                         bound[1:])


def check_markov_tail(traj, x0, eps: float, horizons) -> VerifyRow:
    """Frequency of |x(t)| > eps |x0| under markov_tail_bound + 3 SE at
    each horizon t, with SE sqrt(f(1 - f) / trials).

    Raises:
        ValueError: if horizons is empty.
    """
    if len(horizons) == 0:
        raise ValueError("horizons must hold at least one tick")
    trials = traj.shape[0]
    n = len(x0)
    cut = eps * eps * float(x0 @ x0)
    freq = np.array([float((traj[:, t] > cut).mean()) for t in horizons])
    bound = np.array([affine.markov_tail_bound(t, n, eps)
                      for t in horizons])
    bound += 3.0 * np.sqrt(freq * (1.0 - freq) / trials)
    return _least_margin("mc-tail-probability", n, trials, freq, bound)


def check_perturbed_deviation(traj, y0, a: float, eps: float) -> VerifyRow:
    """Frequency of |y(T)| above perturbed_deviation_bound at the last tick
    T, under cap + 3 SE with cap = min(1, 5/n^a) and SE
    sqrt(cap(1 - cap) / trials); eps is the noise magnitude."""
    trials, ticks = traj.shape[0], traj.shape[1] - 1
    n = len(y0)
    limit = affine.perturbed_deviation_bound(ticks, n, a, eps,
                                             float(np.linalg.norm(y0)))
    freq = (np.sqrt(traj[:, -1:]) > limit).mean(axis=0)
    cap = min(1.0, 5.0 / n ** a)
    bound = cap + 3.0 * math.sqrt(cap * (1.0 - cap) / trials)
    return _least_margin("mc-perturbed-bound", n, trials, freq, bound)


def trial_count(trials: int) -> int:
    """Return trials if kernel_verify accepts it: 0 skips the Monte Carlo
    rows, and their standard errors need at least two trials.

    Raises:
        ValueError: if trials is 1 or negative.
    """
    if trials < 0 or trials == 1:
        raise ValueError(f"trials must be 0 or at least 2, got {trials}")
    return trials


def kernel_verify(trials: int = 2000, seed: int = 0) -> list:
    """Run every kernel oracle and bound check; returns VerifyRow list.

    With trials=0 the Monte Carlo rows are skipped and only the
    deterministic checks run.

    Raises:
        ValueError: if trials is 1 or negative (see trial_count).
    """
    trial_count(trials)
    rng = np.random.default_rng(seed)
    rows = [
        check_second_moment([affine.random_alpha(n, rng)
                             for n in (2, 3, 5, 8) for _ in range(4)]),
        check_contraction([affine.random_alpha(n, rng)
                           for n in (4, 8, 16, 32) for _ in range(4)]),
    ]

    if trials > 0:
        n, ticks = 32, 320
        x0 = affine.spike_vector(n)
        alpha = np.full(n, 0.4)
        traj = affine.norm_square_trajectories(x0, alpha, ticks, trials,
                                               seed=seed + 1)
        rows.append(check_mean_square_decay(traj, n))
        rows.append(check_markov_tail(traj, x0, 0.25, (ticks,)))
        noise_eps = 1e-4
        traj = affine.norm_square_trajectories(
            x0, alpha, ticks, trials, seed=seed + 2,
            noise=affine.alternating_noise(ticks, noise_eps))
        rows.append(check_perturbed_deviation(traj, x0, 1.0, noise_eps))

    # Out-of-range mixing weights must be rejected.
    bad = np.full(4, 0.4)
    bad[2] = 0.6
    try:
        affine.validate_alpha(bad)
        rejected = False
    except ValueError:
        rejected = True
    rows.append(VerifyRow("alpha-rejection", 4, 0, float(rejected), 1.0,
                          rejected))
    return rows
