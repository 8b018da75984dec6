"""Experiment configuration, orchestration, sweeps, and kernel checks.

Configs are flat key=value files (one pair per line, `#` starts a comment).
Unknown keys are rejected with line numbers so typos cannot silently fall
back to defaults.  The seed must be supplied (file or flag); there is no
wall-clock seeding anywhere.

One experiment builds points -> graph -> hierarchy -> schedule -> engine
state, runs to its stop condition, and streams metrics rows to CSV with a
flush at every stride so an interrupted run still leaves a parseable file.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import affine, engine, metrics
from .geometry import build_graph, connectivity_radius, is_connected, \
    sample_points
from .hierarchy import build_hierarchy, build_schedule, default_threshold

ALGORITHMS = ("hier", "boyd", "geo")


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
    """Everything one run needs; field names double as config-file keys."""

    algorithm: str = "hier"
    n: int = 256
    seed: int = None
    radius_c: float = 2.0
    threshold: float = None
    mode: str = "practical"
    a: float = 1.0
    gamma: float = 8.0
    c1: float = 4.0
    eps: float = 0.01
    delta: float = 0.1
    max_ticks: int = 10_000_000
    init: str = "spike"
    output: str = None
    stride: int = None
    stop_on_root: bool = False
    fault_limit: int = 0

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}, "
                              f"got {self.algorithm!r}")
        if self.n < 4:
            raise ConfigError(f"n must be at least 4, got {self.n}")
        if self.radius_c <= 0:
            raise ConfigError(f"radius_c must be positive, got "
                              f"{self.radius_c}")
        if self.threshold is not None and self.threshold < 1:
            raise ConfigError(f"threshold must be at least 1, got "
                              f"{self.threshold}")
        if self.mode not in ("paper", "practical"):
            raise ConfigError(f"mode must be 'paper' or 'practical', got "
                              f"{self.mode!r}")
        if self.a <= 0:
            raise ConfigError(f"a must be positive, got {self.a}")
        if self.gamma < 1:
            raise ConfigError(f"gamma must be at least 1, got {self.gamma}")
        if self.c1 <= 0:
            raise ConfigError(f"c1 must be positive, got {self.c1}")
        if not 0 < self.eps < 1:
            raise ConfigError(f"eps must lie in (0, 1), got {self.eps}")
        if not 0 < self.delta < 1:
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        if self.max_ticks < 0:
            raise ConfigError(f"max_ticks must be >= 0, got {self.max_ticks}")
        if self.init not in engine.INIT_DISTRIBUTIONS:
            raise ConfigError(f"init must be one of "
                              f"{engine.INIT_DISTRIBUTIONS}, got "
                              f"{self.init!r}")
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


_KEY_PARSERS = {
    "algorithm": str,
    "n": int,
    "seed": int,
    "radius_c": float,
    "threshold": float,
    "mode": str,
    "a": float,
    "gamma": float,
    "c1": float,
    "eps": float,
    "delta": float,
    "max_ticks": int,
    "init": str,
    "output": str,
    "stride": int,
    "stop_on_root": _parse_bool,
    "fault_limit": int,
}


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


def apply_overrides(cfg: ExperimentConfig, overrides: dict,
                    ) -> ExperimentConfig:
    """Return a copy with non-None override values applied and validated."""
    cfg = dataclasses.replace(cfg)
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _KEY_PARSERS:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


def build_state(config: ExperimentConfig) -> engine.SimState:
    """Construct the full simulation pipeline for a validated config.

    The point set uses the seed directly; the simulation stream uses a
    spawned child so tick randomness is independent of the geometry draws.
    """
    config.require_seed()
    points = sample_points(config.n, config.seed)
    radius = connectivity_radius(config.n, config.radius_c)
    graph = build_graph(points, radius)
    hierarchy = None
    schedule = None
    if config.algorithm == "hier":
        hierarchy = build_hierarchy(points, config.effective_threshold())
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
    """One run's series, its summary line, and the final state."""

    config: ExperimentConfig
    series: engine.MetricsSeries
    state: engine.SimState
    connected: bool

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
        return (self.state.fault_totals()["routing_failure"]
                + self.state.fault_totals()["flood_gap"])


def run_experiment(config: ExperimentConfig, csv_fh=None, event_fh=None,
                   write_header: bool = True,
                   state: engine.SimState = None) -> ExperimentResult:
    """Run one configured simulation, streaming rows to csv_fh if given.

    Rows are flushed at every stride so a truncated run still parses.
    `state` is a fresh build_state(config) made by the caller, if any.
    """
    config.validate()
    if state is None:
        state = build_state(config)
    connected = is_connected(state.graph)

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
            for ev in events:
                event_fh.write(engine.format_event(ev) + "\n")

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
    row order, so merged output is deterministic.

    Returns:
        list of ExperimentResult in execution order.
    """
    if algorithms is None:
        algorithms = [config.algorithm]
    for algo in algorithms:
        if algo not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {algo!r}")
    results = []
    first = True
    for algo in sorted(set(algorithms)):
        for n in sorted(set(int(v) for v in ns)):
            for seed in sorted(set(int(v) for v in seeds)):
                cfg = dataclasses.replace(config, algorithm=algo, n=n,
                                          seed=seed)
                cfg.validate()
                results.append(run_experiment(cfg, csv_fh=csv_fh,
                                              write_header=first))
                first = False
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


def kernel_verify(trials: int = 2000, seed: int = 0) -> list:
    """Run every kernel oracle and bound check; returns VerifyRow list.

    With trials=0 the Monte Carlo rows are skipped and only the
    deterministic checks run.
    """
    rows = []
    rng = np.random.default_rng(seed)

    # Closed-form pair-average second moment against brute enumeration.
    worst = 0.0
    worst_n = 0
    for n in (2, 3, 5, 8):
        for _ in range(4):
            alpha = affine.random_alpha(n, rng)
            got = affine.expected_quadratic_form(alpha)
            want = affine.enumerated_quadratic_form(alpha)
            dev = float(np.max(np.abs(got - want)))
            if dev > worst:
                worst, worst_n = dev, n
    rows.append(VerifyRow("second-moment-oracle", worst_n, 0, worst, 1e-12,
                          worst <= 1e-12))

    # Spectral contraction on the mean-zero subspace versus its bound.
    worst_slack = -math.inf
    worst_n = 0
    for n in (4, 8, 16, 32):
        for _ in range(4):
            alpha = affine.random_alpha(n, rng)
            slack = affine.contraction_factor(alpha) \
                - affine.contraction_bound(n)
            if slack > worst_slack:
                worst_slack, worst_n = slack, n
    rows.append(VerifyRow("contraction-bound", worst_n, 0, worst_slack, 1e-9,
                          worst_slack <= 1e-9))

    if trials > 0:
        n, ticks = 32, 320
        x0 = affine.spike_vector(n)
        alpha = np.full(n, 0.4)
        traj = affine.norm_square_trajectories(x0, alpha, ticks, trials,
                                               seed=seed + 1)
        finals = traj[:, ticks]
        decay = affine.mean_square_decay_bound(ticks, n) \
            * float(x0 @ x0)
        mean = float(finals.mean())
        se = float(finals.std(ddof=1)) / math.sqrt(trials)
        rows.append(VerifyRow("mc-mean-square-decay", n, trials, mean,
                              decay + 3 * se, mean <= decay + 3 * se))

        eps_tail = 0.25
        tail_bound = affine.markov_tail_bound(ticks, n, eps_tail)
        norm0_sq = float(x0 @ x0)
        freq = float(np.mean(finals >= eps_tail ** 2 * norm0_sq))
        se = math.sqrt(max(freq * (1 - freq), 1.0 / trials) / trials)
        rows.append(VerifyRow("mc-tail-probability", n, trials, freq,
                              tail_bound + 3 * se,
                              freq <= tail_bound + 3 * se))

        noise_eps = 1e-4
        a = 1.0
        noise = affine.alternating_noise(ticks, noise_eps)
        dev_bound = affine.perturbed_deviation_bound(
            ticks, n, a, noise_eps, math.sqrt(norm0_sq))
        traj = affine.norm_square_trajectories(x0, alpha, ticks, trials,
                                               seed=seed + 2, noise=noise)
        freq = float(np.mean(np.sqrt(traj[:, ticks]) >= dev_bound))
        prob_bound = min(1.0, 5.0 / n ** a)
        se = math.sqrt(max(freq * (1 - freq), 1.0 / trials) / trials)
        rows.append(VerifyRow("mc-perturbed-bound", n, trials, freq,
                              prob_bound + 3 * se,
                              freq <= prob_bound + 3 * se))

    # Out-of-range mixing weights must be rejected at construction.
    bad = np.full(4, 0.4)
    bad[2] = 0.6
    try:
        affine.AffineSystem(alpha=bad, x=np.zeros(4))
        rejected = False
    except ValueError:
        rejected = True
    rows.append(VerifyRow("alpha-rejection", 4, 0, float(rejected), 1.0,
                          rejected))
    return rows
