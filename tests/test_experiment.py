"""Config parsing, experiment orchestration, kernel verification."""

import dataclasses
import io

import numpy as np
import pytest

from geogossip import (
    ConfigError,
    ExperimentConfig,
    kernel_verify,
    parse_config,
    run_experiment,
    sweep,
)
from geogossip.affine import markov_tail_bound
from geogossip.experiment import (apply_overrides, build_state,
                                  check_contraction, check_markov_tail,
                                  check_mean_square_decay,
                                  check_perturbed_deviation,
                                  check_second_moment, load_config)


def small_cfg(**kw):
    base = dict(algorithm="boyd", n=64, seed=0, eps=0.2, max_ticks=100_000,
                stride=5_000)
    base.update(kw)
    return ExperimentConfig(**base)


# ------------------------------------------------------------------ config

def test_parse_config_full_file():
    cfg = parse_config("""
        # experiment setup: every key, none at its default
        algorithm = geo
        n = 512
        seed = 7
        radius_c = 2.5
        threshold = 64     # leaf size
        mode = paper
        a = 1.5
        gamma = 16
        c1 = 3
        eps = 0.05
        delta = 0.2
        max_ticks = 5000
        init = gradient
        output = out.csv
        stride = 100
        stop_on_root = true
        fault_limit = 2
    """)
    want = dict(algorithm="geo", n=512, seed=7, radius_c=2.5,
                threshold=64.0, mode="paper", a=1.5, gamma=16.0, c1=3.0,
                eps=0.05, delta=0.2, max_ticks=5000, init="gradient",
                output="out.csv", stride=100, stop_on_root=True,
                fault_limit=2)
    assert set(want) == {f.name for f in dataclasses.fields(cfg)}
    for key, value in want.items():
        got = getattr(cfg, key)
        assert got == value, key
        assert type(got) is type(value), key
    # untouched keys keep their defaults
    assert parse_config("n = 64\n").c1 == ExperimentConfig().c1


def test_parse_config_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("n = 64\nnot a pair\n")
    with pytest.raises(ConfigError, match="line 3.*unknown key"):
        parse_config("n = 64\n\nwidth = 3\n")
    with pytest.raises(ConfigError, match="line 1.*bad value"):
        parse_config("n = sixty\n")
    with pytest.raises(ConfigError, match="bad value for 'stop_on_root'"):
        parse_config("stop_on_root = maybe\n")


def test_parse_config_layering():
    base = parse_config("n = 128\ngamma = 4\n")
    top = parse_config("gamma = 12\n", base)
    assert top.n == 128 and top.gamma == 12.0
    assert base.gamma == 4.0   # base is not mutated
    on = parse_config("stop_on_root = on\n")
    for word in ("0", "false", "No", "OFF"):
        assert parse_config(f"stop_on_root = {word}\n",
                            on).stop_on_root is False


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")


def test_validate_catches_bad_values():
    for kw in (dict(algorithm="fast"), dict(n=3), dict(radius_c=0.0),
               dict(threshold=0.5), dict(mode="slow"), dict(a=0.0),
               dict(gamma=0.9), dict(c1=0.0), dict(eps=0.0), dict(eps=1.0),
               dict(delta=2.0), dict(max_ticks=-1), dict(init="triangle"),
               dict(stride=0), dict(fault_limit=-1)):
        with pytest.raises(ConfigError):
            small_cfg(**kw).validate()
    small_cfg().validate()


def test_overrides_validate_and_reject_unknown():
    cfg = apply_overrides(small_cfg(), {"n": 128, "seed": None})
    assert cfg.n == 128 and cfg.seed == 0
    with pytest.raises(ConfigError):
        apply_overrides(small_cfg(), {"width": 3})
    with pytest.raises(ConfigError):
        apply_overrides(small_cfg(), {"gamma": 0.5})


def test_seed_is_mandatory():
    with pytest.raises(ConfigError, match="seed is required"):
        small_cfg(seed=None).require_seed()
    with pytest.raises(ConfigError):
        build_state(small_cfg(seed=None))


def test_effective_threshold_defaults_to_log_power():
    import math
    cfg = small_cfg(threshold=None, n=1024)
    assert cfg.effective_threshold() == pytest.approx(math.log(1024) ** 8)
    assert small_cfg(threshold=48.0).effective_threshold() == 48.0


# ------------------------------------------------------------------- runs

def test_build_state_deterministic():
    a = build_state(small_cfg())
    b = build_state(small_cfg())
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.graph.points.xy, b.graph.points.xy)
    assert a.hierarchy is None   # baselines carry no partition


def test_run_experiment_streams_csv():
    buf = io.StringIO()
    result = run_experiment(small_cfg(), csv_fh=buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("algorithm,n,seed,tick")
    assert len(lines) >= 2
    assert result.connected
    assert result.series.stop_reason in ("target", "max_ticks")
    assert "boyd n=64 seed=0" in result.summary


def test_run_experiment_byte_identical():
    out1, out2 = io.StringIO(), io.StringIO()
    run_experiment(small_cfg(), csv_fh=out1)
    run_experiment(small_cfg(), csv_fh=out2)
    assert out1.getvalue() == out2.getvalue()


def test_sweep_grid_order_and_single_header():
    buf = io.StringIO()
    results = sweep(small_cfg(), ns=[128, 64, 64], seeds=[1, 0],
                    algorithms=["geo", "boyd"], csv_fh=buf)
    keys = [(r.state.algorithm, r.state.n, r.state.seed) for r in results]
    assert keys == [("boyd", 64, 0), ("boyd", 64, 1), ("boyd", 128, 0),
                    ("boyd", 128, 1), ("geo", 64, 0), ("geo", 64, 1),
                    ("geo", 128, 0), ("geo", 128, 1)]
    lines = buf.getvalue().splitlines()
    assert sum(1 for ln in lines if ln.startswith("algorithm,")) == 1


def test_sweep_rejects_unknown_algorithm():
    with pytest.raises(ConfigError):
        sweep(small_cfg(), ns=[64], seeds=[0], algorithms=["fast"])


def test_event_log_stream():
    buf = io.StringIO()
    run_experiment(small_cfg(max_ticks=200, eps=1e-6), event_fh=buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 200
    # "tick node action target count"
    first = lines[0].split()
    assert first[2] in ("near", "far")


# ---------------------------------------------------------- kernel verify

def test_kernel_verify_deterministic_rows():
    rows = kernel_verify(trials=0)
    names = [r.name for r in rows]
    assert names == ["second-moment-oracle", "contraction-bound",
                     "alpha-rejection"]
    assert all(r.passed for r in rows)


@pytest.mark.parametrize("trials", [1, -1, -5])
def test_kernel_verify_rejects_unusable_trial_counts(trials):
    # one trial has no standard error, and a negative count is no count
    with pytest.raises(ValueError, match="0 or at least 2"):
        kernel_verify(trials=trials)


def test_kernel_verify_monte_carlo_rows():
    rows = kernel_verify(trials=400, seed=1)
    names = [r.name for r in rows]
    assert "mc-mean-square-decay" in names
    assert "mc-tail-probability" in names
    assert "mc-perturbed-bound" in names
    assert all(r.passed for r in rows), [str(r) for r in rows]
    assert all("pass" in str(r) for r in rows)


def test_exact_match_row_names_its_size():
    # a gap of exactly 0 still has the least margin, at the one n=2 vector
    row = check_second_moment([np.full(2, 0.4)])
    assert (row.n, row.statistic, row.passed) == (2, 0.0, True)
    assert "n=2 " in str(row)


@pytest.mark.parametrize("check", [check_second_moment, check_contraction],
                         ids=["second-moment", "contraction"])
def test_exact_checks_reject_an_empty_weight_list(check):
    # no weight vector is no evidence: the check refuses rather than pass
    with pytest.raises(ValueError, match="alphas"):
        check([])


def test_decay_check_reports_least_margin_tick():
    # trial 0 halves every tick, trial 1 stands still
    row = check_mean_square_decay(np.array([[2.0, 1.0, 0.5],
                                            [4.0, 4.0, 4.0]]), n=2)
    assert row.passed and row.trials == 2
    # a tick with no spread takes the SE 1/trials: ten trials that all
    # still stand at t=1 are no evidence against the bound ...
    assert check_mean_square_decay(np.ones((10, 2)), n=32).passed
    # ... but a hundred that never move fail, at t=2 where the margin is
    # least
    row = check_mean_square_decay(np.ones((100, 3)), n=2)
    assert not row.passed and "FAIL" in str(row)
    assert (row.statistic, row.bound) == (1.0, 0.75 ** 2 + 3.0 * 0.01)
    # every tick counts: stuck near 0.99 at t=1 with little spread fails
    # there, however well the last tick decays
    traj = np.zeros((100, 3))
    traj[:, 0] = 1.0
    traj[:, 1] = 0.99 + 0.001 * (-1.0) ** np.arange(100)
    row = check_mean_square_decay(traj, n=32)
    assert not row.passed
    assert row.statistic == pytest.approx(0.99)


def test_tail_check_is_strict_with_frequency_se():
    x0 = np.array([1.0, -1.0])
    cut = 0.5 * 0.5 * 2.0
    traj = np.zeros((4, 41))
    traj[:, 40] = [cut, 2 * cut, 0.0, 0.0]  # one strictly above the cut
    row = check_markov_tail(traj, x0, 0.5, (1, 40))
    assert row.statistic == 0.25
    assert row.bound == markov_tail_bound(40, 2, 0.5) \
        + 3.0 * np.sqrt(0.25 * 0.75 / 4)
    assert row.passed
    traj[:, 40] = 2 * cut
    row = check_markov_tail(traj, x0, 0.5, (1, 40))
    assert not row.passed and row.statistic == 1.0


def test_deviation_check_is_strict_with_cap_se():
    # ticks = 0 and eps = 0: the limit is n^(a/2) |y0| = 4 exactly
    y0 = np.array([0.5, -0.5, 0.5, -0.5])
    traj = np.array([[16.0], [16.5], [0.0], [0.0]])
    row = check_perturbed_deviation(traj, y0, a=2.0, eps=0.0)
    cap = 5.0 / 16.0
    assert row.statistic == 0.25
    assert row.bound == cap + 3.0 * np.sqrt(cap * (1.0 - cap) / 4)
    assert row.passed
    row = check_perturbed_deviation(np.full((100, 1), 16.5), y0, 2.0, 0.0)
    assert not row.passed and row.statistic == 1.0
