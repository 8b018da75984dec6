"""Metrics rows, CSV round trips, and log-log scaling fits."""

import io
import pickle

import numpy as np
import pytest

from geogossip import (ExperimentConfig, MetricsRecord, engine, fit_scaling,
                       read_csv, run_experiment)
from geogossip.experiment import build_state
from geogossip.metrics import COLUMNS, transmissions_at_target, write_header

from conftest import write_records


def rec(algo="hier", n=64, seed=0, tick=0, total=0, err=1.0, **kw):
    base = dict(algorithm=algo, n=n, seed=seed, tick=tick,
                transmissions_total=total, transmissions_near=total,
                transmissions_far_routing=0, transmissions_control=0,
                err_l2_ratio=err, fault_routing=0, fault_isolated_near=0,
                fault_concurrent_round=0, fault_flood_gap=0,
                fault_geo_reject=0)
    base.update(kw)
    return MetricsRecord(**base)


# ---------------------------------------------------------------------- io

def test_csv_round_trip_is_exact():
    rows = [rec(tick=10, total=123, err=0.4421898987654321),
            rec(algo="geo", n=128, seed=3, tick=20, total=99999,
                err=1.0 / 3.0, fault_geo_reject=7)]
    # numpy scalars write the same line as their Python twins
    as_numpy = rec(algo="geo", n=np.int64(128), seed=np.int64(3),
                   tick=np.int64(20), total=np.int64(99999),
                   err=np.float64(1.0) / 3.0, fault_geo_reject=np.int64(7))
    assert as_numpy.to_line() == rows[1].to_line()
    rows.append(as_numpy)
    buf = io.StringIO()
    write_header(buf)
    write_records(buf, rows)
    back = read_csv(io.StringIO(buf.getvalue()))
    assert back == rows
    assert back[1].err_l2_ratio == 1.0 / 3.0   # shortest round trip, exact


def test_read_skips_repeated_headers():
    buf = io.StringIO()
    write_header(buf)
    write_records(buf, [rec(tick=1)])
    write_header(buf)   # concatenated sweep output
    write_records(buf, [rec(tick=2)])
    rows = read_csv(io.StringIO(buf.getvalue()))
    assert [r.tick for r in rows] == [1, 2]


def test_read_skips_blank_lines():
    buf = io.StringIO()
    write_header(buf)
    buf.write("\n")
    write_records(buf, [rec(tick=1)])
    buf.write("\n\n")
    rows = read_csv(io.StringIO(buf.getvalue()))
    assert [r.tick for r in rows] == [1]


def test_read_rejects_foreign_header():
    with pytest.raises(ValueError):
        read_csv(io.StringIO("algorithm,n,bogus\n"))


def test_read_rejects_truncated_row():
    line = rec().to_line()
    short = ",".join(line.split(",")[:-1])
    with pytest.raises(ValueError):
        read_csv(io.StringIO(short + "\n"))


def test_record_rejects_bad_error_ratio():
    with pytest.raises(ValueError):
        rec(err=-0.5)
    with pytest.raises(ValueError):
        rec(err=float("nan"))


def test_read_from_path(tmp_path):
    p = tmp_path / "rows.csv"
    with open(p, "w") as fh:
        write_header(fh)
        write_records(fh, [rec(tick=5)])
    assert read_csv(p)[0].tick == 5


def test_column_count_matches_record():
    assert len(COLUMNS) == 14
    assert rec().to_line().count(",") == 13


# ---------------------------------------------------------------- contract

@pytest.mark.parametrize("algo", ["hier", "boyd", "geo"])
def test_bulk_records_are_python_scalars_and_their_own_csv(algo):
    buf = io.StringIO()
    cfg = ExperimentConfig(algorithm=algo, n=64, seed=3, eps=0.01,
                           max_ticks=6_000, stride=100)
    series = run_experiment(cfg, csv_fh=buf).series
    assert len(series.records) >= 5
    for r in series.records:
        assert type(r) is MetricsRecord
        assert [type(v) for v in r] == [str] + [int] * 7 + [float] + [int] * 5
    assert read_csv(io.StringIO(buf.getvalue())) == series.records


def test_record_is_immutable_and_hashable():
    r = rec(tick=3, err=0.25)
    with pytest.raises(AttributeError):
        r.tick = 4
    with pytest.raises(AttributeError):
        r.extra = 1
    assert hash(r) == hash(rec(tick=3, err=0.25))
    assert len({r, rec(tick=3, err=0.25), rec(tick=4)}) == 2


def test_record_pickle_round_trip_still_validates():
    r = rec(algo="geo", tick=7, total=11, err=1.0 / 3.0)
    back = pickle.loads(pickle.dumps(r))
    assert type(back) is MetricsRecord and back == r
    assert back.to_line() == r.to_line()
    # Unpickling goes through the validating constructor.
    forged = tuple.__new__(MetricsRecord, (*r[:8], float("nan"), *r[9:]))
    with pytest.raises(ValueError):
        pickle.loads(pickle.dumps(forged))


def test_snapshot_of_a_nan_state_raises():
    st = build_state(ExperimentConfig(algorithm="boyd", n=64, seed=1))
    st.x[5] = float("nan")
    with pytest.raises(ValueError):
        engine.snapshot(st)


# --------------------------------------------------------------------- fit

def runs(algo, law, ns=(64, 128, 256, 512), seeds=(0, 1, 2)):
    """One converged series per (n, seed): crosses the target with `law(n)`
    transmissions on its second row."""
    rows = []
    for n in ns:
        for seed in seeds:
            rows.append(rec(algo, n, seed, tick=10, total=law(n) // 2,
                            err=0.5))
            rows.append(rec(algo, n, seed, tick=20, total=law(n), err=0.05))
            rows.append(rec(algo, n, seed, tick=30, total=2 * law(n),
                            err=0.01))
    return rows


def test_fit_recovers_quadratic_law():
    fits = fit_scaling(runs("boyd", lambda n: n * n), target=0.1)
    fit = fits["boyd"]
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-12)
    assert fit.excluded == ()
    assert fit.n_values == (64, 128, 256, 512)


def test_fit_ignores_constant_factor():
    fits = fit_scaling(runs("geo", lambda n: 7 * int(n ** 1.5)), target=0.1)
    assert fits["geo"].slope == pytest.approx(1.5, abs=2e-3)


def test_fit_of_no_records_raises():
    with pytest.raises(ValueError, match="at least one record, got none"):
        fit_scaling([], target=0.1)


def test_fit_uses_first_crossing():
    hits, excluded = transmissions_at_target(
        runs("hier", lambda n: 100 * n), target=0.1)
    assert excluded == []
    # the tick-20 row is the first at/below the target
    assert hits[("hier", 64, 0)] == 6400


def test_fit_is_row_order_invariant():
    rows = runs("boyd", lambda n: n * n)
    shuffled = rows[::-1]
    a = fit_scaling(rows, target=0.1)["boyd"]
    b = fit_scaling(shuffled, target=0.1)["boyd"]
    assert a == b


def test_fit_reports_unconverged_runs():
    rows = runs("hier", lambda n: n * n)
    rows.append(rec("hier", 1024, 9, tick=10, total=10, err=0.9))
    rows.append(rec("hier", 1024, 9, tick=20, total=20, err=0.8))
    fit = fit_scaling(rows, target=0.1)["hier"]
    assert (1024, 9) in fit.excluded
    assert 1024 not in fit.n_values


def test_fit_result_names_unconverged_runs():
    rows = runs("hier", lambda n: n * n, ns=(64, 128, 256), seeds=(0,))
    rows.append(rec("hier", 1024, 9, tick=10, total=10, err=0.9))
    rows.append(rec("hier", 512, 4, tick=10, total=10, err=0.9))
    text = str(fit_scaling(rows, target=0.1)["hier"])
    assert text.endswith("  [never reached target: n=512 seed=4, "
                         "n=1024 seed=9]")
    converged = runs("hier", lambda n: n * n, ns=(64, 128, 256), seeds=(0,))
    assert "never reached" not in str(fit_scaling(converged, 0.1)["hier"])


def test_fit_refuses_an_algorithm_that_never_reached_the_target():
    # boyd crosses 0.1 but never 0.001; geo never reaches either
    rows = runs("boyd", lambda n: n * n)
    rows += [rec("geo", n, 0, tick=10, total=n, err=0.5)
             for n in (64, 128, 256)]
    with pytest.raises(ValueError, match=r"^fit for 'geo' has no run that "
                                         r"reached target 0\.1$"):
        fit_scaling(rows, target=0.1)
    with pytest.raises(ValueError, match=r"^fit for 'boyd' .* 0\.001$"):
        fit_scaling(rows, target=0.001)


def test_fit_needs_three_sizes():
    rows = runs("boyd", lambda n: n * n, ns=(64, 128))
    with pytest.raises(ValueError):
        fit_scaling(rows, target=0.1)


def test_fit_refuses_a_zero_median():
    # A target met on each run's tick-0 row leaves 0 transmissions, whose
    # log is -inf; the fit names the algorithm and the first such n.
    rows = runs("boyd", lambda n: n * n, ns=(32, 64, 128))
    rows += [rec("boyd", n, seed, tick=0, total=0, err=1.0)
             for n in (64, 128) for seed in (0, 1, 2)]
    with pytest.raises(ValueError, match=r"'boyd'.* at n=64$"):
        fit_scaling(rows, target=1.0)


def test_fit_median_over_seeds():
    # seeds disagree; the median must drive the fit
    rows = []
    for n in (64, 128, 256):
        for seed, scale in ((0, 1), (1, 2), (2, 50)):
            rows.append(rec("boyd", n, seed, tick=10, total=scale * n * n,
                            err=0.05))
    fit = fit_scaling(rows, target=0.1)["boyd"]
    assert fit.medians == tuple(float(2 * n * n) for n in (64, 128, 256))
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
