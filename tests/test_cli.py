"""Command-line entry points and exit codes."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geogossip
from geogossip import affine, experiment, read_csv
from geogossip.cli import _merged_config, build_parser, main
from geogossip.experiment import ExperimentConfig


def test_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["simulate", "--algorithm", "boyd", "--n", "64",
                 "--seed", "0", "--eps", "0.2", "--max-ticks", "100000",
                 "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert f"wrote {out}" in captured.out
    assert "boyd n=64 seed=0" in captured.out
    rows = read_csv(out)
    assert rows and rows[0].algorithm == "boyd"
    assert rows[0].tick == 0 and rows[0].err_l2_ratio == pytest.approx(1.0)


def test_simulate_is_byte_deterministic(tmp_path, capsys):
    args = ["simulate", "--algorithm", "hier", "--n", "64", "--seed", "3",
            "--threshold", "16", "--eps", "0.15", "--max-ticks", "300000"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_simulate_requires_seed(tmp_path, capsys):
    code = main(["simulate", "--algorithm", "boyd", "--n", "64",
                 "--output", str(tmp_path / "x.csv")])
    captured = capsys.readouterr()
    assert code == 1
    assert "seed is required" in captured.err


def test_config_file_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("algorithm = boyd\nn = 64\neps = 0.2\n"
                   "output = unused.csv\nmax_ticks = 100000\n")
    out = tmp_path / "real.csv"
    code = main(["simulate", "--config", str(cfg), "--seed", "1",
                 "--output", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.exists()


def test_bad_config_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 64\nwidth = 9\n")
    code = main(["simulate", "--config", str(cfg), "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "line 2" in captured.err


def test_empty_cell_exits_one(capsys):
    # threshold 1 forces splitting to expected counts of one; with more
    # cells than sensors some cell must come up empty
    code = main(["dump-hierarchy", "--n", "64", "--seed", "0",
                 "--threshold", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "no sensors" in captured.err


@pytest.mark.parametrize("command", ["simulate", "dump-hierarchy"])
def test_unclaimable_representative_exits_one(tmp_path, capsys, command):
    # four sensors cannot staff the squares threshold 1 asks for: some
    # square's members are all claimed by representatives above it
    args = [command, "--n", "4", "--seed", "1", "--threshold", "1"]
    if command == "simulate":
        args += ["--output", str(tmp_path / "x.csv")]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: no unclaimed member left")


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_failed_build_leaves_output_files_alone(tmp_path, capsys, command):
    # The hierarchy fails to build (as above) before anything is written:
    # an existing output keeps its bytes and a missing one stays missing.
    args = ([command, "--n", "4", "--seed", "1"] if command == "simulate"
            else [command, "--ns", "4", "--seeds", "1"])
    args += ["--threshold", "1"]
    out = tmp_path / "kept.csv"
    out.write_bytes(b"earlier run\n")
    log = tmp_path / "absent.log"
    extra = ["--event-log", str(log)] if command == "simulate" else []
    code = main(args + ["--output", str(out)] + extra)
    capsys.readouterr()
    assert code == 1
    assert out.read_bytes() == b"earlier run\n"
    assert not log.exists()
    fresh = tmp_path / "fresh.csv"
    code = main(args + ["--output", str(fresh)])
    capsys.readouterr()
    assert code == 1
    assert not fresh.exists()


def test_fault_threshold_exits_three(tmp_path, capsys):
    out = tmp_path / "faulty.csv"
    code = main(["simulate", "--algorithm", "hier", "--n", "64",
                 "--seed", "1", "--radius-c", "0.9", "--threshold", "16",
                 "--eps", "0.05", "--max-ticks", "60000",
                 "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert "exceed limit" in captured.err
    assert out.exists()   # the series is still written for inspection


def test_sweep_fault_threshold_exits_three(tmp_path, capsys):
    out = tmp_path / "faulty.csv"
    code = main(["sweep", "--algorithms", "hier", "--ns", "64",
                 "--seeds", "1", "--radius-c", "0.9", "--threshold", "16",
                 "--eps", "0.05", "--max-ticks", "60000",
                 "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert "exceed limit" in captured.err
    assert read_csv(out)


def test_fault_limit_flag_tolerates(tmp_path, capsys):
    out = tmp_path / "tolerated.csv"
    code = main(["simulate", "--algorithm", "hier", "--n", "64",
                 "--seed", "1", "--radius-c", "0.9", "--threshold", "16",
                 "--eps", "0.05", "--max-ticks", "60000",
                 "--fault-limit", "1000", "--output", str(out)])
    capsys.readouterr()
    assert code == 0


def test_sweep_runs_grid(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = main(["sweep", "--algorithms", "boyd,geo", "--ns", "64",
                 "--seeds", "0,1", "--eps", "0.2", "--max-ticks", "200000",
                 "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.count("stop=") == 4
    rows = read_csv(out)
    keys = {(r.algorithm, r.n, r.seed) for r in rows}
    assert keys == {("boyd", 64, 0), ("boyd", 64, 1),
                    ("geo", 64, 0), ("geo", 64, 1)}


def test_sweep_records_a_run_that_cannot_build(tmp_path, capsys):
    # at threshold 4, seed 0 leaves a depth-2 cell empty and seed 1
    # builds: the sweep names seed 0, keeps seed 1's rows and exits 1
    out = tmp_path / "partial.csv"
    code = main(["sweep", "--ns", "64", "--seeds", "0,1", "--threshold",
                 "4", "--max-ticks", "20000", "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == [
        "error: hier n=64 seed=0: cell 0.1 at depth 2 has no sensors; "
        "resample the points or raise the leaf threshold"]
    assert captured.out.count("stop=") == 1
    lines = out.read_text().splitlines()
    assert sum(ln.startswith("algorithm,") for ln in lines) == 1
    assert lines[0].startswith("algorithm,")
    rows = read_csv(out)
    assert len(rows) == len(lines) - 1
    assert {(r.algorithm, r.n, r.seed) for r in rows} == {("hier", 64, 1)}


def test_sweep_rejects_bad_ns(capsys):
    code = main(["sweep", "--ns", "64,big", "--seeds", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "bad n list" in captured.err
    code = main(["sweep", "--ns", ",", "--seeds", "0"])
    assert code == 1
    assert ("config error: sweep needs at least one n and one seed"
            in capsys.readouterr().err)


def test_fit_command(tmp_path, capsys):
    # synthetic converged runs following an exact square law
    from geogossip.metrics import write_header
    from conftest import write_records
    from test_metrics import rec
    p = tmp_path / "fit.csv"
    with open(p, "w") as fh:
        write_header(fh)
        for n in (64, 128, 256):
            for seed in (0, 1):
                write_records(fh, [rec("boyd", n, seed, tick=9,
                                       total=n * n, err=0.05)])
    code = main(["fit", "--csv", str(p), "--target", "0.1"])
    captured = capsys.readouterr()
    assert code == 0
    assert "boyd: slope 2.0000" in captured.out


def test_fit_needs_enough_sizes(tmp_path, capsys):
    from geogossip.metrics import write_header
    from conftest import write_records
    from test_metrics import rec
    p = tmp_path / "thin.csv"
    with open(p, "w") as fh:
        write_header(fh)
        write_records(fh, [rec("boyd", 64, 0, tick=9, total=99, err=0.05)])
    code = main(["fit", "--csv", str(p), "--target", "0.1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "needs >= 3 distinct n" in captured.err


def test_fit_of_foreign_csv_exits_one(tmp_path, capsys):
    p = tmp_path / "foreign.csv"
    p.write_text("algorithm,n,bogus\n")
    code = main(["fit", "--csv", str(p)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: unexpected header")


def test_kernel_verify_exits_zero(capsys):
    code = main(["kernel-verify", "--trials", "300"])
    captured = capsys.readouterr()
    assert code == 0
    assert "all kernel checks passed" in captured.out
    assert captured.out.count("pass") >= 6


def test_kernel_verify_failure_exits_two(monkeypatch, capsys):
    row = experiment.VerifyRow("mc-tail-probability", 32, 10, 0.5, 0.1,
                               False)
    monkeypatch.setattr(experiment, "kernel_verify", lambda **kw: [row])
    code = main(["kernel-verify"])
    captured = capsys.readouterr()
    assert code == 2
    assert "FAIL" in captured.out
    assert "all kernel checks passed" not in captured.out
    monkeypatch.undo()
    # The real table fails its own row when validate_alpha accepts any
    # weights.
    monkeypatch.setattr(affine, "validate_alpha",
                        lambda alpha: np.asarray(alpha, dtype=float))
    code = main(["kernel-verify", "--trials", "0"])
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.endswith("FAIL")]
    assert code == 2
    assert len(failed) == 1 and failed[0].startswith("alpha-rejection ")


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "64", "--seed", "-1", "--max-ticks", "10"],
    ["sweep", "--ns", "64", "--seeds", "-1", "--max-ticks", "10"],
    ["sweep", "--ns", "64,128", "--seeds", "0,-1", "--max-ticks", "10"],
    ["kernel-verify", "--trials", "0", "--seed", "-1"],
    ["dump-hierarchy", "--n", "64", "--seed", "-1", "--threshold", "16"],
], ids=["simulate", "sweep", "sweep-grid", "kernel-verify", "dump-hierarchy"])
def test_negative_seed_is_a_config_error(tmp_path, monkeypatch, capsys,
                                         argv):
    # A config error (or, for a plain --seed flag, a usage error) exits 1
    # with a one-line message; a sweep fails before any run writes.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "200")   # argparse's usage on one line
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    message = [line for line in err.splitlines()
               if not line.startswith("usage:")]
    assert len(message) == 1
    assert message[0].endswith("seed must be >= 0, got -1")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["simulate", "--algorithm", "foo", "--seed", "1"],
    ["kernel-verify", "--trials", "x"],
    ["kernel-verify", "--trials", "1"],
    ["kernel-verify", "--trials", "-5"],
    ["sweep", "--seeds", "1"],
], ids=["bad-choice", "bad-int", "one-trial", "negative-trials",
        "missing-required"])
def test_usage_error_exits_one(argv, capsys):
    # exit code 2 is reserved for a failed verification
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kernel-verify", "--help"])
    assert exc.value.code == 0
    assert "--trials" in capsys.readouterr().out


def _flag_value(field):
    # A valid value for the config key that differs from its default.
    default = field.default
    if field.name in experiment.CHOICES:
        return next(c for c in experiment.CHOICES[field.name] if c != default)
    if field.type is bool:
        return not default
    if field.type is str:
        return "out.csv"
    if not default:
        return field.type(2)
    return default / 2 if field.type is float else default // 2


@pytest.mark.parametrize("field", dataclasses.fields(ExperimentConfig),
                         ids=lambda f: f.name)
def test_every_config_key_has_a_round_tripping_flag(field):
    value = _flag_value(field)
    assert value != field.default
    flag = "--" + field.name.replace("_", "-")
    argv = ["simulate", "--seed", "1", flag]
    if field.type is not bool:
        argv.append(str(value))
    args = build_parser().parse_args(argv)
    cfg = _merged_config(args)
    assert getattr(cfg, field.name) == value
    assert type(getattr(cfg, field.name)) is type(value)


def test_dump_hierarchy_command(capsys):
    code = main(["dump-hierarchy", "--n", "100", "--seed", "5",
                 "--threshold", "10000"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("/ depth=0 expected=100 count=100")


@pytest.mark.parametrize("n, threshold, message", [
    ("64", "0.5", "leaf threshold must be >= 1"),
    ("0", "16", "need at least one point"),
])
def test_dump_hierarchy_bad_input_exits_one(capsys, n, threshold, message):
    code = main(["dump-hierarchy", "--n", n, "--seed", "0",
                 "--threshold", threshold])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: {message}")


def test_event_log_flag(tmp_path, capsys):
    out = tmp_path / "ev.csv"
    log = tmp_path / "events.log"
    code = main(["simulate", "--algorithm", "boyd", "--n", "64",
                 "--seed", "0", "--eps", "0.0001", "--max-ticks", "500",
                 "--output", str(out), "--event-log", str(log)])
    capsys.readouterr()
    assert code == 0
    lines = log.read_text().splitlines()
    assert len(lines) == 500
    assert lines[0].split()[2] == "near"


def test_installed_script_smoke():
    # the child imports geogossip from wherever this process found it
    src = str(Path(geogossip.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "geogossip.cli", "dump-hierarchy",
         "--n", "50", "--seed", "1", "--threshold", "1000"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("/ depth=0")

