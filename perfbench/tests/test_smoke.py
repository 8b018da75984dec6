"""Smoke test of the benchmark: every workload, check and traced run at toy
sizes.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def names(group):
    return [m["name"] for m in SPEC[group]]


@pytest.fixture(scope="module")
def smoke_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "results.json"
    proc = subprocess.run([sys.executable, str(RUN), "--smoke", "--out",
                           str(out)], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text())


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    every = [w["name"] for w in SPEC["workloads"]] + names("end_to_end") \
        + names("per_layer")
    assert len(every) == len(set(every))
    assert all(NAME.match(n) for n in every)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"]
                                              for m in SPEC["end_to_end"])


def test_every_workload_runs_and_passes_its_checks(smoke_results):
    runs = smoke_results["runs"]
    seen = {(r["workload"], r["trace"]) for r in runs}
    assert seen == {(w["name"], t) for w in SPEC["workloads"]
                    for t in (0, 1)}
    for run in runs:
        assert run["correct"], (run["workload"], run["problems"])
        assert run["failed"] == 0 and run["attempted"] >= 1
        want = names("per_layer" if run["trace"] else "end_to_end")
        assert list(run["metrics"]) == want


def test_end_to_end_metrics_are_never_zero(smoke_results):
    for run in smoke_results["runs"]:
        if not run["trace"]:
            for name, m in run["metrics"].items():
                assert m["value"] > 0, (run["workload"], name)


def test_traced_run_reaches_its_layers(smoke_results):
    layers = {r["workload"]: {k: v["value"] for k, v in r["metrics"].items()}
              for r in smoke_results["runs"] if r["trace"]}
    assert layers["hier-converge"]["engine.tx.flood"] > 0
    assert layers["hier-converge"]["engine.stride_samples"] > 0
    assert layers["hier-logged"]["engine.steps.near"] > 0
    assert layers["hier-logged"]["experiment.event_lines"] > 0
    assert layers["baselines-sweep"]["baselines.geo.tick_us"] > 0
    assert layers["baselines-sweep"]["hierarchy.cells"] == 0
    assert layers["kernel-verify"]["affine.updates_per_s"] > 0
    assert layers["kernel-verify"]["geometry.edges"] == 0


def test_every_timed_layer_is_measured(smoke_results):
    """Times of layers a workload never calls come from the probe passes,
    so no timed per-layer metric reads a constant 0."""
    timed = {m["name"] for m in SPEC["per_layer"]
             if m["unit"] in ("s", "ms", "us", "1/s")}
    for run in smoke_results["runs"]:
        if run["trace"]:
            zero = [k for k in timed if run["metrics"][k]["value"] == 0]
            assert not zero, (run["workload"], zero)
            assert set(run["probed"]) <= timed
    kv = [r for r in smoke_results["runs"]
          if r["trace"] and r["workload"] == "kernel-verify"][0]
    assert "geometry.build_graph_s" in kv["probed"]
    assert "affine.trajectories_s" not in kv["probed"]


def test_compare_refuses_mixed_backends(smoke_results, tmp_path):
    base = tmp_path / "base.json"
    other = tmp_path / "other.json"
    base.write_text(json.dumps(smoke_results))
    flipped = dict(smoke_results, environment=dict(
        smoke_results["environment"], backend="numba-or-numpy-other"))
    other.write_text(json.dumps(flipped))
    compare = ROOT / "perfbench" / "compare.py"
    same = subprocess.run([sys.executable, str(compare), str(base),
                           str(base)], capture_output=True, text=True)
    assert same.returncode == 0, same.stdout
    mixed = subprocess.run([sys.executable, str(compare), str(base),
                            str(other)], capture_output=True, text=True)
    assert mixed.returncode == 2
    assert "refusing" in mixed.stdout


def test_fails_without_the_program(tmp_path):
    """A checkout holding only the benchmark must fail, printing no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(SPEC["command"] + [
        "--workload", "kernel-verify", "--seed", "0", "--seconds", "1",
        "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
