"""Benchmark for geogossip: time and transmissions per workload, by layer.

One workload (run from the repository root; the last stdout line is the
JSON result):

    python3 perfbench/run.py --workload hier-converge --seed 0 \
        --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced pass.  Without --workload every workload runs, each in its
own single-threaded process, untraced and then traced, and the merged
results go to perfbench/out/results.json (compare two such files with
perfbench/compare.py).  --smoke runs everything at toy sizes in seconds.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

# One thread for any numerical library, before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# per-layer units of times and rates, as opposed to counts and ratios
TIME_UNITS = ("s", "ms", "us", "1/s")
WORKLOADS = ("hier-converge", "hier-logged", "baselines-sweep",
             "kernel-verify")


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_program():
    """Import geogossip from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import geogossip
    where = Path(geogossip.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"geogossip imported from {where}, not from "
                          f"{ROOT / 'src'}")
    return geogossip


def git_revision():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def manifest():
    """What ran: backend, versions, cores, revision, load at start."""
    import numpy
    from geogossip import _jit
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = "absent"
    return {
        "backend": "numpy" if _jit.NUMBA_DISABLED else "numba",
        "numba": numba_version,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git": git_revision(),
        "load1_start": os.getloadavg()[0],
    }


def metric_table(spec_metrics, values):
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec_metrics}


def run_one(args):
    import_program()
    import workloads
    spec = load_spec()
    env = manifest()
    size = "smoke" if args.smoke else "full"
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-s{args.seed}.tsv"
        timed = [m["name"] for m in spec["per_layer"]
                 if m["unit"] in TIME_UNITS]
        report, layers = workloads.trace_workload(
            args.workload, args.seed, size, spans_path=spans, timed=timed)
        metrics = metric_table(spec["per_layer"], layers)
    else:
        report = workloads.run_workload(args.workload, args.seed,
                                        args.seconds, size)[0]
        metrics = metric_table(spec["end_to_end"], report["e2e"])
    env["load1_end"] = os.getloadavg()[0]

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'}, "
          f"{report['passes']} pass(es))")
    probed = report.get("probed", [])
    for name, m in metrics.items():
        mark = "  (probe)" if name in probed else ""
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}{mark}")
    print(f"  {'failed_frac':<36} "
          f"{report['failed'] / report['attempted']:>16.6g} ratio")
    if not args.trace:
        print("  unscaled: " + ", ".join(
            f"{k} {report['raw'][k]:.6g} s"
            for k in ("wall_s", "setup_s", "run_s")))
    for problem in report["problems"]:
        print(f"  FAILED CHECK: {problem}")
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, size=size, environment=env,
                  problems=report["problems"], probed=probed,
                  raw_seconds=report.get("raw"))
    path = OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, untraced then traced."""
    runs = []
    for workload in WORKLOADS:
        for seed in args.seeds:
            for trace in (0, 1):
                cmd = [sys.executable, str(HERE / "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
                if args.smoke:
                    cmd.append("--smoke")
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                      text=True)
                sys.stderr.write(proc.stderr)
                if proc.returncode != 0:
                    print(proc.stdout)
                    print(f"{workload} seed {seed} trace {trace}: exit "
                          f"{proc.returncode}")
                    return 1
                print("\n".join(proc.stdout.splitlines()[1:-1]))
                runs.append(json.loads(
                    (OUT / f"{workload}-s{seed}-t{trace}.json").read_text()))
    merged = {"environment": runs[0]["environment"], "runs": runs,
              "written": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(merged, indent=1) + "\n")
    bad = [f"{r['workload']} seed {r['seed']} trace {r['trace']}"
           for r in runs if not r["correct"]]
    print(f"wrote {args.out}; "
          f"{'all checks passed' if not bad else 'FAILED: ' + ', '.join(bad)}")
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]))
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", type=lambda t: [int(v) for v in
                                                   t.split(",")],
                        default=[0], help="comma list, all-workload mode")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes: every path in a few seconds")
    parser.add_argument("--out", type=Path, default=OUT / "results.json")
    args = parser.parse_args(argv)
    if args.seed < 0 or min(args.seeds) < 0:
        parser.error("seeds must be >= 0")
    if args.seconds is None:
        args.seconds = 0 if args.smoke else load_spec()["run_seconds"]
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
