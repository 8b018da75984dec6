"""Compare two result files written by `perfbench/run.py` (all-workload mode).

    python3 perfbench/compare.py BASE.json NEW.json

Per workload and end-to-end metric: the median over seeds on each side, the
change as a share of the base median, and whether it stays within the bound
that BENCHMARK.json fixes.  Results from different backends (numba against
interpreted) measure different programs and are refused.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def medians(results):
    """{(workload, metric): median over seeds} from untraced runs."""
    values = {}
    for run in results["runs"]:
        if run["trace"]:
            continue
        for name, m in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(m["value"])
    return {key: statistics.median(v) for key, v in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text())
    new = json.loads(args.new.read_text())
    b_env, n_env = base["environment"], new["environment"]
    if b_env["backend"] != n_env["backend"]:
        print(f"refusing to compare: backend {b_env['backend']} against "
              f"{n_env['backend']}")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    b_med, n_med = medians(base), medians(new)
    worse = 0
    print(f"base {b_env['git'][:12]}  new {n_env['git'][:12]}  "
          f"backend {b_env['backend']}")
    for workload in sorted({w for w, _ in b_med}):
        for m in spec["end_to_end"]:
            key = (workload, m["name"])
            if key not in b_med or key not in n_med:
                continue
            b, n = b_med[key], n_med[key]
            change = (n - b) / b
            loss = change if m["better"] == "lower" else -change
            verdict = "WORSE" if loss > m["bound"] else "ok"
            worse += verdict == "WORSE"
            print(f"{workload:<16} {m['name']:<16} {b:>14.6g} {n:>14.6g} "
                  f"{change:>+8.1%} {m['unit']:<6} bound {m['bound']:.0%} "
                  f"{verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
