"""Command-line interface.

Subcommands:
    simulate        run one configured simulation, write metrics CSV
    sweep           run an algorithm x n x seed grid into one CSV
    fit             fit log-log scaling exponents from a metrics CSV
    kernel-verify   run the numerical kernel oracle/bound table
    dump-hierarchy  print the square partition for a sampled point set

Exit codes: 0 success, 1 configuration or usage error, 2 verification
failure, 3 delivery-fault threshold exceeded.
"""

import argparse
import contextlib
import dataclasses
import sys

from . import experiment, metrics
from .geometry import sample_points
from .hierarchy import build_hierarchy, dump_hierarchy

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_FAULTS = 3


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_CONFIG; EXIT_VERIFY (argparse's own code 2)
    means a failed verification.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


_CONFIG_FIELDS = dataclasses.fields(experiment.ExperimentConfig)


def _add_override_flags(p: argparse.ArgumentParser) -> None:
    # One flag per config key, dashes for underscores; an unset flag is
    # None and leaves the key as the config file (or default) has it.
    p.add_argument("--config", help="key=value config file")
    for f in _CONFIG_FIELDS:
        flag = "--" + f.name.replace("_", "-")
        if f.type is bool:
            p.add_argument(flag, dest=f.name, action="store_const",
                           const=True)
        else:
            p.add_argument(flag, dest=f.name, type=f.type,
                           choices=experiment.CHOICES.get(f.name))


def _merged_config(args) -> experiment.ExperimentConfig:
    cfg = experiment.ExperimentConfig()
    if args.config:
        cfg = experiment.load_config(args.config, cfg)
    overrides = {f.name: getattr(args, f.name) for f in _CONFIG_FIELDS}
    return experiment.apply_overrides(cfg, overrides)


def _cmd_simulate(args) -> int:
    cfg = _merged_config(args)
    # Build first: inputs that cannot carry a hierarchy must fail before
    # an output file is opened, so they leave any earlier file intact.
    state = experiment.build_state(cfg)
    out_path = cfg.output or "metrics.csv"
    with contextlib.ExitStack() as files:
        csv_fh = files.enter_context(open(out_path, "w"))
        event_fh = None
        if args.event_log:
            event_fh = files.enter_context(open(args.event_log, "w"))
        result = experiment.run_experiment(cfg, csv_fh=csv_fh,
                                           event_fh=event_fh, state=state)
    print(result.summary)
    print(f"wrote {out_path}")
    if result.delivery_faults() > cfg.fault_limit:
        print(f"delivery faults {result.delivery_faults()} exceed limit "
              f"{cfg.fault_limit}", file=sys.stderr)
        return EXIT_FAULTS
    return EXIT_OK


def _parse_int_list(text: str, what: str) -> list:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise experiment.ConfigError(f"bad {what} list {text!r}: {exc}")


class _OpenOnWrite:
    """Text file opened for writing at its first write, so a run that fails
    before it writes leaves an earlier file at that path as it was."""

    def __init__(self, path):
        self.path = path
        self.fh = None

    def write(self, text):
        if self.fh is None:
            self.fh = open(self.path, "w")
        return self.fh.write(text)

    def flush(self):
        if self.fh is not None:
            self.fh.flush()

    def close(self):
        if self.fh is not None:
            self.fh.close()


def _cmd_sweep(args) -> int:
    cfg = _merged_config(args)
    ns = _parse_int_list(args.ns, "n")
    seeds = _parse_int_list(args.seeds, "seed")
    if not ns or not seeds:
        raise experiment.ConfigError("sweep needs at least one n and one "
                                     "seed")
    algorithms = None
    if args.algorithms:
        algorithms = [tok.strip() for tok in args.algorithms.split(",")
                      if tok.strip()]
    out_path = cfg.output or "sweep.csv"
    # Each run builds its state before writing its first row, so a grid
    # none of whose runs can build leaves an earlier file intact.
    with contextlib.closing(_OpenOnWrite(out_path)) as csv_fh:
        results = experiment.sweep(cfg, ns, seeds, algorithms=algorithms,
                                   csv_fh=csv_fh)
    worst = 0
    built = [r for r in results if r.error is None]
    for result in results:
        if result.error is not None:
            run = result.config
            print(f"error: {run.algorithm} n={run.n} seed={run.seed}: "
                  f"{result.error}", file=sys.stderr)
            continue
        print(result.summary)
        worst = max(worst, result.delivery_faults())
    if built:
        print(f"wrote {out_path} ({len(built)} runs)")
    if len(built) < len(results):
        return EXIT_CONFIG
    if worst > cfg.fault_limit:
        print(f"delivery faults {worst} exceed limit {cfg.fault_limit}",
              file=sys.stderr)
        return EXIT_FAULTS
    return EXIT_OK


def _cmd_fit(args) -> int:
    try:
        fits = metrics.fit_scaling(metrics.read_csv(args.csv), args.target)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for algo in sorted(fits):
        print(fits[algo])
    return EXIT_OK


def _trial_count(text: str) -> int:
    # kernel_verify's own check, raised as a usage error.
    try:
        return experiment.trial_count(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seed(text: str) -> int:
    # ExperimentConfig.validate's seed check, raised as a usage error.
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def _cmd_kernel_verify(args) -> int:
    rows = experiment.kernel_verify(trials=args.trials, seed=args.seed)
    ok = True
    for row in rows:
        print(row)
        ok = ok and row.passed
    if not ok:
        return EXIT_VERIFY
    print("all kernel checks passed")
    return EXIT_OK


def _cmd_dump_hierarchy(args) -> int:
    try:
        hierarchy = build_hierarchy(sample_points(args.n, args.seed),
                                    args.threshold)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(dump_hierarchy(hierarchy))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="geogossip",
        description="Gossip averaging simulators on geometric random "
                    "graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one simulation")
    _add_override_flags(p)
    p.add_argument("--event-log", help="write a line-per-event log "
                                       "(tick node action target "
                                       "transmission-count)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="run a grid of simulations")
    _add_override_flags(p)
    p.add_argument("--ns", required=True, help="comma-separated n values")
    p.add_argument("--seeds", required=True,
                   help="comma-separated seed values")
    p.add_argument("--algorithms",
                   help="comma-separated subset of hier,boyd,geo")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fit", help="fit scaling exponents from a CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--target", type=float, default=0.1,
                   help="error ratio defining convergence (default 0.1)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("kernel-verify", help="check the averaging kernel "
                                             "against oracles and bounds")
    p.add_argument("--trials", type=_trial_count, default=2000)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_kernel_verify)

    p = sub.add_parser("dump-hierarchy", help="print the square partition")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.set_defaults(func=_cmd_dump_hierarchy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except experiment.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except experiment.BUILD_ERRORS + (OSError,) as exc:
        # The sampled points cannot carry the hierarchy, or a file failed.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
