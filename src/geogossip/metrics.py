"""Metrics rows, CSV serialization, and log-log scaling fits.

The CSV schema is fixed: one header line, then one row per MetricsRecord
with its fields in declaration order (COLUMNS).  Floats are written with
repr (shortest round-trip form) so identical runs produce byte-identical
files.
"""

import csv
import math
from dataclasses import dataclass, fields

import numpy as np


@dataclass(frozen=True)
class MetricsRecord:
    """One time-series row of a simulation run."""

    algorithm: str
    n: int
    seed: int
    tick: int
    transmissions_total: int
    transmissions_near: int
    transmissions_far_routing: int
    transmissions_control: int
    err_l2_ratio: float
    fault_routing: int
    fault_isolated_near: int
    fault_concurrent_round: int
    fault_flood_gap: int
    fault_geo_reject: int

    def __post_init__(self) -> None:
        if not (self.err_l2_ratio >= 0.0):
            raise ValueError(
                f"err_l2_ratio must be >= 0, got {self.err_l2_ratio}")

    def to_line(self) -> str:
        parts = []
        for f in fields(self):
            v = getattr(self, f.name)
            parts.append(repr(v) if isinstance(v, float) else str(v))
        return ",".join(parts)


# The CSV columns are MetricsRecord's fields, in order; each cell parses
# with its field's type.
COLUMNS = tuple(f.name for f in fields(MetricsRecord))
_COLUMN_TYPES = tuple(f.type for f in fields(MetricsRecord))
HEADER_LINE = ",".join(COLUMNS)


def record_from_row(row: list) -> MetricsRecord:
    if len(row) != len(COLUMNS):
        raise ValueError(
            f"expected {len(COLUMNS)} columns, got {len(row)}: {row!r}")
    return MetricsRecord(*(t(v) for t, v in zip(_COLUMN_TYPES, row)))


def write_header(fh) -> None:
    fh.write(HEADER_LINE + "\n")


def write_records(fh, records) -> None:
    for rec in records:
        fh.write(rec.to_line() + "\n")


def read_csv(path) -> list:
    """Read metrics rows from a path or an open text stream.

    Repeated header lines (sweep concatenation) are skipped.
    """
    if hasattr(path, "read"):
        return _read_rows(path)
    with open(path, newline="") as fh:
        return _read_rows(fh)


def _read_rows(fh) -> list:
    out = []
    for row in csv.reader(fh):
        if not row:
            continue
        if row[0] == "algorithm":
            if tuple(row) != COLUMNS:
                raise ValueError(f"unexpected header: {row!r}")
            continue
        out.append(record_from_row(row))
    return out


@dataclass(frozen=True)
class FitResult:
    """Fitted log-log exponent for one algorithm."""

    algorithm: str
    slope: float
    stderr: float
    n_values: tuple
    medians: tuple
    excluded: tuple

    def __str__(self) -> str:
        pts = ", ".join(f"n={n}: {m:.6g}"
                        for n, m in zip(self.n_values, self.medians))
        line = (f"{self.algorithm}: slope {self.slope:.4f}"
                f" +- {self.stderr:.4f}  ({pts})")
        if self.excluded:
            misses = ", ".join(f"n={n} seed={s}" for n, s in self.excluded)
            line += f"  [never reached target: {misses}]"
        return line


def transmissions_at_target(records, target: float):
    """Per run, total transmissions at the first row at/below target ratio.

    Returns (hits, excluded): hits maps (algorithm, n, seed) -> transmissions,
    excluded lists runs whose series never reached the target.
    """
    runs = {}
    for rec in records:
        runs.setdefault((rec.algorithm, rec.n, rec.seed), []).append(rec)
    hits = {}
    excluded = []
    for key, rows in sorted(runs.items()):
        rows.sort(key=lambda r: r.tick)
        for rec in rows:
            if rec.err_l2_ratio <= target:
                hits[key] = rec.transmissions_total
                break
        else:
            excluded.append(key)
    return hits, excluded


def fit_scaling(records, target: float) -> dict:
    """Least-squares slope of log(transmissions to target) against log n.

    Per algorithm, the transmissions at the first record reaching the target
    are reduced to a median over seeds for each n, then a line is fitted in
    log-log coordinates.  Runs that never reach the target are excluded from
    the fit and reported in the result.

    Args:
        records: MetricsRecord iterable (any row order).
        target: error ratio defining "converged".

    Returns:
        dict algorithm -> FitResult.

    Raises:
        ValueError: if an algorithm has fewer than 3 distinct n with data.
    """
    hits, excluded = transmissions_at_target(records, target)
    by_algo = {}
    for (algo, n, seed), total in hits.items():
        by_algo.setdefault(algo, {}).setdefault(n, []).append(total)
    results = {}
    for algo in sorted(by_algo):
        per_n = by_algo[algo]
        ns = sorted(per_n)
        if len(ns) < 3:
            raise ValueError(
                f"fit for {algo!r} needs >= 3 distinct n, got {len(ns)}")
        medians = [float(np.median(per_n[n])) for n in ns]
        logn = np.log(np.asarray(ns, dtype=np.float64))
        logt = np.log(np.asarray(medians, dtype=np.float64))
        slope, stderr = _ols_slope(logn, logt)
        misses = tuple((n, s) for a, n, s in excluded if a == algo)
        results[algo] = FitResult(algorithm=algo, slope=slope, stderr=stderr,
                                  n_values=tuple(ns), medians=tuple(medians),
                                  excluded=misses)
    return results


def _ols_slope(x: np.ndarray, y: np.ndarray):
    m = x.shape[0]
    xm = x - x.mean()
    sxx = float(xm @ xm)
    slope = float(xm @ (y - y.mean())) / sxx
    resid = y - y.mean() - slope * xm
    ssr = float(resid @ resid)
    if m > 2:
        stderr = math.sqrt(max(ssr, 0.0) / (m - 2) / sxx)
    else:
        stderr = 0.0
    return slope, stderr
