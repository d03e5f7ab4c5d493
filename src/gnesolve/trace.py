"""Per-iteration diagnostics rows and their CSV serialization."""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class TraceRow:
    k: int
    step_norm: float
    consensus_error: float
    feasibility: float
    stationarity: float
    complementarity: float     # nan for equality-coupled runs
    inner_iterations: int
    mu: float
    certified: float           # inner certificate bound; 0.0 for exact solves

    def as_tuple(self):
        return tuple(getattr(self, f.name) for f in fields(self))


TRACE_COLUMNS = tuple(f.name for f in fields(TraceRow))


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    # repr keeps the shortest round-trip form with a '.' decimal separator,
    # independent of locale
    return repr(float(value))


def write_trace_csv(path, rows) -> None:
    """Plain CSV, fixed column order, LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(v) for v in row.as_tuple()])


def read_trace_csv(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))
