"""Per-iteration diagnostics rows and their CSV serialization."""

from __future__ import annotations

from typing import NamedTuple


class TraceRow(NamedTuple):
    k: int
    step_norm: float
    # the residuals the stop rule tests, under their own names
    stationarity: float
    consensus_edge: float
    feasibility: float
    complementarity: float     # nan for equality-coupled runs
    inner_iterations: int
    mu: float
    certified: float           # inner certificate bound; 0.0 for exact solves


TRACE_COLUMNS = TraceRow._fields


def write_trace_csv(path, rows) -> None:
    """Plain CSV, fixed column order, LF line endings.  Floats print as
    ``repr(float)`` does (shortest round trip, '.' whatever the locale), a
    numpy float64 too; a non-float in a float column, or a non-integer in
    an integer one, raises."""
    r = float.__repr__
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        fh.writelines(
            f"{k:d},{r(step)},{r(stat)},{r(edge)},{r(feas)},{r(comp)},"
            f"{inner:d},{r(mu)},{r(cert)}\n"
            for k, step, stat, edge, feas, comp, inner, mu, cert in rows)
