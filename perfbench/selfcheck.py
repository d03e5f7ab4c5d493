"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Shows that every answer check accepts a real answer and rejects a perturbed
one, that span self times add up to the traced wall time, and that a
traced run skips and reports a name the program no longer has.  The
published games run with ``inner.mode = residual`` here, which reaches the
same stopping tolerance in about a fifth of the time.  Exits 1 if any
check fails.
"""

from __future__ import annotations

import json
import time

import numpy as np

import run
import spans
import workloads

OUT = run.OUT / "selfcheck"
RESULTS = []


def verdict(label: str, ok: bool) -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}: {label}")


def solve(cli, inst):
    with run.capturing(cli) as results:
        code = run.gnesolve(cli, "run", str(inst.config))
    if code != 0 or len(results) != 1:
        raise RuntimeError(f"{inst.name}: gnesolve run exited {code}")
    return results[0].state.x.copy(), results[0].state.lam.copy()


def check_answers(cli, inst, perturbations: dict) -> None:
    """The real answer passes; each perturbed one fails."""
    x, lam = solve(cli, inst)
    verdict(f"{inst.name}: answer passes its check",
            inst.check(x, lam, inst.out_dir) == [])
    for label, perturb in perturbations.items():
        bad_x, bad_lam = perturb(x.copy(), lam.copy())
        problems = inst.check(bad_x, bad_lam, inst.out_dir)
        verdict(f"{inst.name}: {label} is rejected ({'; '.join(problems)})",
                problems != [])


def shift_x(i, by):
    def perturb(x, lam):
        x[i] += by
        return x, lam
    return perturb


def shift_lam(row, by):
    def perturb(x, lam):
        lam[row] += by
        return x, lam
    return perturb


def shift_all_lam(by):
    def perturb(x, lam):
        return x, lam + by
    return perturb


def published(workload):
    inst = workloads.build(workload, OUT / workload, 0)[0]
    with open(inst.config, "a", encoding="utf-8") as fh:
        fh.write("inner.mode = residual\n")
    return inst


def answer_checks(cli) -> None:
    equality, inequality = workloads.build("quadratic-sweep", OUT / "quadratic", 0)[:2]
    for inst in (equality, inequality):
        check_answers(cli, inst, {
            "decision moved by 1e-3": shift_x(0, 1e-3),
            "shared multiplier moved by 1e-3": shift_all_lam(1e-3),
            "one local multiplier moved by 1e-3": shift_lam(1, 1e-3),
        })
    check_answers(cli, published("rate-control"), {
        "one rate raised by 1e-2": shift_x(0, 1e-2),
        "all rates scaled by 1.01 (capacity exceeded)":
            lambda x, lam: (1.01 * x, lam),
        "shared multiplier moved by 1e-2": shift_all_lam(1e-2),
        "one local multiplier moved by 1e-2": shift_lam(3, 1e-2),
    })
    check_answers(cli, published("task-allocation"), {
        "one allocation moved by 1e-2": shift_x(5, 1e-2),
        "shared multiplier moved by 1e-2": shift_all_lam(1e-2),
        "one local multiplier moved by 1e-2": shift_lam(3, 1e-2),
    })


def synthetic_self_times() -> None:
    """Known nesting: outer calls inner twice, inner calls leaf once."""
    rec = spans.Recorder()

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    leaf = rec.wrap("games.leaf", lambda: busy(0.002))

    def inner_body():
        busy(0.001)
        leaf()
    inner = rec.wrap("params.inner", inner_body)

    def outer_body():
        inner()
        busy(0.003)
        inner()
    outer = rec.wrap("cli.outer", outer_body)
    outer()
    outer()
    name, parent, dur = rec.arrays()
    own = rec.self_times()
    roots = dur[parent < 0].sum()
    verdict("synthetic spans: 2 roots, 4 inner, 4 leaves",
            list(np.bincount(name)) == [4, 4, 2])
    verdict("synthetic spans: self times sum to the root durations",
            abs(own.sum() - roots) <= 1e-12 * roots)
    leaf_ids = name == rec.name_id("games.leaf")
    verdict("synthetic spans: a leaf's self time is its duration",
            np.array_equal(own[leaf_ids], dur[leaf_ids]))
    inner_ids = name == rec.name_id("params.inner")
    verdict("synthetic spans: inner self time excludes its leaf (about 1 ms)",
            bool(np.all((own[inner_ids] > 0.0009) & (own[inner_ids] < 0.0019))))
    verdict("synthetic spans: descendants of cli are marked",
            list(rec.under("cli")) == [n != rec.name_id("cli.outer") for n in name])


def traced_balance(cli) -> None:
    instances = workloads.build("quadratic-sweep", OUT / "quadratic", 0)[:4]
    tally = run.Tally()
    untraced, outcomes = run.timed_round(cli, instances)
    run.check_round(outcomes, tally)
    rec = spans.Recorder()
    with spans.Patches(rec) as patches:
        traced, outcomes = run.timed_round(cli, instances)
    run.check_round(outcomes, tally)
    values = spans.layer_metrics(rec, traced, untraced)
    verdict("traced quadratic round: every answer passes", tally.failed == 0)
    verdict(f"traced quadratic round: no name missing ({patches.missing})",
            patches.missing == [])
    verdict("traced quadratic round: module self times plus the unattributed "
            "remainder add up to the traced run_s",
            abs(spans.self_time_balance(values)) <= 1e-9 * traced)
    verdict("traced quadratic round: every per-layer metric is reported",
            list(values) == list(spans.LAYER_UNITS))
    gnesolve = __import__("gnesolve")
    verdict("originals restored after the traced round",
            gnesolve.cli.run_admm is gnesolve.admm.run_admm
            and not hasattr(gnesolve.games.Game.pseudo_gradient, "__wrapped__"))


def missing_names() -> None:
    rec = spans.Recorder()
    targets = {"games": ["Game.pseudo_gradient", "Game.no_such_method", "no_such_function"],
               "no_such_module": ["anything"]}
    with spans.Patches(rec, targets=targets) as patches:
        pass
    verdict("missing names are skipped and reported",
            patches.missing == ["games.Game.no_such_method", "games.no_such_function",
                                "no_such_module"])


def benchmark_file() -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    verdict("BENCHMARK.json lists the per-layer metrics the traced run reports",
            [(m["name"], m["unit"]) for m in bench["per_layer"]]
            == list(spans.LAYER_UNITS.items()))
    verdict("BENCHMARK.json lists the end-to-end metrics the untraced run reports",
            [m["name"] for m in bench["end_to_end"]]
            == ["run_s", "setup_s", "outer_iters", "peak_rss_mb"])


def main() -> int:
    cli = run.import_program()
    benchmark_file()
    synthetic_self_times()
    missing_names()
    traced_balance(cli)
    answer_checks(cli)
    print(f"{sum(RESULTS)} of {len(RESULTS)} checks passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    raise SystemExit(main())
