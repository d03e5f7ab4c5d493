"""Time-to-equilibrium benchmark of gnesolve.

    python3 perfbench/run.py --workload rate-control --seed 0 --seconds 20 --trace 0

Runs one workload's instances through ``gnesolve run`` in this process,
checks every answer against a computation made here, and prints one JSON
object as the last line of standard output.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs one untraced and one traced round
and reports the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# one BLAS thread per process, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: validations per run whose median is ``setup_s``
SETUP_REPEATS = 15
#: no round starts once this many seconds have passed since the start, so a
#: run ends well inside its 180 s limit
START_DEADLINE_S = 120.0
#: outer iterations of the untimed warm-up run
WARMUP_ITERATIONS = 5


def import_program():
    """Import gnesolve from this checkout's ``src``; nothing else will do."""
    src = ROOT / "src"
    if not (src / "gnesolve" / "__init__.py").is_file():
        raise SystemExit(f"error: no gnesolve sources under {src}")
    sys.path.insert(0, str(src))
    import gnesolve
    from gnesolve import cli
    if Path(gnesolve.__file__).resolve().parent != (src / "gnesolve").resolve():
        raise SystemExit(f"error: gnesolve imported from {gnesolve.__file__}")
    return cli


@contextlib.contextmanager
def capturing(cli):
    """Record the result of every run driver ``cmd_run`` calls: the summary
    file holds neither the final decisions nor the multipliers."""
    results = []
    originals = {name: getattr(cli, name) for name in ("run_admm", "run_splitting")}

    def capture(original):
        def runner(*args, **kwargs):
            result = original(*args, **kwargs)
            results.append(result)
            return result
        return runner

    for name, original in originals.items():
        setattr(cli, name, capture(original))
    try:
        yield results
    finally:
        for name, original in originals.items():
            setattr(cli, name, original)


def gnesolve(cli, *argv) -> int:
    """One ``gnesolve`` command in this process, its console output dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def fail(self, instance, reason: str, wrong: bool = False) -> None:
        self.failed += 1
        self.wrong += wrong
        print(f"{instance.name}: {reason}", file=sys.stderr)


def timed_round(cli, instances):
    """Run every instance once with ``gnesolve run``; returns the wall time
    and each instance's (instance, exit code, captured results)."""
    outcomes = []
    started = time.perf_counter()
    for inst in instances:
        with capturing(cli) as results:
            try:
                code = gnesolve(cli, "run", str(inst.config))
            except Exception:
                code = traceback.format_exc()
        outcomes.append((inst, code, results))
    return time.perf_counter() - started, outcomes


def check_round(outcomes, tally: Tally) -> int:
    """Check every answer of a round; returns its outer iterations.

    A failure is counted and reported, and the remaining answers are still
    checked.
    """
    outer = 0
    for inst, code, results in outcomes:
        tally.attempted += 1
        if code != 0:
            tally.fail(inst, f"gnesolve run failed: {code}")
            continue
        if len(results) != 1:
            tally.fail(inst, f"expected one run result, captured {len(results)}")
            continue
        result = results[0]
        outer += result.iterations
        if not result.converged:
            tally.fail(inst, f"not converged after {result.iterations} iterations")
            continue
        try:
            problems = inst.check(result.state.x, result.state.lam, inst.out_dir)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            tally.fail(inst, "check failed: " + "; ".join(problems), wrong=True)
    return outer


def measure_setup(cli, instances) -> float:
    """Median over repeats of ``gnesolve validate`` on every config, less
    the probes, at the reference speed."""
    times = []
    with speed.SpeedProbe() as probe:
        for _ in range(SETUP_REPEATS):
            first = len(probe.samples)
            started = time.perf_counter()
            codes = [gnesolve(cli, "validate", str(inst.config)) for inst in instances]
            times.append(time.perf_counter() - started - sum(probe.samples[first:]))
            for inst, code in zip(instances, codes):
                if code != 0:
                    print(f"{inst.name}: gnesolve validate exited {code}", file=sys.stderr)
    return statistics.median(times) * probe.factor()


def warm_up(cli, instances, out: Path) -> None:
    """Import, allocate and fill caches on a few outer iterations of the
    first instance, so the timed rounds start warm."""
    inst = instances[0]
    text = inst.config.read_text(encoding="utf-8")
    lines = [line for line in text.splitlines()
             if not line.startswith(("stop.max_iter", "output.dir"))]
    lines += [f"stop.max_iter = {WARMUP_ITERATIONS}", f"output.dir = {out / 'warmup'}"]
    config = out / "warmup.cfg"
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    gnesolve(cli, "validate", str(config))
    gnesolve(cli, "run", str(config))


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(cli, instances, seconds: float, started: float, tally: Tally) -> dict:
    setup_s = measure_setup(cli, instances)
    rounds, walls, factors, outer = [], [], [], None
    begin = time.perf_counter()
    while True:
        with speed.SpeedProbe() as probe:
            wall, outcomes = timed_round(cli, instances)
        walls.append(wall)
        factors.append(probe.factor())
        rounds.append((wall - probe.probe_s) * factors[-1])
        iterations = check_round(outcomes, tally)
        if outer is not None and iterations != outer:
            print(f"outer iterations changed between rounds: {outer} -> {iterations}",
                  file=sys.stderr)
        outer = iterations if outer is None else outer
        now = time.perf_counter()
        if now - begin >= seconds or now - started + wall > START_DEADLINE_S:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"rounds: {len(rounds)}; wall s: " + ", ".join(f"{w:.3f}" for w in walls)
          + "; speed factors: " + ", ".join(f"{f:.3f}" for f in factors)
          + "; at reference speed: " + ", ".join(f"{r:.3f}" for r in rounds),
          file=sys.stderr)
    return {
        "run_s": metric(statistics.median(rounds), "s"),
        "setup_s": metric(setup_s, "s"),
        "outer_iters": metric(outer, "count"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
    }


def per_layer(cli, instances, out: Path, tally: Tally) -> dict:
    untraced, outcomes = timed_round(cli, instances)
    check_round(outcomes, tally)
    recorder = spans.Recorder()
    with spans.Patches(recorder) as patches:
        traced, outcomes = timed_round(cli, instances)
    check_round(outcomes, tally)
    values = spans.layer_metrics(recorder, traced, untraced)
    recorder.write(out / "spans.npz")
    broken = [f"counter of {name}" for name in sorted(recorder.broken_counters)]
    if broken:
        print("traced run: failed counters: " + ", ".join(broken), file=sys.stderr)
    spans.write_summary(out / "layers.json", values, patches.missing + broken)
    return {key: metric(value, spans.LAYER_UNITS[key]) for key, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="draws the quadratic-sweep instances")
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed rounds repeat until this long has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--published-seed", type=int, default=0,
                        help="instance, step-size and start seed of the published "
                             "games; 0 is the published instance")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    cli = import_program()
    out = OUT / args.workload
    instances = workloads.build(args.workload, out, args.seed, args.published_seed)
    warm_up(cli, instances, out)
    tally = Tally()
    if args.trace:
        metrics = per_layer(cli, instances, out, tally)
    else:
        metrics = end_to_end(cli, instances, args.seconds, started, tally)
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
