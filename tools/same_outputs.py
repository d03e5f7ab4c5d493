"""Check that two checkouts of gnesolve write the same run outputs.

    python3 tools/same_outputs.py PARENT_ROOT CHANGE_ROOT [--seed 0]
        [--published-seeds 1 2] [--work DIR]

Runs ``gnesolve validate`` and ``gnesolve run`` from each checkout's
``src`` on the same inputs:

* the shipped configs (``configs/*.cfg``);
* the 40 ``quadratic-sweep`` instances of the benchmark at ``--seed``;
* the published seeds ``--published-seeds`` of the rate-control and
  task-allocation games, as the benchmark runs them;
* refused inputs derived from the shipped rate-control config (`REFUSED`):
  a failing step size, a misfit inner mode, both, an unwritable
  ``output.dir`` and an unknown key.

Every input comes from CHANGE_ROOT: its configs, and the sweep and published
inputs that its ``perfbench/workloads.py`` writes (imported read-only, with
no bytecode cache).  Each input's exit codes, ``validate`` output, and
``validate`` and ``run`` error output must be the same in both checkouts,
once the run root in them is replaced by a placeholder; each run's
``trace.csv`` and ``instance.json`` byte-identical, and so must
``summary.json`` once its ``wall_seconds`` is dropped and the run root in
its paths is replaced.  Each difference is printed, and the exit status is
1 on any difference, 0 when everything agrees.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

OUTPUTS = ("trace.csv", "instance.json", "summary.json")
PUBLISHED = ("rate-control", "task-allocation")

#: refused inputs: the name of each and the keys it sets in the shipped
#: rate-control config.  ``output.dir``, the input's name unless set here,
#: is taken in the directory of the refused inputs, where ``blocker`` is a
#: regular file
REFUSED = {
    "step-size": {"params.h": "5"},
    "inner-mode": {"inner.mode": "exact"},
    "step-size-and-inner-mode": {"params.h": "5", "inner.mode": "exact"},
    "unwritable-output": {"output.dir": "blocker/out"},
    "unknown-key": {"params.unknown": "1"},
}

#: validates and runs every (config, output directory or "") pair of the
#: JSON job list on standard input with the gnesolve of the ``src`` named in
#: argv[1], and prints one JSON list with a ``[validate exit code, validate
#: standard output, run exit code, validate standard error, run standard
#: error]`` entry per job
_RUNNER = """\
import contextlib, io, json, os, sys
from pathlib import Path
src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
import gnesolve
from gnesolve import cli
if Path(gnesolve.__file__).resolve().parent != src / "gnesolve":
    raise SystemExit(f"gnesolve imported from {gnesolve.__file__}")
results = []
for config, out_dir in json.load(sys.stdin):
    printed, validate_errors, run_errors = (io.StringIO() for _ in range(3))
    with contextlib.redirect_stdout(printed):
        with contextlib.redirect_stderr(validate_errors):
            validated = cli.main(["validate", config])
    os.environ.pop("GNESOLVE_OUTPUT_DIR", None)
    if out_dir:
        os.environ["GNESOLVE_OUTPUT_DIR"] = out_dir
    with contextlib.redirect_stderr(run_errors):
        ran = cli.main(["run", config])
    results.append([validated, printed.getvalue(), ran,
                    validate_errors.getvalue(), run_errors.getvalue()])
print(json.dumps(results))
"""


def load_workloads(root: Path):
    """``perfbench/workloads.py`` of ``root`` as a module, without writing
    its bytecode cache into the checkout."""
    path = root / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("same_outputs_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up here
    sys.modules[spec.name] = module
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def derived_config(text: str, settings: dict) -> str:
    """Config ``text`` with each key of ``settings`` set to its value: on
    the line that sets the key, or on a line appended."""
    left, lines = dict(settings), []
    for line in text.splitlines():
        key = line.split("#", 1)[0].split("=", 1)[0].strip()
        lines.append(f"{key} = {left.pop(key)}" if key in left else line)
    lines += [f"{key} = {value}" for key, value in left.items()]
    return "\n".join(lines) + "\n"


def refused_jobs(inputs: Path, side: Path) -> list:
    """The (name, config, "") jobs of the `REFUSED` inputs, whose configs
    and ``blocker`` file are written in ``side/refused``."""
    base = (inputs / "configs" / "rate-control.cfg").read_text(encoding="utf-8")
    refused = side / "refused"
    refused.mkdir(parents=True, exist_ok=True)
    (refused / "blocker").write_text("", encoding="utf-8")
    jobs = []
    for name, settings in REFUSED.items():
        out_dir = refused / settings.get("output.dir", name)
        config = refused / f"{name}.cfg"
        config.write_text(derived_config(base, {**settings, "output.dir": out_dir}),
                          encoding="utf-8")
        jobs.append((f"refused/{name}", str(config), ""))
    return jobs


def build_jobs(inputs: Path, side: Path, workloads, seed: int,
               published_seeds) -> list:
    """The (name, config, output directory or "") jobs of one checkout,
    writing their inputs under ``side``; ``name`` is the run directory
    relative to ``side``, the same for both checkouts."""
    jobs = []
    for config in sorted((inputs / "configs").glob("*.cfg")):
        name = f"shipped/{config.stem}"
        jobs.append((name, str(config), str(side / name)))
    for instance in workloads.build("quadratic-sweep", side / "sweep", seed):
        jobs.append((instance.out_dir.relative_to(side).as_posix(),
                     str(instance.config), ""))
    for workload in PUBLISHED:
        for published in published_seeds:
            out = side / "published" / f"{workload}-{published}"
            for instance in workloads.build(workload, out, 0, published):
                jobs.append((instance.out_dir.relative_to(side).as_posix(),
                             str(instance.config), ""))
    return jobs + refused_jobs(inputs, side)


def run_side(root: Path, jobs: list) -> list:
    """Validate and run ``jobs`` with the gnesolve of ``root/src`` in one
    process; returns each job's ``[validate exit code, validate output, run
    exit code, validate errors, run errors]``."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", _RUNNER, str(root / "src")],
        input=json.dumps([[config, out] for _, config, out in jobs]),
        capture_output=True, text=True, env=env, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _placeholder(value, side: str):
    if isinstance(value, str):
        return value.replace(side, "<run root>")
    if isinstance(value, dict):
        return {key: _placeholder(v, side) for key, v in value.items()}
    if isinstance(value, list):
        return [_placeholder(v, side) for v in value]
    return value


def comparable(path: Path, side: Path):
    """The contents of output ``path`` as they are compared: the bytes, or
    for ``summary.json`` the parsed object without ``wall_seconds`` and
    with ``side`` replaced in its paths."""
    data = path.read_bytes()
    if path.name != "summary.json":
        return data
    summary = json.loads(data)
    summary.pop("wall_seconds", None)
    return _placeholder(summary, str(side))


#: what each field of a `run_side` result is called when it differs
RESULT_FIELDS = ("validate exit code", "validate output", "run exit code",
                 "validate errors", "run errors")


def result_differences(names, parent: list, change: list) -> list:
    """The fields of the `run_side` results of runs ``names`` that differ
    between the ``parent`` and ``change`` results, each with both values;
    the results are compared as given, so their run roots are replaced
    first (`_placeholder`)."""
    return [f"{name}: {field} {a!r} (parent) != {b!r} (change)"
            for name, pair in zip(names, zip(parent, change))
            for field, a, b in zip(RESULT_FIELDS, *pair) if a != b]


def differences(names, parent: Path, change: Path) -> list:
    """Relative paths of the outputs of runs ``names`` that differ between
    the run roots ``parent`` and ``change``, or exist on one side only."""
    differ = []
    for name in names:
        for output in OUTPUTS:
            relative = f"{name}/{output}"
            a, b = parent / relative, change / relative
            if not (a.is_file() and b.is_file()):
                if a.is_file() or b.is_file():
                    differ.append(f"{relative} (on one side only)")
            elif comparable(a, parent) != comparable(b, change):
                differ.append(relative)
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the quadratic sweep (default 0)")
    parser.add_argument("--published-seeds", type=int, nargs="*", default=[1, 2],
                        help="published game seeds (default 1 2)")
    parser.add_argument("--work", type=Path, default=None,
                        help="directory for inputs and outputs "
                             "(default: a temporary directory)")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    workloads = load_workloads(roots["change"])
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as temporary:
        work = (args.work or Path(temporary)).resolve()
        sides, results, names = {}, {}, None
        for label, root in roots.items():
            sides[label] = work / label
            jobs = build_jobs(roots["change"], sides[label], workloads,
                              args.seed, args.published_seeds)
            names = [name for name, _, _ in jobs]
            results[label] = _placeholder(run_side(root, jobs), str(sides[label]))
        differ = result_differences(names, results["parent"], results["change"])
        differ += differences(names, sides["parent"], sides["change"])
        for line in differ:
            print(line)
        print(f"{len(names)} validations and runs, "
              f"{len(names) * len(OUTPUTS)} outputs compared: "
              + (f"{len(differ)} differ" if differ else "all identical"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
