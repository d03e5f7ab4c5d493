"""Check that two checkouts of gnesolve write the same run outputs.

    python3 tools/same_outputs.py PARENT_ROOT CHANGE_ROOT [--seed 0]
        [--published-seeds 1 2] [--work DIR]

Runs ``gnesolve run`` from each checkout's ``src`` on the same inputs:

* the shipped configs (``configs/*.cfg``);
* the 40 ``quadratic-sweep`` instances of the benchmark at ``--seed``;
* the published seeds ``--published-seeds`` of the rate-control and
  task-allocation games, as the benchmark runs them.

Every input comes from CHANGE_ROOT: its configs, and the sweep and published
inputs that its ``perfbench/workloads.py`` writes (imported read-only, with
no bytecode cache).  Each run's ``trace.csv`` and ``instance.json`` must be
byte-identical between the checkouts, and so must ``summary.json`` once its
``wall_seconds`` is dropped and the run directory in its paths is replaced
by a placeholder.  Each differing or missing file is printed, and the exit
status is 1 on any difference, 0 when every file agrees.
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

#: runs every (config, output directory or "") pair of the JSON job list on
#: standard input with the gnesolve of the ``src`` named in argv[1], and
#: prints the exit codes as one JSON list
_RUNNER = """\
import json, os, sys
from pathlib import Path
src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
import gnesolve
from gnesolve import cli
if Path(gnesolve.__file__).resolve().parent != src / "gnesolve":
    raise SystemExit(f"gnesolve imported from {gnesolve.__file__}")
codes = []
for config, out_dir in json.load(sys.stdin):
    os.environ.pop("GNESOLVE_OUTPUT_DIR", None)
    if out_dir:
        os.environ["GNESOLVE_OUTPUT_DIR"] = out_dir
    codes.append(cli.main(["run", config]))
print(json.dumps(codes))
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
    return jobs


def run_side(root: Path, jobs: list) -> list:
    """Run ``jobs`` with the gnesolve of ``root/src`` in one process."""
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
        sides, codes, names = {}, {}, None
        for label, root in roots.items():
            sides[label] = work / label
            jobs = build_jobs(roots["change"], sides[label], workloads,
                              args.seed, args.published_seeds)
            names = [name for name, _, _ in jobs]
            codes[label] = run_side(root, jobs)
        differ = [f"{name}: exit code {a} (parent) != {b} (change)"
                  for name, a, b in zip(names, codes["parent"], codes["change"])
                  if a != b]
        differ += differences(names, sides["parent"], sides["change"])
        for line in differ:
            print(line)
        print(f"{len(names)} runs, {len(names) * len(OUTPUTS)} outputs compared: "
              + (f"{len(differ)} differ" if differ else "all identical"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
