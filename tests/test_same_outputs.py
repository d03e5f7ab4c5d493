"""The output comparison of `tools/same_outputs.py`, on hand-written run
directories (the tool's runs themselves take seconds per checkout)."""

import importlib.util
import json
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module


def write_run(side: Path, name: str, trace: str, summary: dict) -> None:
    run = side / name
    run.mkdir(parents=True)
    (run / "trace.csv").write_text(trace, encoding="utf-8")
    (run / "instance.json").write_text('{"m": 1}\n', encoding="utf-8")
    (run / "summary.json").write_text(json.dumps(summary, indent=1) + "\n",
                                      encoding="utf-8")


def summary(side: Path, wall: float) -> dict:
    return {"iterations": 12, "wall_seconds": wall,
            "parameters": {"game.file": str(side / "sweep" / "g.json"),
                           "output.dir": str(side / "sweep" / "g")}}


def test_runs_differing_only_in_wall_time_and_run_root_agree(tmp_path):
    tool = load_tool()
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_run(parent, "sweep/g", "k,mu\n1,0.5\n", summary(parent, 0.25))
    write_run(change, "sweep/g", "k,mu\n1,0.5\n", summary(change, 0.5))
    assert tool.differences(["sweep/g"], parent, change) == []


def test_each_differing_or_one_sided_output_is_named(tmp_path):
    tool = load_tool()
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_run(parent, "a", "k,mu\n1,0.5\n", summary(parent, 0.25))
    write_run(change, "a", "k,mu\n1,0.5000000000000001\n", summary(change, 0.25))
    write_run(parent, "b", "k\n", {"iterations": 12})
    write_run(change, "b", "k\n", {"iterations": 13})
    write_run(parent, "c", "k\n", {})
    write_run(change, "c", "k\n", {})
    (parent / "c" / "instance.json").unlink()
    assert tool.differences(["a", "b", "c"], parent, change) == [
        "a/trace.csv", "b/summary.json", "c/instance.json (on one side only)"]
