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


def test_each_differing_validation_or_exit_code_is_named():
    # `run_side` results are [validate exit code, validate output, run exit
    # code] per run; each field that differs is named with both values
    tool = load_tool()
    ok = "ok: admm step sizes valid; margins: x=9.5, z=1\n"
    parent = [[0, ok, 0], [0, ok, 0], [2, "", 2]]
    change = [[0, ok, 0], [0, ok.replace("9.5", "9.25"), 0], [0, ok, 2]]
    assert tool.result_differences(["a", "b", "c"], parent, parent) == []
    assert tool.result_differences(["a", "b", "c"], parent, change) == [
        f"b: validate output {ok!r} (parent) != "
        f"{ok.replace('9.5', '9.25')!r} (change)",
        "c: validate exit code 2 (parent) != 0 (change)",
        f"c: validate output '' (parent) != {ok!r} (change)"]


def test_each_differing_refusal_message_is_named():
    # results also carry validate's and run's standard error; with each
    # side's run root replaced, only a changed message is named
    tool = load_tool()

    def blocked(side):
        return (f"i/o error: cannot write outputs to {side}/refused/blocker/out: "
                f"{side}/refused/blocker is not a writable directory\n")

    step = "validation error: step-size conditions failed: min eig = -1\n"
    mode = "validation error: inner mode 'exact' does not fit\n"
    parent = tool._placeholder(
        [[2, "", 2, step, step], [0, "ok\n", 4, "", blocked("/w/parent")]],
        "/w/parent")
    change = tool._placeholder(
        [[2, "", 2, mode, step], [0, "ok\n", 4, "", blocked("/w/change")]],
        "/w/change")
    assert tool.result_differences(["a", "b"], parent, change) == [
        f"a: validate errors {step!r} (parent) != {mode!r} (change)"]


def test_refused_inputs_are_refused(tmp_path, monkeypatch, capsys):
    # each refused input sets only its keys in the shipped rate-control
    # config, and both commands refuse it as it is meant to be refused,
    # writing nothing
    from gnesolve import cli
    from gnesolve.config import load_config

    tool = load_tool()
    root = TOOL.parents[1]
    monkeypatch.delenv("GNESOLVE_OUTPUT_DIR", raising=False)
    base = load_config(root / "configs" / "rate-control.cfg").values
    jobs = tool.refused_jobs(root, tmp_path)
    assert [name for name, _, _ in jobs] == [f"refused/{name}"
                                             for name in tool.REFUSED]
    exits = {"step-size": (2, 2), "inner-mode": (2, 2),
             "step-size-and-inner-mode": (2, 2), "unwritable-output": (0, 4),
             "unknown-key": (2, 2)}
    assert set(exits) == set(tool.REFUSED)
    for (name, config, _), (key, settings) in zip(jobs, tool.REFUSED.items()):
        if key != "unknown-key":
            out_dir = tmp_path / "refused" / settings.get("output.dir", key)
            assert load_config(config).values == {
                **base, **settings, "output.dir": str(out_dir)}
        assert (cli.main(["validate", config]),
                cli.main(["run", config])) == exits[key], name
        # one error line from each command that refused
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == sum(code != 0 for code in exits[key]), name
        if key == "unknown-key":
            assert errors[0].endswith("unknown key 'params.unknown'")
    assert sorted(p.name for p in (tmp_path / "refused").iterdir()) == sorted(
        ["blocker", *(f"{name}.cfg" for name in tool.REFUSED)])
