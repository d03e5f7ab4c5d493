import ast
import dataclasses
import inspect
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gnesolve as gs
from gnesolve.cli import _setup, main
from gnesolve.games import Box, Player, check_monotonicity_samples
from gnesolve.config import (DEFAULTS, load_config, parse_config_text,
                             parse_edge_list)
from gnesolve.errors import ConfigError
from gnesolve.trace import TRACE_COLUMNS, TraceRow, write_trace_csv
from helpers import FailingInner, misshapen_after, read_trace_csv
from reference import (InequalityResolvent, LiftedEqualityResolvent,
                       layout_sizes)


# -- config parsing ------------------------------------------------------------------

def test_parse_config_basics():
    cfg = parse_config_text("""
    # comment line
    game.builtin = quadratic-equality
    algorithm = admm          # trailing comment
    stop.tol = 1e-8
    """)
    assert cfg.get("game.builtin") == "quadratic-equality"
    assert cfg.get_float("stop.tol") == 1e-8
    assert cfg.get_int("stop.max_iter") == 10_000   # default


def test_parse_config_errors():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("no.such.key = 1")
    with pytest.raises(ConfigError, match="expected"):
        parse_config_text("just some words")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("algorithm = admm\nalgorithm = splitting")
    cfg = parse_config_text("stop.tol = banana")
    with pytest.raises(ConfigError, match="not a number"):
        cfg.get_float("stop.tol")


def test_library_defaults_match_the_config_defaults():
    # the library restates defaults that DEFAULTS holds for configs; one
    # changed on a single side would make a library run and a config run
    # of the same setup differ
    def default(function, name):
        return inspect.signature(function).parameters[name].default

    stop = {f.name: f.default for f in dataclasses.fields(gs.StopRule)}
    params = {f.name: f.default for f in dataclasses.fields(gs.AlgoParams)}
    restated = [
        ("stop.max_iter", stop["max_iter"]), ("stop.tol", stop["tol"]),
        ("inner.mode", default(gs.InnerSolver, "mode")),
        ("params.mu0", params["mu0"]),
        ("params.mu0", default(gs.AlgoParams.uniform, "mu0")),
        ("params.mu0", default(gs.AlgoParams.diagonal, "mu0")),
        ("params.mu0", default(gs.rate_control_params, "mu0")),
        ("params.mu0", default(gs.task_allocation_params, "mu0")),
        ("params.rho", default(gs.task_allocation_params, "rho")),
        ("run.seed", default(gs.run_admm, "seed")),
        ("run.seed", default(gs.run_splitting, "seed")),
    ]
    for key, value in restated:
        assert type(value)(DEFAULTS[key]) == value, key


def test_parse_edge_list():
    assert parse_edge_list("1-2, 2-3", 3) == [(0, 1), (1, 2)]
    with pytest.raises(ConfigError):
        parse_edge_list("1-2-3", 3)
    with pytest.raises(ConfigError):
        parse_edge_list("", 3)
    with pytest.raises(ConfigError, match="edge '3-4' names a node outside 1..3"):
        parse_edge_list("1-2, 3-4", 3)


# -- trace files ----------------------------------------------------------------------

def sample_rows():
    return [TraceRow(1, 0.5, 0.25, 1e-3, 2e-3, float("nan"), 7, 1.0, 0.5),
            TraceRow(2, 0.25, 0.125, 5e-4, 1e-3, float("nan"), 6, 0.25, 0.2)]


def test_trace_round_trip(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(path, sample_rows())
    raw = path.read_bytes()
    assert b"\r" not in raw                  # LF endings only
    assert raw.decode().count(".") > 0       # '.' decimal separator
    rows = read_trace_csv(path)
    assert rows[0]["k"] == "1"
    assert float(rows[1]["step_norm"]) == 0.25
    assert list(rows[0]) == list(TRACE_COLUMNS)
    assert float(rows[1]["certified"]) == 0.2


def test_trace_writer_prints_numpy_floats_as_python_floats(tmp_path):
    # numpy 2 reprs a float64 as "np.float64(...)"; the writer prints it as
    # the Python float of the same value, nan included, and the integer
    # columns as plain integers
    values = (0.1, 1e-05, 1e16, 5e-324, -0.0, float("inf"), 2.0 / 3.0)
    rows = [TraceRow(k, v, v / 3, 1e-3 * v, 7.0, float("nan"), k + 1, v, 0.0)
            for k, v in enumerate(values, start=1)]
    as_numpy = [TraceRow(np.int64(row[0]),
                         *map(np.float64, row[1:6]), np.int64(row[6]),
                         *map(np.float64, row[7:])) for row in rows]
    plain, numpy_rows = tmp_path / "plain.csv", tmp_path / "numpy.csv"
    write_trace_csv(plain, rows)
    write_trace_csv(numpy_rows, as_numpy)
    assert plain.read_bytes() == numpy_rows.read_bytes()
    lines = plain.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert lines[1] == "1,0.1,0.03333333333333333,0.0001,7.0,nan,2,0.1,0.0"
    assert lines[5] == "5,-0.0,-0.0,-0.0,7.0,nan,6,-0.0,0.0"
    for line, row in zip(lines[1:], rows):
        fields = line.split(",")
        assert [int(fields[0]), int(fields[6])] == [row.k, row.inner_iterations]
        assert all(repr(float(field)) == field for i, field in enumerate(fields)
                   if i not in (0, 6))


@pytest.mark.parametrize("index, value", [
    (0, 1.0), (6, 2.5), (1, np.float32(0.5)), (3, "0.5"), (8, 1)])
def test_trace_writer_refuses_mistyped_values(tmp_path, index, value):
    # a float in an integer column, or a non-float in a float column, would
    # print a form the trace does not use
    row = list(sample_rows()[0])
    row[index] = value
    with pytest.raises((TypeError, ValueError)):
        write_trace_csv(tmp_path / "trace.csv", [TraceRow(*row)])


# -- full CLI -------------------------------------------------------------------------

QUAD_CFG = """
game.builtin = quadratic-equality
algorithm = admm
params.mu = exact
inner.mode = exact
stop.max_iter = 5000
stop.tol = 1e-8
output.dir = {out}
"""


def test_run_quadratic_equality(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    out = tmp_path / "out"
    cfg.write_text(QUAD_CFG.format(out=out))
    assert main(["run", str(cfg)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["kkt"]["is_variational"] is True
    assert summary["parameters"]["stop.tol"] == "1e-8"
    instance = json.loads((out / "instance.json").read_text())
    assert instance["kind"] == "equality"
    trace = read_trace_csv(out / "trace.csv")
    ks = [int(r["k"]) for r in trace]
    assert ks == sorted(ks) and ks[0] == 1
    assert {r["certified"] for r in trace} == {"0.0"}   # exact inner solves


def test_rerun_is_byte_identical(tmp_path):
    cfg = tmp_path / "exp.cfg"
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg.write_text(QUAD_CFG.format(out=out1))
    assert main(["run", str(cfg)]) == 0
    cfg.write_text(QUAD_CFG.format(out=out2))
    assert main(["run", str(cfg)]) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "instance.json").read_bytes() == (out2 / "instance.json").read_bytes()


RESIDUAL_QUAD_CFG = """
game.builtin = quadratic-equality
algorithm = admm
params.mu = inverse-square
inner.mode = residual
stop.max_iter = 5000
stop.tol = 1e-8
output.dir = {out}
"""


def test_summary_counts_inner_steps_of_untraced_iterations(tmp_path):
    # every outer iteration writes a row, so the summary's total is the
    # sum of the trace column
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(RESIDUAL_QUAD_CFG.format(out=out))
    assert main(["run", str(cfg)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    traced = sum(int(r["inner_iterations"])
                 for r in read_trace_csv(out / "trace.csv"))
    assert summary["inner_steps"] == traced > 0


def test_run_binds_the_exact_solver_once(tmp_path, monkeypatch):
    # `validate` binds the exact solver after the step sizes, as the run
    # driver does before its loop; `_setup` does not bind, so each
    # command builds the closed-form solver once
    import gnesolve.benchgames
    build = gnesolve.benchgames.BUILTIN_GAMES["quadratic-equality"]
    bound_to = []

    def counting(seed):
        game = build(seed)
        binder = game.exact_subgame_solver
        game.exact_subgame_solver = lambda R: bound_to.append(R) or binder(R)
        return game

    monkeypatch.setitem(gnesolve.benchgames.BUILTIN_GAMES,
                        "quadratic-equality", counting)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(QUAD_CFG.format(out=tmp_path / "out"))
    for command in ("validate", "run"):
        del bound_to[:]
        assert main([command, str(cfg)]) == 0
        assert len(bound_to) == 1, command


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_exact_run_solves_no_linear_system_in_its_loop(tmp_path, monkeypatch):
    # the exact solver's elimination constants are bound once per run, so
    # the outer loop of the shipped quadratic config calls np.linalg.solve
    # at none of its 328 subgame solves, nor anywhere else; building the
    # game's reference equilibrium, before the loop, still does
    import gnesolve.admm
    in_loop, solves = [], []
    solve, driver = np.linalg.solve, gnesolve.admm.iterate_to_tolerance

    def counting_solve(*args, **kwargs):
        solves.append(bool(in_loop))
        return solve(*args, **kwargs)

    def driving(*args):
        in_loop.append(True)
        try:
            return driver(*args)
        finally:
            in_loop.clear()

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(gnesolve.admm, "iterate_to_tolerance", driving)
    monkeypatch.setenv("GNESOLVE_OUTPUT_DIR", str(tmp_path))
    assert main(["run", str(CONFIGS / "quadratic-equality.cfg")]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["iterations"] == 328
    assert solves and not any(solves)


@pytest.mark.parametrize("name", ["quadratic-equality", "rate-control",
                                  "task-allocation"])
def test_trace_shows_why_the_run_stopped(name, tmp_path, monkeypatch):
    # the trace's residual columns are what the stop rule tests: the last
    # row of a converged run is the first with every one at most stop.tol
    monkeypatch.setenv("GNESOLVE_OUTPUT_DIR", str(tmp_path))
    assert main(["run", str(CONFIGS / f"{name}.cfg")]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    tol = float(summary["parameters"]["stop.tol"])
    assert summary["converged"]
    columns = ("stationarity", "consensus_edge", "feasibility", "complementarity")
    rows = [[float(r[c]) for c in columns]
            for r in read_trace_csv(tmp_path / "trace.csv")]
    if summary["algorithm"] == "admm":
        # equality runs have no complementarity residual
        assert all(np.isnan(row[3]) for row in rows)
        rows = [row[:3] for row in rows]
    *_, before, last = rows
    assert max(last) <= tol < max(before)
    assert dict(zip(columns, last)) == summary["final_residuals"]


def test_published_configs_in_default_inner_mode(tmp_path, monkeypatch):
    # the shipped configs through `gnesolve run`, the published games with
    # residual-mode inner solves; their outer and inner counts are pinned,
    # so a change that moves a trajectory shows here
    for name, outer, inner_steps in (("rate-control", 1_090, 1_095),
                                     ("task-allocation", 1_870, 2_948),
                                     ("quadratic-equality", 328, 0)):
        out = tmp_path / name
        monkeypatch.setenv("GNESOLVE_OUTPUT_DIR", str(out))
        assert main(["run", str(CONFIGS / f"{name}.cfg")]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["parameters"]["inner.mode"] == (
            "exact" if name == "quadratic-equality" else "residual")
        assert summary["converged"] and summary["kkt"]["is_variational"]
        rows = read_trace_csv(out / "trace.csv")
        assert len(rows) == summary["iterations"]
        assert all(float(r["certified"]) <= float(r["mu"]) for r in rows)
        assert summary["inner_steps"] == sum(int(r["inner_iterations"])
                                             for r in rows)
        assert (summary["iterations"], summary["inner_steps"]) == (outer, inner_steps)
    monkeypatch.setenv("GNESOLVE_OUTPUT_DIR", str(tmp_path / "rerun"))
    assert main(["run", str(CONFIGS / "rate-control.cfg")]) == 0
    assert ((tmp_path / "rerun" / "trace.csv").read_bytes()
            == (tmp_path / "rate-control" / "trace.csv").read_bytes())


def test_summary_reports_how_inner_steps_spread(tmp_path, monkeypatch):
    # the solves certified in one step and the most steps one solve took,
    # from the trace's inner_iterations; exact runs take no steps and
    # report neither, so their summaries keep their fields
    for name in ("rate-control", "quadratic-equality"):
        out = tmp_path / name
        monkeypatch.setenv("GNESOLVE_OUTPUT_DIR", str(out))
        assert main(["run", str(CONFIGS / f"{name}.cfg")]) == 0
        summary = json.loads((out / "summary.json").read_text())
        steps = [int(r["inner_iterations"])
                 for r in read_trace_csv(out / "trace.csv")]
        if name == "quadratic-equality":
            assert not {"one_step_solves", "max_steps_per_solve"} & set(summary)
            continue
        assert summary["one_step_solves"] == steps.count(1) == 1_085
        assert summary["max_steps_per_solve"] == max(steps) == 2


def test_validate_command(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(QUAD_CFG.format(out=tmp_path / "o"))
    assert main(["validate", str(cfg)]) == 0
    assert "margins" in capsys.readouterr().out


def test_lipschitz_key_rejected(tmp_path, capsys):
    # every inner step adapts; no setting takes a Lipschitz constant
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(QUAD_CFG.format(out=tmp_path / "o") + "inner.lipschitz = 5\n")
    assert main(["validate", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["trace.stride = 0", "inner.cap = 5"])
def test_removed_keys_rejected(tmp_path, capsys, line):
    # every outer iteration writes a trace row, and the inner cap is fixed
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(QUAD_CFG.format(out=tmp_path / "o") + line + "\n")
    for command in ("validate", "run"):
        assert main([command, str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mu0", ["-1", "nan"])
def test_bad_mu0_rejected_before_the_run(tmp_path, capsys, mu0):
    out = tmp_path / "o"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(RESIDUAL_QUAD_CFG.format(out=out) + f"params.mu0 = {mu0}\n")
    for command in ("validate", "run"):
        assert main([command, str(cfg)]) == 2
        assert "mu0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, key", [
    ("stop.tol = nan", "stop.tol"), ("stop.tol = inf", "stop.tol"),
    ("stop.tol = -1", "stop.tol"), ("stop.max_iter = -3", "stop.max_iter")])
def test_bad_stop_rule_rejected_before_the_run(tmp_path, capsys, line, key):
    # validate used to print "ok" for these, and run to stop with exit 0
    # after the whole iteration budget (or none of it)
    out = tmp_path / "o"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(re.sub(rf"{re.escape(key)} = \S+", line,
                          RESIDUAL_QUAD_CFG.format(out=out)))
    for command in ("validate", "run"):
        assert main([command, str(cfg)]) == 2
        assert f"{key} must be" in capsys.readouterr().err
    assert not out.exists()


def test_exact_schedule_needs_an_exact_inner_mode(tmp_path, capsys):
    # residual mode cannot certify mu = 0: both commands refuse the pair
    # before the run writes anything
    out = tmp_path / "o"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(QUAD_CFG.format(out=out).replace("inner.mode = exact\n", ""))
    assert main(["validate", str(cfg)]) == 2
    validate_err = capsys.readouterr().err
    assert "params.mu = exact" in validate_err
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == validate_err
    assert not out.exists()


def test_zero_mu0_needs_an_exact_inner_mode(tmp_path, capsys):
    # mu0 = 0 makes the inverse-square schedule identically zero, which the
    # default residual inner mode cannot certify: refused like mu = exact
    out = tmp_path / "o"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(RESIDUAL_QUAD_CFG.format(out=out).replace(
        "inner.mode = residual\n", "") + "params.mu0 = 0\n")
    for command in ("validate", "run"):
        assert main([command, str(cfg)]) == 2
        assert "exactly zero tolerance" in capsys.readouterr().err
    assert not out.exists()


def test_exact_inner_mode_needs_a_closed_form_solver(tmp_path, monkeypatch,
                                                     capsys):
    # the rate-control game has no closed-form subgame solver: validate used
    # to print "ok", and run to exit 2 after creating its output directory
    out = tmp_path / "o"
    monkeypatch.setenv("GNESOLVE_OUTPUT_DIR", str(out))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text((CONFIGS / "rate-control.cfg").read_text()
                   + "inner.mode = exact\n")
    for command in ("validate", "run"):
        assert main([command, str(cfg)]) == 2
        assert "closed-form" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, entry", [
    ("params.r = nan", "R[0]"), ("params.r = inf", "R[0]"),
    ("params.w = nan", "W[0, 0]"), ("params.h = nan", "H[0, 0]")])
def test_non_finite_step_sizes_rejected_before_the_run(tmp_path, capsys,
                                                       line, entry):
    out = tmp_path / "o"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(QUAD_CFG.format(out=out).replace(
        "quadratic-equality\nalgorithm = admm",
        "quadratic-inequality\nalgorithm = splitting") + line + "\n")
    for command in ("validate", "run"):
        assert main([command, str(cfg)]) == 2
        value = line.rsplit(" ", 1)[1]
        assert (f"{entry} = {value} is not a finite positive step size"
                in capsys.readouterr().err)
    assert not out.exists()


def test_parameter_echo_replays_the_run(tmp_path, monkeypatch):
    # a config written from summary.json's parameter echo reproduces the run
    monkeypatch.setenv("GNESOLVE_OUTPUT_DIR", str(tmp_path / "first"))
    assert main(["run", str(CONFIGS / "quadratic-equality.cfg")]) == 0
    echo = json.loads((tmp_path / "first" / "summary.json").read_text())["parameters"]
    replay = tmp_path / "replay.cfg"
    replay.write_text("".join(f"{k} = {v}\n" for k, v in echo.items()))
    monkeypatch.setenv("GNESOLVE_OUTPUT_DIR", str(tmp_path / "replay"))
    assert main(["run", str(replay)]) == 0
    assert ((tmp_path / "replay" / "trace.csv").read_bytes()
            == (tmp_path / "first" / "trace.csv").read_bytes())


def test_parameter_echo_of_an_empty_value_is_its_default(tmp_path, monkeypatch):
    # an empty value runs with the default, and the echo says so
    cfg = tmp_path / "exp.cfg"
    cfg.write_text((CONFIGS / "quadratic-equality.cfg").read_text()
                   + "params.mu0 =\ngraph.edges =\n")
    monkeypatch.setenv("GNESOLVE_OUTPUT_DIR", str(tmp_path / "out"))
    assert main(["run", str(cfg)]) == 0
    echo = json.loads((tmp_path / "out" / "summary.json").read_text())["parameters"]
    assert echo["params.mu0"] == DEFAULTS["params.mu0"] == "1.0"
    assert "graph.edges" not in echo and "" not in echo.values()


def test_game_seed_must_reach_the_instance(tmp_path, capsys):
    # a seed the game ignores used to be accepted and echoed, with no seed
    # in instance.json; the default seed, echoed by every run, replays
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    rate = tmp_path / "rate.json"
    gs.save_game(gs.rate_control_game(3), rate)
    rate_cfg = f"game.file = {rate}\nalgorithm = splitting\noutput.dir = {{out}}\n"
    quad = tmp_path / "quad.json"
    gs.save_game(gs.quadratic_game(kind=gs.INEQUALITY)[0], quad)
    for text, refusal in (
            (QUAD_CFG, "builtin game 'quadratic-equality', whose instance "
                       "records no seed"),
            (INEQ_CFG.replace("{inst}", str(quad)),
             f"game file {quad}, whose instance records no seed"),
            (rate_cfg, f"game file {rate}, whose instance records seed 3")):
        cfg.write_text(text.format(out=out) + "game.seed = 7\n")
        for command in ("validate", "run"):
            assert main([command, str(cfg)]) == 2
            assert (f"game.seed = 7 is ignored by {refusal}"
                    in capsys.readouterr().err)
        assert not out.exists()
    for text, seed in ((QUAD_CFG, 0), (rate_cfg, 3), (rate_cfg, 0)):
        cfg.write_text(text.format(out=out) + f"game.seed = {seed}\n")
        assert main(["validate", str(cfg)]) == 0


def test_non_utf8_config_is_a_validation_error(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"game.builtin = quadratic-equality\n\xff = 1\n"
                    + f"output.dir = {out}\n".encode())
    for command in ("validate", "run"):
        assert main([command, str(cfg)]) == 2
        assert f"config file {cfg} is not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


README = (CONFIGS.parent / "README.md").read_text()


def test_readme_config_table_lists_the_known_keys():
    # the key and default columns of README's configuration table, one or
    # more keys a row; a backticked default belongs to the key in the same
    # position, and a row without one documents keys that have no default
    lines = README.splitlines()
    start = lines.index("| key | default | meaning |") + 2
    documented = set()
    for line in itertools.takewhile(lambda l: l.startswith("|"), lines[start:]):
        cells = line.split("|")
        keys = re.findall(r"`([^`]+)`", cells[1])
        defaults = re.findall(r"`([^`]+)`", cells[2])
        documented.update(keys)
        if defaults:
            assert defaults == [DEFAULTS.get(k) for k in keys], line
        else:
            assert all(DEFAULTS.get(k, "") is None for k in keys), line
    assert documented == set(DEFAULTS)


def test_readme_inner_modes_are_the_accepted_ones():
    # the values README's configuration table documents for inner.mode are
    # the modes InnerSolver takes: each binds a solve on a game it fits,
    # and the removed oracle mode is refused
    row = next(line for line in README.splitlines()
               if line.startswith("| `inner.mode` |"))
    modes = re.findall(r"`([^`]+)`", row.split("|")[3])
    assert DEFAULTS["inner.mode"] in modes and "oracle" not in modes
    game, _ = gs.quadratic_game()
    graph = gs.path_graph(2)
    params = gs.AlgoParams.uniform(game, graph, 10.0, 0.5, 0.5, 1.1, mu0=1.0)
    for mode in modes:
        assert callable(gs.InnerSolver(mode).bind(game, params))
    with pytest.raises(gs.ValidationError, match="unknown inner mode 'oracle'"):
        gs.InnerSolver("oracle")


def test_readme_quick_start_converges():
    section = README.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(code, "README quick start", "exec"), scope)
    assert scope["result"].converged
    assert np.abs(scope["result"].state.x - scope["solution"]["x"]).max() <= 1e-6


def test_rho_out_of_range_rejected(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(QUAD_CFG.format(out=tmp_path / "o") + "params.rho = 2.1\n")
    assert main(["validate", str(cfg)]) == 2
    assert "[1, 2)" in capsys.readouterr().err


def test_algorithm_kind_mismatch(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        QUAD_CFG.format(out=tmp_path / "o").replace("admm", "splitting"))
    assert main(["validate", str(cfg)]) == 2


def test_failing_step_sizes_named(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(QUAD_CFG.format(out=tmp_path / "o") + "params.r = 0.4\n")
    assert main(["validate", str(cfg)]) == 2
    assert "min eig" in capsys.readouterr().err


def test_missing_config_is_io_error(tmp_path):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 4


def test_extract(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(QUAD_CFG.format(out=out))
    assert main(["run", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["extract", str(out / "trace.csv"), "consensus_edge"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    trace = read_trace_csv(out / "trace.csv")
    assert len(lines) == len(trace)
    k, value = lines[0].split()
    assert k == trace[0]["k"] and value == trace[0]["consensus_edge"]
    assert main(["extract", str(out / "trace.csv"), "certified"]) == 0
    assert capsys.readouterr().out.split()[:2] == [trace[0]["k"], "0.0"]
    assert main(["extract", str(out / "trace.csv"), "bogus"]) == 2
    assert "'certified'" in capsys.readouterr().err


def test_extract_empty_trace(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    write_trace_csv(path, [])
    assert main(["extract", str(path), "feasibility"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("body", ["", "1,0.5\n"], ids=["header-only", "one-row"])
def test_extract_refuses_a_trace_without_the_column(tmp_path, capsys, body):
    # a trace written before a column existed names it in no header
    path = tmp_path / "old.csv"
    path.write_text("k,step_norm\n" + body)
    assert main(["extract", str(path), "certified"]) == 2
    assert "trace file has no column 'certified'" in capsys.readouterr().err
    assert main(["extract", str(path), "step_norm"]) == 0
    assert capsys.readouterr().out == body.replace(",", " ")
    # a file without even a header has no column at all
    path.write_text("")
    assert main(["extract", str(path), "step_norm"]) == 2
    assert "trace file has no column 'step_norm'" in capsys.readouterr().err


@pytest.mark.parametrize("row, fields", [("1", 1), ("1,0.5,7", 3)],
                         ids=["short", "long"])
def test_extract_refuses_a_malformed_row(tmp_path, capsys, row, fields):
    # a short row used to print its missing value as None, and a long one
    # to drop its extra field, both with exit 0
    path = tmp_path / "bad.csv"
    path.write_text(f"k,step_norm\n1,0.5\n{row}\n")
    assert main(["extract", str(path), "step_norm"]) == 2
    captured = capsys.readouterr()
    assert f"trace file line 3 has {fields} fields, its header 2" in captured.err
    assert captured.out == ""


def test_extract_refuses_a_non_utf8_trace(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"k,step_norm\n1,\xff\xfe\n")
    assert main(["extract", str(path), "step_norm"]) == 2
    assert f"trace file {path} is not UTF-8 text" in capsys.readouterr().err


def test_output_dir_env_override(tmp_path, monkeypatch):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(QUAD_CFG.format(out=tmp_path / "ignored"))
    target = tmp_path / "envdir"
    monkeypatch.setenv("GNESOLVE_OUTPUT_DIR", str(target))
    assert main(["run", str(cfg)]) == 0
    assert (target / "summary.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_output_dir_below_a_file_fails_before_the_run(tmp_path, monkeypatch,
                                                      capsys):
    # an output path that cannot be created is an I/O failure found before
    # the first outer iteration, not after the run; nothing is created
    import gnesolve.cli
    calls = []
    monkeypatch.setattr(gnesolve.cli, "run_admm", lambda *a, **k: calls.append(a))
    (tmp_path / "file").write_text("")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(QUAD_CFG.format(out=tmp_path / "file" / "out"))
    before = sorted(tmp_path.rglob("*"))
    assert main(["run", str(cfg)]) == 4
    assert "is not a writable directory" in capsys.readouterr().err
    assert calls == []
    assert sorted(tmp_path.rglob("*")) == before
    # the output path itself a regular file
    cfg.write_text(QUAD_CFG.format(out=tmp_path / "file"))
    assert main(["run", str(cfg)]) == 4
    assert calls == [] and (tmp_path / "file").read_text() == ""


@pytest.mark.parametrize("name, largest", [
    ("rate-control", 75), ("task-allocation", 13)], ids=["rate", "task"])
def test_no_eigendecomposition_above_the_largest_block(tmp_path, monkeypatch,
                                                       name, largest):
    # the validators decompose per-player and per-edge blocks and the blocks
    # of the coupling-row groups, never a matrix of order mN or mM: rate
    # control's largest groups, rows {0, 8, 9, 10, 11} and {1, 12, ..., 15},
    # give order 5 N = 75, and task allocation's z-condition splits into
    # one-row groups of order M = 13.  They run before the first outer
    # iteration, so a short run covers them
    orders = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        orders.append(np.shape(a)[-1])
        return eigvalsh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    monkeypatch.setenv("GNESOLVE_OUTPUT_DIR", str(tmp_path / "out"))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(re.sub(r"stop\.max_iter = \d+", "stop.max_iter = 20",
                          (CONFIGS / f"{name}.cfg").read_text()))
    for command in ("validate", "run"):
        assert main([command, str(cfg)]) == 0
    assert orders and max(orders) <= largest
    # the resolvents' certificate factors decompose at most the order of
    # one block of the stacked layout, never the layout's
    orders.clear()
    game, graph, params, _, inner, _ = _setup(load_config(cfg))
    resolvent = (LiftedEqualityResolvent if game.kind == gs.EQUALITY
                 else InequalityResolvent)
    resolvent(game, graph, params, inner)
    assert max(orders) <= max(layout_sizes(game, graph))


@pytest.mark.parametrize("name, shapes", [
    ("rate-control", [(2, 75, 75), (6, 15, 15)]),
    ("task-allocation", [(14, 4, 4), (8, 13, 13)]),
    ("quadratic-equality", [(2, 1, 1), (1, 1, 1)]),
], ids=["rate", "task", "quadratic"])
def test_validators_are_the_only_eigendecompositions(tmp_path, monkeypatch,
                                                     name, shapes):
    # the step sizes are vectors, checked entry by entry, so `validate`
    # decomposes only the validators' stacks: the coupling-row groups
    # (rate control's lam; the z condition's one-row groups) and the
    # per-player x blocks
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        seen.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    monkeypatch.setenv("GNESOLVE_OUTPUT_DIR", str(tmp_path / "out"))
    assert main(["validate", str(CONFIGS / f"{name}.cfg")]) == 0
    assert seen == shapes


def test_explicit_edge_list(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(QUAD_CFG.format(out=out) + "graph.edges = 2-1\n")
    assert main(["run", str(cfg)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["kkt"]["is_variational"] is True
    # an explicit builtin that does not fit the game is refused alike by
    # both commands, before the run writes anything
    out = tmp_path / "misfit"
    cfg.write_text(QUAD_CFG.format(out=out) + "graph.builtin = chain15\n")
    capsys.readouterr()
    assert main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "the graph has 15 nodes but the game has 2 players" in err
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == err
    assert not out.exists()


def test_misfit_graph_is_a_validation_error(tmp_path, capsys):
    # a graph whose node count is not the game's player count is refused
    # like any other invalid setting
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(QUAD_CFG.format(out=tmp_path / "out")
                   + "graph.builtin = chain15\n")
    for command in ("validate", "run"):
        assert main([command, str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "validation error: the graph has 15 nodes but the game has 2 "
            "players\n")


@pytest.mark.parametrize("edge", ["1-3", "0-1"])
def test_edge_list_errors_name_nodes_from_one(tmp_path, capsys, edge):
    # they used to name 0-based nodes: "(0, 2)" and "(-1, 0)"
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(QUAD_CFG.format(out=out) + f"graph.edges = 1-2, {edge}\n")
    for command in ("validate", "run"):
        assert main([command, str(cfg)]) == 2
        assert (f"edge '{edge}' names a node outside 1..2"
                in capsys.readouterr().err)
    assert not out.exists()


def test_both_graph_keys_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(QUAD_CFG.format(out=out)
                   + "graph.builtin = pair\ngraph.edges = 2-1\n")
    for command in ("validate", "run"):
        assert main([command, str(cfg)]) == 2
        assert "not both" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("old, new, message", [
    ("", "game.file = inst.json\n",
     "give either game.builtin or game.file, not both"),
    ("game.builtin = quadratic-equality\n", "",
     "missing game.builtin or game.file"),
    ("= quadratic-equality", "= quadratic",
     "unknown builtin game 'quadratic'; choices: ['quadratic-equality', "
     "'quadratic-inequality', 'rate-control', 'task-allocation']"),
    ("params.mu = exact", "params.mu = harmonic",
     "unknown tolerance schedule 'harmonic'"),
    ("", "params.preset = rate-control\n",
     "unknown params preset 'rate-control'"),
    ("algorithm = admm", "algorithm = newton",
     "algorithm must be 'admm' or 'splitting'"),
    ("", "graph.edges = a-b\n", "bad edge 'a-b'"),
    ("", "graph.builtin = ring\n", "unknown builtin graph 'ring'"),
], ids=["both-games", "no-game", "unknown-game", "unknown-mu", "unknown-preset",
        "unknown-algorithm", "bad-edge", "unknown-graph"])
def test_setup_refusals_are_named(tmp_path, capsys, old, new, message):
    out = tmp_path / "out"
    text = QUAD_CFG.format(out=out)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text.replace(old, new) if old else text + new)
    for command in ("validate", "run"):
        assert main([command, str(cfg)]) == 2
        assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not out.exists()


def test_builtin_pair_graph_is_the_default_two_player_graph(tmp_path):
    # a two-player game runs on the path of two nodes unless told otherwise
    outputs = []
    for extra in ("", "graph.builtin = pair\n"):
        out = tmp_path / f"out{len(outputs)}"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(QUAD_CFG.format(out=out) + extra)
        assert main(["run", str(cfg)]) == 0
        outputs.append([(out / name).read_bytes()
                        for name in ("trace.csv", "instance.json")])
    assert outputs[0] == outputs[1]


def test_module_entry_point_exits_with_the_command_code(tmp_path):
    # `python -m gnesolve.cli` runs this checkout's package in a new process
    src = Path(gs.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    bad = tmp_path / "bad.cfg"
    bad.write_text("no.such.key = 1\n")
    runs = [subprocess.run([sys.executable, "-m", "gnesolve.cli", "validate",
                            str(cfg)], capture_output=True, text=True,
                           env=env, cwd=tmp_path)
            for cfg in (CONFIGS / "rate-control.cfg", bad)]
    assert [run.returncode for run in runs] == [0, 2]
    assert runs[0].stdout.startswith("ok: splitting step sizes valid")
    assert runs[1].stderr == "validation error: line 1: unknown key 'no.such.key'\n"
    assert list(tmp_path.iterdir()) == [bad]


def test_run_from_instance_file(tmp_path):
    game, _ = gs.quadratic_game(kind=gs.INEQUALITY)
    inst = tmp_path / "inst.json"
    gs.save_game(game, inst)
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"""
game.file = {inst}
algorithm = splitting
params.mu = exact
inner.mode = exact
stop.max_iter = 5000
stop.tol = 1e-8
output.dir = {out}
""")
    assert main(["run", str(cfg)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["kkt"]["is_variational"] is True
    # the certificate sees the local multipliers, not their clipped mean
    assert summary["kkt"]["consensus"] > 0.0


INEQ_CFG = """
game.file = {inst}
algorithm = splitting
params.mu = exact
inner.mode = exact
stop.max_iter = 5000
stop.tol = 1e-8
output.dir = {out}
"""


def test_parser_built_once_per_process(monkeypatch, capsys):
    # repeated in-process calls reuse one parser, and a command still
    # reaches the module's function as it is at the call
    import argparse
    import gnesolve.cli
    assert main(["validate", str(CONFIGS / "quadratic-equality.cfg")]) == 0
    built, calls = [], []
    monkeypatch.setattr(argparse, "ArgumentParser",
                        lambda *a, **k: built.append(a))
    monkeypatch.setattr(gnesolve.cli, "cmd_validate",
                        lambda args: calls.append(args.config) or 0)
    assert main(["validate", "exp.cfg"]) == 0
    assert built == [] and calls == ["exp.cfg"]


@pytest.mark.parametrize("kind", [gs.EQUALITY, gs.INEQUALITY])
def test_run_validates_step_sizes_once(tmp_path, monkeypatch, capsys, kind):
    import gnesolve.admm
    import gnesolve.cli
    import gnesolve.operators
    import gnesolve.splitting
    calls = []
    for name in ("check_step_sizes_equality", "inequality_preconditioner"):
        original = getattr(gnesolve.operators, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        for module in (gnesolve.operators, gnesolve.cli, gnesolve.admm,
                       gnesolve.splitting):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    if kind == gs.EQUALITY:
        text = QUAD_CFG.format(out=tmp_path / "out")
    else:
        inst = tmp_path / "inst.json"
        gs.save_game(gs.quadratic_game(kind=gs.INEQUALITY)[0], inst)
        text = INEQ_CFG.format(inst=inst, out=tmp_path / "out")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    assert main(["validate", str(cfg)]) == 0
    assert len(calls) == 1
    printed = capsys.readouterr().out
    assert main(["run", str(cfg)]) == 0
    assert len(calls) == 2
    # the runner's margins reach the summary, equal to what validate printed
    margins = json.loads(
        (tmp_path / "out" / "summary.json").read_text())["validator_margins"]
    assert printed.strip().endswith(
        ", ".join(f"{k}={v:.6g}" for k, v in margins.items()))
    # a failing step size still exits 2 with the validator's message
    cfg.write_text(text + "params.r = 0.4\n")
    capsys.readouterr()
    errors = []
    for command in ("validate", "run"):
        assert main([command, str(cfg)]) == 2
        errors.append(capsys.readouterr().err)
    assert "min eig" in errors[0] and errors[0] == errors[1]


QUAD_PAYLOAD = gs.game_to_dict(gs.quadratic_game(kind=gs.INEQUALITY)[0])
RATE_PAYLOAD = gs.game_to_dict(gs.rate_control_game(1))


@pytest.mark.parametrize("text, named", [
    ("{", "not valid JSON"),
    ("[]", "unrecognized game schema"),
    (json.dumps(dict(QUAD_PAYLOAD, generator={
        k: v for k, v in QUAD_PAYLOAD["generator"].items() if k != "t"})), "'t'"),
    (json.dumps({k: v for k, v in QUAD_PAYLOAD.items() if k != "players"}),
     "'players'"),
    (json.dumps({"schema": "gnesolve-game-v1", "kind": "inequality", "m": 16,
                 "generator": {"name": "rate-control", "seed": "0"},
                 "players": []}), "'seed'"),
    # JSON true equals 1: both used to load, and to be echoed as true
    (json.dumps(dict(QUAD_PAYLOAD, generator=dict(QUAD_PAYLOAD["generator"],
                                                  c=True))),
     "game payload field 'c' is a boolean"),
    (json.dumps(dict(RATE_PAYLOAD, generator={"name": "rate-control",
                                              "seed": True})),
     "game payload field 'seed' is a boolean"),
    (json.dumps(dict(QUAD_PAYLOAD, generator=["quadratic"])),
     "game payload has a malformed field: 'list' object has no attribute 'get'"),
], ids=["truncated", "array", "no-t", "no-players", "string-seed", "true-c",
        "true-seed", "array-generator"])
def test_malformed_instance_file_is_a_validation_error(tmp_path, capsys,
                                                       text, named):
    # these used to end in a traceback and exit 1
    inst = tmp_path / "inst.json"
    inst.write_text(text)
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(INEQ_CFG.format(inst=inst, out=out))
    for command in ("validate", "run"):
        assert main([command, str(cfg)]) == 2
        assert named in capsys.readouterr().err
    assert not out.exists()


def test_params_seed_must_reach_a_preset(tmp_path, monkeypatch, capsys):
    # a params.seed that no preset reads used to be accepted and echoed; the
    # default seed, echoed by every run, stays accepted
    out = tmp_path / "out"
    monkeypatch.setenv("GNESOLVE_OUTPUT_DIR", str(out))
    cfg = tmp_path / "exp.cfg"
    rate = (CONFIGS / "rate-control.cfg").read_text()
    cfg.write_text(rate + "params.seed = 7\n")
    for command in ("validate", "run"):
        assert main([command, str(cfg)]) == 2
        assert ("params.seed = 7 is ignored: no params.preset reads it"
                in capsys.readouterr().err)
    assert not out.exists()
    cfg.write_text(rate + "params.seed = 0\n")
    assert main(["validate", str(cfg)]) == 0
    task = (CONFIGS / "task-allocation.cfg").read_text()
    cfg.write_text(task.replace("params.seed = 0", "params.seed = 7"))
    assert main(["validate", str(cfg)]) == 0


def test_task_allocation_preset_refuses_step_sizes_it_ignores(tmp_path, monkeypatch,
                                                             capsys):
    # the preset draws R, H and W, so a params.r, params.h or params.w
    # other than the default, which every run echoes, reaches nothing
    out = tmp_path / "out"
    monkeypatch.setenv("GNESOLVE_OUTPUT_DIR", str(out))
    cfg = tmp_path / "exp.cfg"
    task = (CONFIGS / "task-allocation.cfg").read_text()
    for line in ("params.r = 5.0", "params.h = 0.3", "params.w = 0.25"):
        cfg.write_text(task + line + "\n")
        for command in ("validate", "run"):
            assert main([command, str(cfg)]) == 2
            assert (f"{line} is ignored: params.preset = task-allocation "
                    "draws the step sizes" in capsys.readouterr().err)
    assert not out.exists()
    cfg.write_text(task + "params.r = 10\nparams.h = 0.5\nparams.w = 0.50\n")
    assert main(["validate", str(cfg)]) == 0


def test_task_allocation_preset_takes_the_configured_rho():
    # the preset draws R, H and W; the relaxation factor is the config's,
    # as summary.json's parameter echo reports it (it used to be 1.1 always)
    text = (CONFIGS / "task-allocation.cfg").read_text()
    assert "params.rho" not in text
    params = _setup(parse_config_text(text))[2]
    assert params.rho == 1.1
    params = _setup(parse_config_text(text + "params.rho = 1.9\n"))[2]
    assert params.rho == 1.9


@pytest.mark.parametrize("mu", ["exact", "inverse-square"])
@pytest.mark.parametrize("mode", ["exact", "oracle", "residual"])
@pytest.mark.parametrize("game, algorithm, extra", [
    ("quadratic-equality", "admm", ""), ("rate-control", "splitting", ""),
    ("rate-control", "splitting", "params.h = 5.0\n")],
    ids=["quadratic", "rate", "rate-step-sizes"])
def test_validate_refuses_what_run_refuses(tmp_path, capsys, game, algorithm,
                                           extra, mode, mu):
    # validate exits 2 exactly when a one-iteration run does, and then the
    # run writes nothing; a multiplier step of 5 fails the step-size check
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"game.builtin = {game}\nalgorithm = {algorithm}\n"
                   f"params.mu = {mu}\ninner.mode = {mode}\n"
                   f"stop.max_iter = 1\noutput.dir = {out}\n" + extra)
    validated = main(["validate", str(cfg)])
    ran = main(["run", str(cfg)])
    capsys.readouterr()
    assert validated in (0, 2) and (validated == 2) == (ran == 2)
    assert out.exists() == (ran != 2)
    # oracle is not a mode: both commands refuse it on every game and schedule
    refused = (mode == "oracle" or (mode == "residual" and mu == "exact")
               or (mode == "exact" and game == "rate-control") or bool(extra))
    assert (validated == 2) == refused


@pytest.mark.parametrize("game, algorithm, mu, mode, bad_step", [
    ("quadratic-equality", "admm", "exact", "residual", "params.r = 0.4"),
    ("rate-control", "splitting", "inverse-square", "exact", "params.h = 5.0")],
    ids=["quadratic", "rate"])
def test_step_sizes_are_refused_before_a_misfit_inner_mode(
        tmp_path, capsys, game, algorithm, mu, mode, bad_step):
    # with both faults, every entry point reports the step sizes: validate
    # makes the run driver's checks in the driver's order
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    text = (f"game.builtin = {game}\nalgorithm = {algorithm}\n"
            f"params.mu = {mu}\ninner.mode = {mode}\n"
            f"stop.max_iter = 1\noutput.dir = {out}\n")
    cfg.write_text(text + bad_step + "\n")
    for command in ("validate", "run"):
        assert main([command, str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "min eig" in err and "inner" not in err
    assert not out.exists()
    built, graph, params, _, inner, stop = _setup(load_config(cfg))
    runner = gs.run_admm if algorithm == "admm" else gs.run_splitting
    with pytest.raises(gs.ValidationError, match="min eig"):
        runner(built, graph, params, inner, stop)
    # the misfit mode alone is refused where the run binds it: after the
    # output directory, which an unwritable one fails first
    cfg.write_text(text)
    assert main(["validate", str(cfg)]) == 2
    assert "inner" in capsys.readouterr().err
    (tmp_path / "file").write_text("")
    cfg.write_text(text.replace(str(out), str(tmp_path / "file" / "out")))
    assert main(["run", str(cfg)]) == 4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("failure, code, message", [
    (gs.InexactnessError, 5, "numeric failure: inner solve failed"),
    (gs.NumericError, 5, "numeric failure: inner solve failed"),
    (gs.DivergenceError, 3, "divergence: non-finite state at outer iteration 3"),
    (gs.StructuralError, 2, "validation error: inner solve failed"),
    (gs.ValidationError, 2, "validation error: inner solve failed"),
], ids=["inexact", "numeric", "divergence", "structural", "validation"])
@pytest.mark.parametrize("kind", [gs.EQUALITY, gs.INEQUALITY])
def test_failed_run_keeps_partial_outputs(tmp_path, monkeypatch, capsys, kind,
                                          failure, code, message):
    import gnesolve.cli
    monkeypatch.setattr(gnesolve.cli, "InnerSolver",
                        lambda mode: FailingInner(failure))
    out = tmp_path / "out"
    if kind == gs.EQUALITY:
        text = QUAD_CFG.format(out=out)
    else:
        inst = tmp_path / "inst.json"
        gs.save_game(gs.quadratic_game(kind=gs.INEQUALITY)[0], inst)
        text = INEQ_CFG.format(inst=inst, out=out)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg)]) == code
    assert capsys.readouterr().err.startswith(message)
    assert [r["k"] for r in read_trace_csv(out / "trace.csv")] == ["1", "2"]
    assert json.loads((out / "instance.json").read_text())["kind"] == kind
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is False
    assert summary["failure"]["error"] == failure.__name__
    assert summary["failure"]["iteration"] == 3
    # exact solves take no steps; the solve that returned a non-finite
    # point reported one, and it completed before the divergence
    assert summary["inner_steps"] == (failure is gs.DivergenceError)
    assert summary["parameters"]["stop.tol"] == "1e-8"


# -- monotonicity checks ----------------------------------------------------------------

def anti_monotone_game(seed):
    """Two players with ``F(x) = -x`` on ``[-1, 1]`` each.  With ``r = 10``
    their subgames are strongly monotone with modulus 9, so the
    ``r_min = 10`` behind every certificate is wrong (a communication graph
    needs two nodes, hence two players)."""
    box = Box(np.full(1, -1.0), np.full(1, 1.0))
    players = [Player(1, lambda xi, o: -xi, np.ones((1, 1)), np.array([0.25]), box)
               for _ in range(2)]

    def exact_subgame_solver(R):
        # each player solves (R_i - 1) y_i = R_i a_i - s_i, clipped to its box
        return lambda anchor, shift: np.clip((R * anchor - shift) / (R - 1.0),
                                             -1.0, 1.0)
    return gs.Game(players, gs.EQUALITY, profile_oracle=lambda x: -x,
                   exact_subgame_solver=exact_subgame_solver)


@pytest.mark.parametrize("mode, mu, pair", [
    ("residual", "inverse-square", "inner step 1: <dG, dy>"),
    ("exact", "exact", "<dF, dx>")])
def test_non_monotone_game_fails_with_partial_outputs(tmp_path, monkeypatch,
                                                      capsys, mode, mu, pair):
    # the first evaluated pair contradicts monotonicity: inside the first
    # inner solve, or between the first two outer iterates when the solve
    # is exact
    import gnesolve.benchgames
    monkeypatch.setitem(gnesolve.benchgames.BUILTIN_GAMES, "anti-monotone",
                        anti_monotone_game)
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"game.builtin = anti-monotone\nalgorithm = admm\n"
                   f"params.mu = {mu}\ninner.mode = {mode}\noutput.dir = {out}\n")
    assert main(["validate", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["run", str(cfg)]) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"numeric failure: outer iteration 1: {pair} = ")
    assert "the game is not monotone there" in err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is False
    assert summary["failure"]["error"] == "MonotonicityError"
    assert summary["failure"]["iteration"] == 1
    assert summary["failure"]["message"] == err.split(": ", 1)[1].strip()
    assert read_trace_csv(out / "trace.csv") == []
    assert json.loads((out / "instance.json").read_text())["kind"] == "equality"


def test_misshapen_exact_solution_fails_with_partial_outputs(tmp_path,
                                                             monkeypatch,
                                                             capsys):
    # a closed-form solver's output of the wrong shape used to end the run
    # in numpy's traceback, with nothing written; the run now exits 2 and
    # keeps the two iterations before the failure
    import gnesolve.benchgames
    monkeypatch.setitem(gnesolve.benchgames.BUILTIN_GAMES, "quadratic-equality",
                        lambda seed: misshapen_after(gs.quadratic_game()[0], 2))
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(QUAD_CFG.format(out=out))
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "validation error: closed-form subgame solver returned shape (3,), "
        "expected (2,)\n")
    assert [r["k"] for r in read_trace_csv(out / "trace.csv")] == ["1", "2"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failure"]["error"] == "StructuralError"
    assert summary["failure"]["iteration"] == 3
    assert summary["inner_steps"] == 0
    assert json.loads((out / "instance.json").read_text())["kind"] == "equality"


def test_oracle_inner_mode_is_refused(tmp_path, capsys):
    # the machine-precision reference solve of the former oracle mode is a
    # test helper now: both commands refuse the mode and write nothing
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(QUAD_CFG.format(out=out).replace("inner.mode = exact",
                                                    "inner.mode = oracle"))
    for command in ("validate", "run"):
        assert main([command, str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "validation error: unknown inner mode 'oracle'\n")
    assert not out.exists()


def test_validate_makes_no_oracle_call(monkeypatch):
    # every oracle call goes through one of these two methods; validation
    # builds the game and checks the step sizes, and samples nothing
    calls = []
    for name in ("pseudo_gradient", "smooth_gradient"):
        original = getattr(gs.Game, name)
        monkeypatch.setattr(gs.Game, name, lambda game, x, _original=original:
                            calls.append(x) or _original(game, x))
    for name in ("rate-control", "task-allocation"):
        assert main(["validate", str(CONFIGS / f"{name}.cfg")]) == 0
    assert calls == []
    # the wrapper sees a sampled audit: one pair is two calls
    check_monotonicity_samples(gs.rate_control_game(0), 1, seed=0)
    assert len(calls) == 2


def test_monotonicity_summary_is_deterministic(tmp_path, monkeypatch):
    # the smallest ratios are exact functions of the run: equal on a rerun.
    # The exact quadratic run has no inner pair, and its outer pairs see
    # F's modulus 1 - delta = 0.5
    for name in ("rate-control", "quadratic-equality"):
        seen = []
        for rerun in ("a", "b"):
            monkeypatch.setenv("GNESOLVE_OUTPUT_DIR", str(tmp_path / name / rerun))
            assert main(["run", str(CONFIGS / f"{name}.cfg")]) == 0
            seen.append(json.loads((tmp_path / name / rerun / "summary.json")
                                   .read_text())["monotonicity"])
        assert seen[0] == seen[1]
        ratios = seen[0]
        if name == "rate-control":
            assert ratios["inner"] > 0.0 and ratios["outer"] > 0.0
        else:
            assert ratios["inner"] is None
            assert ratios["outer"] == pytest.approx(0.5, abs=1e-6)


# -- package layout -------------------------------------------------------------------

def relative_imports(tree):
    """Sibling modules a module's syntax tree imports: ``x`` of
    ``from .x import y`` and of ``from . import x``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module
                         else (a.name for a in node.names))
    return names


def test_cli_reaches_every_module():
    # a module no command can reach runs only under the tests, and belongs
    # in tests/ beside what uses it
    src = Path(gs.__file__).resolve().parent
    reached, frontier = set(), ["cli"]
    while frontier:
        name = frontier.pop()
        if name not in reached:
            reached.add(name)
            frontier += relative_imports(
                ast.parse((src / f"{name}.py").read_text(encoding="utf-8")))
    modules = {path.stem for path in src.glob("*.py")} - {"__init__"}
    assert sorted(modules - reached) == []
    assert relative_imports(ast.parse("from .games import Game")) == {"games"}
    assert relative_imports(ast.parse("from . import benchgames, trace")) == {
        "benchgames", "trace"}
