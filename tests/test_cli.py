import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

import gnesolve as gs
from gnesolve.cli import main
from gnesolve.config import _KNOWN_KEYS, parse_config_text, parse_edge_list
from gnesolve.errors import ConfigError
from gnesolve.trace import (TRACE_COLUMNS, TraceRow, read_trace_csv,
                            write_trace_csv)


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


def test_parse_edge_list():
    assert parse_edge_list("1-2, 2-3") == [(0, 1), (1, 2)]
    with pytest.raises(ConfigError):
        parse_edge_list("1-2-3")
    with pytest.raises(ConfigError):
        parse_edge_list("")


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
trace.stride = {stride}
output.dir = {out}
"""


def test_summary_counts_inner_steps_of_untraced_iterations(tmp_path):
    totals = {}
    for stride in (1, 2):
        out = tmp_path / f"stride{stride}"
        cfg = tmp_path / f"exp{stride}.cfg"
        cfg.write_text(RESIDUAL_QUAD_CFG.format(stride=stride, out=out))
        assert main(["run", str(cfg)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        traced = sum(int(r["inner_iterations"])
                     for r in read_trace_csv(out / "trace.csv"))
        totals[stride] = summary["inner_steps"], traced
    assert totals[1][0] == totals[1][1] > 0
    assert totals[2][0] > totals[2][1]
    # the trace stride changes what is written, not the run
    assert totals[2][0] == totals[1][0]


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_published_configs_in_default_inner_mode(tmp_path, monkeypatch):
    # the shipped configs through `gnesolve run`, with residual-mode inner
    # solves; the step bounds are a third of the fixed-step solver's counts
    # (12,717 and 27,287)
    for name, max_inner_steps in (("rate-control", 4_239),
                                  ("task-allocation", 9_095)):
        out = tmp_path / name
        monkeypatch.setenv("GNESOLVE_OUTPUT_DIR", str(out))
        assert main(["run", str(CONFIGS / f"{name}.cfg")]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["parameters"]["inner.mode"] == "residual"
        assert summary["converged"] and summary["kkt"]["is_variational"]
        rows = read_trace_csv(out / "trace.csv")
        assert len(rows) == summary["iterations"]
        assert all(float(r["certified"]) <= float(r["mu"]) for r in rows)
        assert summary["inner_steps"] == sum(int(r["inner_iterations"])
                                             for r in rows)
        assert summary["inner_steps"] <= max_inner_steps
    monkeypatch.setenv("GNESOLVE_OUTPUT_DIR", str(tmp_path / "rerun"))
    assert main(["run", str(CONFIGS / "rate-control.cfg")]) == 0
    assert ((tmp_path / "rerun" / "trace.csv").read_bytes()
            == (tmp_path / "rate-control" / "trace.csv").read_bytes())


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


def test_readme_config_table_lists_the_known_keys():
    # the key column of README's configuration table, one or more keys a row
    lines = (CONFIGS.parent / "README.md").read_text().splitlines()
    start = lines.index("| key | default | meaning |") + 2
    documented = set()
    for line in itertools.takewhile(lambda l: l.startswith("|"), lines[start:]):
        documented.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    assert documented == _KNOWN_KEYS


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
    assert main(["extract", str(out / "trace.csv"), "consensus_error"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    trace = read_trace_csv(out / "trace.csv")
    assert len(lines) == len(trace)
    k, value = lines[0].split()
    assert k == trace[0]["k"] and value == trace[0]["consensus_error"]
    assert main(["extract", str(out / "trace.csv"), "certified"]) == 0
    assert capsys.readouterr().out.split()[:2] == [trace[0]["k"], "0.0"]
    assert main(["extract", str(out / "trace.csv"), "bogus"]) == 2
    assert "'certified'" in capsys.readouterr().err


def test_extract_empty_trace(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    write_trace_csv(path, [])
    assert main(["extract", str(path), "feasibility"]) == 0
    assert capsys.readouterr().out == ""


def test_output_dir_env_override(tmp_path, monkeypatch):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(QUAD_CFG.format(out=tmp_path / "ignored"))
    target = tmp_path / "envdir"
    monkeypatch.setenv("GNESOLVE_OUTPUT_DIR", str(target))
    assert main(["run", str(cfg)]) == 0
    assert (target / "summary.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_explicit_edge_list(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(QUAD_CFG.format(out=out) + "graph.edges = 2-1\n")
    assert main(["run", str(cfg)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["kkt"]["is_variational"] is True
    # an explicit builtin that does not fit the game is rejected
    cfg.write_text(QUAD_CFG.format(out=out) + "graph.builtin = chain15\n")
    assert main(["validate", str(cfg)]) == 2


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
    assert summary["consensus_error"] > 0.0
    assert summary["kkt"]["consensus"] == summary["consensus_error"]


INEQ_CFG = """
game.file = {inst}
algorithm = splitting
params.mu = exact
inner.mode = exact
stop.max_iter = 5000
stop.tol = 1e-8
output.dir = {out}
"""


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


class FailingInner:
    """Exact inner solves for two outer iterations, then a failure: a raised
    inner error, or a non-finite solution that makes the run diverge."""

    def __init__(self, failure):
        self.failure = failure
        self.exact = gs.InnerSolver(gs.InnerSettings(mode="exact"))
        self.calls = 0

    def solve(self, sub, mu):
        from gnesolve.subgames import InnerCertificate, InnerSolution
        self.calls += 1
        if self.calls < 3:
            return self.exact.solve(sub, mu)
        if self.failure is gs.DivergenceError:
            bad = np.full(sub.anchor.shape, np.inf)
            return InnerSolution(bad, InnerCertificate(0.0, 1), bad)
        raise self.failure("inner solve failed on purpose")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("failure, code, message", [
    (gs.InexactnessError, 5, "numeric failure: inner solve failed"),
    (gs.NumericError, 5, "numeric failure: inner solve failed"),
    (gs.DivergenceError, 3, "divergence: non-finite state at outer iteration 3"),
], ids=["inexact", "numeric", "divergence"])
@pytest.mark.parametrize("kind", [gs.EQUALITY, gs.INEQUALITY])
def test_failed_run_keeps_partial_outputs(tmp_path, monkeypatch, capsys, kind,
                                          failure, code, message):
    import gnesolve.cli
    monkeypatch.setattr(gnesolve.cli, "_build_inner",
                        lambda cfg: FailingInner(failure))
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
