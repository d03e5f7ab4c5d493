"""The traced benchmark in ``perfbench/`` wraps gnesolve functions by name
and patches the run drivers on ``gnesolve.cli``.  A refactor that deletes or
renames one of them fails here, not only in the benchmark's self-check."""

import ast
import importlib
import types
from pathlib import Path

import numpy as np

import gnesolve as gs
from gnesolve import cli
from gnesolve.operators import residual_map
from gnesolve.subgames import inequality_subgame

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def spans_constant(name):
    """Literal value of a module-level constant of ``perfbench/spans.py``,
    read from its source without importing it."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/spans.py defines no {name}")


#: names that only the tests and the span targets use, by module: each is
#: its module's attribute, and none is re-exported by the package
MODULE_ONLY = {
    "admm": ["admm_iterate"],
    "splitting": ["splitting_iterate"],
    "operators": ["residual_equality", "residual_inequality", "PointProducts"],
    "subgames": ["Subgame", "equality_subgame", "inequality_subgame",
                 "InnerCertificate"],
    "games": ["check_monotonicity_samples", "MonotonicityReport"],
}


def test_per_call_names_stay_out_of_the_package_namespace():
    for module, names in MODULE_ONLY.items():
        mod = importlib.import_module(f"gnesolve.{module}")
        for name in names:
            assert name not in vars(gs), name
            assert hasattr(mod, name), f"{module}.{name}"


def test_span_targets_resolve():
    missing = []
    for module, names in spans_constant("TARGETS").items():
        mod = importlib.import_module(f"gnesolve.{module}")
        for dotted in names:
            obj = mod
            for part in dotted.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{module}.{dotted}")
    assert missing == []


def test_oracle_attributes_exist():
    game = gs.task_allocation_game(0)
    for attr in spans_constant("ORACLE_ATTRS"):
        assert callable(getattr(game, attr))


def test_run_drivers_on_cli():
    # the benchmark replaces these two bindings to capture each run's result
    assert cli.run_admm is gs.run_admm
    assert cli.run_splitting is gs.run_splitting


def load_spans():
    """``perfbench/spans.py`` executed from its source into a fresh module;
    it only defines names, and no bytecode cache is written next to it."""
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"),
         module.__dict__)
    return module


def test_counter_hooks_read_real_calls(tmp_path, eq_game, ineq_game,
                                       pair_graph, toy_params):
    # each counter hook gets the arguments and result of a real call to the
    # function it wraps; a changed signature or result fails here instead
    # of landing silently in the benchmark's broken counters
    counters = load_spans().COUNTERS
    eq, ineq = eq_game[0], ineq_game[0]
    run = gs.run_admm(eq, pair_graph, toy_params, gs.InnerSolver("exact"),
                      gs.StopRule(3, 1e-12))
    x, Z = np.zeros(ineq.n), np.zeros((pair_graph.n_edges, ineq.m))
    lam = np.ones((ineq.n_players, ineq.m))
    at = residual_map(ineq, pair_graph, ineq.kind)(x, Z, lam)[1]
    sub = inequality_subgame(ineq, toy_params, x, at)
    calls = {
        "params.AlgoParams.r_min_eig": (toy_params,),
        "params.AlgoParams.r_max_eig": (toy_params,),
        "subgames.InnerSolver.solve": (gs.InnerSolver(), sub, 1e-6),
        "operators.check_step_sizes_equality": (toy_params, eq, pair_graph),
        "operators.inequality_preconditioner": (toy_params, ineq, pair_graph),
        "trace.write_trace_csv": (tmp_path / "trace.csv", run.rows),
    }
    assert set(calls) == set(counters)
    for name, args in calls.items():
        module, dotted = name.split(".", 1)
        target = importlib.import_module(f"gnesolve.{module}")
        for part in dotted.split("."):
            target = getattr(target, part)
        counter, value, op = counters[name](args, {}, target(*args))
        assert isinstance(counter, str) and op in ("sum", "max")
        assert np.isfinite(value) and value > 0, name
