"""The traced benchmark in ``perfbench/`` wraps gnesolve functions by name
and patches the run drivers on ``gnesolve.cli``.  A refactor that deletes or
renames one of them fails here, not only in the benchmark's self-check."""

import ast
import importlib
from pathlib import Path

import gnesolve as gs
from gnesolve import cli

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
