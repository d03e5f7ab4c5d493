"""Span recording around the public functions of gnesolve's modules.

Each wrapped call appends one span (name, start, end, parent) to flat
in-memory arrays; nothing is written until the traced round ends.  The
wrappers are installed where the callers look the functions up: on the
class for methods, and on every module-level binding or registry entry that
holds the original function object.  Names that no longer exist are
skipped and reported, so a refactor of the program degrades the traced run
instead of breaking it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "gnesolve"

#: module -> public functions and methods that get a span
TARGETS = {
    "cli": ["main", "cmd_run", "cmd_validate"],
    "config": ["load_config"],
    "benchgames": ["rate_control_game", "task_allocation_game", "quadratic_game",
                   "rate_control_params", "task_allocation_params",
                   "benchmark_graph"],
    "games": ["Game.pseudo_gradient", "Game.natural_step", "load_game",
              "game_to_dict", "check_monotonicity_samples"],
    "graphs": ["build_incidence", "path_graph", "CommGraph.node_aggregate",
               "CommGraph.edge_differences"],
    "params": ["AlgoParams.uniform", "AlgoParams.diagonal", "AlgoParams.apply_R",
               "AlgoParams.apply_H", "AlgoParams.apply_W", "AlgoParams.r_min_eig",
               "AlgoParams.r_max_eig"],
    "subgames": ["equality_subgame", "inequality_subgame", "InnerSolver.solve",
                 "Subgame.step"],
    "operators": ["check_step_sizes_equality", "inequality_preconditioner",
                  "residual_equality", "residual_inequality"],
    "admm": ["run_admm", "admm_iterate", "initial_state"],
    "splitting": ["run_splitting", "splitting_iterate"],
    "diagnostics": ["kkt_residual", "consensus_error"],
    "trace": ["write_trace_csv"],
}

#: pseudo-gradient oracles a game holds as instance attributes; they get
#: one span name, ``games.oracle``, whichever generator supplied them
ORACLE_ATTRS = ("profile_oracle", "smooth_oracle")

def _eig_count(args, kwargs, result):
    return "params.eig_calls", len(args[0].R), "sum"


def _inner_steps(args, kwargs, result):
    return "subgames.inner_steps", result.certificate.iterations, "sum"


def _dense_order(params, game, graph, *rest):
    return game.n, game.m * graph.n_edges, game.m * game.n_players


def _equality_dim(args, kwargs, result):
    n, m_edges, _ = _dense_order(*args)
    return "operators.validate_dim", max(n, m_edges), "max"


def _inequality_dim(args, kwargs, result):
    return "operators.validate_dim", sum(_dense_order(*args)), "max"


def _trace_bytes(args, kwargs, result):
    return "trace.bytes", os.path.getsize(args[0]), "sum"


#: span name -> counter hook ``(args, kwargs, result) -> (counter, value, op)``
COUNTERS = {
    "params.AlgoParams.r_min_eig": _eig_count,
    "params.AlgoParams.r_max_eig": _eig_count,
    "subgames.InnerSolver.solve": _inner_steps,
    "operators.check_step_sizes_equality": _equality_dim,
    "operators.inequality_preconditioner": _inequality_dim,
    "trace.write_trace_csv": _trace_bytes,
}


class Recorder:
    """Flat span store: parallel arrays indexed by span number.

    A span's parent is the span open when it started (-1 at the root), so a
    parent always has a smaller index than its children.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self.broken_counters: set[str] = set()
        self._open = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        counter = COUNTERS.get(name)
        rec = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(rec.start)
            rec.name.append(nid)
            rec.parent.append(rec._open[-1])
            rec.end.append(0.0)
            rec._open.append(idx)
            rec.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = clock()
                rec._open.pop()
            if counter is not None:
                try:
                    key, value, op = counter(args, kwargs, result)
                except Exception:
                    # a changed signature or result: report, do not break the run
                    rec.broken_counters.add(name)
                else:
                    rec.counters[key] = (max(rec.counters[key], value) if op == "max"
                                         else rec.counters[key] + value)
            return result
        return wrapper

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        return name, parent, dur

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        name, parent, dur = self.arrays()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        return dur - child

    def under(self, module: str) -> np.ndarray:
        """Mask of spans with an ancestor in ``module``."""
        name, parent, _ = self.arrays()
        in_module = np.array([n.split(".", 1)[0] == module for n in self.names],
                             dtype=bool)
        own = in_module[name]
        has_parent = parent >= 0
        up = np.where(has_parent, parent, 0)
        flag = np.zeros(name.size, dtype=bool)
        # one more level of ancestry per pass, until nothing changes
        while True:
            deeper = has_parent & (own[up] | flag[up])
            if np.array_equal(deeper, flag):
                return flag
            flag = deeper

    def write(self, path) -> None:
        name, parent, _ = self.arrays()
        np.savez(path, name=name, parent=parent,
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 names=np.array(self.names))


class Patches:
    """Installs span wrappers and restores the originals on exit."""

    def __init__(self, recorder: Recorder, targets: dict = TARGETS):
        self.recorder = recorder
        self.targets = targets
        self.missing: list[str] = []
        self._undo: list = []

    def __enter__(self):
        for module, names in self.targets.items():
            try:
                mod = importlib.import_module(f"{PACKAGE}.{module}")
            except ImportError:
                self.missing.append(module)
                continue
            for dotted in names:
                if not self._patch(mod, module, dotted):
                    self.missing.append(f"{module}.{dotted}")
        self._patch_oracles()
        if self.missing:
            print("traced run: skipped missing names: " + ", ".join(self.missing),
                  file=sys.stderr)
        return self

    def __exit__(self, *exc):
        for restore in reversed(self._undo):
            restore()
        self._undo.clear()
        return False

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            old = owner[key]
            owner[key] = value
            self._undo.append(lambda: owner.__setitem__(key, old))
        else:
            old = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
            setattr(owner, key, value)
            self._undo.append(lambda: setattr(owner, key, old))

    def _patch(self, mod, module: str, dotted: str) -> bool:
        span = f"{module}.{dotted}"
        if "." in dotted:
            cls_name, attr = dotted.split(".", 1)
            cls = getattr(mod, cls_name, None)
            raw = cls.__dict__.get(attr) if isinstance(cls, type) else None
            if raw is None:
                return False
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.recorder.wrap(span, raw.__func__))
            else:
                wrapped = self.recorder.wrap(span, raw)
            self._set(cls, attr, wrapped)
            return True
        original = getattr(mod, dotted, None)
        if not callable(original):
            return False
        wrapped = self.recorder.wrap(span, original)
        # rebind every reference a caller could look the function up through
        for name, other in list(sys.modules.items()):
            if other is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._set(other, key, wrapped)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._set(value, dkey, wrapped)
        return True

    def _patch_oracles(self):
        """Wrap the oracle attributes of every game built while installed."""
        games = sys.modules.get(f"{PACKAGE}.games")
        game_cls = getattr(games, "Game", None)
        if not isinstance(game_cls, type):
            self.missing.append("games.Game")
            return
        init = game_cls.__dict__["__init__"]
        wrap = self.recorder.wrap

        @functools.wraps(init)
        def traced_init(game, *args, **kwargs):
            init(game, *args, **kwargs)
            for attr in ORACLE_ATTRS:
                oracle = getattr(game, attr, None)
                if oracle is not None:
                    setattr(game, attr, wrap("games.oracle", oracle))

        self._set(game_cls, "__init__", traced_init)


# -- per-layer metrics ---------------------------------------------------------------

#: per-layer metric -> unit, in the order they are reported
LAYER_UNITS = {
    "games.oracle_calls": "count", "games.oracle_s": "s", "games.oracle_us": "us",
    "games.self_s": "s",
    "params.apply_R_calls": "count", "params.apply_R_s": "s",
    "params.eig_calls": "count", "params.self_s": "s",
    "subgames.solves": "count", "subgames.solve_self_s": "s",
    "subgames.build_s": "s", "subgames.inner_steps": "count",
    "subgames.steps_per_solve": "count", "subgames.self_s": "s",
    "admm.iterate_self_s": "s", "admm.driver_self_s": "s", "admm.self_s": "s",
    "splitting.iterate_self_s": "s", "splitting.driver_self_s": "s",
    "splitting.self_s": "s",
    "operators.residual_calls": "count", "operators.residual_s": "s",
    "operators.validate_calls": "count", "operators.validate_s": "s",
    "operators.validate_dim": "count", "operators.self_s": "s",
    "benchgames.build_s": "s", "benchgames.oracle_calls": "count",
    "benchgames.self_s": "s",
    "graphs.self_s": "s", "config.self_s": "s",
    "diagnostics.s": "s", "trace.write_s": "s", "trace.bytes": "bytes",
    "cli.self_s": "s",
    "bench.traced_run_s": "s", "bench.unattributed_s": "s",
    "bench.trace_overhead_s": "s", "bench.spans": "count",
}

#: module self times that, with ``bench.unattributed_s``, add up to
#: ``bench.traced_run_s``
SELF_TIME_METRICS = {
    "games": "games.self_s", "params": "params.self_s",
    "subgames": "subgames.self_s", "admm": "admm.self_s",
    "splitting": "splitting.self_s", "operators": "operators.self_s",
    "benchgames": "benchgames.self_s", "graphs": "graphs.self_s",
    "config": "config.self_s", "diagnostics": "diagnostics.s",
    "trace": "trace.write_s", "cli": "cli.self_s",
}


def layer_metrics(rec: Recorder, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of one traced round lasting ``traced_s`` seconds."""
    name, parent, dur = rec.arrays()
    own = rec.self_times()
    n_names = len(rec.names)

    def ids(*names):
        return [rec._ids[n] for n in names if n in rec._ids]

    def select(*names):
        return np.isin(name, ids(*names))

    def count(*names):
        return int(select(*names).sum())

    def total(*names):
        return float(dur[select(*names)].sum())

    def self_of(*names):
        return float(own[select(*names)].sum())

    by_name_self = np.bincount(name, weights=own, minlength=n_names)
    module_self = defaultdict(float)
    for nid, span_name in enumerate(rec.names):
        module_self[span_name.split(".", 1)[0]] += float(by_name_self[nid])

    bench_ids = [i for i, n in enumerate(rec.names) if n.startswith("benchgames.")]
    under_bench = rec.under("benchgames")
    outer_bench = np.isin(name, bench_ids) & ~under_bench
    oracle = select("games.oracle")
    roots = float(dur[parent < 0].sum())

    calls = count("games.oracle")
    solves = count("subgames.InnerSolver.solve")
    steps = rec.counters["subgames.inner_steps"]
    values = {
        "games.oracle_calls": calls,
        "games.oracle_s": total("games.oracle"),
        "games.oracle_us": 1e6 * total("games.oracle") / calls if calls else 0.0,
        "params.apply_R_calls": count("params.AlgoParams.apply_R"),
        "params.apply_R_s": total("params.AlgoParams.apply_R"),
        "params.eig_calls": rec.counters["params.eig_calls"],
        "subgames.solves": solves,
        "subgames.solve_self_s": self_of("subgames.InnerSolver.solve"),
        "subgames.build_s": total("subgames.equality_subgame",
                                  "subgames.inequality_subgame"),
        "subgames.inner_steps": steps,
        "subgames.steps_per_solve": steps / solves if solves else 0.0,
        "admm.iterate_self_s": self_of("admm.admm_iterate"),
        "admm.driver_self_s": self_of("admm.run_admm"),
        "splitting.iterate_self_s": self_of("splitting.splitting_iterate"),
        "splitting.driver_self_s": self_of("splitting.run_splitting"),
        "operators.residual_calls": count("operators.residual_equality",
                                          "operators.residual_inequality"),
        "operators.residual_s": total("operators.residual_equality",
                                      "operators.residual_inequality"),
        "operators.validate_calls": count("operators.check_step_sizes_equality",
                                          "operators.inequality_preconditioner"),
        "operators.validate_s": total("operators.check_step_sizes_equality",
                                      "operators.inequality_preconditioner"),
        "operators.validate_dim": rec.counters["operators.validate_dim"],
        "benchgames.build_s": float(dur[outer_bench].sum()),
        "benchgames.oracle_calls": int((oracle & under_bench).sum()),
        "trace.bytes": rec.counters["trace.bytes"],
        "bench.traced_run_s": traced_s,
        "bench.unattributed_s": traced_s - roots,
        "bench.trace_overhead_s": traced_s - untraced_s,
        "bench.spans": int(name.size),
    }
    for module, metric in SELF_TIME_METRICS.items():
        values[metric] = module_self[module]
    return {key: values[key] for key in LAYER_UNITS}


def self_time_balance(values: dict) -> float:
    """``bench.traced_run_s`` minus the module self times and the
    unattributed remainder; zero up to rounding."""
    parts = sum(values[m] for m in SELF_TIME_METRICS.values())
    return values["bench.traced_run_s"] - parts - values["bench.unattributed_s"]


def write_summary(path, values: dict, missing: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"metrics": values, "missing": missing}, fh, indent=1)
        fh.write("\n")
