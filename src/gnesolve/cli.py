"""Experiment runner: load or generate a game, validate the step sizes, run
the matching algorithm, and write the trace, summary, and instance files.

Exit codes: 0 success, 2 validation or configuration failure, 3 divergence,
4 I/O failure, 5 numeric failure (a non-finite oracle value, or an inner
solve that could not certify its tolerance).  A run that fails inside its
outer loop, whatever the error, still writes the trace rows computed before
the failure, the instance, and a summary whose ``failure`` field holds the
error and the outer iteration; a run refused before its loop, with 2, or 4
for an output path it cannot create, writes nothing.
``GNESOLVE_OUTPUT_DIR`` overrides the configured output directory.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import sys
import time
from pathlib import Path

from . import benchgames
from .admm import StopRule, run_admm
from .config import (DEFAULTS, ExperimentConfig, load_config, parse_edge_list,
                     read_text)
from .diagnostics import kkt_residual
from .errors import (ConfigError, DivergenceError, GnesolveError,
                     InexactnessError, NumericError, StructuralError,
                     ValidationError)
from .games import EQUALITY, INEQUALITY, Game, load_game, save_game
from .graphs import CommGraph, build_incidence, path_graph
from .operators import step_size_margins
from .params import AlgoParams
from .splitting import run_splitting
from .subgames import InnerSolver
from .trace import TRACE_COLUMNS, write_trace_csv

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4
EXIT_NUMERIC = 5


def _build_game(cfg: ExperimentConfig) -> Game:
    builtin = cfg.get("game.builtin")
    file_path = cfg.get("game.file")
    if builtin and file_path:
        raise ConfigError("give either game.builtin or game.file, not both")
    seed = cfg.get_int("game.seed")
    if file_path:
        game, source = load_game(file_path), f"game file {file_path}"
    elif not builtin:
        raise ConfigError("missing game.builtin or game.file")
    elif builtin not in benchgames.BUILTIN_GAMES:
        raise ConfigError(
            f"unknown builtin game {builtin!r}; "
            f"choices: {sorted(benchgames.BUILTIN_GAMES)}")
    else:
        game = benchgames.BUILTIN_GAMES[builtin](seed)
        source = f"builtin game {builtin!r}"
    # every run echoes the default seed; any other must be the instance's
    recorded = game.generator.get("seed")
    if seed != int(DEFAULTS["game.seed"]) and recorded != seed:
        raise ConfigError(
            f"game.seed = {seed} is ignored by {source}, whose instance "
            f"records {'no seed' if recorded is None else f'seed {recorded}'}")
    return game


def _build_graph(cfg: ExperimentConfig, game: Game) -> CommGraph:
    edges = cfg.get("graph.edges")
    name = cfg.get("graph.builtin")
    if edges and name:
        raise ConfigError("give either graph.builtin or graph.edges, not both")
    if edges:
        return build_incidence(game.n_players,
                               parse_edge_list(edges, game.n_players))
    if not name:
        return path_graph(game.n_players)
    return benchgames.benchmark_graph(name)


def _build_params(cfg: ExperimentConfig, game: Game, graph: CommGraph) -> AlgoParams:
    mu_kind = cfg.get("params.mu")
    if mu_kind not in ("exact", "inverse-square"):
        raise ConfigError(f"unknown tolerance schedule {mu_kind!r}")
    mu0 = 0.0 if mu_kind == "exact" else cfg.get_float("params.mu0")
    rho = cfg.get_float("params.rho")
    preset = cfg.get("params.preset")
    seed = cfg.get_int("params.seed")
    if preset == "task-allocation":
        # the default step sizes are echoed by every run; others reach nothing
        for key in ("params.r", "params.h", "params.w"):
            if cfg.get_float(key) != float(DEFAULTS[key]):
                raise ConfigError(f"{key} = {cfg.get(key)} is ignored: "
                                  f"params.preset = {preset} draws the step sizes")
        return benchgames.task_allocation_params(game, graph, seed, rho, mu0)
    if preset:
        raise ConfigError(f"unknown params preset {preset!r}")
    if seed != int(DEFAULTS["params.seed"]):   # the default is echoed by every run
        raise ConfigError(f"params.seed = {seed} is ignored: no params.preset reads it")
    return AlgoParams.uniform(
        game, graph, r=cfg.get_float("params.r"), h=cfg.get_float("params.h"),
        w=cfg.get_float("params.w"), rho=rho, mu0=mu0)


def _algorithm(cfg: ExperimentConfig, game: Game) -> str:
    algorithm = cfg.get("algorithm")
    if algorithm not in ("admm", "splitting"):
        raise ConfigError("algorithm must be 'admm' or 'splitting'")
    needed = EQUALITY if algorithm == "admm" else INEQUALITY
    if game.kind != needed:
        raise ConfigError(
            f"algorithm {algorithm!r} requires a {needed}-coupled game, "
            f"got {game.kind}")
    return algorithm


def _setup(cfg: ExperimentConfig):
    game = _build_game(cfg)
    graph = _build_graph(cfg, game)
    params = _build_params(cfg, game, graph)
    algorithm = _algorithm(cfg, game)
    # an unknown mode fails here; a misfit one where the run binds it
    inner = InnerSolver(cfg.get("inner.mode"))
    stop = StopRule(cfg.get_int("stop.max_iter"), cfg.get_float("stop.tol"))
    return game, graph, params, algorithm, inner, stop


def _parameter_echo(cfg: ExperimentConfig) -> dict:
    """Every effective parameter, defaults included, so a run can be
    reconstructed from its outputs alone."""
    return {key: value for key in sorted(DEFAULTS)
            if (value := cfg.get(key)) is not None}


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    game, graph, params, algorithm, inner, _ = _setup(cfg)
    # the run driver's checks before its loop, in its order
    margins = step_size_margins(params, game, graph)
    inner.bind(game, params)
    print(f"ok: {algorithm} step sizes valid; margins: "
          + ", ".join(f"{k}={v:.6g}" for k, v in margins.items()))
    return EXIT_OK


def _inner_step_spread(rows, mode: str) -> dict:
    """How the inner steps spread over the solves of ``rows``: the number
    certified in one step and the most any one took.  Exact solves take no
    steps, so an exact run reports neither."""
    if mode == "exact":
        return {}
    steps = [row.inner_iterations for row in rows]
    return {"one_step_solves": steps.count(1),
            "max_steps_per_solve": max(steps, default=0)}


def _check_output_dir(out_dir: Path) -> None:
    """Raise `OSError` unless ``out_dir`` is or can become a directory."""
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir() or not (existing == out_dir
                                     or os.access(existing, os.W_OK)):
        raise OSError(f"cannot write outputs to {out_dir}: "
                      f"{existing} is not a writable directory")


def _write_outputs(out_dir: Path, game: Game, rows, summary: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace_csv(out_dir / "trace.csv", rows)
    save_game(game, out_dir / "instance.json")
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=1) + "\n",
                                          encoding="utf-8")


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    game, graph, params, algorithm, inner, stop = _setup(cfg)
    out_dir = Path(os.environ.get("GNESOLVE_OUTPUT_DIR") or cfg.get("output.dir"))
    _check_output_dir(out_dir)   # fails before the run rather than after it

    started = time.perf_counter()
    # the runner validates the step sizes before its first iteration; a
    # refused run writes nothing, and its error carries no rows
    runner = run_admm if algorithm == "admm" else run_splitting
    try:
        result = runner(game, graph, params, inner, stop,
                        seed=cfg.get_int("run.seed"))
    except GnesolveError as exc:
        if exc.rows is None:
            raise
        _write_outputs(out_dir, game, exc.rows, {
            "algorithm": algorithm,
            "converged": False,
            "inner_steps": exc.inner_steps,
            **_inner_step_spread(exc.rows, cfg.get("inner.mode")),
            "wall_seconds": time.perf_counter() - started,
            "failure": {"error": type(exc).__name__, "message": str(exc),
                        "iteration": exc.iteration},
            "parameters": _parameter_echo(cfg),
        })
        raise
    wall = time.perf_counter() - started

    state = result.state
    kkt = kkt_residual(game, state.x, state.lam, tol=10.0 * stop.tol)
    summary = {
        "algorithm": algorithm,
        "converged": result.converged,
        "iterations": result.iterations,
        "inner_steps": result.inner_steps,
        **_inner_step_spread(result.rows, cfg.get("inner.mode")),
        "wall_seconds": wall,
        "validator_margins": result.margins,
        "monotonicity": result.monotonicity,
        "kkt": dataclasses.asdict(kkt),
        "final_residuals": result.residuals._asdict(),
        "parameters": _parameter_echo(cfg),
    }
    _write_outputs(out_dir, game, result.rows, summary)
    # exhausting the iteration budget is reported, not an error; failures
    # inside the loop raise after writing the partial outputs, and map to
    # their own exit codes
    print(f"{algorithm}: {'converged' if result.converged else 'stopped'} "
          f"after {result.iterations} iterations; outputs in {out_dir}")
    return EXIT_OK


def cmd_extract(args) -> int:
    quantity = args.quantity
    if quantity not in TRACE_COLUMNS or quantity == "k":
        raise ConfigError(
            f"unknown quantity {quantity!r}; "
            f"choices: {[c for c in TRACE_COLUMNS if c != 'k']}")
    reader = csv.reader(read_text(args.trace, "trace file").splitlines())
    header = next(reader, [])
    for column in (quantity, "k"):
        if column not in header:
            raise ConfigError(f"trace file has no column {column!r}")
    k_at, value_at = header.index("k"), header.index(quantity)
    lines = []
    for row in reader:
        if len(row) != len(header):
            raise ConfigError(
                f"trace file line {reader.line_num} has {len(row)} fields, "
                f"its header {len(header)}")
        lines.append(f"{row[k_at]} {row[value_at]}")
    for line in lines:
        print(line)
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process, since `main` may be
    called many times in one process.  Subcommands are named, not bound,
    so `main` dispatches to the module's functions as they are at the call."""
    parser = argparse.ArgumentParser(
        prog="gnesolve",
        description="Distributed generalized Nash equilibrium experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("run", "run an experiment from a config file"),
                       ("validate", "validate a config without running")):
        sub.add_parser(name, help=text).add_argument("config")
    p_ext = sub.add_parser("extract", help="extract one trace column as 'k value' rows")
    p_ext.add_argument("trace")
    p_ext.add_argument("quantity")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = {"run": cmd_run, "validate": cmd_validate,
               "extract": cmd_extract}[args.command]
    try:
        return command(args)
    except (ConfigError, StructuralError, ValidationError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (InexactnessError, NumericError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except GnesolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
