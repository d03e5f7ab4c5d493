"""Experiment runner: load or generate a game, validate the step sizes, run
the matching algorithm, and write the trace, summary, and instance files.

Exit codes: 0 success, 2 validation or configuration failure, 3 divergence,
4 I/O failure, 5 numeric failure (a non-finite oracle value, or an inner
solve that could not certify its tolerance).  A run that fails with 3 or 5
still writes the trace rows computed before the failure, the instance, and
a summary whose ``failure`` field holds the error and the outer iteration.
``GNESOLVE_OUTPUT_DIR`` overrides the configured output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import benchgames
from .admm import StopRule, run_admm
from .config import DEFAULTS, ExperimentConfig, load_config, parse_edge_list
from .diagnostics import consensus_error, kkt_residual
from .errors import (ConfigError, DivergenceError, GnesolveError,
                     InexactnessError, NumericError, ValidationError)
from .games import EQUALITY, INEQUALITY, Game, game_to_dict, load_game
from .graphs import CommGraph, build_incidence, path_graph
from .operators import step_size_margins
from .params import AlgoParams, exact_schedule, inverse_square
from .splitting import run_splitting
from .subgames import InnerSettings, InnerSolver
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
    if file_path:
        return load_game(file_path)
    if not builtin:
        raise ConfigError("missing game.builtin or game.file")
    if builtin not in benchgames.BUILTIN_GAMES:
        raise ConfigError(
            f"unknown builtin game {builtin!r}; "
            f"choices: {sorted(benchgames.BUILTIN_GAMES)}")
    return benchgames.BUILTIN_GAMES[builtin](cfg.get_int("game.seed"))


def _build_graph(cfg: ExperimentConfig, game: Game) -> CommGraph:
    edges = cfg.get("graph.edges")
    if edges:
        return build_incidence(game.n_players, parse_edge_list(edges))
    name = cfg.get("graph.builtin")
    if not name:
        return path_graph(game.n_players)
    graph = benchgames.benchmark_graph(name)
    if graph.n_nodes != game.n_players:
        raise ConfigError(
            f"graph {name!r} has {graph.n_nodes} nodes but the game has "
            f"{game.n_players} players")
    return graph


def _build_params(cfg: ExperimentConfig, game: Game, graph: CommGraph) -> AlgoParams:
    mu_kind = cfg.get("params.mu")
    if mu_kind == "exact":
        mu = exact_schedule()
    elif mu_kind == "inverse-square":
        mu = inverse_square(cfg.get_float("params.mu0"))
    else:
        raise ConfigError(f"unknown tolerance schedule {mu_kind!r}")
    preset = cfg.get("params.preset")
    if preset == "task-allocation":
        return benchgames.task_allocation_params(
            game, graph, cfg.get_int("params.seed"), mu)
    if preset:
        raise ConfigError(f"unknown params preset {preset!r}")
    return AlgoParams.uniform(
        game, graph, r=cfg.get_float("params.r"), h=cfg.get_float("params.h"),
        w=cfg.get_float("params.w"), rho=cfg.get_float("params.rho"), mu=mu)


def _build_inner(cfg: ExperimentConfig) -> InnerSolver:
    return InnerSolver(InnerSettings(
        mode=cfg.get("inner.mode"), cap=cfg.get_int("inner.cap")))


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
    inner = _build_inner(cfg)   # surfaces bad inner settings before any run
    if cfg.get("params.mu") == "exact" and cfg.get("inner.mode") == "residual":
        raise ConfigError(
            "params.mu = exact needs inner.mode = exact or oracle: residual "
            "mode cannot certify an exactly zero tolerance")
    return game, graph, params, algorithm, inner


def _parameter_echo(cfg: ExperimentConfig) -> dict:
    """Every effective parameter, defaults included, so a run can be
    reconstructed from its outputs alone."""
    echo = dict(DEFAULTS)
    echo.update(cfg.values)
    return dict(sorted(echo.items()))


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    game, graph, params, algorithm, _ = _setup(cfg)
    margins = step_size_margins(params, game, graph)
    print(f"ok: {algorithm} step sizes valid; margins: "
          + ", ".join(f"{k}={v:.6g}" for k, v in margins.items()))
    return EXIT_OK


def _write_outputs(out_dir: Path, game: Game, rows, summary: dict) -> None:
    write_trace_csv(out_dir / "trace.csv", rows)
    for name, payload in (("instance.json", game_to_dict(game)),
                          ("summary.json", summary)):
        with open(out_dir / name, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    game, graph, params, algorithm, inner = _setup(cfg)
    stop = StopRule(cfg.get_int("stop.max_iter"), cfg.get_float("stop.tol"))
    out_dir = Path(os.environ.get("GNESOLVE_OUTPUT_DIR") or cfg.get("output.dir"))
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    # the runner validates the step sizes before its first iteration
    runner = run_admm if algorithm == "admm" else run_splitting
    try:
        result = runner(game, graph, params, inner, stop,
                        seed=cfg.get_int("run.seed"),
                        trace_stride=cfg.get_int("trace.stride"))
    except (DivergenceError, InexactnessError, NumericError) as exc:
        _write_outputs(out_dir, game, exc.rows or [], {
            "algorithm": algorithm,
            "converged": False,
            "inner_steps": exc.inner_steps,
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
        "wall_seconds": wall,
        "validator_margins": result.margins,
        "consensus_error": consensus_error(state.lam),
        "kkt": {
            "stationarity_per_player": list(kkt.stationarity_per_player),
            "feasibility": kkt.feasibility,
            "consensus": kkt.consensus,
            "complementarity": kkt.complementarity,
            "is_variational": kkt.is_variational,
        },
        "final_residuals": result.residuals.__dict__,
        "parameters": _parameter_echo(cfg),
    }
    _write_outputs(out_dir, game, result.rows, summary)
    # exhausting the iteration budget is reported, not an error; divergence
    # and numeric failures raise after writing the partial outputs, and map
    # to their own exit codes
    print(f"{algorithm}: {'converged' if result.converged else 'stopped'} "
          f"after {result.iterations} iterations; outputs in {out_dir}")
    return EXIT_OK


def cmd_extract(args) -> int:
    quantity = args.quantity
    if quantity not in TRACE_COLUMNS or quantity == "k":
        raise ConfigError(
            f"unknown quantity {quantity!r}; "
            f"choices: {[c for c in TRACE_COLUMNS if c != 'k']}")
    import csv
    with open(args.trace, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is not None and quantity not in reader.fieldnames:
            raise ConfigError(f"trace file has no column {quantity!r}")
        for row in reader:
            print(f"{row['k']} {row[quantity]}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gnesolve",
        description="Distributed generalized Nash equilibrium experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)
    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("config")
    p_val.set_defaults(func=cmd_validate)
    p_ext = sub.add_parser("extract", help="extract one trace column as 'k value' rows")
    p_ext.add_argument("trace")
    p_ext.add_argument("quantity")
    p_ext.set_defaults(func=cmd_extract)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValidationError) as exc:
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
