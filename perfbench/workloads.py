"""Workload inputs of the gnesolve benchmark and the checks made on every
answer apart from the program.

Each workload is a list of instances: a config file for ``gnesolve run`` /
``gnesolve validate`` plus a check that receives the run's final decisions
and local multipliers and returns the list of conditions that failed.  The
checks use only numpy and the instance data; none of them calls gnesolve.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("rate-control", "task-allocation", "quadratic-sweep")

#: outer-iteration budget of the published games: above the shipped 2,000
#: so that the held-out instance (seed 1, 3,140 and 2,870 outer iterations)
#: converges, and low enough that a run that stops converging still ends
#: within the time limit of one benchmark run
PUBLISHED_MAX_ITER = 4000

QUADRATIC_GAMES = 20          # each run twice: equality and inequality
QUADRATIC_HALF_WIDTH = 10.0
QUADRATIC_TOL = 1e-7
QUADRATIC_CHECK_TOL = 1e-5

#: the published-game checks allow 100x the program's stopping tolerance,
#: which its norm-based residual test keeps the infinity norms far below
PUBLISHED_CHECK_FACTOR = 100.0


@dataclass(frozen=True)
class Instance:
    name: str
    config: Path
    out_dir: Path
    #: (final decisions x, local multipliers (N, m), run directory) ->
    #: descriptions of the failed conditions
    check: Callable[[np.ndarray, np.ndarray, Path], list]


# -- published games -------------------------------------------------------------

_RATE_CONTROL = """\
# 15-user congestion game over 16 links, published step sizes
game.builtin = rate-control
game.seed = {seed}
graph.builtin = chain15
algorithm = splitting
params.r = 10.0
params.h = 0.5
params.w = 0.5
params.rho = 1.1
params.mu = inverse-square
params.mu0 = 1.0
stop.max_iter = {max_iter}
stop.tol = {tol}
run.seed = {seed}
output.dir = {out}
"""

_TASK_ALLOCATION = """\
# 14-worker allocation game over 8 tasks, drawn diagonal step sizes
game.builtin = task-allocation
game.seed = {seed}
graph.builtin = chain14
algorithm = admm
params.preset = task-allocation
params.seed = {seed}
params.mu = inverse-square
params.mu0 = 1.0
stop.max_iter = {max_iter}
stop.tol = {tol}
run.seed = {seed}
output.dir = {out}
"""


def _instance_data(run_dir: Path):
    """Coupling blocks, boxes and generator parameters from the
    ``instance.json`` the run wrote."""
    with open(run_dir / "instance.json", encoding="utf-8") as fh:
        data = json.load(fh)
    players = data["players"]
    A = [np.array(p["A"], dtype=float) for p in players]
    b = sum(np.array(p["b"], dtype=float) for p in players)
    lower = np.concatenate([p["lower"] for p in players]).astype(float)
    upper = np.concatenate([p["upper"] for p in players]).astype(float)
    return np.hstack(A), b, lower, upper, data["generator"]


def _consensus(lam: np.ndarray) -> tuple[np.ndarray, float]:
    mean = lam.mean(axis=0)
    return mean, float(np.abs(lam - mean).max())


def _natural_residual(x, grad, lower, upper) -> float:
    return float(np.abs(x - np.clip(x - grad, lower, upper)).max())


def _failures(values: dict, tol: float) -> list:
    return [f"{name} {value:.3g} > {tol:.3g}"
            for name, value in values.items() if not value <= tol]


def rate_control_gradient(gen: dict, A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of ``-chi_i log(1 + x_i) + x_i * (route delay price)``."""
    C, chi = np.array(gen["C"]), np.array(gen["chi"])
    kappa, xi = np.array(gen["kappa"]), np.array(gen["xi"])
    den = C - A @ x + xi
    return -chi / (1.0 + x) + A.T @ (kappa / den) + x * (A.T @ (kappa / den ** 2))


def check_rate_control(x, lam, run_dir: Path, tol: float) -> list:
    """KKT conditions of the inequality-coupled game with one shared
    multiplier: box, coupling feasibility, sign, consensus of the local
    multipliers, complementarity and natural-map stationarity."""
    A, b, lower, upper, gen = _instance_data(run_dir)
    shared, consensus = _consensus(lam)
    price = np.maximum(shared, 0.0)
    slack = b - A @ x
    grad = rate_control_gradient(gen, A, x) + A.T @ price
    return _failures({
        "box violation": float(max((lower - x).max(), (x - upper).max(), 0.0)),
        "coupling violation": float(max((-slack).max(), 0.0)),
        "negative multiplier": float(max(-shared.min(), 0.0)),
        "consensus": consensus,
        "complementarity": float(np.abs(np.minimum(price, slack)).max()),
        "stationarity": _natural_residual(x, grad, lower, upper),
    }, tol)


def task_allocation_gradient(gen: dict, A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Smooth cost gradient plus the slope ``l`` of the linear branch of the
    max term, which is the active branch everywhere on the box."""
    chi, kappa = np.array(gen["chi"]), np.array(gen["kappa"])
    load = A @ x
    price = kappa - chi * np.log1p(load)
    slope = chi / (1.0 + load)
    out = np.empty_like(x)
    for w, worker in enumerate(gen["workers"]):
        cols = slice(4 * w, 4 * w + 4)
        y, A_w = x[cols], A[:, cols]
        p, S = np.array(worker["p"]), np.array(worker["S"])
        out[cols] = (2.0 * (p @ y - worker["d"]) * p + 2.0 * S @ y
                     - A_w.T @ price + A_w.T @ (slope * (A_w @ y))
                     + np.array(worker["l"]))
    return out


def check_task_allocation(x, lam, run_dir: Path, tol: float) -> list:
    """KKT conditions of the equality-coupled game with one shared
    multiplier: box, coupling equality, consensus and stationarity."""
    A, b, lower, upper, gen = _instance_data(run_dir)
    shared, consensus = _consensus(lam)
    grad = task_allocation_gradient(gen, A, x) + A.T @ shared
    return _failures({
        "box violation": float(max((lower - x).max(), (x - upper).max(), 0.0)),
        "coupling gap": float(np.abs(A @ x - b).max()),
        "consensus": consensus,
        "stationarity": _natural_residual(x, grad, lower, upper),
    }, tol)


def published_instances(workload: str, out: Path, seed: int) -> list:
    template, tol, check = {
        "rate-control": (_RATE_CONTROL, 1e-6, check_rate_control),
        "task-allocation": (_TASK_ALLOCATION, 1e-5, check_task_allocation),
    }[workload]
    run_dir = out / "run"
    config = out / "run.cfg"
    config.write_text(template.format(seed=seed, max_iter=PUBLISHED_MAX_ITER, tol=tol,
                                      out=run_dir), encoding="utf-8")
    check_tol = PUBLISHED_CHECK_FACTOR * tol
    return [Instance(workload, config, run_dir,
                     lambda x, lam, d: check(x, lam, d, check_tol))]


# -- quadratic sweep ---------------------------------------------------------------

_QUADRATIC = """\
game.file = {game}
graph.builtin = pair
algorithm = {algorithm}
params.mu = exact
inner.mode = exact
stop.max_iter = 5000
stop.tol = {tol}
run.seed = {run_seed}
output.dir = {out}
"""


def quadratic_solution(t, delta: float, c: float, kind: str):
    """Equilibrium of ``(x_i - t_i)^2 / 2 + delta x_1 x_2`` under
    ``x_1 + x_2 (= or <=) c``: the 3x3 KKT system, or the unconstrained
    equilibrium when the inequality is inactive at it."""
    J = np.array([[1.0, delta], [delta, 1.0]])
    t = np.asarray(t, dtype=float)
    if kind == "inequality":
        free = np.linalg.solve(J, t)
        if free.sum() <= c:
            return free, 0.0
    kkt = np.array([[1.0, delta, 1.0], [delta, 1.0, 1.0], [1.0, 1.0, 0.0]])
    sol = np.linalg.solve(kkt, np.array([t[0], t[1], c]))
    return sol[:2], float(sol[2])


def check_quadratic(x, lam, x_ref, lam_ref) -> list:
    shared, consensus = _consensus(lam)
    return _failures({
        "decision error": float(np.abs(x - x_ref).max()),
        "multiplier error": float(abs(shared[0] - lam_ref)),
        "consensus": consensus,
    }, QUADRATIC_CHECK_TOL)


def _quadratic_game_json(t, delta: float, c: float, kind: str) -> dict:
    hw = QUADRATIC_HALF_WIDTH
    player = {"dim": 1, "A": [[1.0]], "b": [c / 2.0], "lower": [-hw], "upper": [hw]}
    return {
        "schema": "gnesolve-game-v1", "kind": kind, "m": 1,
        "generator": {"name": "quadratic", "t": list(t), "delta": delta, "c": c,
                      "kind": kind, "half_width": hw},
        "players": [player, dict(player)],
    }


def quadratic_instances(out: Path, seed: int) -> list:
    """Twenty two-player games drawn from ``seed``, each run with equality
    coupling (ADMM) and with inequality coupling (splitting).

    Targets lie in [0, 2.5] and |delta| <= 0.5, which keeps every solution
    inside the box [-10, 10].  The capacity ``c`` sits 0.25 to 1.5 below the
    unconstrained total on even games (active inequality) and as far above
    it on odd ones (inactive), so both cases occur in every batch.  The
    coupling ``delta`` sets most of a game's outer-iteration count (212 at
    0, about 350 at either end), so it and the margin are stratified: each
    batch takes one draw from each of twenty equal slices of their ranges,
    in a seeded order, and batches of different seeds cost alike.
    """
    rng = random.Random(seed)

    def stratified(low, high):
        order = list(range(QUADRATIC_GAMES))
        rng.shuffle(order)
        return [low + (high - low) * (k + rng.random()) / QUADRATIC_GAMES
                for k in order]

    deltas = stratified(-0.5, 0.5)
    margins = stratified(0.25, 1.5)
    instances = []
    for g in range(QUADRATIC_GAMES):
        t = (rng.uniform(0.0, 2.5), rng.uniform(0.0, 2.5))
        delta = deltas[g]
        free_total = (t[0] + t[1]) / (1.0 + delta)
        margin = margins[g]
        c = free_total - margin if g % 2 == 0 else free_total + margin
        for kind, algorithm in (("equality", "admm"), ("inequality", "splitting")):
            name = f"game{g:02d}-{kind}"
            x_ref, lam_ref = quadratic_solution(t, delta, c, kind)
            if np.abs(x_ref).max() >= QUADRATIC_HALF_WIDTH:
                raise ValueError(f"{name}: solution outside the box; narrow the ranges")
            game_file = out / f"{name}.json"
            game_file.write_text(json.dumps(_quadratic_game_json(t, delta, c, kind)),
                                 encoding="utf-8")
            config = out / f"{name}.cfg"
            run_dir = out / name
            config.write_text(_QUADRATIC.format(
                game=game_file, algorithm=algorithm, tol=QUADRATIC_TOL,
                run_seed=rng.randrange(2 ** 31), out=run_dir), encoding="utf-8")
            instances.append(Instance(
                name, config, run_dir,
                lambda x, lam, d, xr=x_ref, lr=lam_ref: check_quadratic(x, lam, xr, lr)))
    return instances


def build(workload: str, out: Path, seed: int, published_seed: int = 0) -> list:
    """Write the workload's input files under ``out`` and return its
    instances in run order."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "quadratic-sweep":
        return quadratic_instances(out, seed)
    return published_instances(workload, out, published_seed)
