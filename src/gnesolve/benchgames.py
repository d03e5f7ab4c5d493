"""Seeded benchmark game generators plus desk-scale analytic test games.

Two application-scale generators (a rate-control congestion game with an
inequality-coupled capacity constraint, and a task-allocation game with an
equality-coupled demand constraint) and a two-player quadratic game whose
equilibrium has a closed form, used as the oracle throughout the test
suite.  All randomness flows through the documented SplitMix64 stream in a
fixed draw order, so instances are reproducible from their seed.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ValidationError
from .games import (Box, EQUALITY, Game, INEQUALITY, Player,
                    check_monotonicity_samples, register_rebuilder)
from .graphs import CommGraph, path_graph
from .params import AlgoParams, MuSchedule, inverse_square
from .rng import SplitMix64

AUDIT_PAIRS = 200


def _audit(game: Game, seed: int, label: str) -> None:
    report = check_monotonicity_samples(game, AUDIT_PAIRS, seed ^ 0xAAD17)
    if report.violations > 0:
        warnings.warn(
            f"{label} (seed {seed}): sampled monotonicity audit found "
            f"{report.violations} violating pairs "
            f"(min inner product {report.min_inner_product:.3g})")


# -- smooth extension of log(1 + u) below zero ---------------------------------

def _soft_log1p(u: np.ndarray) -> np.ndarray:
    """log(1+u) for u >= 0, quadratic C^2 extension for u < 0.

    Relaxed iterates can leave the box by a fraction of its width; the
    extension keeps logarithmic utilities defined there while agreeing with
    the exact formula on the box.  When no entry is negative (every call on
    the box) only the exact formula is evaluated.
    """
    u = np.asarray(u, dtype=float)
    if u.min() >= 0.0:
        return np.log1p(u)
    return np.where(u >= 0.0, np.log1p(np.maximum(u, 0.0)), u - 0.5 * u * u)


def _soft_log1p_grad(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.min() >= 0.0:
        return 1.0 / (1.0 + u)
    return np.where(u >= 0.0, 1.0 / (1.0 + np.maximum(u, 0.0)), 1.0 - u)


# -- quadratic two-player oracle game -------------------------------------------

def quadratic_game(t=(2.0, 1.0), delta: float = 0.5, c: float = 1.0,
                   kind: str = EQUALITY, half_width: float = 10.0):
    """Two players with cost ``(x_i - t_i)^2 / 2 + delta x_i x_{-i}`` and
    the shared constraint ``x_1 + x_2 (= or <=) c``.

    Returns the game together with its shared-multiplier equilibrium from a
    direct linear solve of the optimality system (the inequality variant
    enumerates the active/inactive cases).  Boxes are ``[-half_width,
    half_width]`` and must not be active at the solution.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (2,):
        raise ValidationError("the quadratic test game has exactly two players")
    if abs(delta) > 1.0:
        raise ValidationError(
            f"|delta| = {abs(delta)} > 1 makes the game non-monotone")
    J = np.array([[1.0, delta], [delta, 1.0]])
    a = np.ones(2)

    def solve_coupled():
        lhs = np.zeros((3, 3))
        lhs[:2, :2] = J
        lhs[:2, 2] = a
        lhs[2, :2] = a
        rhs = np.array([t[0], t[1], c])
        sol = np.linalg.solve(lhs, rhs)
        return sol[:2], float(sol[2])

    if kind == EQUALITY:
        x_star, lam_star = solve_coupled()
        active = True
    elif kind == INEQUALITY:
        x_free = np.linalg.solve(J, t)
        if x_free.sum() <= c:
            x_star, lam_star, active = x_free, 0.0, False
        else:
            x_star, lam_star = solve_coupled()
            active = True
            if lam_star < 0:
                raise ValidationError(
                    "active-constraint multiplier is negative; no "
                    "complementary solution exists for these parameters")
    else:
        raise ValidationError(f"unknown coupling kind {kind!r}")

    box = Box(np.array([-half_width]), np.array([half_width]))
    if not all(-half_width < xi < half_width for xi in x_star):
        raise ValidationError("half_width too small: the solution touches the box")

    def make_oracle(i: int):
        def oracle(xi, others):
            return np.array([xi[0] - t[i] + delta * others[0]])
        return oracle

    def profile_oracle(x):
        return J @ x - t

    lower = np.full(2, -half_width)
    upper = np.full(2, half_width)

    def exact_subgame_solver(anchor, shift, R_blocks):
        # active-set enumeration over the two box coordinates: exact
        # equilibrium of the strongly monotone affine subgame
        Rb = np.array([float(np.atleast_2d(R)[0, 0]) for R in R_blocks])
        G = J + np.diag(Rb)
        rhs = Rb * np.asarray(anchor, dtype=float) + t - np.asarray(shift, dtype=float)
        # the interior pattern first, with no box coordinate fixed
        y = np.linalg.solve(G, rhs)
        if np.all((lower - 1e-12 <= y) & (y <= upper + 1e-12)):
            return y
        for pattern in ((0, -1), (0, 1), (-1, 0), (1, 0),
                        (-1, -1), (-1, 1), (1, -1), (1, 1)):
            y = np.where(np.array(pattern) < 0, lower,
                         np.where(np.array(pattern) > 0, upper, 0.0))
            free = [i for i in range(2) if pattern[i] == 0]
            fixed = [i for i in range(2) if pattern[i] != 0]
            if free:
                sub_rhs = rhs[free] - G[np.ix_(free, fixed)] @ y[fixed] \
                    if fixed else rhs[free]
                y[free] = np.linalg.solve(G[np.ix_(free, free)], sub_rhs)
            grad = G @ y - rhs
            ok = True
            for i in range(2):
                if pattern[i] == 0:
                    ok &= lower[i] - 1e-12 <= y[i] <= upper[i] + 1e-12
                elif pattern[i] < 0:
                    ok &= grad[i] >= -1e-12
                else:
                    ok &= grad[i] <= 1e-12
            if ok:
                return y
        raise ValidationError("no valid active set found for the subgame")

    players = [
        Player(1, make_oracle(i), np.array([[1.0]]), np.array([c / 2.0]), box)
        for i in range(2)
    ]
    game = Game(players, kind,
                profile_oracle=profile_oracle,
                exact_subgame_solver=exact_subgame_solver,
                generator={"name": "quadratic", "t": t.tolist(),
                           "delta": delta, "c": c, "kind": kind,
                           "half_width": half_width})
    solution = {"x": x_star, "lambda": lam_star, "active": active}
    return game, solution


def _rebuild_quadratic(data: dict) -> Game:
    g = data["generator"]
    game, _ = quadratic_game(tuple(g["t"]), g["delta"], g["c"], g["kind"],
                             g["half_width"])
    return game


# -- rate-control congestion game ------------------------------------------------

N_USERS = 15
N_LINKS = 16

#: link sets per user (user index = communication-graph node index).  The
#: spectral headroom of the fixed-step-size conditions over the 15-node
#: chain dictates the shape: the chain's interior nodes (largest Laplacian
#: eigenvector amplitude) keep short, lightly shared routes, while the two
#: end users take long routes covering the remaining links.
WANET_ROUTES = {
    7: (0,), 6: (1,), 8: (2,), 5: (3,), 9: (4,), 4: (5,), 10: (6,), 11: (7,),
    1: (2,), 13: (3,), 2: (4,), 12: (5,), 3: (6,),
    0: (0, 8, 9, 10, 11),
    14: (1, 12, 13, 14, 15),
}


def wanet_routing_matrix() -> np.ndarray:
    A = np.zeros((N_LINKS, N_USERS))
    for user, links in WANET_ROUTES.items():
        for l in links:
            A[l, user] = 1.0
    return A


def rate_control_game(seed: int) -> Game:
    """Fifteen users route data over sixteen capacity-limited links.

    Each user picks a rate in ``[0, B_i]`` maximizing a logarithmic utility
    minus the congestion-delay price of its route; rates are coupled by the
    per-link capacity constraint, shared as equal local slices.  Draw order:
    capacities ``C`` (16), rate caps ``B`` (15), utility weights ``chi``
    (15), delay numerators ``kappa`` (16), delay offsets ``xi`` (16), all
    uniform in their documented ranges.
    """
    rng = SplitMix64(seed)
    C = rng.uniforms(N_LINKS, 10.0, 15.0)
    B = rng.uniforms(N_USERS, 5.0, 10.0)
    chi = rng.uniforms(N_USERS, 10.0, 20.0)
    kappa = rng.uniforms(N_LINKS, 10.0, 30.0)
    xi = rng.uniforms(N_LINKS, 20.0, 40.0)
    A = wanet_routing_matrix()

    # keep every delay denominator at least 1 on the 10%-inflated box
    worst_load = A @ (1.1 * B)
    slack = C + xi - worst_load
    if slack.min() < 1.0:
        scale = ((C + xi - 1.0) / worst_load).min()
        B = B * scale

    def profile_oracle(x: np.ndarray) -> np.ndarray:
        load = A @ x
        den = C - load + xi
        d = kappa / den
        own_price = A.T @ d
        marginal = A.T @ (kappa / (den * den))
        return -chi * _soft_log1p_grad(x) + own_price + x * marginal

    def make_oracle(i: int):
        cols = np.flatnonzero(A[:, i])

        def oracle(xi_own, others):
            x = np.insert(others, i, xi_own[0])
            load = A @ x
            den = C - load + xi
            grad = -chi[i] * _soft_log1p_grad(xi_own[0])
            grad += float(np.sum(kappa[cols] / den[cols]))
            grad += xi_own[0] * float(np.sum(kappa[cols] / den[cols] ** 2))
            return np.array([grad])
        return oracle

    b_share = C / N_USERS
    players = [
        Player(1, make_oracle(i), A[:, i:i + 1].copy(), b_share.copy(),
               Box(np.zeros(1), np.array([B[i]])))
        for i in range(N_USERS)
    ]
    game = Game(players, INEQUALITY,
                profile_oracle=profile_oracle,
                generator={"name": "rate-control", "seed": seed,
                           "C": C.tolist(), "B": B.tolist(),
                           "chi": chi.tolist(), "kappa": kappa.tolist(),
                           "xi": xi.tolist()})
    _audit(game, seed, "rate-control game")
    return game


def _rebuild_rate_control(data: dict) -> Game:
    return rate_control_game(data["generator"]["seed"])


# -- task-allocation game ---------------------------------------------------------

N_WORKERS = 14
N_TASKS = 8

#: (first-pair task, second-pair task) per worker, 0-based: the first two
#: output channels feed the first task, the last two the second
TASK_PATTERN = (
    (0, 1), (1, 2), (2, 3), (1, 2), (2, 3), (4, 5), (5, 6),
    (4, 5), (5, 6), (6, 7), (1, 4), (1, 5), (2, 6), (3, 6),
)


def task_allocation_game(seed: int) -> Game:
    """Fourteen workers split four-channel outputs across eight tasks.

    Worker costs combine a per-channel max of a quadratic and a linear
    branch (ties resolve to the quadratic branch's gradient), a squared
    soft-demand term, and a quadratic regularization; revenue is the
    task-price vector (logarithmically decreasing in total allocation)
    applied to the worker's contribution.  The total allocation is coupled
    by an equality constraint shared as equal local slices.

    Draw order: loads ``C`` (8), price slopes ``chi`` (8), price offsets
    ``kappa`` (8); then per worker: allocation weights (4), quadratic
    coefficients ``q`` (4), slopes ``xi`` (4), linear rates ``l`` (4),
    demand ``d`` (1), mix weights ``p`` (4, normalized to sum one), a 4x4
    matrix for the regularizer ``S = I/2 + G G^T / 4`` (16), caps ``B`` (4).
    """
    rng = SplitMix64(seed)
    C = rng.uniforms(N_TASKS, 1.0, 2.0)
    chi = rng.uniforms(N_TASKS, 0.1, 0.6)
    kappa = rng.uniforms(N_TASKS, 10.0, 20.0)

    blocks = []
    for w in range(N_WORKERS):
        weights = rng.uniforms(4, 0.5, 1.0)
        A_w = np.zeros((N_TASKS, 4))
        blue, red = TASK_PATTERN[w]
        A_w[blue, 0] = weights[0]
        A_w[blue, 1] = weights[1]
        A_w[red, 2] = weights[2]
        A_w[red, 3] = weights[3]
        q = rng.uniforms(4, 1.0, 2.0)
        xi_w = rng.uniforms(4, 6.0, 12.0)
        l = rng.uniforms(4, 1.0, 3.0)
        d = rng.uniform(1.0, 2.0)
        p_raw = rng.uniforms(4, 0.0, 1.0)
        p = p_raw / p_raw.sum()
        G = rng.uniforms(16, -1.0, 1.0).reshape(4, 4)
        S = 0.5 * np.eye(4) + 0.25 * (G @ G.T)
        B = rng.uniforms(4, 1.0, 3.0)
        blocks.append(dict(A=A_w, q=q, xi=xi_w, l=l, d=d, p=p, S=S, B=B))

    A_full = np.hstack([blk["A"] for blk in blocks])

    def prices(load: np.ndarray) -> np.ndarray:
        return kappa - chi * _soft_log1p(load)

    def branch_grad(blk, y: np.ndarray) -> np.ndarray:
        # ties resolve to the first (quadratic) branch
        quad = blk["q"] * y * y - blk["xi"] * y
        lin = blk["l"] * y
        return np.where(quad >= lin, 2.0 * blk["q"] * y - blk["xi"], blk["l"])

    def smooth_cost_grad(blk, y: np.ndarray) -> np.ndarray:
        return (2.0 * (blk["p"] @ y - blk["d"]) * blk["p"]
                + 2.0 * blk["S"] @ y)

    # per-worker data stacked along a leading worker axis; the profile
    # oracles apply `@` to these stacks, which evaluates each worker's
    # products exactly as the per-worker oracles do (einsum would reorder
    # the sums and change the last bit).  The transpose stays a view, which
    # makes `@` run the per-block kernel of `blk["A"].T @ price`
    A_stack = np.stack([blk["A"] for blk in blocks])
    At_stack = A_stack.transpose(0, 2, 1)
    S_stack = np.stack([blk["S"] for blk in blocks])
    p_stack, q_stack, xi_stack, l_rows = (
        np.stack([blk[key] for blk in blocks]) for key in ("p", "q", "xi", "l"))
    d_stack = np.array([blk["d"] for blk in blocks])

    def _grad_profile(x: np.ndarray, with_branch: bool) -> np.ndarray:
        load = A_full @ x
        price = prices(load)
        slope = chi * _soft_log1p_grad(load)
        y = x.reshape(N_WORKERS, 4, 1)
        own = A_stack @ y
        demand = (p_stack[:, None, :] @ y)[:, 0] - d_stack[:, None]
        g = (2.0 * demand * p_stack + (2.0 * S_stack @ y)[:, :, 0]
             - (At_stack @ price[:, None])[:, :, 0]
             + (At_stack @ (slope[:, None] * own))[:, :, 0])
        if with_branch:
            y = y[:, :, 0]
            quad = q_stack * y * y - xi_stack * y
            g = g + np.where(quad >= l_rows * y, 2.0 * q_stack * y - xi_stack,
                             l_rows)
        return g.reshape(-1)

    def profile_oracle(x: np.ndarray) -> np.ndarray:
        return _grad_profile(x, with_branch=True)

    def smooth_oracle(x: np.ndarray) -> np.ndarray:
        return _grad_profile(x, with_branch=False)

    def make_oracle(w: int):
        blk = blocks[w]

        def oracle(y, others):
            x = np.concatenate([others[:4 * w], y, others[4 * w:]])
            load = A_full @ x
            price = prices(load)
            slope = chi * _soft_log1p_grad(load)
            own = blk["A"] @ y
            return (branch_grad(blk, y) + smooth_cost_grad(blk, y)
                    - blk["A"].T @ price + blk["A"].T @ (slope * own))
        return oracle

    # every worker keeps a 1/15 slice of the load vector; with fourteen
    # workers the coupling target is the sum of slices, not the full load
    b_share = C / 15.0
    players = [
        Player(4, make_oracle(w), blocks[w]["A"].copy(), b_share.copy(),
               Box(np.zeros(4), blocks[w]["B"].copy()))
        for w in range(N_WORKERS)
    ]

    # on [0, B] the max term equals its linear branch (the documented ranges
    # guarantee q B <= xi + l), so its prox over the box is an exact clip
    l_stack = np.concatenate([blk["l"] for blk in blocks])
    lower = np.concatenate([np.zeros(4) for _ in blocks])
    upper = np.concatenate([blk["B"] for blk in blocks])
    for blk in blocks:
        if np.any(blk["q"] * blk["B"] > blk["xi"] + blk["l"]):
            raise ValidationError(
                "max-branch crossover inside the box; the closed-form prox "
                "is only valid for the documented parameter ranges")

    def separable_prox(v: np.ndarray, gamma: float) -> np.ndarray:
        return np.clip(v - gamma * l_stack, lower, upper)

    game = Game(players, EQUALITY,
                profile_oracle=profile_oracle,
                smooth_oracle=smooth_oracle,
                separable_prox=separable_prox,
                generator={"name": "task-allocation", "seed": seed,
                           "C": C.tolist(), "chi": chi.tolist(),
                           "kappa": kappa.tolist(),
                           "workers": [
                               {key: np.asarray(blk[key]).tolist()
                                for key in ("q", "xi", "l", "d", "p", "S", "B")}
                               for blk in blocks]})
    _audit(game, seed, "task-allocation game")
    return game


def _rebuild_task_allocation(data: dict) -> Game:
    return task_allocation_game(data["generator"]["seed"])


# -- benchmark parameter presets ----------------------------------------------------

def rate_control_params(game: Game, graph: CommGraph,
                        mu: MuSchedule | None = None) -> AlgoParams:
    """Published step sizes for the rate-control experiment."""
    return AlgoParams.uniform(game, graph, r=10.0, h=0.5, w=0.5, rho=1.1,
                              mu=mu if mu is not None else inverse_square())


def task_allocation_params(game: Game, graph: CommGraph, seed: int,
                           mu: MuSchedule | None = None) -> AlgoParams:
    """Diagonal step-size draws for the task-allocation experiment.

    Draw order: per player the ``R`` diagonal (n_i values in [4, 8]), then
    per player the ``H`` diagonal (m values in [0.2, 0.4]), then per edge
    the ``W`` diagonal (m values in [0.2, 0.4]).
    """
    rng = SplitMix64(seed ^ 0x57E9)
    r_diags = [rng.uniforms(p.dim, 4.0, 8.0) for p in game.players]
    h_diags = np.stack([rng.uniforms(game.m, 0.2, 0.4)
                        for _ in range(game.n_players)])
    w_diags = np.stack([rng.uniforms(game.m, 0.2, 0.4)
                        for _ in range(graph.n_edges)])
    return AlgoParams.diagonal(r_diags, h_diags, w_diags, 1.1,
                               mu if mu is not None else inverse_square())


def benchmark_graph(name: str) -> CommGraph:
    """Builtin communication topologies (documented stand-ins)."""
    if name == "chain15":
        return path_graph(15)
    if name == "chain14":
        return path_graph(14)
    if name == "pair":
        return path_graph(2)
    raise ValidationError(f"unknown builtin graph {name!r}")


BUILTIN_GAMES = {
    "quadratic-equality": lambda seed: quadratic_game(kind=EQUALITY)[0],
    "quadratic-inequality": lambda seed: quadratic_game(kind=INEQUALITY)[0],
    "rate-control": rate_control_game,
    "task-allocation": task_allocation_game,
}

register_rebuilder("quadratic", _rebuild_quadratic)
register_rebuilder("rate-control", _rebuild_rate_control)
register_rebuilder("task-allocation", _rebuild_task_allocation)
