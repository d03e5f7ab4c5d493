"""Seeded benchmark game generators plus desk-scale analytic test games.

Two application-scale generators (a rate-control congestion game with an
inequality-coupled capacity constraint, and a task-allocation game with an
equality-coupled demand constraint) and a two-player quadratic game whose
equilibrium has a closed form, used as the oracle throughout the test
suite.  All randomness flows through the documented SplitMix64 stream in a
fixed draw order, so instances are reproducible from their seed.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .games import Box, EQUALITY, Game, INEQUALITY, Player
from .graphs import CommGraph, path_graph
from .params import AlgoParams
from .rng import SplitMix64


# -- smooth extension of log(1 + u) below zero ---------------------------------

def _soft_log1p_and_grad(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(1+u) and its derivative for u >= 0, with a quadratic C^2
    extension for u < 0.

    Relaxed iterates can leave the box by a fraction of its width; the
    extension keeps logarithmic utilities defined there while agreeing with
    the exact formula on the box.  When no entry is negative (every call on
    the box) only the exact formulas are evaluated.  The test is the
    reduction ``u.min()`` runs, called without its Python-level frame.
    """
    if np.minimum.reduce(u) >= 0.0:
        return np.log1p(u), 1.0 / (1.0 + u)
    nonnegative, clamped = u >= 0.0, np.maximum(u, 0.0)
    return (np.where(nonnegative, np.log1p(clamped), u - 0.5 * u * u),
            np.where(nonnegative, 1.0 / (1.0 + clamped), 1.0 - u))


def _soft_log1p_grad(u: np.ndarray) -> np.ndarray:
    """The derivative half of `_soft_log1p_and_grad`, with its branches,
    for callers that need no value."""
    if np.minimum.reduce(u) >= 0.0:
        return 1.0 / (1.0 + u)
    return np.where(u >= 0.0, 1.0 / (1.0 + np.maximum(u, 0.0)), 1.0 - u)


def _draw_runs(rng: SplitMix64, repeats: int, runs) -> list:
    """``repeats`` rows of draws, each the runs ``(count, low, high)`` in
    order, taken from ``rng`` in one batch: one (repeats, count) array per
    run, the values of one `SplitMix64.uniform` call per entry."""
    counts = [count for count, _, _ in runs]
    low = np.repeat([lo for _, lo, _ in runs], counts)
    high = np.repeat([hi for _, _, hi in runs], counts)
    rows = rng.uniforms(repeats * len(low), np.tile(low, repeats),
                        np.tile(high, repeats)).reshape(repeats, -1)
    return np.split(rows, np.cumsum(counts)[:-1], axis=1)


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

    # the box with a rounding margin, as Python floats: comparing the two
    # coordinates one by one costs less than a numpy reduction
    low, high = -half_width - 1e-12, half_width + 1e-12

    def exact_subgame_solver(R):
        # exact equilibrium of the strongly monotone affine subgame with
        # matrix G = J + diag(R), bound once to the R vector: the interior
        # solve, or else one coordinate at a bound and the other solving its
        # own equation, clipped to the box (for the corners)
        G = J + np.diag(R)
        # G's elimination constants, bound once: G[0, 0] = 1 + R_0 > 1 >=
        # |delta| = |G[1, 0]|, so the elimination needs no row swap, and
        # u = det G / G[0, 0] > 0
        (g00, g01), (g10, g11) = G.tolist()
        l = g10 * (1.0 / g00)
        u = g11 - l * g01
        (R0, R1), (t0, t1) = R.tolist(), t.tolist()

        def solve(anchor, shift):
            # the right-hand side R anchor + t - shift in Python floats,
            # which on two entries costs less than three array operations
            (a0, a1), (s0, s1) = anchor.tolist(), shift.tolist()
            r0, r1 = R0 * a0 + t0 - s0, R1 * a1 + t1 - s1
            y1 = (r1 - l * r0) / u
            y0 = (r0 - g01 * y1) / g00
            y = np.array([y0, y1])
            if low <= y0 <= high and low <= y1 <= high:
                return y
            rhs = np.array([r0, r1])
            for fixed, side in ((1, -1.0), (1, 1.0), (0, -1.0), (0, 1.0)):
                free = 1 - fixed
                y[fixed] = side * half_width
                y[free] = np.clip((rhs[free] - G[free, fixed] * y[fixed]) / G[free, free],
                                  -half_width, half_width)
                # the fixed coordinate's gradient points out of the box
                if side * (G @ y - rhs)[fixed] <= 1e-12:
                    return y
            raise ValidationError("no valid active set found for the subgame")
        return solve

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
    # every delay denominator C - load + xi is at least 8 on the
    # 10%-inflated box: no link carries more than two routes, so its load
    # there is at most 2 * 1.1 * 10 = 22, and C + xi >= 30
    A = wanet_routing_matrix()
    # bound once: negation is exact, and the transpose is the same view
    # (same strides) that taking it on every call would give
    neg_chi, At = -chi, A.T

    def profile_oracle(x: np.ndarray) -> np.ndarray:
        load = A @ x
        den = C - load + xi
        d = kappa / den
        own_price = At @ d
        marginal = At @ (kappa / (den * den))
        return neg_chi * _soft_log1p_grad(x) + own_price + x * marginal

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
    return game


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
    C, chi, kappa = (run[0] for run in _draw_runs(rng, 1, (
        (N_TASKS, 1.0, 2.0), (N_TASKS, 0.1, 0.6), (N_TASKS, 10.0, 20.0))))
    # per-worker data along a leading worker axis, in the documented order
    weights, q, xi, l, d, p_raw, G, B = _draw_runs(rng, N_WORKERS, (
        (4, 0.5, 1.0), (4, 1.0, 2.0), (4, 6.0, 12.0), (4, 1.0, 3.0),
        (1, 1.0, 2.0), (4, 0.0, 1.0), (16, -1.0, 1.0), (4, 1.0, 3.0)))
    A = np.zeros((N_WORKERS, N_TASKS, 4))
    A[np.arange(N_WORKERS)[:, None], np.repeat(TASK_PATTERN, 2, axis=1),
      np.arange(4)] = weights
    d = d[:, 0]
    p = p_raw / p_raw.sum(axis=1, keepdims=True)
    S = np.array([0.5 * np.eye(4) + 0.25 * (Gw @ Gw.T) for Gw in G.reshape(-1, 4, 4)])

    # on [0, B] the max term equals its linear branch (the documented ranges
    # guarantee q B <= xi + l), so its prox over the box is an exact clip
    if np.any(q * B > xi + l):
        raise ValidationError(
            "max-branch crossover inside the box; the closed-form prox "
            "is only valid for the documented parameter ranges")

    A_full = np.hstack(A)

    def prices_and_slopes(load: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        value, grad = _soft_log1p_and_grad(load)
        return kappa - chi * value, chi * grad

    # the profile oracles as flat products over the 56-entry profile: Q and c
    # hold the demand and regularizer terms, 2 (p p^T + S) y - 2 d p.  Every
    # channel (column of A_full) feeds one task, t_col, with weight a_col, so
    # A_full^T v is a_col v[t_col] exactly.  Channels come in pairs (pair_col)
    # that feed one task each (t_pair), and a worker's own contribution to a
    # task is the sum over the pair that feeds it.  They sum in another order
    # than the per-worker oracles, and agree with them to 1e-12
    # (tests/test_games.py)
    Q = np.zeros((4 * N_WORKERS, 4 * N_WORKERS))
    for w in range(N_WORKERS):
        Q[4 * w:4 * w + 4, 4 * w:4 * w + 4] = 2.0 * (np.outer(p[w], p[w]) + S[w])
    c = (2.0 * d[:, None] * p).reshape(-1)
    t_pair = np.array(TASK_PATTERN).reshape(-1)
    t_col = np.repeat(t_pair, 2)
    a_col = A_full[t_col, np.arange(4 * N_WORKERS)]
    pair_col = np.arange(4 * N_WORKERS) // 2
    q_flat, xi_flat, l_flat = q.reshape(-1), xi.reshape(-1), l.reshape(-1)

    def _grad_profile(x: np.ndarray, with_branch: bool) -> np.ndarray:
        price, slope = prices_and_slopes(A_full @ x)
        channel = a_col * x
        own = channel[0::2] + channel[1::2]
        g = (Q @ x - c - a_col * price[t_col]
             + a_col * (slope[t_pair] * own)[pair_col])
        if with_branch:
            quad = q_flat * x * x - xi_flat * x
            g += np.where(quad >= l_flat * x, 2.0 * q_flat * x - xi_flat, l_flat)
        return g

    def profile_oracle(x: np.ndarray) -> np.ndarray:
        return _grad_profile(x, with_branch=True)

    def smooth_oracle(x: np.ndarray) -> np.ndarray:
        return _grad_profile(x, with_branch=False)

    def make_oracle(w: int):
        def oracle(y, others):
            x = np.concatenate([others[:4 * w], y, others[4 * w:]])
            price, slope = prices_and_slopes(A_full @ x)
            own = A[w] @ y
            # ties resolve to the first (quadratic) branch
            quad = q[w] * y * y - xi[w] * y
            branch = np.where(quad >= l[w] * y, 2.0 * q[w] * y - xi[w], l[w])
            return (branch + (2.0 * (p[w] @ y - d[w]) * p[w] + 2.0 * S[w] @ y)
                    - A[w].T @ price + A[w].T @ (slope * own))
        return oracle

    # every worker keeps a 1/15 slice of the load vector; with fourteen
    # workers the coupling target is the sum of slices, not the full load
    b_share = C / 15.0
    players = [
        Player(4, make_oracle(w), A[w].copy(), b_share.copy(),
               Box(np.zeros(4), B[w].copy()))
        for w in range(N_WORKERS)
    ]

    lower, upper = np.zeros(N_WORKERS * 4), B.reshape(-1)

    def separable_prox(v: np.ndarray, gamma: float) -> np.ndarray:
        # np.minimum/np.maximum equal np.clip bit for bit, without its
        # Python-level wrapper
        return np.minimum(np.maximum(v - gamma * l_flat, lower), upper)

    workers = {"q": q, "xi": xi, "l": l, "d": d, "p": p, "S": S, "B": B}
    game = Game(players, EQUALITY,
                profile_oracle=profile_oracle,
                smooth_oracle=smooth_oracle,
                separable_prox=separable_prox,
                generator={"name": "task-allocation", "seed": seed,
                           "C": C.tolist(), "chi": chi.tolist(),
                           "kappa": kappa.tolist(),
                           "workers": [{key: v[w].tolist()
                                        for key, v in workers.items()}
                                       for w in range(N_WORKERS)]})
    return game


# -- benchmark parameter presets ----------------------------------------------------

def rate_control_params(game: Game, graph: CommGraph,
                        mu0: float = 1.0) -> AlgoParams:
    """Published step sizes for the rate-control experiment."""
    return AlgoParams.uniform(game, graph, r=10.0, h=0.5, w=0.5, rho=1.1, mu0=mu0)


def task_allocation_params(game: Game, graph: CommGraph, seed: int,
                           rho: float = 1.1, mu0: float = 1.0) -> AlgoParams:
    """Diagonal step-size draws for the task-allocation experiment.

    Draw order: per player the ``R`` diagonal (n_i values in [4, 8]), then
    per player the ``H`` diagonal (m values in [0.2, 0.4]), then per edge
    the ``W`` diagonal (m values in [0.2, 0.4]).
    """
    rng = SplitMix64(seed ^ 0x57E9)
    r, h, w = _draw_runs(rng, 1, (
        (game.n, 4.0, 8.0), (game.n_players * game.m, 0.2, 0.4),
        (graph.n_edges * game.m, 0.2, 0.4)))
    return AlgoParams(r[0], h.reshape(game.n_players, game.m),
                      w.reshape(graph.n_edges, game.m), rho, mu0)


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

#: generator families by the name in their ``generator`` block, each
#: rebuilding its game from that block (`games.game_from_dict`)
FAMILIES = {
    "quadratic": lambda g: quadratic_game(g["t"], g["delta"], g["c"], g["kind"],
                                          g["half_width"])[0],
    "rate-control": lambda g: rate_control_game(g["seed"]),
    "task-allocation": lambda g: task_allocation_game(g["seed"]),
}
