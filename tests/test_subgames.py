import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gnesolve as gs
from gnesolve.config import DEFAULTS
from gnesolve.errors import InexactnessError, NumericError, ValidationError
from gnesolve.games import Box, Player
from gnesolve.rng import SplitMix64
from gnesolve.subgames import (InnerSettings, InnerSolver, Subgame,
                               equality_subgame, inequality_subgame)


def wide_affine_game(a):
    """One-player game with pseudo-gradient x - a on a wide box."""
    a = np.asarray(a, dtype=float)
    box = Box(np.full(a.size, -100.0), np.full(a.size, 100.0))
    player = Player(a.size, lambda xi, o: xi - a,
                    np.zeros((1, a.size)), np.zeros(1), box)
    return gs.Game([player], gs.EQUALITY)


def test_equality_shift_hand_value(eq_game, pair_graph, toy_params):
    # anchored at the origin with zero multipliers and edge variables, the
    # price reduces to H (A x - b) pulled through A^T: 0.5 * (0 - 0.5) each
    game, _ = eq_game
    sub = equality_subgame(game, pair_graph, toy_params,
                           np.zeros(2), np.zeros((2, 1)), np.zeros((1, 1)))
    assert np.allclose(sub.shift, [-0.25, -0.25])
    assert sub.params.r_min == pytest.approx(10.0)


def test_equality_shift_vanishes_with_local_feasibility(pair_graph):
    # b_i = A_i x_i and no edge signal: the price term is zero
    game, _ = gs.quadratic_game(c=2.0)   # b_i = 1, so x = (1, 1) is tracked
    params = gs.AlgoParams.uniform(game, pair_graph, 10.0, 0.5, 0.5, 1.1)
    sub = equality_subgame(game, pair_graph, params,
                           np.array([1.0, 1.0]), np.zeros((2, 1)),
                           np.zeros((1, 1)))
    assert np.allclose(sub.shift, 0.0)


def test_inequality_shift(eq_game, pair_graph, toy_params):
    game, _ = gs.quadratic_game(kind=gs.INEQUALITY)
    lam = np.array([[1.0], [0.0]])
    sub = inequality_subgame(game, toy_params, np.zeros(2), lam)
    assert np.allclose(sub.shift, [1.0, 0.0])
    assert np.allclose(
        inequality_subgame(game, toy_params, np.zeros(2),
                           np.zeros((2, 1))).shift, 0.0)


def test_subgame_strong_monotonicity_sampled(eq_game, pair_graph, toy_params):
    # the quadratic game has no separable prox: the smooth part is the map
    game, _ = eq_game
    sub = equality_subgame(game, pair_graph, toy_params,
                           np.zeros(2), np.zeros((2, 1)), np.zeros((1, 1)))
    rng = SplitMix64(11)
    sigma = sub.params.r_min
    for _ in range(100):
        x = game.sample_profile(rng)
        y = game.sample_profile(rng)
        inner = (x - y) @ (sub.smooth_gradient(x) - sub.smooth_gradient(y))
        assert inner >= sigma * np.linalg.norm(x - y) ** 2 - 1e-9


def test_oracle_mode_affine_fixed_point():
    game = wide_affine_game(np.array([2.0, -3.0]))
    params = gs.AlgoParams.uniform(game, gs.path_graph(2), 1.0, 0.5, 0.5, 1.0)
    # park the proximal anchor at the solution so the equilibrium is `a`
    sub = Subgame(game, np.array([2.0, -3.0]), np.zeros(2), params)
    solver = InnerSolver(InnerSettings(mode="oracle"))
    for mu in (1e-2, 1e-5, 1e-9):
        sol = solver.solve(sub, mu)
        assert np.linalg.norm(sol.x - np.array([2.0, -3.0])) <= mu
        assert sol.certificate.bound <= mu


def test_oracle_mode_matches_linear_solve(eq_game, pair_graph, toy_params):
    # first outer subgame of the equality loop: solve (J + R) x = R x0 + t - c
    game, _ = eq_game
    x0 = np.zeros(2)
    sub = equality_subgame(game, pair_graph, toy_params, x0,
                           np.zeros((2, 1)), np.zeros((1, 1)))
    J = np.array([[1.0, 0.5], [0.5, 1.0]])
    expected = np.linalg.solve(J + 10.0 * np.eye(2),
                               10.0 * x0 + np.array([2.0, 1.0]) - sub.shift)
    solver = InnerSolver(InnerSettings(mode="oracle"))
    sol = solver.solve(sub, 1e-8)
    assert np.linalg.norm(sol.x - expected) <= 1e-8
    exact = InnerSolver(InnerSettings(mode="exact")).solve(sub, 0.0)
    assert np.allclose(exact.x, expected, atol=1e-12)
    # the oracle-mode equilibrium satisfies the subgame optimality residual
    assert np.linalg.norm(sol.exact - sub.step(sol.exact, 0.05)) <= 1e-10


def test_residual_mode_certificate(eq_game, pair_graph, toy_params):
    game, _ = eq_game
    sub = equality_subgame(game, pair_graph, toy_params, np.zeros(2),
                           np.zeros((2, 1)), np.zeros((1, 1)))
    solver = InnerSolver(InnerSettings(mode="residual"))
    exact = InnerSolver(InnerSettings(mode="exact")).solve(sub, 0.0).x
    for mu in (1e-3, 1e-6):
        sol = solver.solve(sub, mu)
        assert sol.certificate.bound <= mu
        assert np.linalg.norm(sol.x - exact) <= sol.certificate.bound
    with pytest.raises(ValidationError):
        solver.solve(sub, 0.0)


def test_monotone_tolerance(eq_game, pair_graph, toy_params):
    game, _ = eq_game
    sub = equality_subgame(game, pair_graph, toy_params, np.zeros(2),
                           np.zeros((2, 1)), np.zeros((1, 1)))
    solver = InnerSolver(InnerSettings(mode="oracle"))
    tight = solver.solve(sub, 1e-7).certificate.bound
    loose = solver.solve(sub, 1e-3).certificate.bound
    assert tight <= loose


def test_schedule_certificates(eq_game, pair_graph):
    # tolerances certified against the summable schedule for fifty steps
    game, _ = eq_game
    params = gs.AlgoParams.uniform(game, gs.path_graph(2), 10.0, 0.5, 0.5,
                                   1.1, mu=gs.inverse_square(1.0))
    solver = InnerSolver(InnerSettings(mode="oracle"))
    sub = equality_subgame(game, gs.path_graph(2), params, np.zeros(2),
                           np.zeros((2, 1)), np.zeros((1, 1)))
    for k in range(1, 51):
        mu_k = params.mu(k)
        sol = solver.solve(sub, mu_k)
        assert sol.certificate.bound <= mu_k


def test_uniqueness_from_different_starts(eq_game, pair_graph, toy_params):
    game, _ = eq_game
    mu = 1e-6
    solver = InnerSolver(InnerSettings(mode="oracle"))
    results = []
    for anchor in (np.array([5.0, 5.0]), np.array([-5.0, 2.0])):
        sub = equality_subgame(game, pair_graph, toy_params, anchor,
                               np.zeros((2, 1)), np.zeros((1, 1)))
        # same subgame data except the anchor; solve each to mu and compare
        # against its own equilibrium instead (uniqueness per subgame)
        a = solver.solve(sub, mu)
        b = InnerSolver(InnerSettings(mode="residual")).solve(sub, mu)
        results.append(np.linalg.norm(a.x - b.x))
    assert max(results) <= 2.0 * mu


def test_iteration_cap_raises(eq_game, pair_graph, toy_params):
    game, _ = eq_game
    sub = equality_subgame(game, pair_graph, toy_params, np.zeros(2),
                           np.zeros((2, 1)), np.zeros((1, 1)))
    solver = InnerSolver(InnerSettings(mode="residual", cap=1))
    with pytest.raises(InexactnessError) as err:
        solver.solve(sub, 1e-12)
    assert err.value.achieved is not None


def test_exact_mode_requires_solver(pair_graph, toy_params):
    game = wide_affine_game(np.zeros(1))
    params = gs.AlgoParams.uniform(game, gs.path_graph(2), 1.0, 0.5, 0.5, 1.0)
    sub = Subgame(game, np.zeros(1), np.zeros(1), params)
    with pytest.raises(ValidationError, match="exact inner mode"):
        InnerSolver(InnerSettings(mode="exact")).solve(sub, 0.0)


# -- the Lipschitz-free residual certificate ---------------------------------------

def assert_residual_certificates(sub, x_star, mus):
    """Residual mode certifies every tolerance: the true distance is within
    the bound and the bound within the tolerance."""
    gamma0 = 1.0 / sub.params.r_max
    # x_star is a fixed point of the forward-backward map at two fixed
    # steps, which checks the reference apart from the certificate behind it
    for gamma in (gamma0, 0.1 * gamma0):
        assert (np.linalg.norm(x_star - sub.step(x_star, gamma))
                <= 1e-10 * (1.0 + np.linalg.norm(x_star)))
    solver = InnerSolver()
    for mu in mus:
        sol = solver.solve(sub, mu)
        assert sol.certificate.bound <= mu
        # x_star is oracle mode's reference, certified to 1e-13 relative;
        # the slack covers its own distance to the equilibrium
        dist = float(np.linalg.norm(sol.x - x_star))
        assert dist <= sol.certificate.bound + 1e-10 * (1.0 + mu)


def affine_game(rng, n_players, dim, prox):
    """Monotone affine pseudo-gradient ``M x + c`` (PSD plus skew part) on
    a random box; with ``prox`` a linear cost ``l . x`` is handled by a
    separable prox instead of the oracle."""
    n = n_players * dim
    P = rng.normal(size=(n, n)) / np.sqrt(n)
    K = rng.normal(size=(n, n))
    M = P @ P.T + (K - K.T) / 2.0
    c = rng.normal(size=n) * 3.0
    lower = rng.uniform(-2.0, 0.0, size=n)
    upper = lower + rng.uniform(0.5, 3.0, size=n)
    l = rng.uniform(0.0, 2.0, size=n) if prox else np.zeros(n)
    # the profile oracle takes precedence; the per-player oracles are unused
    players = [Player(dim, lambda xi, o: xi, np.zeros((1, dim)), np.zeros(1),
                      Box(lower[i * dim:(i + 1) * dim],
                          upper[i * dim:(i + 1) * dim]))
               for i in range(n_players)]
    extra = {}
    if prox:
        extra = dict(smooth_oracle=lambda x: M @ x + c,
                     separable_prox=lambda v, g: np.clip(v - g * l, lower, upper))
    return gs.Game(players, gs.EQUALITY,
                   profile_oracle=lambda x: M @ x + c + l, **extra)


def test_non_finite_smooth_oracle_fails_at_once():
    # the prox path checks its oracle as the pseudo-gradient does: the first
    # NaN raises, instead of an inner loop that runs to its cap
    calls = []

    def smooth(x):
        calls.append(x)
        return np.full(x.size, np.nan)

    player = Player(2, lambda xi, o: xi, np.zeros((1, 2)), np.zeros(1),
                    Box(np.full(2, -1.0), np.full(2, 1.0)))
    game = gs.Game([player], gs.EQUALITY, smooth_oracle=smooth,
                   separable_prox=lambda v, g: np.clip(v, -1.0, 1.0))
    params = gs.AlgoParams.uniform(game, gs.path_graph(2), 1.0, 0.5, 0.5, 1.0)
    sub = Subgame(game, np.zeros(2), np.zeros(2), params)
    with pytest.raises(NumericError, match="non-finite"):
        InnerSolver().solve(sub, 1e-6)
    assert len(calls) == 1
    # the stationarity residual goes through the same oracle
    with pytest.raises(NumericError, match="non-finite"):
        game.natural_step(np.zeros(2), np.zeros(2))


@given(st.integers(1, 3), st.integers(1, 3), st.booleans(),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_residual_certificate_affine_subgames(n_players, dim, prox, seed):
    rng = np.random.default_rng(seed)
    game = affine_game(rng, n_players, dim, prox)
    R = []
    for _ in range(n_players):
        G = rng.normal(size=(dim, dim))
        R.append(rng.uniform(0.2, 3.0) * np.eye(dim) + 0.5 * G @ G.T)
    # only R enters the subgame; H and W are placeholders
    params = gs.AlgoParams(R, np.ones((n_players, 1, 1)), np.ones((1, 1, 1)),
                           1.0)
    anchor = rng.uniform(game.box_lower - 1.0, game.box_upper + 1.0)
    sub = Subgame(game, anchor, rng.normal(size=game.n), params)
    x_star = InnerSolver(InnerSettings(mode="oracle")).solve(sub, 0.0).x
    assert_residual_certificates(sub, x_star, (1e-2, 1e-4, 1e-6))


def box_affine_equilibrium(G, rhs, lower, upper):
    """Equilibrium of ``y -> G y - rhs`` on a box by active-set enumeration:
    each coordinate is free, at its lower or at its upper bound."""
    n = rhs.size
    for pattern in itertools.product((0, -1, 1), repeat=n):
        pattern = np.array(pattern)
        y = np.where(pattern < 0, lower, np.where(pattern > 0, upper, 0.0))
        free, fixed = pattern == 0, pattern != 0
        if free.any():
            y[free] = np.linalg.solve(G[np.ix_(free, free)],
                                      rhs[free] - G[np.ix_(free, fixed)] @ y[fixed])
        grad = G @ y - rhs
        if (np.all(y >= lower - 1e-12) and np.all(y <= upper + 1e-12)
                and np.all(grad[pattern < 0] >= -1e-12)
                and np.all(grad[pattern > 0] <= 1e-12)):
            return y
    raise AssertionError("no active set satisfies the box KKT conditions")


def test_residual_mode_certifies_skew_dominated_subgame():
    # 2-player affine game whose skew part dominates its symmetric part: a
    # fixed step 1 / (sigma + L) makes the forward map expand, while the
    # adaptive step shrinks to what the last move shows and certifies, in
    # both modes
    M = np.array([[0.5, 10.0], [-10.0, 0.5]])
    c = np.array([1.0, -2.0])
    lower, upper = np.full(2, -1.0), np.full(2, 1.0)
    players = [Player(1, lambda xi, o: xi, np.ones((1, 1)), np.zeros(1),
                      Box(lower[i:i + 1], upper[i:i + 1])) for i in range(2)]
    game = gs.Game(players, gs.EQUALITY, profile_oracle=lambda x: M @ x + c)
    params = gs.AlgoParams(np.ones((2, 1, 1)), np.ones((2, 1, 1)),
                           np.ones((1, 1, 1)), 1.0)
    anchor = np.array([0.8, -0.5])
    sub = Subgame(game, anchor, np.zeros(2), params)
    x_star = box_affine_equilibrium(M + np.eye(2), anchor - c, lower, upper)
    sol = InnerSolver().solve(sub, 1e-6)
    assert sol.certificate.bound <= 1e-6
    assert np.linalg.norm(sol.x - x_star) <= sol.certificate.bound
    oracle = InnerSolver(InnerSettings(mode="oracle")).solve(sub, 1e-6)
    assert oracle.certificate.bound <= 1e-6
    assert np.linalg.norm(oracle.exact - x_star) <= 1e-12


def first_subgame(name):
    """Subgame of the first outer iteration from the seed-0 start."""
    if name == "toy":
        game, _ = gs.quadratic_game()
        graph = gs.path_graph(2)
        params = gs.AlgoParams.uniform(game, graph, 10.0, 0.5, 0.5, 1.1,
                                       mu=gs.inverse_square(1.0))
    elif name == "rate-control":
        game = gs.rate_control_game(0)
        graph = gs.benchmark_graph("chain15")
        params = gs.rate_control_params(game, graph)
    else:
        game = gs.task_allocation_game(0)
        graph = gs.benchmark_graph("chain14")
        params = gs.task_allocation_params(game, graph, seed=0)
    state = gs.initial_state(game, graph, seed=0)
    if game.kind == gs.INEQUALITY:
        return inequality_subgame(game, params, state.x, state.lam)
    return equality_subgame(game, graph, params, state.x, state.lam, state.Z)


@pytest.mark.parametrize("name", ["rate-control", "task-allocation"])
def test_residual_certificate_published_first_subgames(name):
    sub = first_subgame(name)
    x_star = InnerSolver(InnerSettings(mode="oracle")).solve(sub, 0.0).x
    mu_1 = sub.params.mu(1)
    assert_residual_certificates(sub, x_star, (mu_1, 1e-3 * mu_1, 1e-6))


@pytest.mark.parametrize("name", ["toy", "rate-control", "task-allocation"])
def test_oracle_mode_returns_the_residual_point(name):
    # one trajectory: oracle mode only runs on past residual mode's stop
    sub = first_subgame(name)
    oracle = InnerSolver(InnerSettings(mode="oracle"))
    for mu in (sub.params.mu(1), 1e-6):
        res = InnerSolver().solve(sub, mu)
        sol = oracle.solve(sub, mu)
        assert np.array_equal(sol.x, res.x)
        assert sol.certificate.bound <= res.certificate.bound
        assert sol.certificate.iterations >= res.certificate.iterations


def test_residual_mode_is_the_default():
    assert InnerSettings().mode == "residual"
    assert InnerSolver().settings.mode == "residual"
    assert DEFAULTS["inner.mode"] == "residual"
