import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gnesolve as gs
from gnesolve import subgames
from gnesolve.config import DEFAULTS
from gnesolve.errors import (InexactnessError, NumericError, StructuralError,
                             ValidationError)
from gnesolve.games import Box, Player
from gnesolve.rng import SplitMix64
from gnesolve.subgames import (InnerSolver, Subgame, equality_subgame,
                               inequality_subgame)
from helpers import count_oracle_calls, equality_subgame_at, products
from reference import ReferenceSolver, subgame_steps


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
    sub = equality_subgame_at(game, pair_graph, toy_params,
                              np.zeros(2), np.zeros((2, 1)), np.zeros((1, 1)))
    assert np.allclose(sub.shift, [-0.25, -0.25])
    assert sub.params.r_min == pytest.approx(10.0)


def test_equality_shift_vanishes_with_local_feasibility(pair_graph):
    # b_i = A_i x_i and no edge signal: the price term is zero
    game, _ = gs.quadratic_game(c=2.0)   # b_i = 1, so x = (1, 1) is tracked
    params = gs.AlgoParams.uniform(game, pair_graph, 10.0, 0.5, 0.5, 1.1)
    sub = equality_subgame_at(game, pair_graph, params,
                              np.array([1.0, 1.0]), np.zeros((2, 1)),
                              np.zeros((1, 1)))
    assert np.allclose(sub.shift, 0.0)


def test_inequality_shift(eq_game, pair_graph, toy_params):
    game, _ = gs.quadratic_game(kind=gs.INEQUALITY)
    lam = np.array([[1.0], [0.0]])
    gradient = game.smooth_gradient(np.zeros(2))
    sub = Subgame(game, np.zeros(2), game.price_gradient(lam), toy_params,
                  gradient)
    assert np.allclose(sub.shift, [1.0, 0.0])
    assert np.allclose(
        Subgame(game, np.zeros(2), game.price_gradient(np.zeros((2, 1))),
                toy_params, gradient).shift, 0.0)


def test_subgame_strong_monotonicity_sampled(eq_game, pair_graph, toy_params):
    # the quadratic game has no separable prox: the smooth part is the map
    game, _ = eq_game
    sub = equality_subgame_at(game, pair_graph, toy_params,
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
    anchor = np.array([2.0, -3.0])
    sub = Subgame(game, anchor, np.zeros(2), params, game.smooth_gradient(anchor))
    solver = ReferenceSolver()
    for mu in (1e-2, 1e-5, 1e-9):
        sol = solver.solve(sub, mu)
        assert np.linalg.norm(sol.x - np.array([2.0, -3.0])) <= mu
        assert sol.certificate.bound <= mu


def test_oracle_mode_matches_linear_solve(eq_game, pair_graph, toy_params):
    # first outer subgame of the equality loop: solve (J + R) x = R x0 + t - c
    game, _ = eq_game
    x0 = np.zeros(2)
    sub = equality_subgame_at(game, pair_graph, toy_params, x0,
                              np.zeros((2, 1)), np.zeros((1, 1)))
    J = np.array([[1.0, 0.5], [0.5, 1.0]])
    expected = np.linalg.solve(J + 10.0 * np.eye(2),
                               10.0 * x0 + np.array([2.0, 1.0]) - sub.shift)
    solver = ReferenceSolver()
    sol = solver.solve(sub, 1e-8)
    assert np.linalg.norm(sol.x - expected) <= 1e-8
    exact = InnerSolver("exact").solve(sub, 0.0)
    assert np.allclose(exact.x, expected, atol=1e-12)
    # the reference equilibrium satisfies the subgame optimality residual
    reference = solver.solve(sub, 0.0).x
    assert np.linalg.norm(reference - sub.step(reference, 0.05)) <= 1e-10


def test_residual_mode_certificate(eq_game, pair_graph, toy_params):
    game, _ = eq_game
    sub = equality_subgame_at(game, pair_graph, toy_params, np.zeros(2),
                              np.zeros((2, 1)), np.zeros((1, 1)))
    solver = InnerSolver("residual")
    exact = InnerSolver("exact").solve(sub, 0.0).x
    for mu in (1e-3, 1e-6):
        sol = solver.solve(sub, mu)
        assert sol.certificate.bound <= mu
        assert np.linalg.norm(sol.x - exact) <= sol.certificate.bound
    with pytest.raises(ValidationError):
        solver.solve(sub, 0.0)


def test_monotone_tolerance(eq_game, pair_graph, toy_params):
    game, _ = eq_game
    sub = equality_subgame_at(game, pair_graph, toy_params, np.zeros(2),
                              np.zeros((2, 1)), np.zeros((1, 1)))
    solver = ReferenceSolver()
    tight = solver.solve(sub, 1e-7).certificate.bound
    loose = solver.solve(sub, 1e-3).certificate.bound
    assert tight <= loose


def test_schedule_certificates(eq_game, pair_graph):
    # tolerances certified against the summable schedule for fifty steps
    game, _ = eq_game
    params = gs.AlgoParams.uniform(game, gs.path_graph(2), 10.0, 0.5, 0.5,
                                   1.1, mu0=1.0)
    solver = ReferenceSolver()
    sub = equality_subgame_at(game, gs.path_graph(2), params, np.zeros(2),
                              np.zeros((2, 1)), np.zeros((1, 1)))
    for k in range(1, 51):
        mu_k = params.mu(k)
        sol = solver.solve(sub, mu_k)
        assert sol.certificate.bound <= mu_k


def test_uniqueness_from_different_starts(eq_game, pair_graph, toy_params):
    game, _ = eq_game
    mu = 1e-6
    solver = ReferenceSolver()
    results = []
    for anchor in (np.array([5.0, 5.0]), np.array([-5.0, 2.0])):
        sub = equality_subgame_at(game, pair_graph, toy_params, anchor,
                                  np.zeros((2, 1)), np.zeros((1, 1)))
        # same subgame data except the anchor; solve each to mu and compare
        # against its own equilibrium instead (uniqueness per subgame)
        a = solver.solve(sub, mu)
        b = InnerSolver("residual").solve(sub, mu)
        results.append(np.linalg.norm(a.x - b.x))
    assert max(results) <= 2.0 * mu


def test_iteration_cap_raises(eq_game, pair_graph, toy_params, monkeypatch):
    game, _ = eq_game
    sub = equality_subgame_at(game, pair_graph, toy_params, np.zeros(2),
                              np.zeros((2, 1)), np.zeros((1, 1)))
    monkeypatch.setattr(subgames, "MAX_INNER_STEPS", 1)
    for solver in (InnerSolver("residual"), ReferenceSolver()):
        with pytest.raises(InexactnessError, match="within 1 iterations") as err:
            solver.solve(sub, 1e-12)
        assert err.value.achieved > 1e-12
    # the message names by how much the solve missed
    with pytest.raises(InexactnessError) as err:
        InnerSolver("residual").solve(sub, 1e-12)
    assert str(err.value) == ("residual mode could not certify 1e-12 within 1 "
                              f"iterations (last bound {err.value.achieved:.3g})")


@pytest.mark.parametrize("solver", [
    InnerSolver("exact"), InnerSolver("residual"), ReferenceSolver()],
    ids=["exact", "residual", "oracle"])
def test_nan_tolerance_refused_at_once(eq_game, pair_graph, toy_params,
                                      solver):
    # a NaN tolerance used to pass the sign check: residual mode ran to the
    # step limit, and the reference solve returned the reference with bound 0
    game, _ = eq_game
    sub = equality_subgame_at(game, pair_graph, toy_params, np.zeros(2),
                              np.zeros((2, 1)), np.zeros((1, 1)))
    calls = count_oracle_calls(game)
    with pytest.raises(ValidationError, match="nonnegative, got nan"):
        solver.solve(sub, float("nan"))
    assert calls == []


@pytest.mark.parametrize("name", ["toy", "rate-control", "task-allocation"])
def test_oracle_mode_runs_one_trajectory(name):
    # one pass to the reference: every step makes one oracle call, and the
    # start makes none
    sub = first_subgame(name)
    calls = count_oracle_calls(sub.game)
    for mu in (sub.params.mu(1), 1e-6, 0.0):
        calls.clear()
        sol = ReferenceSolver().solve(sub, mu)
        assert len(calls) == sol.certificate.iterations


def test_exact_mode_requires_solver(pair_graph, toy_params):
    game = wide_affine_game(np.zeros(1))
    params = gs.AlgoParams.uniform(game, gs.path_graph(2), 1.0, 0.5, 0.5, 1.0)
    sub = Subgame(game, np.zeros(1), np.zeros(1), params,
                  game.smooth_gradient(np.zeros(1)))
    with pytest.raises(ValidationError, match="exact inner mode"):
        InnerSolver("exact").solve(sub, 0.0)


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
        # x_star is the reference solve's, certified to 1e-13 relative;
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
    # a finite anchor gradient, so that the first inner step makes the
    # solve's first oracle call
    sub = Subgame(game, np.zeros(2), np.zeros(2), params, np.zeros(2))
    with pytest.raises(NumericError, match="non-finite"):
        InnerSolver().solve(sub, 1e-6)
    assert len(calls) == 1
    # the stationarity residual goes through the same oracle
    with pytest.raises(NumericError, match="non-finite"):
        game.natural_step(np.zeros(2), np.zeros(2))


def test_smooth_oracle_shape_checked():
    # a smooth oracle returning a scalar used to be broadcast, so that a
    # residual-mode solve certified bound 0 after one step at a wrong point,
    # and profiles of any length reached it; the prox path now checks its
    # input and output as the profile path does
    player = Player(2, lambda xi, o: xi, np.zeros((1, 2)), np.zeros(1),
                    Box(np.full(2, -1.0), np.full(2, 1.0)))
    game = gs.Game([player], gs.EQUALITY, smooth_oracle=lambda x: 1.0,
                   separable_prox=lambda v, g: np.clip(v, -1.0, 1.0))
    with pytest.raises(StructuralError,
                       match=r"smooth oracle returned shape \(\), expected \(2,\)"):
        game.smooth_gradient(np.zeros(2))
    with pytest.raises(StructuralError, match=r"profile shape \(3,\), expected \(2,\)"):
        game.smooth_gradient(np.zeros(3))
    params = gs.AlgoParams.uniform(game, gs.path_graph(2), 1.0, 0.5, 0.5, 1.0)
    sub = Subgame(game, np.zeros(2), np.zeros(2), params, np.zeros(2))
    with pytest.raises(StructuralError, match="smooth oracle returned shape"):
        InnerSolver().solve(sub, 1e-6)


@given(st.integers(1, 3), st.integers(1, 3), st.booleans(),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_residual_certificate_affine_subgames(n_players, dim, prox, seed):
    rng = np.random.default_rng(seed)
    game = affine_game(rng, n_players, dim, prox)
    # only R enters the subgame; H and W are placeholders
    params = gs.AlgoParams(rng.uniform(0.2, 3.0, game.n),
                           np.ones((n_players, 1)), np.ones((1, 1)), 1.0)
    anchor = rng.uniform(game.box_lower - 1.0, game.box_upper + 1.0)
    # anchors up to 1 outside the box: the solve starts there unprojected
    sub = Subgame(game, anchor, rng.normal(size=game.n), params,
                  game.smooth_gradient(anchor))
    x_star = ReferenceSolver().solve(sub, 0.0).x
    assert_residual_certificates(sub, x_star, (1e-2, 1e-4, 1e-6))


def predicting_history(sub, d, dF):
    """Two ``(dx, dF)`` pairs from which the subgame's first inner step
    predicts the move ``d`` and the gradient change ``dF``, up to rounding:
    the newer step does not move, the older moved ``-rho`` times them."""
    rho, zero = sub.params.rho, np.zeros(sub.game.n)
    return (zero, zero), (-rho * d, -rho * dF)


def affine_subgame(rng, n_players, dim, prox, rho):
    """A random affine game's subgame at an anchor up to 1 outside its box,
    with random proximal weights; only ``R`` and ``rho`` enter it, ``H``
    and ``W`` are placeholders."""
    game = affine_game(rng, n_players, dim, prox)
    params = gs.AlgoParams(rng.uniform(0.2, 3.0, game.n),
                           np.ones((n_players, 1)), np.ones((1, 1)), rho)
    anchor = rng.uniform(game.box_lower - 1.0, game.box_upper + 1.0)
    return Subgame(game, anchor, rng.normal(size=game.n), params,
                   game.smooth_gradient(anchor))


@given(st.integers(1, 3), st.integers(1, 3), st.booleans(),
       st.floats(1.0, 1.9), st.floats(0.0, 1e3), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_warm_start_certificate_holds_for_any_prediction(n_players, dim, prox,
                                                         rho, scale, seed):
    # the first step's bound holds whatever the predicted move and gradient
    # change, starts far outside the box included (the boxes are at most 3
    # wide), and so does every certificate of the warm solve
    rng = np.random.default_rng(seed)
    cold = affine_subgame(rng, n_players, dim, prox, rho)
    x_star = ReferenceSolver().solve(cold, 0.0).x
    d, dF = scale * rng.normal(size=(2, cold.game.n))
    warm = Subgame(cold.game, cold.anchor, cold.shift, cold.params,
                   cold.anchor_gradient, predicting_history(cold, d, dF))
    y, bound, iteration, _ = next(subgame_steps(warm))
    assert iteration == 1
    assert (np.linalg.norm(y - x_star)
            <= bound + 1e-10 * (1.0 + np.linalg.norm(x_star)))
    assert_residual_certificates(warm, x_star, (1e-2, 1e-4, 1e-6))


def test_history_without_a_move_keeps_the_anchor_start():
    # with fewer than two pairs, or two that predict no move, the solve takes
    # the anchor-start trajectory bit for bit; its first step is the plain
    # forward-backward step from the anchor at the initial step 1 / r_max
    rng = np.random.default_rng(3)
    for prox in (False, True):
        cold = affine_subgame(rng, 3, 2, prox, 1.1)
        still = (np.zeros(cold.game.n), np.zeros(cold.game.n))
        trajectories = []
        for history in ((), (still,), (still, still)):
            sub = Subgame(cold.game, cold.anchor, cold.shift, cold.params,
                          cold.anchor_gradient, history)
            trajectories.append(list(itertools.islice(subgame_steps(sub), 30)))
        first = trajectories[0]
        assert np.array_equal(first[0][0],
                              cold.step(cold.anchor, 1.0 / cold.params.r_max))
        for other in trajectories[1:]:
            assert len(other) == len(first)
            for (y, bound, it, ratio), (y2, bound2, it2, ratio2) in zip(first, other):
                assert np.array_equal(y, y2)
                assert (bound, it, ratio) == (bound2, it2, ratio2)


def test_subgame_history_shapes_checked(eq_game, toy_params):
    # each (dx, dF) pair of the history is two profile-length vectors
    game, _ = eq_game
    step = (np.zeros(2), np.zeros(2))
    with pytest.raises(StructuralError,
                       match=r"history has 3 \(dx, dF\) pairs, at most 2"):
        Subgame(game, np.zeros(2), np.zeros(2), toy_params, np.zeros(2),
                (step,) * 3)
    for history in (((np.zeros(3), np.zeros(2)), step),
                    (step, (np.zeros(2), np.zeros(1)))):
        with pytest.raises(StructuralError, match=r"expected \(2,\)"):
            Subgame(game, np.zeros(2), np.zeros(2), toy_params, np.zeros(2),
                    history)


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
    params = gs.AlgoParams(np.ones(2), np.ones((2, 1)), np.ones((1, 1)), 1.0)
    anchor = np.array([0.8, -0.5])
    sub = Subgame(game, anchor, np.zeros(2), params, game.smooth_gradient(anchor))
    x_star = box_affine_equilibrium(M + np.eye(2), anchor - c, lower, upper)
    sol = InnerSolver().solve(sub, 1e-6)
    assert sol.certificate.bound <= 1e-6
    assert np.linalg.norm(sol.x - x_star) <= sol.certificate.bound
    oracle = ReferenceSolver().solve(sub, 1e-6)
    assert oracle.certificate.bound <= 1e-6
    reference = ReferenceSolver().solve(sub, 0.0).x
    assert np.linalg.norm(reference - x_star) <= 1e-12


def bilinear_game(scale):
    """Two-player zero-sum bilinear game, ``F(x) = scale [[0, 1], [-1, 0]] x
    + c`` on ``[-5, 5]`` each: monotone with modulus exactly zero."""
    M = scale * np.array([[0.0, 1.0], [-1.0, 0.0]])
    c = np.array([1.0, -2.0])
    players = [Player(1, lambda xi, o: xi, np.ones((1, 1)), np.array([0.25]),
                      Box(np.array([-5.0]), np.array([5.0]))) for _ in range(2)]
    return gs.Game(players, gs.EQUALITY, profile_oracle=lambda x: M @ x + c)


def test_zero_modulus_game_passes_the_monotonicity_checks():
    # solved to the machine-precision reference, the last inner
    # steps are rounding-sized, and <dF, dx> is exactly zero up to rounding:
    # the allowance, scaled by the sizes of the terms summed into each
    # gradient, covers them, and the outer pairs see the zero modulus
    graph = gs.path_graph(2)
    rng = np.random.default_rng(0)
    for scale in (1.0, 3.0):
        game = bilinear_game(scale)
        params = gs.AlgoParams.uniform(game, graph, 1.0, 0.25, 0.25, 1.0, mu0=0.0)
        for _ in range(5):
            anchor = rng.uniform(-6.0, 6.0, 2)
            sub = Subgame(game, anchor, scale * rng.normal(size=2), params,
                          game.smooth_gradient(anchor))
            sol = ReferenceSolver().solve(sub, 0.0)
            assert sol.certificate.iterations > 1
            assert np.isfinite(sol.certificate.monotonicity)
    game = bilinear_game(1.0)
    params = gs.AlgoParams.uniform(game, graph, 1.0, 0.25, 0.25, 1.0, mu0=0.0)
    run = gs.run_admm(game, graph, params, ReferenceSolver(),
                      gs.StopRule(100, 1e-9))
    assert run.iterations == 100
    assert abs(run.monotonicity["outer"]) <= 1e-12
    assert run.monotonicity["inner"] is not None


def test_monotone_ratio_checks_the_floor():
    # ratio of a pair: curvature / step^2 - modulus; below the floor
    # modulus step^2 less the allowance, which scales with the sizes of the
    # gradients' terms, the pair raises and names itself
    terms = (np.array([3.0, 4.0]), np.array([-1.0]))          # sizes 5 and 1
    assert subgames.monotone_ratio(5.0, 1.0, 2.0, terms, "pair") == 0.25
    assert subgames.monotone_ratio(0.0, 1.0, 0.0, terms, "pair") == np.inf
    allowance = subgames.MONOTONE_ALLOWANCE * 2.0 * 6.0
    assert subgames.monotone_ratio(4.0 - allowance / 2, 1.0, 2.0, terms,
                                   "pair") < 0.0
    with pytest.raises(gs.MonotonicityError,
                       match=r"^inner step 4: <dG, dy> = 3\.9 is below its floor 4 "):
        subgames.monotone_ratio(3.9, 1.0, 2.0, terms, "inner step 4: <dG, dy>")
    with pytest.raises(gs.MonotonicityError):
        subgames.monotone_ratio(4.0 - 2 * allowance, 1.0, 2.0, terms, "pair")


def test_bound_exact_solver_matches_the_unbound_one(eq_game, toy_params,
                                                    monkeypatch):
    # binding builds the quadratic game's closed-form solver once, for the
    # run's R, and its solves equal those of the per-subgame `solve`
    game, _ = eq_game
    binder = game.exact_subgame_solver
    bound_to = []
    monkeypatch.setattr(game, "exact_subgame_solver",
                        lambda R: bound_to.append(R) or binder(R))
    solve = InnerSolver("exact").bind(game, toy_params)
    rng = np.random.default_rng(5)
    subs = [Subgame(game, rng.uniform(-12.0, 12.0, 2),
                    30.0 * rng.normal(size=2), toy_params, np.zeros(2))
            for _ in range(20)]
    bound = [solve(sub.anchor, sub.shift, sub.anchor_gradient, sub.history,
                   0.0) for sub in subs]
    assert len(bound_to) == 1 and bound_to[0] is toy_params.R
    for sub, sol in zip(subs, bound):
        unbound = InnerSolver("exact").solve(sub, 0.0)
        assert np.array_equal(sol.x, unbound.x)
        assert sol.certificate == unbound.certificate
    # residual mode cannot certify the zero schedule of mu0 = 0
    with pytest.raises(ValidationError, match="exactly zero tolerance"):
        InnerSolver("residual").bind(game, toy_params)


@pytest.mark.parametrize("name", ["rate-control", "task-allocation"])
@pytest.mark.parametrize("mode, message", [
    ("exact", "exact inner mode requires a game with a closed-form"),
    ("residual", "params.mu = exact.*exactly zero tolerance")])
def test_misfit_inner_mode_refused_before_any_oracle_call(name, mode, message):
    # exact mode on a game without a closed-form solver, and residual mode
    # on a zero tolerance schedule, used to evaluate the oracle once and
    # fail inside outer iteration 1
    mu0 = 0.0 if mode == "residual" else 1.0
    if name == "rate-control":
        game, graph = gs.rate_control_game(0), gs.benchmark_graph("chain15")
        params, run = gs.rate_control_params(game, graph, mu0), gs.run_splitting
    else:
        game, graph = gs.task_allocation_game(0), gs.benchmark_graph("chain14")
        params = gs.task_allocation_params(game, graph, seed=0, mu0=mu0)
        run = gs.run_admm
    calls = count_oracle_calls(game)
    with pytest.raises(ValidationError, match=message):
        run(game, graph, params, InnerSolver(mode), gs.StopRule(5, 1e-6))
    assert calls == []


def first_subgame(name):
    """Subgame of the first outer iteration from the seed-0 start."""
    if name == "toy":
        game, _ = gs.quadratic_game()
        graph = gs.path_graph(2)
        params = gs.AlgoParams.uniform(game, graph, 10.0, 0.5, 0.5, 1.1,
                                       mu0=1.0)
    elif name == "rate-control":
        game = gs.rate_control_game(0)
        graph = gs.benchmark_graph("chain15")
        params = gs.rate_control_params(game, graph)
    else:
        game = gs.task_allocation_game(0)
        graph = gs.benchmark_graph("chain14")
        params = gs.task_allocation_params(game, graph, seed=0)
    state = gs.initial_state(game, graph, seed=0)
    at = products(game, graph, state)
    if game.kind == gs.INEQUALITY:
        return inequality_subgame(game, params, state.x, at)
    return equality_subgame(game, params, state.x, state.lam, at)


def test_wrong_length_anchor_or_shift_rejected():
    # on rate control a length-1 anchor used to broadcast through the box
    # projection and certify a length-15 point; a length-1 anchor gradient
    # would broadcast through the inner solve's first step
    sub = first_subgame("rate-control")
    short = np.array([5.0])
    for anchor, shift, gradient in ((short, sub.shift, sub.anchor_gradient),
                                    (sub.anchor, short, sub.anchor_gradient),
                                    (sub.anchor, sub.shift, short)):
        with pytest.raises(StructuralError, match=r"expected \(15,\)"):
            Subgame(sub.game, anchor, shift, sub.params, gradient)


@pytest.mark.parametrize("name", ["rate-control", "task-allocation"])
def test_residual_certificate_published_first_subgames(name):
    sub = first_subgame(name)
    x_star = ReferenceSolver().solve(sub, 0.0).x
    mu_1 = sub.params.mu(1)
    assert_residual_certificates(sub, x_star, (mu_1, 1e-3 * mu_1, 1e-6))


@pytest.mark.parametrize("name", ["toy", "rate-control", "task-allocation"])
def test_oracle_mode_returns_the_residual_point(name):
    # one trajectory: the reference solve only runs on past residual
    # mode's stop
    sub = first_subgame(name)
    oracle = ReferenceSolver()
    for mu in (sub.params.mu(1), 1e-6):
        res = InnerSolver().solve(sub, mu)
        sol = oracle.solve(sub, mu)
        assert np.array_equal(sol.x, res.x)
        assert sol.certificate.bound <= res.certificate.bound
        assert sol.certificate.iterations >= res.certificate.iterations


def test_residual_mode_is_the_default():
    assert InnerSolver().mode == "residual"
    # oracle is not a mode: the reference solve is a test helper
    for mode in ("fixed-step", "oracle"):
        with pytest.raises(ValidationError, match="unknown inner mode"):
            InnerSolver(mode)
    assert DEFAULTS["inner.mode"] == "residual"
