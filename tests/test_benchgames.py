import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gnesolve as gs
from gnesolve.benchgames import (TASK_PATTERN, N_LINKS, N_USERS,
                                 rate_control_game, task_allocation_game,
                                 wanet_routing_matrix)
from gnesolve.diagnostics import kkt_residual
from gnesolve.errors import ValidationError
from gnesolve.rng import SplitMix64

from helpers import (fd_block_gradient, rate_control_value,
                     task_allocation_value)


# -- quadratic oracle game ----------------------------------------------------------

def test_quadratic_equality_solution():
    game, sol = gs.quadratic_game(t=(2.0, 1.0), delta=0.5, c=1.0)
    assert np.allclose(sol["x"], [1.5, -0.5])
    assert sol["lambda"] == pytest.approx(0.75)
    # optimality of player 1: x1 - t1 + delta x2 + lambda = 0
    assert 1.5 - 2.0 + 0.5 * (-0.5) + 0.75 == pytest.approx(0.0)
    report = kkt_residual(game, sol["x"], np.array([sol["lambda"]]), tol=1e-12)
    assert report.is_variational


def test_quadratic_inequality_active():
    # the unconstrained equilibrium (2, 0) violates x1 + x2 <= 1
    game, sol = gs.quadratic_game(t=(2.0, 1.0), delta=0.5, c=1.0,
                                  kind=gs.INEQUALITY)
    assert sol["active"] and sol["lambda"] == pytest.approx(0.75)
    assert np.allclose(sol["x"], [1.5, -0.5])
    report = kkt_residual(game, sol["x"], np.array([sol["lambda"]]), tol=1e-12)
    assert report.is_variational


def test_quadratic_decoupled_inactive():
    game, sol = gs.quadratic_game(t=(2.0, 1.0), delta=0.0, c=3.0)
    assert np.allclose(sol["x"], [2.0, 1.0])
    assert sol["lambda"] == pytest.approx(0.0, abs=1e-14)


def test_quadratic_rejects_non_monotone():
    with pytest.raises(ValidationError, match="non-monotone"):
        gs.quadratic_game(delta=2.0)


def quadratic_active_set_enumeration(game, anchor, shift, R_blocks):
    """Exact subgame equilibrium of the two-player quadratic game by trying
    all nine box patterns in turn: the reference for the solver that tries
    the interior first."""
    g = game.generator
    t, delta, w = np.array(g["t"]), g["delta"], g["half_width"]
    lower, upper = np.full(2, -w), np.full(2, w)
    Rb = np.array([float(np.atleast_2d(R)[0, 0]) for R in R_blocks])
    G = np.array([[1.0, delta], [delta, 1.0]]) + np.diag(Rb)
    rhs = Rb * anchor + t - shift
    for pattern in ((0, 0), (0, -1), (0, 1), (-1, 0), (1, 0),
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
        if all(lower[i] - 1e-12 <= y[i] <= upper[i] + 1e-12 if pattern[i] == 0
               else grad[i] >= -1e-12 if pattern[i] < 0 else grad[i] <= 1e-12
               for i in range(2)):
            return y
    raise AssertionError("no valid active set")


@given(st.floats(-0.9, 0.9), st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_exact_quadratic_solver_equals_enumeration(delta, seed):
    game, _ = gs.quadratic_game(delta=delta)
    rng = np.random.default_rng(seed)
    for scale in (1.0, 30.0, 1e4):
        anchor = rng.uniform(-10.0, 10.0, 2)
        shift = scale * rng.choice([-1.0, 1.0], 2) * rng.uniform(0.5, 1.0, 2)
        R_blocks = [np.array([[r]]) for r in rng.uniform(0.5, 20.0, 2)]
        got = game.exact_subgame_solver(anchor, shift, R_blocks)
        assert np.array_equal(
            got, quadratic_active_set_enumeration(game, anchor, shift, R_blocks))
        if scale == 1e4:
            # |rhs| > 4,000 against eigenvalues of G below 22: the box binds
            assert np.abs(got).max() == game.generator["half_width"]


# -- rate-control game ---------------------------------------------------------------

def test_rate_control_determinism():
    a = rate_control_game(0)
    b = rate_control_game(0)
    for p, q in zip(a.players, b.players):
        assert np.array_equal(p.A, q.A) and np.array_equal(p.b, q.b)
        assert np.array_equal(p.box.upper, q.box.upper)
    assert a.generator == b.generator
    c = rate_control_game(1)
    assert not np.array_equal(a.players[0].b, c.players[0].b)


def test_rate_control_shapes_and_ranges():
    game = rate_control_game(0)
    g = game.generator
    assert game.n_players == N_USERS and game.m == N_LINKS
    assert game.kind == gs.INEQUALITY
    C = np.array(g["C"])
    assert ((C >= 10.0) & (C < 15.0)).all()
    assert ((np.array(g["B"]) >= 5.0) & (np.array(g["B"]) < 10.0)).all()
    assert ((np.array(g["chi"]) >= 10.0) & (np.array(g["chi"]) < 20.0)).all()
    assert ((np.array(g["kappa"]) >= 10.0) & (np.array(g["kappa"]) < 30.0)).all()
    assert ((np.array(g["xi"]) >= 20.0) & (np.array(g["xi"]) < 40.0)).all()
    # each player keeps an equal slice of the capacities
    for p in game.players:
        assert np.allclose(p.b, C / N_USERS)
    # routing matches the documented pattern
    A = wanet_routing_matrix()
    for i, p in enumerate(game.players):
        assert np.array_equal(p.A[:, 0], A[:, i])
    assert (A.sum(axis=1) >= 1).all() and (A.sum(axis=0) >= 1).all()


def test_rate_control_delay_denominators_safe():
    game = rate_control_game(0)
    g = game.generator
    A = wanet_routing_matrix()
    worst = A @ (1.1 * np.array(g["B"]))
    slack = np.array(g["C"]) + np.array(g["xi"]) - worst
    assert slack.min() >= 1.0
    # delays at the origin are positive
    d0 = np.array(g["kappa"]) / (np.array(g["C"]) + np.array(g["xi"]))
    assert (d0 > 0).all()


def test_rate_control_gradient_matches_fd():
    game = rate_control_game(0)
    payload = game.generator
    A = wanet_routing_matrix()
    rng = SplitMix64(77)
    for _ in range(20):
        x = game.sample_profile(rng)
        pg = game.pseudo_gradient(x)
        for i in (0, 7, 14):    # long route, middle, other long route
            value = rate_control_value(payload, i)
            fd = fd_block_gradient(lambda v: value(v, A), x, i, 1)
            assert abs(fd[0] - pg[i]) <= 1e-5 * max(1.0, abs(pg[i]))


def test_rate_control_audit_seeds():
    for seed in range(10):
        game = rate_control_game(seed)
        report = gs.check_monotonicity_samples(game, 200, seed=seed + 1000)
        assert report.violations == 0


# -- task-allocation game --------------------------------------------------------------

def test_task_allocation_determinism():
    a = task_allocation_game(0)
    b = task_allocation_game(0)
    assert a.generator == b.generator
    for p, q in zip(a.players, b.players):
        assert np.array_equal(p.A, q.A)


def test_task_allocation_shapes_and_ranges():
    game = task_allocation_game(0)
    g = game.generator
    assert game.n_players == 14 and game.m == 8 and game.n == 56
    assert game.kind == gs.EQUALITY
    assert ((np.array(g["C"]) >= 1.0) & (np.array(g["C"]) < 2.0)).all()
    assert ((np.array(g["chi"]) >= 0.1) & (np.array(g["chi"]) < 0.6)).all()
    assert ((np.array(g["kappa"]) >= 10.0) & (np.array(g["kappa"]) < 20.0)).all()
    for w, (p, blk) in enumerate(zip(game.players, g["workers"])):
        # each output channel feeds exactly one task, weight in [0.5, 1)
        for col in range(4):
            nonzero = np.flatnonzero(p.A[:, col])
            assert nonzero.size == 1
            weight = p.A[nonzero[0], col]
            assert 0.5 <= weight < 1.0
            expected_task = TASK_PATTERN[w][0] if col < 2 else TASK_PATTERN[w][1]
            assert nonzero[0] == expected_task
        assert ((np.array(blk["q"]) >= 1.0) & (np.array(blk["q"]) < 2.0)).all()
        assert ((np.array(blk["xi"]) >= 6.0) & (np.array(blk["xi"]) < 12.0)).all()
        assert ((np.array(blk["l"]) >= 1.0) & (np.array(blk["l"]) < 3.0)).all()
        assert 1.0 <= blk["d"] < 2.0
        p_vec = np.array(blk["p"])
        assert p_vec.sum() == pytest.approx(1.0) and (p_vec >= 0).all()
        S = np.array(blk["S"])
        assert np.allclose(S, S.T)
        assert np.linalg.eigvalsh(S).min() >= 0.5 - 1e-12
        assert ((np.array(blk["B"]) >= 1.0) & (np.array(blk["B"]) < 3.0)).all()
        assert np.allclose(p.b, np.array(g["C"]) / 15.0)


def test_task_allocation_gradient_matches_fd():
    game = task_allocation_game(0)
    payload = game.generator
    A_full = np.hstack([p.A for p in game.players])
    rng = SplitMix64(123)
    for _ in range(20):
        x = game.sample_profile(rng)
        # keep every channel strictly inside its box, away from the tie at 0
        x = np.clip(x, 0.05, None)
        pg = game.pseudo_gradient(x)
        for i in (0, 6, 13):
            value = task_allocation_value(payload, i)
            fd = fd_block_gradient(lambda v: value(v, A_full,
                                                   game.players[i].A),
                                   x, 4 * i, 4)
            block = pg[4 * i:4 * i + 4]
            assert np.all(np.abs(fd - block)
                          <= 1e-5 * np.maximum(1.0, np.abs(block)))


def test_task_allocation_tie_selection():
    # at an exact tie the quadratic branch's gradient is returned
    game = task_allocation_game(0)
    x = game.project(np.zeros(game.n))
    pg = game.pseudo_gradient(x)
    blk = game.generator["workers"][0]
    smooth = np.asarray(game.smooth_oracle(x))[:4]
    expected = smooth - np.array(blk["xi"])
    assert np.allclose(pg[:4], expected)


def test_task_allocation_audit_seeds():
    for seed in range(10):
        game = task_allocation_game(seed)
        report = gs.check_monotonicity_samples(game, 150, seed=seed + 2000)
        assert report.violations == 0


def test_generator_payload_is_json_serializable():
    for game in (rate_control_game(2), task_allocation_game(2)):
        blob = json.dumps(gs.game_to_dict(game))
        assert json.loads(blob)["generator"]["seed"] == 2
