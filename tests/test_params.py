import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import gnesolve as gs
from gnesolve.errors import ValidationError
from gnesolve.games import Box, Player
from gnesolve.params import AlgoParams, exact_schedule, inverse_square


def test_uniform_builder(eq_game, pair_graph):
    game, _ = eq_game
    params = AlgoParams.uniform(game, pair_graph, 10.0, 0.5, 0.5, 1.1)
    assert params.r_min == params.r_min_eig() == pytest.approx(10.0)
    assert params.r_max == params.r_max_eig() == pytest.approx(10.0)
    assert params.H.shape == (2, 1, 1) and params.W.shape == (1, 1, 1)
    assert params.h_is_diagonal()


def test_rho_bounds(eq_game, pair_graph):
    game, _ = eq_game
    for bad in (0.99, 2.0, 2.1):
        with pytest.raises(ValidationError, match=r"\[1, 2\)"):
            AlgoParams.uniform(game, pair_graph, 10.0, 0.5, 0.5, bad)
    AlgoParams.uniform(game, pair_graph, 10.0, 0.5, 0.5, 1.0)   # boundary ok


def test_non_spd_blocks_rejected(eq_game, pair_graph):
    game, _ = eq_game
    with pytest.raises(ValidationError, match="R\\[0\\]"):
        AlgoParams([np.array([[-1.0]]), np.array([[1.0]])],
                   np.ones((2, 1, 1)), np.ones((1, 1, 1)), 1.1)
    with pytest.raises(ValidationError, match="H\\[1\\]"):
        AlgoParams([np.eye(1), np.eye(1)],
                   np.stack([np.eye(1), -np.eye(1)]), np.ones((1, 1, 1)), 1.1)
    asym = np.array([[1.0, 0.5], [-0.5, 1.0]])
    with pytest.raises(ValidationError, match="symmetric"):
        AlgoParams([asym, np.eye(2)],
                   np.ones((2, 1, 1)), np.ones((1, 1, 1)), 1.1)


def test_mu_schedules():
    mu = inverse_square(1.0)
    assert mu(1) == 1.0 and mu(2) == 0.25 and mu(10) == pytest.approx(0.01)
    assert sum(mu(k) for k in range(1, 10000)) < 1.6449341   # pi^2/6
    zero = exact_schedule()
    assert zero(1) == 0.0 and zero(100) == 0.0


def _zero_game(dims):
    players = [Player(d, lambda y, others: np.zeros(y.size), np.zeros((1, d)),
                      np.zeros(1), Box(-np.ones(d), np.ones(d))) for d in dims]
    return gs.Game(players, gs.EQUALITY)


@given(st.lists(st.integers(1, 4), min_size=1, max_size=6),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_apply_blocks(eq_game, pair_graph, dims, seed):
    game, _ = eq_game
    params = AlgoParams.uniform(game, pair_graph, 3.0, 0.5, 0.25, 1.0)
    v = np.array([1.0, -2.0])
    assert np.allclose(params.apply_R(v), 3.0 * v)
    rows = np.array([[2.0], [4.0]])
    assert np.allclose(params.apply_H(rows), 0.5 * rows)
    assert np.allclose(params.apply_W(np.array([[8.0]])), np.array([[2.0]]))

    # mixed block orders with dense (non-diagonal) SPD blocks
    rng = np.random.default_rng(seed)
    game = _zero_game(dims)
    R = []
    for d in dims:
        G = rng.uniform(-1.0, 1.0, (d, d))
        R.append(0.5 * np.eye(d) + G @ G.T)
    params = AlgoParams(R, np.ones((len(dims), 1, 1)), np.ones((1, 1, 1)), 1.0)
    v = rng.uniform(-10.0, 10.0, game.n)
    out = params.apply_R(v)
    assert np.allclose(out, params.dense_R(game) @ v, rtol=1e-12, atol=1e-12)
    if len(set(dims)) == 1:
        # equal orders: same products as the per-block loop, bit for bit
        blockwise = np.concatenate(
            [Ri @ vi for Ri, vi in zip(params.R, game.split(v))])
        assert np.array_equal(out, blockwise)


def test_dense_forms(eq_game, pair_graph):
    game, _ = eq_game
    params = AlgoParams.uniform(game, pair_graph, 3.0, 0.5, 0.25, 1.0)
    assert np.array_equal(params.dense_R(game), 3.0 * np.eye(2))
    assert np.array_equal(params.dense_H(), 0.5 * np.eye(2))
    assert np.array_equal(params.dense_W(), 0.25 * np.eye(1))
