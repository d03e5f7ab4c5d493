import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import gnesolve as gs
from gnesolve.errors import ValidationError
from gnesolve.games import Box, Player
from gnesolve.operators import block_diag
from gnesolve.params import AlgoParams


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


def test_step_matrices_checked_one_stack_at_a_time(monkeypatch):
    # H and W each take one batched eigendecomposition (R one per block, as
    # its blocks may differ in order); an error still names the first
    # failing block and that block's first failing condition
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: shapes.append(np.shape(a)) or eigvalsh(a))
    eye, R = np.eye(2), [np.eye(1)] * 3
    AlgoParams(R, np.stack([eye] * 3), np.stack([eye] * 2), 1.1)
    assert shapes == [(1, 1, 1)] * 3 + [(3, 2, 2), (2, 2, 2)]
    nan = np.full((2, 2), np.nan)
    inf = np.array([[1.0, np.inf], [np.inf, 1.0]])
    asym = np.array([[1.0, 0.5], [-0.5, 1.0]])
    for blocks, message in (([eye, -eye, nan], "H[1] is not positive definite"),
                            ([eye, nan, -eye], "H[1] has non-finite entries"),
                            ([eye, eye, inf], "H[2] has non-finite entries"),
                            ([eye, asym, -eye], "H[1] is not symmetric")):
        with pytest.raises(ValidationError, match=re.escape(message)):
            AlgoParams(R, np.stack(blocks), np.stack([eye] * 2), 1.1)
        with pytest.raises(ValidationError, match=re.escape(message.replace("H", "W"))):
            AlgoParams(R, np.stack([eye] * 3), np.stack(blocks), 1.1)


def test_mu_schedules(eq_game, pair_graph):
    game, _ = eq_game
    params = AlgoParams.uniform(game, pair_graph, 10.0, 0.5, 0.5, 1.1)
    mu = params.mu
    assert mu(1) == 1.0 and mu(2) == 0.25 and mu(10) == pytest.approx(0.01)
    assert sum(mu(k) for k in range(1, 10000)) < 1.6449341   # pi^2/6
    zero = AlgoParams.uniform(game, pair_graph, 10.0, 0.5, 0.5, 1.1, mu0=0.0).mu
    assert zero(1) == 0.0 and zero(100) == 0.0
    for mu0 in (-1.0, np.nan, np.inf):
        with pytest.raises(ValidationError, match="mu0"):
            AlgoParams.uniform(game, pair_graph, 10.0, 0.5, 0.5, 1.1, mu0=mu0)


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
    assert np.allclose(out, block_diag(params.R) @ v, rtol=1e-12, atol=1e-12)
    if len(set(dims)) == 1:
        # equal orders: same products as the per-block loop, bit for bit
        blockwise = np.concatenate(
            [Ri @ vi for Ri, vi in zip(params.R, game.split(v))])
        assert np.array_equal(out, blockwise)


def _diagonal_stack(rng, count, order):
    return np.stack([np.diag(rng.uniform(0.1, 5.0, order)) for _ in range(count)])


def _batched(stack, rows):
    return (stack @ rows[:, :, None])[:, :, 0]


@given(st.lists(st.integers(1, 4), min_size=1, max_size=6),
       st.sampled_from([1, 16]), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_diagonal_stacks_apply_as_vectors_bit_for_bit(dims, m, seed):
    # diagonal R, H and W are applied as one elementwise product with their
    # stored diagonals, which gives the batched products' bits, mixed R
    # orders (padding) included; a stack with one off-diagonal entry keeps
    # the batched path
    rng = np.random.default_rng(seed)
    game = _zero_game(dims)
    R = [np.diag(rng.uniform(0.1, 5.0, d)) for d in dims]
    H = _diagonal_stack(rng, len(dims), m)
    W = _diagonal_stack(rng, 3, m)
    params = AlgoParams(R, H, W, 1.0)
    assert params.h_is_diagonal()
    v = rng.uniform(-10.0, 10.0, game.n)
    rows, edge_rows = rng.normal(size=(len(dims), m)), rng.normal(size=(3, m))
    blocks = np.concatenate([Ri @ vi for Ri, vi in zip(R, game.split(v))])
    assert np.array_equal(params.apply_R(v), blocks)
    # one more, dense, block sends the same blocks down the batched path
    batched = AlgoParams(R + [np.ones((5, 5)) + np.eye(5)], H, W, 1.0)
    assert batched._r_diag is None
    assert np.array_equal(params.apply_R(v),
                          batched.apply_R(np.concatenate([v, np.zeros(5)]))[:game.n])
    assert np.array_equal(params.apply_H(rows), _batched(H, rows))
    assert np.array_equal(params.apply_W(edge_rows), _batched(W, edge_rows))
    if m > 1:
        dense = H.copy()
        dense[0, 0, 1] = dense[0, 1, 0] = 0.01
        coupled = AlgoParams(R, dense, W, 1.0)
        assert not coupled.h_is_diagonal()
        assert np.array_equal(coupled.apply_H(rows), _batched(dense, rows))


def test_dense_forms(eq_game, pair_graph):
    game, _ = eq_game
    params = AlgoParams.uniform(game, pair_graph, 3.0, 0.5, 0.25, 1.0)
    assert np.array_equal(block_diag(params.R), 3.0 * np.eye(2))
    assert np.array_equal(block_diag(params.H), 0.5 * np.eye(2))
    assert np.array_equal(block_diag(params.W), 0.25 * np.eye(1))
