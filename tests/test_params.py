import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import gnesolve as gs
from gnesolve.errors import StructuralError, ValidationError
from gnesolve.games import Box, Player
from gnesolve.params import AlgoParams
from helpers import block_diag, step_matrices


def test_uniform_builder(eq_game, pair_graph):
    game, _ = eq_game
    params = AlgoParams.uniform(game, pair_graph, 10.0, 0.5, 0.5, 1.1)
    assert params.r_min == params.r_min_eig() == 10.0
    assert params.r_max == params.r_max_eig() == 10.0
    assert params.R.shape == (2,)
    assert params.H.shape == (2, 1) and params.W.shape == (1, 1)
    # the step sizes carry no block orders of their own: the game has them
    with pytest.raises(TypeError, match="dims"):
        AlgoParams(params.R, params.H, params.W, 1.1, dims=(1, 1))


def test_rho_bounds(eq_game, pair_graph):
    game, _ = eq_game
    for bad in (0.99, 2.0, 2.1):
        with pytest.raises(ValidationError, match=r"\[1, 2\)"):
            AlgoParams.uniform(game, pair_graph, 10.0, 0.5, 0.5, bad)
    AlgoParams.uniform(game, pair_graph, 10.0, 0.5, 0.5, 1.0)   # boundary ok


_STEP = "is not a finite positive step size"


@pytest.mark.parametrize("name, change, error, message", [
    ("R", {0: 0.0}, ValidationError, f"R[0] = 0 {_STEP}"),
    ("R", {2: -1.0}, ValidationError, f"R[2] = -1 {_STEP}"),
    ("R", {3: -2.0}, ValidationError, f"R[3] = -2 {_STEP}"),
    ("R", {3: np.nan}, ValidationError, f"R[3] = nan {_STEP}"),
    ("R", {4: np.inf}, ValidationError, f"R[4] = inf {_STEP}"),
    ("R", {6: -np.inf}, ValidationError, f"R[6] = -inf {_STEP}"),
    # the first failing entry in row-major order wins, whatever fails later
    ("R", {1: -1.0, 4: np.nan}, ValidationError, f"R[1] = -1 {_STEP}"),
    ("R", {3: np.nan, 6: -1.0}, ValidationError, f"R[3] = nan {_STEP}"),
    ("R", {2: -1.0, 3: np.nan}, ValidationError, f"R[2] = -1 {_STEP}"),
    ("H", {(1, 0): 0.0}, ValidationError, f"H[1, 0] = 0 {_STEP}"),
    ("H", {(1, 1): -2.0, (2, 0): np.nan}, ValidationError,
     f"H[1, 1] = -2 {_STEP}"),
    ("H", {(1, 0): np.nan, (2, 0): -1.0}, ValidationError,
     f"H[1, 0] = nan {_STEP}"),
    ("H", {(2, 1): np.inf}, ValidationError, f"H[2, 1] = inf {_STEP}"),
    ("H", {(0, 0): -np.inf}, ValidationError, f"H[0, 0] = -inf {_STEP}"),
    ("W", {(1, 1): 0.0}, ValidationError, f"W[1, 1] = 0 {_STEP}"),
    ("W", {(0, 1): -0.5, (1, 0): np.inf}, ValidationError,
     f"W[0, 1] = -0.5 {_STEP}"),
    ("W", {(1, 0): np.nan}, ValidationError, f"W[1, 0] = nan {_STEP}"),
    ("W", {(0, 0): -np.inf, (0, 1): -1.0}, ValidationError,
     f"W[0, 0] = -inf {_STEP}"),
    # wrong shapes, the dense (count, m, m) stacks among them
    ("R", np.ones((7, 1)), StructuralError, "R must be an (n,) array"),
    ("H", np.ones(10), StructuralError, "H must be a 2-D array"),
    ("H", np.ones((5, 2, 2)), StructuralError, "H must be a 2-D array"),
    ("W", np.ones((2, 2, 2)), StructuralError, "W must be a 2-D array"),
], ids=["R-zero", "R-negative-at-boundary", "R-negative-block-end", "R-nan",
        "R-inf-at-boundary", "R-minus-inf-last", "R-first-block-wins",
        "R-nan-before-negative", "R-nan-beside-negative", "H-zero",
        "H-first-block-wins", "H-nan-before-negative", "H-inf", "H-minus-inf",
        "W-zero", "W-first-block-wins", "W-nan", "W-minus-inf-beside-negative",
        "R-2d", "H-1d", "H-dense-stack", "W-dense-stack"])
def test_step_sizes_checked_block_by_block(name, change, error, message):
    # every entry of R, H and W is the eigenvalue of a diagonal step
    # matrix, a block of order one, so the check runs entry by entry: an
    # error names the first failing entry and its value
    steps = {"R": np.ones(7), "H": np.ones((5, 2)), "W": np.ones((2, 2))}
    valid = AlgoParams(steps["R"], steps["H"], steps["W"], 1.1)
    if isinstance(change, dict):
        for index, value in change.items():
            steps[name][index] = value
    else:
        steps[name] = change
    with pytest.raises(error, match=re.escape(message)):
        AlgoParams(steps["R"], steps["H"], steps["W"], 1.1)
    # the checked step sizes are read-only copies, out of the caller's reach
    for rows in (valid.R, valid.H, valid.W):
        assert (rows == 1.0).all() and not rows.flags.writeable


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

    # mixed block orders, against the dense block-diagonal R
    rng = np.random.default_rng(seed)
    game = _zero_game(dims)
    r_diags = [rng.uniform(0.1, 5.0, d) for d in dims]
    params = AlgoParams.diagonal(r_diags, np.ones((len(dims), 1)),
                                 np.ones((1, 1)), 1.0)
    # the bounds are the extreme eigenvalues of the dense blocks
    R = step_matrices(params, game)[0]
    eigs = np.linalg.eigvalsh(block_diag(R))
    assert params.r_min == eigs[0] and params.r_max == eigs[-1]
    v = rng.uniform(-10.0, 10.0, game.n)
    assert np.allclose(params.apply_R(v), block_diag(R) @ v,
                       rtol=1e-12, atol=1e-12)


def _batched(stack, rows):
    return (stack @ rows[:, :, None])[:, :, 0]


@given(st.lists(st.integers(1, 4), min_size=1, max_size=6),
       st.sampled_from([1, 16]), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_diagonal_stacks_apply_as_vectors_bit_for_bit(dims, m, seed):
    # R, H and W are applied as one elementwise product with their vectors,
    # which gives the bits of the dense blockwise and batched products,
    # mixed R orders included
    rng = np.random.default_rng(seed)
    game = _zero_game(dims)
    params = AlgoParams.diagonal([rng.uniform(0.1, 5.0, d) for d in dims],
                                 rng.uniform(0.1, 5.0, (len(dims), m)),
                                 rng.uniform(0.1, 5.0, (3, m)), 1.0)
    R, H, W = step_matrices(params, game)
    v = rng.uniform(-10.0, 10.0, game.n)
    rows, edge_rows = rng.normal(size=(len(dims), m)), rng.normal(size=(3, m))
    blocks = np.concatenate([Ri @ vi for Ri, vi in zip(R, game.split(v))])
    assert np.array_equal(params.apply_R(v), blocks)
    assert np.array_equal(params.apply_H(rows), _batched(H, rows))
    assert np.array_equal(params.apply_W(edge_rows), _batched(W, edge_rows))


def test_dense_forms(eq_game, pair_graph):
    game, _ = eq_game
    params = AlgoParams.uniform(game, pair_graph, 3.0, 0.5, 0.25, 1.0)
    R, H, W = step_matrices(params, game)
    assert np.array_equal(block_diag(R), 3.0 * np.eye(2))
    assert np.array_equal(block_diag(H), 0.5 * np.eye(2))
    assert np.array_equal(block_diag(W), 0.25 * np.eye(1))
