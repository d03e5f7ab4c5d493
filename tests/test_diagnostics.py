import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gnesolve as gs
from gnesolve.diagnostics import consensus_error, kkt_residual
from gnesolve.errors import ValidationError
from reference import fejer_check


def test_kkt_equality_at_oracle_point(eq_game):
    game, sol = eq_game
    report = kkt_residual(game, sol["x"], np.array([sol["lambda"]]))
    assert report.worst() <= 1e-10
    assert report.is_variational
    assert report.complementarity is None


def test_kkt_equality_detects_perturbation(eq_game):
    game, sol = eq_game
    x = np.asarray(sol["x"]) + np.array([0.1, 0.0])
    report = kkt_residual(game, x, np.array([sol["lambda"]]))
    assert max(report.stationarity_per_player) > 0.01
    assert not report.is_variational


def test_kkt_equality_multiplier_free_case():
    # with the constraint level at the decoupled optimum, lambda = 0 certifies
    game, sol = gs.quadratic_game(t=(2.0, 1.0), delta=0.0, c=3.0)
    assert sol["lambda"] == pytest.approx(0.0, abs=1e-12)
    report = kkt_residual(game, np.array([2.0, 1.0]), np.zeros(1))
    assert report.is_variational


def test_kkt_inequality_cases(ineq_game):
    game, sol = ineq_game
    report = kkt_residual(game, sol["x"], np.array([sol["lambda"]]))
    assert report.worst() <= 1e-10 and report.is_variational

    # strictly feasible point with zero multiplier: zero complementarity
    feasible_game, fsol = gs.quadratic_game(c=10.0, kind=gs.INEQUALITY)
    rep2 = kkt_residual(feasible_game, fsol["x"], np.zeros(1))
    assert rep2.complementarity <= 1e-12

    # violated constraint with zero multiplier: positive complementarity
    rep3 = kkt_residual(game, np.array([2.0, 0.0]), np.zeros(1))
    assert rep3.complementarity > 0.5

    with pytest.raises(ValidationError):
        kkt_residual(game, sol["x"], np.array([-0.1]))


def test_kkt_residual_continuity(eq_game):
    # perturbations of size eps move the residuals by O(eps)
    game, sol = eq_game
    lam = np.array([sol["lambda"]])
    base = kkt_residual(game, sol["x"], lam)
    rng = np.random.default_rng(8)
    direction = rng.normal(size=2)
    direction /= np.linalg.norm(direction)
    values = []
    for eps in (1e-3, 1e-4):
        rep = kkt_residual(game, sol["x"] + eps * direction, lam)
        delta = max(rep.stationarity_per_player) - max(base.stationarity_per_player)
        values.append(delta / eps)
    # the ratio (residual change / eps) is bounded and roughly constant
    assert 0.0 <= values[1] <= 10.0 * max(values[0], 1.0)


def test_kkt_accepts_local_multiplier_stack(eq_game, pair_graph):
    # a converged run's local multipliers certify through their mean, with
    # the consensus error recorded in the report
    game, sol = eq_game
    params = gs.AlgoParams.uniform(game, pair_graph, 10.0, 0.5, 0.5, 1.1,
                                   mu0=0.0)
    inner = gs.InnerSolver("exact")
    tol = 1e-6
    result = gs.run_admm(game, pair_graph, params, inner,
                         gs.StopRule(5000, tol), seed=0)
    report = kkt_residual(game, result.state.x, result.state.lam,
                          tol=10 * tol)
    assert report.is_variational
    assert report.worst() <= 10 * tol
    assert report.consensus == pytest.approx(
        consensus_error(result.state.lam))


def test_consensus_error_examples():
    assert consensus_error(np.array([[1.5], [1.5], [1.5]])) == 0.0
    assert consensus_error(np.array([[0.0], [1.0]])) == pytest.approx(0.5)
    lam = np.array([[0.0, 1.0], [2.0, 3.0]])
    shifted = lam + np.array([5.0, -7.0])
    assert consensus_error(shifted) == pytest.approx(consensus_error(lam))


def consensus_error_rows(lam):
    """`consensus_error` row by row: the reference for the stacked form."""
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    mean = lam.mean(axis=0)
    return float(max(np.linalg.norm(row - mean) for row in lam))


@given(st.integers(1, 12), st.integers(1, 9), st.floats(-9.0, 2.0),
       st.integers(0, 2 ** 31))
@example(1, 1, -9.0, 0)
@example(1, 6, 2.0, 1)
@example(8, 1, 0.0, 2)
@settings(max_examples=150, deadline=None)
def test_consensus_error_bit_identical_to_row_loop(n_rows, m, log_scale, seed):
    lam = np.random.default_rng(seed).normal(size=(n_rows, m)) * 10.0 ** log_scale
    assert consensus_error(lam) == consensus_error_rows(lam)
    assert consensus_error(lam[0]) == consensus_error_rows(lam[0]) == 0.0


def test_fejer_check_reports():
    phi = np.eye(2)
    star = np.zeros(2)
    shrinking = [np.array([1.0, 0.0]), np.array([0.5, 0.0]),
                 np.array([0.25, 0.0])]
    assert fejer_check(shrinking, phi, star).monotone
    inflated = shrinking + [np.array([2.0, 0.0])]
    report = fejer_check(inflated, phi, star)
    assert not report.monotone and report.worst_violation > 1.0
    constant = [np.array([0.0, 0.0])] * 5
    rep0 = fejer_check(constant, phi, star)
    assert rep0.monotone and rep0.worst_violation == 0.0
