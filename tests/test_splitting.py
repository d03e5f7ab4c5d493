import numpy as np
import pytest

import gnesolve as gs
from gnesolve.admm import AdmmState, initial_state, relax
from gnesolve.errors import ValidationError
from gnesolve.operators import pack, step_size_margins, unpack_plain
from gnesolve.proxpoint import InequalityResolvent, pppa_step
from gnesolve.splitting import run_splitting, splitting_iterate
from gnesolve.subgames import inequality_subgame
from conftest import edge_flow_for


@pytest.fixture(scope="module")
def rate_control():
    """The published rate-control game on its 15-node chain, with the
    published step sizes."""
    game = gs.rate_control_game(0)
    graph = gs.benchmark_graph("chain15")
    return game, graph, gs.rate_control_params(game, graph)


def test_weighted_projection_rejects_dense(rate_control):
    # the orthant projection in the H^-1 metric is a plain clamp only for
    # diagonal H; the driver refuses dense multiplier steps up front
    game, graph, params = rate_control
    H = params.H.copy()
    H[0, 0, 1] = H[0, 1, 0] = 0.1
    dense = gs.AlgoParams(params.R, H, params.W, params.rho, params.mu0)
    with pytest.raises(ValidationError, match="diagonal"):
        run_splitting(game, graph, dense, gs.InnerSolver())


def test_non_diagonal_h_rejected_by_every_inequality_path(rate_control):
    # the validator and the stacked resolvent share run_splitting's check
    # (test above): with a dense H the resolvent's clamp is not the H^-1
    # projection
    game, graph, params = rate_control
    m = game.m
    H = np.stack([0.02 * np.eye(m) + 0.005 * np.ones((m, m))] * game.n_players)
    dense = gs.AlgoParams(params.R, H, params.W, params.rho, params.mu0)
    with pytest.raises(ValidationError, match="diagonal"):
        step_size_margins(dense, game, graph)
    with pytest.raises(ValidationError, match="diagonal"):
        InequalityResolvent(game, graph, dense, gs.InnerSolver())


def test_fixed_point_invariance(ineq_game, pair_graph, toy_params,
                                exact_inner):
    game, solution = ineq_game
    lam = np.full((2, 1), solution["lambda"])
    Z = edge_flow_for(game, pair_graph, solution["x"])
    state = AdmmState(np.asarray(solution["x"]), lam, Z)
    new, _ = splitting_iterate(game, pair_graph, toy_params, state,
                               exact_inner, 0.0)
    assert np.linalg.norm(new.x - state.x) <= 1e-10
    assert np.linalg.norm(new.lam - state.lam) <= 1e-10
    assert np.linalg.norm(new.Z - state.Z) <= 1e-10


def test_rho_one_is_unrelaxed(ineq_game, pair_graph, exact_inner):
    game, _ = ineq_game
    params = gs.AlgoParams.uniform(game, pair_graph, 10.0, 0.5, 0.5, 1.0,
                                   mu0=0.0)
    state = initial_state(game, pair_graph, seed=4)
    swept, _ = splitting_iterate(game, pair_graph, params, state, exact_inner,
                                 0.0)
    new = relax(state, swept, params.rho)
    sub = inequality_subgame(game, params, state.x, state.lam)
    x_tilde = exact_inner.solve(sub, 0.0).x
    assert np.allclose(new.x, x_tilde, atol=1e-14)


def test_parallel_steps_commute(ineq_game, pair_graph, toy_params,
                                exact_inner, rate_control):
    # decisions and edge variables read only iteration-k data: computing the
    # edge update before the subgame solve, player by player and edge by
    # edge, gives bitwise-identical results to the stacked update
    toy, _ = ineq_game
    rc_game, rc_graph, rc_params = rate_control
    rng = np.random.default_rng(6)
    cases = [(toy, pair_graph, toy_params, exact_inner, 0.0,
              initial_state(toy, pair_graph, seed=6))]
    for seed in range(5):
        x = initial_state(rc_game, rc_graph, seed=seed).x
        lam = rng.uniform(-0.1, 1.0, (rc_game.n_players, rc_game.m))
        Z = rng.normal(size=(rc_graph.n_edges, rc_game.m))
        cases.append((rc_game, rc_graph, rc_params, gs.InnerSolver(), 1e-3,
                      AdmmState(x, lam, Z)))
    for game, graph, params, inner, mu, state in cases:
        swept, _ = splitting_iterate(game, graph, params, state, inner, mu)
        reference = relax(state, swept, params.rho)
        Z_tilde = np.empty_like(state.Z)
        for l, (i, j) in enumerate(graph.edges):
            Z_tilde[l] = state.Z[l] - params.W[l] @ (state.lam[j] - state.lam[i])
        sub = inequality_subgame(game, params, state.x, state.lam)
        xt_blocks = game.split(inner.solve(sub, mu).x)
        rho = params.rho
        refl = graph.node_aggregate(2.0 * Z_tilde - state.Z)
        lam_next = np.empty_like(state.lam)
        blocks = game.split(state.x)
        for i, p in enumerate(game.players):
            reflected = p.A @ (2.0 * xt_blocks[i] - blocks[i]) + refl[i] - p.b
            lt = np.maximum(state.lam[i] + params.H[i] @ reflected, 0.0)
            lam_next[i] = state.lam[i] + rho * (lt - state.lam[i])
        x_next = np.concatenate([xi + rho * (xti - xi)
                                 for xi, xti in zip(blocks, xt_blocks)])
        assert np.array_equal(reference.x, x_next)
        assert np.array_equal(reference.Z, state.Z + rho * (Z_tilde - state.Z))
        assert np.array_equal(reference.lam, lam_next)


def test_convergence_to_oracle_solution(ineq_game, pair_graph, toy_params,
                                        exact_inner):
    game, solution = ineq_game
    tol = 1e-8
    result = run_splitting(game, pair_graph, toy_params, exact_inner,
                           gs.StopRule(5000, tol), seed=0)
    assert result.converged
    assert np.linalg.norm(result.state.x - solution["x"]) <= 1e-5
    assert gs.consensus_error(result.state.lam) <= 1e-6
    assert result.residuals.complementarity <= 1e-6
    assert np.allclose(result.state.lam, solution["lambda"], atol=1e-6)
    # at convergence: near-nonnegative multipliers, orthogonal to the gap
    assert result.state.lam.min() >= -10 * tol
    gap = game.coupling_gap(result.state.x)
    assert abs(float(result.state.lam.mean(axis=0) @ gap)) <= 1e-7


def test_strictly_feasible_game_drives_multiplier_to_zero(pair_graph,
                                                          exact_inner):
    game, solution = gs.quadratic_game(c=10.0, kind=gs.INEQUALITY)
    assert not solution["active"]
    params = gs.AlgoParams.uniform(game, pair_graph, 10.0, 0.5, 0.5, 1.1,
                                   mu0=0.0)
    result = run_splitting(game, pair_graph, params, exact_inner,
                           gs.StopRule(5000, 1e-8), seed=0)
    assert result.converged
    assert np.linalg.norm(result.state.x - solution["x"]) <= 1e-6
    assert np.abs(result.state.lam).max() <= 1e-7


def test_wrong_kind_rejected(eq_game, pair_graph, toy_params, exact_inner):
    game, _ = eq_game
    with pytest.raises(ValidationError):
        run_splitting(game, pair_graph, toy_params, exact_inner)


def test_indefinite_preconditioner_rejected(ineq_game, pair_graph,
                                            exact_inner):
    game, _ = ineq_game
    params = gs.AlgoParams.uniform(game, pair_graph, 10.0, 50.0, 0.5, 1.1)
    with pytest.raises(ValidationError, match="not positive definite"):
        run_splitting(game, pair_graph, params, exact_inner)


def test_matches_proxpoint_path(ineq_game, pair_graph, toy_params,
                                exact_inner):
    # one-to-one correspondence with the stacked resolvent iteration
    game, _ = ineq_game
    state = initial_state(game, pair_graph, seed=3)
    w = pack(state.x, state.Z, state.lam)
    resolvent = InequalityResolvent(game, pair_graph, toy_params, exact_inner)
    worst = 0.0
    for _ in range(100):
        swept, _ = splitting_iterate(game, pair_graph, toy_params, state,
                                     exact_inner, 0.0)
        state = relax(state, swept, toy_params.rho)
        w, _ = pppa_step(resolvent, w, 0.0, toy_params.rho)
        x2, Z2, lam2 = unpack_plain(game, pair_graph, w)
        worst = max(worst,
                    np.abs(state.x - x2).max(),
                    np.abs(state.Z - Z2).max(),
                    np.abs(state.lam - lam2).max())
    assert worst <= 1e-12
