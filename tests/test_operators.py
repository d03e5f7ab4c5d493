import numpy as np
import pytest

import gnesolve as gs
from gnesolve.errors import StructuralError, ValidationError
from gnesolve.operators import (block_diag, constraint_matrix,
                                equality_operator, equality_preconditioner,
                                incidence_kron,
                                inequality_preconditioner,
                                lifted_equality_operator, pack,
                                residual_equality, residual_inequality)
from conftest import edge_flow_for


def test_skew_symmetry_exact(eq_game, pair_graph):
    game, _ = eq_game
    K, _ = equality_operator(game, pair_graph)
    assert np.array_equal(K + K.T, np.zeros_like(K))
    Kl, _ = lifted_equality_operator(game, pair_graph)
    assert np.array_equal(Kl + Kl.T, np.zeros_like(Kl))


def test_skew_symmetry_benchmark_scale():
    game = gs.rate_control_game(0)
    graph = gs.benchmark_graph("chain15")
    K, _ = equality_operator(game, graph)
    assert np.array_equal(K + K.T, np.zeros_like(K))


def test_step_size_check_toy(eq_game, pair_graph, toy_params):
    game, _ = eq_game
    check = gs.check_step_sizes_equality(toy_params, game, pair_graph)
    # hand values: R - Lam^T H Lam = 10 - 0.5, W^-1 - Vbar^T H Vbar = 2 - 1
    assert check.ok
    assert check.margin_x == pytest.approx(9.5, abs=1e-12)
    assert check.margin_z == pytest.approx(1.0, abs=1e-12)


def test_step_size_check_sign_flip(eq_game, pair_graph):
    game, _ = eq_game
    params = gs.AlgoParams.uniform(game, pair_graph, r=0.4, h=0.5, w=0.5,
                                   rho=1.1)
    check = gs.check_step_sizes_equality(params, game, pair_graph)
    assert not check.ok and check.margin_x == pytest.approx(-0.1, abs=1e-12)
    with pytest.raises(ValidationError, match="R - Lam\\^T H Lam"):
        equality_preconditioner(params, game, pair_graph)


def test_margins_shrink_with_larger_h(eq_game, pair_graph):
    game, _ = eq_game
    loose = gs.AlgoParams.uniform(game, pair_graph, r=10.0, h=0.25, w=0.5,
                                  rho=1.1)
    tight = gs.AlgoParams.uniform(game, pair_graph, r=10.0, h=0.5, w=0.5,
                                  rho=1.1)
    cl = gs.check_step_sizes_equality(loose, game, pair_graph)
    ct = gs.check_step_sizes_equality(tight, game, pair_graph)
    assert cl.margin_x > ct.margin_x and cl.margin_z > ct.margin_z


def test_equality_preconditioner_symmetric_and_identity(eq_game, pair_graph,
                                                        toy_params):
    game, _ = eq_game
    report = equality_preconditioner(toy_params, game, pair_graph)
    Phi = report.matrix
    assert np.array_equal(Phi, Phi.T)
    assert min(report.margins.values()) > 0
    # quadratic-form decomposition: two weighted squared norms plus the two
    # margin-weighted norms account for the whole form
    Lam = constraint_matrix(game)
    Vb = incidence_kron(pair_graph, game.m)
    Hd = block_diag(toy_params.H)
    Hinv = np.linalg.inv(Hd)
    Rx = block_diag(toy_params.R) - Lam.T @ Hd @ Lam
    Wz = np.linalg.inv(block_diag(toy_params.W)) - Vb.T @ Hd @ Vb
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=game.n)
        eta = rng.normal(size=game.m * game.n_players)
        Z = rng.normal(size=game.m * pair_graph.n_edges)
        theta = rng.normal(size=game.m * game.n_players)
        w = np.concatenate([x, eta, Z, theta])
        direct = w @ (Phi @ w)
        t1 = Hd @ Lam @ x + theta - eta
        t2 = Hd @ Vb @ Z + theta + eta
        split = (t1 @ Hinv @ t1 + t2 @ Hinv @ t2 + x @ Rx @ x + Z @ Wz @ Z)
        assert direct == pytest.approx(split, rel=1e-10)


def test_inequality_preconditioner_toy(ineq_game, pair_graph, toy_params):
    game, _ = ineq_game
    report = inequality_preconditioner(toy_params, game, pair_graph)
    Phi = report.matrix
    assert np.array_equal(Phi, Phi.T)
    assert report.margins["min_eig"] > 0


def test_inequality_preconditioner_rejects_large_h(ineq_game, pair_graph):
    game, _ = ineq_game
    params = gs.AlgoParams.uniform(game, gs.path_graph(2), r=10.0, h=50.0,
                                   w=0.5, rho=1.1)
    with pytest.raises(ValidationError, match="not positive definite"):
        inequality_preconditioner(params, game, pair_graph)


def test_benchmark_topology_margins():
    # published step sizes must validate on the benchmark shapes
    game = gs.rate_control_game(0)
    graph = gs.benchmark_graph("chain15")
    params = gs.rate_control_params(game, graph)
    report = inequality_preconditioner(params, game, graph)
    assert report.margins["min_eig"] > 0
    task = gs.task_allocation_game(0)
    tgraph = gs.benchmark_graph("chain14")
    tparams = gs.task_allocation_params(task, tgraph, seed=0)
    check = gs.check_step_sizes_equality(tparams, task, tgraph)
    assert check.ok


def test_residual_equality_at_oracle_solution(eq_game, pair_graph):
    game, sol = eq_game
    lam = np.full((2, 1), sol["lambda"])
    Z = edge_flow_for(game, pair_graph, sol["x"])
    res = residual_equality(game, pair_graph, sol["x"], Z, lam)
    assert res.max() <= 1e-10
    # breaking consensus shows up in the edge residual only
    lam_bad = lam.copy()
    lam_bad[0, 0] += 0.3
    res_bad = residual_equality(game, pair_graph, sol["x"], Z, lam_bad)
    assert res_bad.consensus_edge > 0.1


def test_residual_equality_feasibility_matches_direct(eq_game, pair_graph):
    game, sol = eq_game
    rng = np.random.default_rng(5)
    x = rng.normal(size=2)
    Z = rng.normal(size=(1, 1))
    lam = rng.normal(size=(2, 1))
    res = residual_equality(game, pair_graph, x, Z, lam)
    direct = np.linalg.norm(game.local_residual(x)
                            + pair_graph.node_aggregate(Z))
    assert res.feasibility == pytest.approx(direct, rel=1e-12)


def test_residual_inequality_at_oracle_solution(ineq_game, pair_graph):
    game, sol = ineq_game
    lam = np.full((2, 1), sol["lambda"])
    Z = edge_flow_for(game, pair_graph, sol["x"])
    res = residual_inequality(game, pair_graph, sol["x"], Z, lam)
    assert res.max() <= 1e-10


def test_residual_inequality_inactive_multiplier(pair_graph):
    # a strictly feasible point with zero multipliers has zero
    # complementarity residual
    game, sol = gs.quadratic_game(c=10.0, kind=gs.INEQUALITY)
    assert not sol["active"]
    lam = np.zeros((2, 1))
    Z = edge_flow_for(game, pair_graph, sol["x"])
    res = residual_inequality(game, pair_graph, sol["x"], Z, lam)
    assert res.complementarity <= 1e-12


def test_pack_unpack_roundtrip(eq_game, pair_graph):
    game, _ = eq_game
    x = np.array([1.0, 2.0])
    eta = np.array([[3.0], [4.0]])
    Z = np.array([[5.0]])
    theta = np.array([[6.0], [7.0]])
    w = pack(x, eta, Z, theta)
    from gnesolve.operators import unpack_lifted
    x2, eta2, Z2, theta2 = unpack_lifted(game, pair_graph, w)
    assert np.array_equal(x, x2) and np.array_equal(eta, eta2)
    assert np.array_equal(Z, Z2) and np.array_equal(theta, theta2)
    with pytest.raises(StructuralError):
        unpack_lifted(game, pair_graph, w[:-1])


def _published(name):
    if name == "rate-control":
        game = gs.rate_control_game(0)
        graph = gs.benchmark_graph("chain15")
        return game, graph, gs.rate_control_params(game, graph)
    game = gs.task_allocation_game(0)
    graph = gs.benchmark_graph("chain14")
    return game, graph, gs.task_allocation_params(game, graph, seed=0)


@pytest.mark.parametrize("instance", ["toy-equality", "toy-inequality",
                                      "rate-control", "task-allocation"])
def test_phi_plus_k_is_block_lower_triangular(instance, eq_game, ineq_game,
                                              pair_graph, toy_params):
    # the rule both resolvents rely on: Phi + K = D - 2 U^T, so nothing
    # above the block diagonal and exactly the step-size blocks on it
    if instance.startswith("toy"):
        game = (eq_game if instance == "toy-equality" else ineq_game)[0]
        graph, params = pair_graph, toy_params
    else:
        game, graph, params = _published(instance)
    n, mM, mN = game.n, game.m * graph.n_edges, game.m * game.n_players
    R = block_diag(params.R)
    Hinv = np.linalg.inv(block_diag(params.H))
    Winv = np.linalg.inv(block_diag(params.W))
    for (K, _), Phi, sizes, D in (
            (equality_operator(game, graph),
             inequality_preconditioner(params, game, graph).matrix,
             (n, mM, mN), (R, Winv, Hinv)),
            (lifted_equality_operator(game, graph),
             equality_preconditioner(params, game, graph).matrix,
             (n, mN, mM, mN), (R, 2.0 * Hinv, Winv, 2.0 * Hinv))):
        S = Phi + K
        edges = np.cumsum((0,) + sizes)
        for i in range(len(sizes)):
            rows = slice(edges[i], edges[i + 1])
            assert np.array_equal(S[rows, rows], D[i])
            assert not S[rows, edges[i + 1]:].any()
