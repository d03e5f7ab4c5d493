import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gnesolve as gs
from gnesolve.errors import StructuralError, ValidationError
from gnesolve.games import Box, Player
from gnesolve.operators import (EqualityResiduals, InequalityResiduals,
                                inequality_preconditioner, residual_equality,
                                residual_inequality, step_size_margins)
from conftest import edge_flow_for
from helpers import (block_diag, constraint_matrix, count_oracle_calls,
                     dense_equality_margins, dense_preconditioner,
                     dense_schur_complement, incidence_kron, linear_part,
                     step_matrices)
from reference import InequalityResolvent, pack, unpack_lifted


def test_skew_symmetry_exact(eq_game, pair_graph):
    game, _ = eq_game
    K, _ = linear_part(game, pair_graph)
    assert np.array_equal(K + K.T, np.zeros_like(K))
    Kl, _ = linear_part(game, pair_graph, lifted=True)
    assert np.array_equal(Kl + Kl.T, np.zeros_like(Kl))


def test_skew_symmetry_benchmark_scale():
    game = gs.rate_control_game(0)
    graph = gs.benchmark_graph("chain15")
    K, _ = linear_part(game, graph)
    assert np.array_equal(K + K.T, np.zeros_like(K))


def test_step_size_check_toy(eq_game, pair_graph, toy_params):
    game, _ = eq_game
    margins = gs.check_step_sizes_equality(toy_params, game, pair_graph)
    # hand values: R - Lam^T H Lam = 10 - 0.5, W^-1 - Vbar^T H Vbar = 2 - 1
    assert margins["x"] == pytest.approx(9.5, abs=1e-12)
    assert margins["z"] == pytest.approx(1.0, abs=1e-12)


def test_step_size_check_sign_flip(eq_game, pair_graph):
    game, _ = eq_game
    params = gs.AlgoParams.uniform(game, pair_graph, r=0.4, h=0.5, w=0.5,
                                   rho=1.1)
    with pytest.raises(ValidationError,
                       match=r"min eig\(R - Lam\^T H Lam\) = -0\.1,"):
        gs.check_step_sizes_equality(params, game, pair_graph)


def test_margins_shrink_with_larger_h(eq_game, pair_graph):
    game, _ = eq_game
    loose = gs.AlgoParams.uniform(game, pair_graph, r=10.0, h=0.25, w=0.5,
                                  rho=1.1)
    tight = gs.AlgoParams.uniform(game, pair_graph, r=10.0, h=0.5, w=0.5,
                                  rho=1.1)
    cl = gs.check_step_sizes_equality(loose, game, pair_graph)
    ct = gs.check_step_sizes_equality(tight, game, pair_graph)
    assert cl["x"] > ct["x"] and cl["z"] > ct["z"]


def test_equality_preconditioner_symmetric_and_identity(eq_game, pair_graph,
                                                        toy_params):
    game, _ = eq_game
    Phi = dense_preconditioner(toy_params, game, pair_graph, lifted=True)
    assert np.array_equal(Phi, Phi.T)
    assert min(gs.check_step_sizes_equality(
        toy_params, game, pair_graph).values()) > 0
    # quadratic-form decomposition: two weighted squared norms plus the two
    # margin-weighted norms account for the whole form
    Lam = constraint_matrix(game)
    Vb = incidence_kron(pair_graph, game.m)
    R, H, W = step_matrices(toy_params, game)
    Hd = block_diag(H)
    Hinv = np.linalg.inv(Hd)
    Rx = block_diag(R) - Lam.T @ Hd @ Lam
    Wz = np.linalg.inv(block_diag(W)) - Vb.T @ Hd @ Vb
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
    Phi = dense_preconditioner(toy_params, game, pair_graph)
    assert np.array_equal(Phi, Phi.T)
    assert inequality_preconditioner(toy_params, game, pair_graph)["lam"] > 0


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
    assert inequality_preconditioner(params, game, graph)["lam"] > 0
    task = gs.task_allocation_game(0)
    tgraph = gs.benchmark_graph("chain14")
    tparams = gs.task_allocation_params(task, tgraph, seed=0)
    assert min(gs.check_step_sizes_equality(tparams, task, tgraph).values()) > 0


def test_residual_equality_at_oracle_solution(eq_game, pair_graph):
    game, sol = eq_game
    lam = np.full((2, 1), sol["lambda"])
    Z = edge_flow_for(pair_graph, -game.local_residual(sol["x"]))
    res, _ = residual_equality(game, pair_graph, sol["x"], Z, lam)
    assert max(res) <= 1e-10
    # breaking consensus shows up in the edge residual only
    lam_bad = lam.copy()
    lam_bad[0, 0] += 0.3
    res_bad, _ = residual_equality(game, pair_graph, sol["x"], Z, lam_bad)
    assert res_bad.consensus_edge > 0.1


def test_residual_tuples_have_no_max_alias():
    # the stop rule reads max(res), like every other caller
    assert not hasattr(EqualityResiduals, "max")
    assert not hasattr(InequalityResiduals, "max")


def test_residual_equality_feasibility_matches_direct(eq_game, pair_graph):
    game, sol = eq_game
    rng = np.random.default_rng(5)
    x = rng.normal(size=2)
    Z = rng.normal(size=(1, 1))
    lam = rng.normal(size=(2, 1))
    res, _ = residual_equality(game, pair_graph, x, Z, lam)
    direct = np.linalg.norm(game.local_residual(x)
                            + pair_graph.node_aggregate(Z))
    assert res.feasibility == pytest.approx(direct, rel=1e-12)


def test_residual_inequality_at_oracle_solution(ineq_game, pair_graph):
    game, sol = ineq_game
    lam = np.full((2, 1), sol["lambda"])
    Z = edge_flow_for(pair_graph, -game.local_residual(sol["x"]))
    res, _ = residual_inequality(game, pair_graph, sol["x"], Z, lam)
    assert max(res) <= 1e-10


def test_residual_inequality_inactive_multiplier(pair_graph):
    # a strictly feasible point with zero multipliers has zero
    # complementarity residual
    game, sol = gs.quadratic_game(c=10.0, kind=gs.INEQUALITY)
    assert not sol["active"]
    lam = np.zeros((2, 1))
    Z = edge_flow_for(pair_graph, -game.local_residual(sol["x"]))
    res, _ = residual_inequality(game, pair_graph, sol["x"], Z, lam)
    assert res.complementarity <= 1e-12


def test_pack_unpack_roundtrip(eq_game, pair_graph):
    game, _ = eq_game
    x = np.array([1.0, 2.0])
    eta = np.array([[3.0], [4.0]])
    Z = np.array([[5.0]])
    theta = np.array([[6.0], [7.0]])
    w = pack(x, eta, Z, theta)
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
    R, H, W = step_matrices(params, game)
    R = block_diag(R)
    Hinv = np.linalg.inv(block_diag(H))
    Winv = np.linalg.inv(block_diag(W))
    for lifted, sizes, D in ((False, (n, mM, mN), (R, Winv, Hinv)),
                             (True, (n, mN, mM, mN),
                              (R, 2.0 * Hinv, Winv, 2.0 * Hinv))):
        K, _ = linear_part(game, graph, lifted)
        Phi = dense_preconditioner(params, game, graph, lifted)
        S = Phi + K
        edges = np.cumsum((0,) + sizes)
        for i in range(len(sizes)):
            rows = slice(edges[i], edges[i + 1])
            assert np.array_equal(S[rows, rows], D[i])
            assert not S[rows, edges[i + 1]:].any()


@pytest.mark.parametrize("kind", [gs.EQUALITY, gs.INEQUALITY])
def test_step_sizes_must_fit_the_game_and_graph(kind):
    # step sizes built for a ring, used on the chain of the same players
    if kind == gs.EQUALITY:
        game = gs.task_allocation_game(0)
        build = lambda graph: gs.task_allocation_params(game, graph, seed=0)
    else:
        game = gs.rate_control_game(0)
        build = lambda graph: gs.rate_control_params(game, graph)
    N = game.n_players
    chain = gs.path_graph(N)
    ring = gs.build_incidence(N, list(chain.edges) + [(N - 1, 0)])
    params = build(chain)
    assert min(step_size_margins(params, game, chain).values()) > 0
    wrong = {
        "W shape": build(ring),
        "H shape": gs.AlgoParams(params.R, params.H[:-1], params.W, 1.1),
        "R shape": gs.AlgoParams(params.R[:-1], params.H, params.W, 1.1),
    }
    for message, bad in wrong.items():
        with pytest.raises(StructuralError, match=message):
            step_size_margins(bad, game, chain)


@pytest.mark.parametrize("kind", [gs.EQUALITY, gs.INEQUALITY])
def test_graph_must_have_one_node_per_player(kind):
    # a chain one node longer or shorter than the game's players, with step
    # sizes built for it, used to reach numpy's broadcasting error
    if kind == gs.EQUALITY:
        game, graph = gs.task_allocation_game(0), gs.benchmark_graph("chain15")
        params = gs.task_allocation_params(game, graph, seed=0)
        run = gs.run_admm
    else:
        game, graph = gs.rate_control_game(0), gs.benchmark_graph("chain14")
        params = gs.rate_control_params(game, graph)
        run = gs.run_splitting
    calls = count_oracle_calls(game)
    message = (f"^the graph has {graph.n_nodes} nodes but the game has "
               f"{game.n_players} players$")
    with pytest.raises(StructuralError, match=message):
        step_size_margins(params, game, graph)
    with pytest.raises(StructuralError, match=message):
        run(game, graph, params, gs.InnerSolver(), gs.StopRule(5, 1e-6))
    assert calls == []


def random_instance(seed):
    """Two to five players of dimension 1-4 with m = 1-4 coupling rows, some
    of them zero in a player's ``A_i``, on a path graph plus random chords,
    with step-size vectors whose scales span both validator verdicts.
    Sparse rows split the inequality condition's rows into several
    groups."""
    rng = np.random.default_rng(seed)
    N, m = int(rng.integers(2, 6)), int(rng.integers(1, 5))
    dims = [int(d) for d in rng.integers(1, 5, size=N)]
    players = [Player(d, lambda xi, o: np.zeros_like(xi),
                      rng.normal(size=(m, d)) * (rng.random((m, 1)) < 0.4),
                      rng.normal(size=m), Box(-np.ones(d), np.ones(d)))
               for d in dims]
    chords = [(i, j) for i in range(N) for j in range(i + 2, N)
              if rng.random() < 0.4]
    graph = gs.build_incidence(N, [(i, i + 1) for i in range(N - 1)] + chords)
    # the draws give both verdicts of each validator
    R = [10.0 ** rng.uniform(0.0, 2.0) * rng.uniform(0.1, 1.0, size=d)
         for d in dims]
    H = 10.0 ** rng.uniform(-2.0, 0.0, size=(N, m))
    W = 10.0 ** rng.uniform(-2.0, 0.0, size=(graph.n_edges, m))
    return players, graph, gs.AlgoParams.diagonal(R, H, W, 1.1)


@given(st.integers(0, 2 ** 31))
@settings(max_examples=150, deadline=None)
def test_structured_validators_match_dense_reference(seed):
    players, graph, params = random_instance(seed)
    # equality: the margins are those of the dense conditions; a failure
    # names both of them
    game = gs.Game(players, gs.EQUALITY)
    dense = dense_equality_margins(params, game, graph)
    if min(dense.values()) > 0.0:
        margins = gs.check_step_sizes_equality(params, game, graph)
        assert margins == pytest.approx(dense, rel=1e-10, abs=1e-10)
    else:
        with pytest.raises(ValidationError) as failure:
            gs.check_step_sizes_equality(params, game, graph)
        shown = [float(v) for v in re.findall(r"= (\S+?),?(?: |$)",
                                              str(failure.value))]
        assert shown == pytest.approx([dense["x"], dense["z"]],
                                      rel=1e-5, abs=1e-10)
    # inequality: the Schur-complement verdict is the sign of the smallest
    # eigenvalue of the stacked preconditioner, away from zero
    game = gs.Game(players, gs.INEQUALITY)
    schur = float(np.linalg.eigvalsh(dense_schur_complement(params, game, graph)).min())
    if schur > 0.0:
        assert inequality_preconditioner(params, game, graph)["lam"] == \
            pytest.approx(schur, rel=1e-10, abs=1e-10)
    else:
        with pytest.raises(ValidationError) as failure:
            inequality_preconditioner(params, game, graph)
        shown = float(re.search(r"= (\S+)$", str(failure.value)).group(1))
        assert shown == pytest.approx(schur, rel=1e-5, abs=1e-10)
    smallest = float(np.linalg.eigvalsh(
        dense_preconditioner(params, game, graph)).min())
    if smallest > 1e-8:
        assert inequality_preconditioner(params, game, graph)["lam"] > 0.0
        # the block-diagonal H Lam has the norm of its largest block
        HLam = block_diag(step_matrices(params, game)[1]) @ constraint_matrix(game)
        dense_factor = np.sqrt(1.0 + (2.0 * np.linalg.norm(HLam, 2)) ** 2)
        resolvent = InequalityResolvent(game, graph, params, gs.InnerSolver())
        assert resolvent.nu_factor == pytest.approx(dense_factor, rel=1e-12)
    elif smallest < -1e-8:
        with pytest.raises(ValidationError, match="not positive definite"):
            inequality_preconditioner(params, game, graph)
