"""Both algorithms on a hand-built n-player game over a cyclic graph.

The game has cost ``(x_i - t_i)^2 / 2 + delta x_i sum_{j != i} x_j`` and the
shared budget ``sum x_i (= or <=) c`` split evenly, so the stacked map is
``(1 - delta) x + delta (sum x) 1 - t`` and the shared-multiplier solution
has the closed form used below as the oracle.  Graphs with cycles exercise
the edge bookkeeping beyond spanning trees.
"""

import numpy as np
import pytest

import gnesolve as gs
from gnesolve.admm import relax
from gnesolve.games import Box, Player


def ring_game(n, delta, c, kind, half_width=25.0):
    t = np.linspace(2.0, 3.5, n)
    box = Box(np.array([-half_width]), np.array([half_width]))

    def make_oracle(i):
        def oracle(xi, others):
            return np.array([(1 - delta) * xi[0]
                             + delta * (xi[0] + others.sum()) - t[i]])
        return oracle

    def profile_oracle(x):
        return (1 - delta) * x + delta * x.sum() - t

    def exact_subgame_solver(anchor, shift, R_blocks):
        Rb = np.array([float(np.atleast_2d(R)[0, 0]) for R in R_blocks])
        G = (1 - delta) * np.eye(n) + delta * np.ones((n, n)) + np.diag(Rb)
        y = np.linalg.solve(G, Rb * np.asarray(anchor) + t - np.asarray(shift))
        assert np.all(np.abs(y) < half_width - 1e-9)
        return y

    players = [Player(1, make_oracle(i), np.array([[1.0]]),
                      np.array([c / n]), box) for i in range(n)]
    game = gs.Game(players, kind, profile_oracle=profile_oracle,
                   exact_subgame_solver=exact_subgame_solver)

    lam = (t.sum() - c * (1 - delta + n * delta)) / n
    x_star = (t - delta * c - lam) / (1 - delta)
    if kind == gs.INEQUALITY:
        x_free = np.linalg.solve((1 - delta) * np.eye(n)
                                 + delta * np.ones((n, n)), t)
        if x_free.sum() <= c:
            x_star, lam = x_free, 0.0
        else:
            assert lam >= 0
    return game, x_star, lam


def chord_cycle(n):
    edges = [(i, (i + 1) % n) for i in range(n)] + [(0, n // 2)]
    return gs.build_incidence(n, edges)


@pytest.fixture
def cyclic_graph():
    return chord_cycle(4)


def test_equality_on_cyclic_graph(cyclic_graph):
    game, x_star, lam_star = ring_game(4, 0.3, 2.0, gs.EQUALITY)
    params = gs.AlgoParams.uniform(game, cyclic_graph, r=8.0, h=0.3, w=0.3,
                                   rho=1.1, mu0=0.0)
    assert min(gs.check_step_sizes_equality(params, game,
                                            cyclic_graph).values()) > 0
    inner = gs.InnerSolver("exact")
    result = gs.run_admm(game, cyclic_graph, params, inner,
                         gs.StopRule(8000, 1e-8), seed=1)
    assert result.converged
    assert np.linalg.norm(result.state.x - x_star) <= 1e-6
    assert np.allclose(result.state.lam, lam_star, atol=1e-7)
    report = gs.kkt_residual(game, result.state.x, result.state.lam, tol=1e-6)
    assert report.is_variational


def test_inequality_on_cyclic_graph(cyclic_graph):
    game, x_star, lam_star = ring_game(4, 0.3, 2.0, gs.INEQUALITY)
    assert lam_star > 0    # the budget binds for these targets
    params = gs.AlgoParams.uniform(game, cyclic_graph, r=8.0, h=0.3, w=0.3,
                                   rho=1.1, mu0=0.0)
    inner = gs.InnerSolver("exact")
    result = gs.run_splitting(game, cyclic_graph, params, inner,
                              gs.StopRule(8000, 1e-8), seed=1)
    assert result.converged
    assert np.linalg.norm(result.state.x - x_star) <= 1e-6
    assert np.allclose(result.state.lam, lam_star, atol=1e-7)


def test_orientation_invariance():
    # flipping every edge orientation negates the edge variables but leaves
    # decisions and multipliers unchanged
    game, x_star, _ = ring_game(4, 0.3, 2.0, gs.EQUALITY)
    graph_a = chord_cycle(4)
    graph_b = gs.build_incidence(4, [(j, i) for i, j in graph_a.edges])
    inner = gs.InnerSolver("exact")
    results = []
    for graph in (graph_a, graph_b):
        params = gs.AlgoParams.uniform(game, graph, r=8.0, h=0.3, w=0.3,
                                       rho=1.1, mu0=0.0)
        results.append(gs.run_admm(game, graph, params, inner,
                                   gs.StopRule(200, 0.0), seed=1))
    a, b = results
    assert np.allclose(a.state.x, b.state.x, atol=1e-13)
    assert np.allclose(a.state.lam, b.state.lam, atol=1e-13)
    assert np.allclose(a.state.Z, -b.state.Z, atol=1e-13)


def test_oracle_inner_matches_exact_on_cycle(cyclic_graph):
    # the iterative inner solver reproduces the closed-form trajectory
    game, _, _ = ring_game(4, 0.3, 2.0, gs.EQUALITY)
    params = gs.AlgoParams.uniform(game, cyclic_graph, r=8.0, h=0.3, w=0.3,
                                   rho=1.1, mu0=0.0)
    exact = gs.InnerSolver("exact")
    oracle = gs.InnerSolver("oracle")
    state_e = gs.initial_state(game, cyclic_graph, seed=5)
    state_o = gs.initial_state(game, cyclic_graph, seed=5)
    for _ in range(25):
        swept_e, _ = gs.admm_iterate(game, cyclic_graph, params, state_e,
                                     exact, 0.0)
        swept_o, _ = gs.admm_iterate(game, cyclic_graph, params, state_o,
                                     oracle, 0.0)
        state_e = relax(state_e, swept_e, params.rho)
        state_o = relax(state_o, swept_o, params.rho)
    assert np.linalg.norm(state_e.x - state_o.x) <= 1e-9
    assert np.linalg.norm(state_e.lam - state_o.lam) <= 1e-9
