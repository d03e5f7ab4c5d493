import numpy as np
import pytest

import gnesolve as gs


@pytest.fixture
def pair_graph():
    return gs.path_graph(2)


@pytest.fixture
def eq_game():
    game, solution = gs.quadratic_game()
    return game, solution


@pytest.fixture
def ineq_game():
    game, solution = gs.quadratic_game(kind=gs.INEQUALITY)
    return game, solution


@pytest.fixture
def toy_params(eq_game, pair_graph):
    game, _ = eq_game
    return gs.AlgoParams.uniform(game, pair_graph, r=10.0, h=0.5, w=0.5,
                                 rho=1.1, mu0=0.0)


@pytest.fixture
def exact_inner():
    return gs.InnerSolver("exact")


def edge_flow_for(graph, node_targets):
    """Independent oracle: minimum-norm edge values ``Z`` with ``V Z`` the
    node targets, in the least-squares sense (exact when the targets sum to
    zero across nodes).  With targets ``b - A x`` they track the coupling."""
    Z, *_ = np.linalg.lstsq(graph.incidence, node_targets, rcond=None)
    return Z
