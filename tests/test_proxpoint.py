import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gnesolve as gs
from gnesolve.errors import InexactnessError, ValidationError
from gnesolve.operators import pack, unpack_plain
from gnesolve.proxpoint import (InequalityResolvent, LiftedEqualityResolvent,
                                pppa_step, run_proxpoint)
from conftest import edge_flow_for
from gnesolve.games import Box, Player
from helpers import (MatrixResolvent, constraint_matrix, dense_lifted_jacobian,
                     dense_preconditioner, incidence_kron, linear_part)


# -- engine on scalar operators ---------------------------------------------------

def test_zero_operator_is_identity():
    resolvent = MatrixResolvent(np.zeros((1, 1)), np.array([[5.0]]))
    w = np.array([3.7])
    for rho in (1.0, 1.5, 1.9):
        w_next, step = pppa_step(resolvent, w, 0.0, rho)
        assert w_next == pytest.approx(w)
        assert step.point == pytest.approx(w)


def test_scalar_identity_operator():
    # M w = w with unit preconditioner halves the iterate at rho = 1
    resolvent = MatrixResolvent(np.eye(1), np.eye(1))
    w_next, _ = pppa_step(resolvent, np.array([2.0]), 0.0, 1.0)
    assert w_next == pytest.approx(np.array([1.0]))


def test_scalar_closed_form():
    # M w = 3w, Phi = 2: hat = 0.4 w; with rho = 1.5 the next iterate is 0.1 w
    resolvent = MatrixResolvent(3.0 * np.eye(1), 2.0 * np.eye(1))
    w_next, step = pppa_step(resolvent, np.array([1.0]), 0.0, 1.5)
    assert step.point == pytest.approx(np.array([0.4]))
    assert w_next == pytest.approx(np.array([0.1]))


def test_step_validation():
    resolvent = MatrixResolvent(np.eye(1), np.eye(1))
    with pytest.raises(ValidationError):
        pppa_step(resolvent, np.ones(1), 0.0, 2.0)
    with pytest.raises(ValidationError):
        pppa_step(resolvent, np.ones(1), -1.0, 1.5)


def test_uncertified_resolvent_raises():
    class Sloppy:
        def solve(self, w, nu):
            from gnesolve.proxpoint import ResolventStep
            return ResolventStep(w, bound=1.0)
    with pytest.raises(InexactnessError):
        pppa_step(Sloppy(), np.ones(1), 1e-3, 1.1)


@given(st.integers(0, 2 ** 31))
@settings(max_examples=100, deadline=None)
def test_matrix_resolvent_firmly_nonexpansive(seed):
    # random monotone linear operator (PSD symmetric plus skew part) under a
    # random SPD preconditioner: the resolvent is firmly nonexpansive in the
    # preconditioner metric and the relaxed step never moves away from the zero
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 6))
    G = rng.normal(size=(dim, dim))
    sym = G @ G.T
    skew = rng.normal(size=(dim, dim))
    skew = skew - skew.T
    M = sym + skew
    P = rng.normal(size=(dim, dim))
    Phi = P @ P.T + 0.1 * np.eye(dim)
    resolvent = MatrixResolvent(M, Phi)
    w1, w2 = rng.normal(size=dim), rng.normal(size=dim)
    t1 = resolvent.solve(w1, 0.0).point
    t2 = resolvent.solve(w2, 0.0).point
    d, s = t1 - t2, w1 - w2
    assert d @ Phi @ d <= s @ Phi @ d + 1e-9 * max(1.0, abs(s @ Phi @ d))
    # zero of M w is the origin; one relaxed step shrinks the Phi-distance
    rho = float(rng.uniform(1.0, 1.99))
    w_next, _ = pppa_step(resolvent, w1, 0.0, rho)
    assert w_next @ Phi @ w_next <= w1 @ Phi @ w1 + 1e-9


# -- structured resolvents: inclusion checks ---------------------------------------

def lifted_star(game, graph, solution):
    lam = np.full((game.n_players, game.m), solution["lambda"])
    Z = edge_flow_for(game, graph, solution["x"])
    eta = lam.copy()
    theta = np.zeros_like(lam)
    return pack(solution["x"], eta, Z, theta)


def test_lifted_resolvent_inclusion(eq_game, pair_graph, toy_params,
                                    exact_inner):
    game, _ = eq_game
    resolvent = LiftedEqualityResolvent(game, pair_graph, toy_params,
                                        exact_inner)
    Phi = dense_preconditioner(toy_params, game, pair_graph, lifted=True)
    K, q = linear_part(game, pair_graph, lifted=True)
    n = game.n
    rng = np.random.default_rng(2)
    for _ in range(100):
        w = rng.normal(size=Phi.shape[0])
        what = resolvent.solve(w, 0.0).point
        lhs = Phi @ (w - what)
        rhs = K @ what + q
        # the decision rows carry the pseudo-gradient (interior box, so the
        # normal cone contributes nothing); all other rows are plain algebra
        x_hat = what[:n]
        assert np.all(np.abs(x_hat) < 10.0 - 1e-6)
        assert np.allclose(lhs[:n] - rhs[:n], game.pseudo_gradient(x_hat),
                           atol=1e-10)
        assert np.allclose(lhs[n:], rhs[n:], atol=1e-10)


def test_inequality_resolvent_inclusion(ineq_game, pair_graph, toy_params,
                                        exact_inner):
    game, _ = ineq_game
    resolvent = InequalityResolvent(game, pair_graph, toy_params, exact_inner)
    Phi = dense_preconditioner(toy_params, game, pair_graph)
    Lam = constraint_matrix(game)
    Vb = incidence_kron(pair_graph, game.m)
    n = game.n
    mM = game.m * pair_graph.n_edges
    rng = np.random.default_rng(3)
    for _ in range(100):
        w = rng.normal(size=Phi.shape[0])
        what = resolvent.solve(w, 0.0).point
        x_hat, Z_hat, lam_hat = unpack_plain(game, pair_graph, what)
        lhs = Phi @ (w - what)
        # decision rows: pseudo-gradient plus price
        px = game.pseudo_gradient(x_hat) + Lam.T @ lam_hat.reshape(-1)
        assert np.allclose(lhs[:n], px, atol=1e-10)
        # edge rows: multiplier differences
        assert np.allclose(lhs[n:n + mM],
                           Vb.T @ lam_hat.reshape(-1), atol=1e-10)
        # multiplier rows: an element of the orthant normal cone at lam_hat
        v = lhs[n + mM:] - (-Lam @ x_hat - Vb @ Z_hat.reshape(-1)
                            + game.b_rows.reshape(-1))
        assert np.all(lam_hat.reshape(-1) >= -1e-12)
        assert np.all(v <= 1e-10)
        assert abs(v @ lam_hat.reshape(-1)) <= 1e-10


def random_equality_instance(seed):
    """Two to five players of dimension 1-3 with m = 1-3 coupling rows and an
    affine monotone profile oracle, on a path graph plus random chords, with
    SPD step matrices (``H`` not diagonal)."""
    rng = np.random.default_rng(seed)
    N, m = int(rng.integers(2, 6)), int(rng.integers(1, 4))
    dims = [int(d) for d in rng.integers(1, 4, size=N)]
    n = sum(dims)

    def spd(d, scale):
        G = rng.normal(size=(d, d))
        return scale * (G @ G.T / d + 0.1 * np.eye(d))
    skew = rng.normal(size=(n, n))
    M, c = spd(n, 1.0) + 0.5 * (skew - skew.T), rng.normal(size=n)
    players = [Player(d, lambda xi, o: np.zeros_like(xi),
                      rng.normal(size=(m, d)), rng.normal(size=m),
                      Box(-2.0 * np.ones(d), 2.0 * np.ones(d))) for d in dims]
    game = gs.Game(players, gs.EQUALITY, profile_oracle=lambda x: M @ x + c)
    chords = [(i, j) for i in range(N) for j in range(i + 2, N)
              if rng.random() < 0.4]
    graph = gs.build_incidence(N, [(i, i + 1) for i in range(N - 1)] + chords)
    params = gs.AlgoParams(
        [spd(d, 10.0 ** rng.uniform(0.0, 1.0)) for d in dims],
        np.stack([spd(m, 10.0 ** rng.uniform(-1.0, 0.0)) for _ in range(N)]),
        np.stack([spd(m, 10.0 ** rng.uniform(-1.0, 0.0))
                  for _ in range(graph.n_edges)]), 1.1)
    return game, graph, params, rng


@given(st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_lifted_certificate_bounds_the_distance_to_the_exact_resolvent(seed):
    # the sweep is affine in the subgame solution with linear part J, so a
    # residual-mode step lies within |J|_2 * certificate of the exact
    # resolvent, the oracle-mode step at nu = 0
    game, graph, params, rng = random_equality_instance(seed)
    J = dense_lifted_jacobian(params, game, graph)
    resolvent = LiftedEqualityResolvent(game, graph, params, gs.InnerSolver())
    exact = LiftedEqualityResolvent(game, graph, params,
                                    gs.InnerSolver("oracle"))
    assert resolvent.nu_factor == pytest.approx(np.linalg.norm(J, 2),
                                                rel=1e-12)
    n = game.n
    for _ in range(2):
        w = 2.0 * rng.normal(size=J.shape[0])
        reference = exact.solve(w, 0.0)
        assert reference.bound == 0.0
        for nu in (1e-1, 1e-3, 1e-5):
            step = resolvent.solve(w, nu)
            gap = step.point - reference.point
            assert step.bound <= nu
            assert np.linalg.norm(gap) <= step.bound + 1e-10
            assert np.allclose(gap, J @ gap[:n], atol=1e-10)


# -- firm nonexpansiveness ----------------------------------------------------------

def _phi_inner(Phi, a, b):
    return float(a @ (Phi @ b))


def test_firm_nonexpansiveness_lifted(eq_game, pair_graph, toy_params,
                                      exact_inner):
    game, _ = eq_game
    resolvent = LiftedEqualityResolvent(game, pair_graph, toy_params,
                                        exact_inner)
    Phi = dense_preconditioner(toy_params, game, pair_graph, lifted=True)
    rng = np.random.default_rng(4)
    for _ in range(100):
        w1 = rng.normal(size=Phi.shape[0])
        w2 = rng.normal(size=Phi.shape[0])
        t1 = resolvent.solve(w1, 0.0).point
        t2 = resolvent.solve(w2, 0.0).point
        lhs = _phi_inner(Phi, t1 - t2, t1 - t2)
        rhs = _phi_inner(Phi, w1 - w2, t1 - t2)
        assert lhs <= rhs + 1e-10


def test_firm_nonexpansiveness_inequality(ineq_game, pair_graph, toy_params,
                                          exact_inner):
    game, _ = ineq_game
    resolvent = InequalityResolvent(game, pair_graph, toy_params, exact_inner)
    Phi = dense_preconditioner(toy_params, game, pair_graph)
    rng = np.random.default_rng(5)
    for _ in range(100):
        w1 = rng.normal(size=Phi.shape[0])
        w2 = rng.normal(size=Phi.shape[0])
        t1 = resolvent.solve(w1, 0.0).point
        t2 = resolvent.solve(w2, 0.0).point
        lhs = _phi_inner(Phi, t1 - t2, t1 - t2)
        rhs = _phi_inner(Phi, w1 - w2, t1 - t2)
        assert lhs <= rhs + 1e-10


# -- trajectory-level monotone distance ----------------------------------------------

def test_fejer_monotonicity_lifted(eq_game, pair_graph, toy_params,
                                   exact_inner):
    game, solution = eq_game
    resolvent = LiftedEqualityResolvent(game, pair_graph, toy_params,
                                        exact_inner)
    Phi = dense_preconditioner(toy_params, game, pair_graph, lifted=True)
    w0 = pack(np.array([4.0, -6.0]), np.ones((2, 1)),
                     np.array([[2.0]]), -np.ones((2, 1)))
    history = run_proxpoint(resolvent, w0, 1.1, 200)
    report = gs.fejer_check(history, Phi, lifted_star(game, pair_graph,
                                                      solution))
    assert report.monotone


def test_fejer_monotonicity_inequality(ineq_game, pair_graph, toy_params,
                                       exact_inner):
    game, solution = ineq_game
    resolvent = InequalityResolvent(game, pair_graph, toy_params, exact_inner)
    Phi = dense_preconditioner(toy_params, game, pair_graph)
    lam_star = np.full((2, 1), solution["lambda"])
    w_star = pack(solution["x"],
                        edge_flow_for(game, pair_graph, solution["x"]),
                        lam_star)
    w0 = pack(np.array([4.0, -6.0]), np.array([[2.0]]),
                    np.array([[1.0], [3.0]]))
    history = run_proxpoint(resolvent, w0, 1.1, 200)
    report = gs.fejer_check(history, Phi, w_star)
    assert report.monotone


def test_proxpoint_converges_to_zero(ineq_game, pair_graph, toy_params,
                                     exact_inner):
    game, solution = ineq_game
    resolvent = InequalityResolvent(game, pair_graph, toy_params, exact_inner)
    w0 = pack(np.zeros(2), np.zeros((1, 1)), np.zeros((2, 1)))
    w = run_proxpoint(resolvent, w0, 1.1, 2000)[-1]
    x, Z, lam = unpack_plain(game, pair_graph, w)
    assert np.linalg.norm(x - solution["x"]) <= 1e-6
    assert np.allclose(lam, solution["lambda"], atol=1e-6)


# -- layering ---------------------------------------------------------------------

def imports_proxpoint(tree):
    """Whether a module's syntax tree imports ``gnesolve.proxpoint`` in any
    spelling: relative or absolute, as a module or from it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == "gnesolve.proxpoint" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module in ("proxpoint", "gnesolve.proxpoint"):
                return True
            if module in ("", "gnesolve") and any(
                    a.name == "proxpoint" for a in node.names):
                return True
    return False


def test_no_solver_module_imports_the_reference_layer():
    # the proximal-point layer is built on the two loops; a solver module
    # importing it would make production depend on its test reference
    src = Path(gs.__file__).resolve().parent
    importers = sorted(
        path.name for path in src.glob("*.py")
        if path.name != "__init__.py"
        and imports_proxpoint(ast.parse(path.read_text(encoding="utf-8"))))
    assert importers == []
    assert imports_proxpoint(ast.parse("from .proxpoint import pppa_step"))
    assert imports_proxpoint(ast.parse("from . import proxpoint"))
    assert imports_proxpoint(ast.parse("import gnesolve.proxpoint"))
