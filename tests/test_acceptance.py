"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Expected values are recomputed here with independent oracles (dense linear
solves and active-set enumeration), not taken from the library under test.
"""

import time

import numpy as np
import pytest

import gnesolve as gs
from gnesolve.admm import State, initial_state, relax
from gnesolve.diagnostics import consensus_error, kkt_residual
from gnesolve.errors import ValidationError
from gnesolve.operators import inequality_preconditioner
from gnesolve.splitting import splitting_iterate
from conftest import edge_flow_for
from helpers import dense_preconditioner, linear_part, products
from reference import (InequalityResolvent, LiftedEqualityResolvent,
                       ReferenceSolver, correspondence_check, fejer_check,
                       pack, pppa_step, run_proxpoint)


def report(criterion: int, ok: bool, detail: str):
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def oracle_equality_solution():
    """Independent 3x3 linear solve of the shared-multiplier system."""
    J = np.array([[1.0, 0.5], [0.5, 1.0]])
    t = np.array([2.0, 1.0])
    lhs = np.zeros((3, 3))
    lhs[:2, :2] = J
    lhs[:2, 2] = 1.0
    lhs[2, :2] = 1.0
    sol = np.linalg.solve(lhs, np.array([t[0], t[1], 1.0]))
    return sol[:2], sol[2]


def oracle_inequality_solution():
    """Independent active-set enumeration for the inequality variant."""
    J = np.array([[1.0, 0.5], [0.5, 1.0]])
    t = np.array([2.0, 1.0])
    free = np.linalg.solve(J, t)
    if free.sum() <= 1.0:
        return free, 0.0
    x, lam = oracle_equality_solution()
    assert lam >= 0.0
    return x, lam


def toy_setup(kind):
    game, _ = gs.quadratic_game(kind=kind)
    graph = gs.path_graph(2)
    params = gs.AlgoParams.uniform(game, graph, r=10.0, h=0.5, w=0.5,
                                   rho=1.1, mu0=0.0)
    inner = gs.InnerSolver("exact")
    return game, graph, params, inner


def test_criterion_1_oracle_equality():
    x_star, lam_star = oracle_equality_solution()
    assert np.allclose(x_star, [1.5, -0.5]) and lam_star == pytest.approx(0.75)
    game, graph, params, inner = toy_setup(gs.EQUALITY)
    started = time.perf_counter()
    result = gs.run_admm(game, graph, params, inner,
                         gs.StopRule(5000, 1e-7), seed=0)
    wall = time.perf_counter() - started
    x_err = float(np.linalg.norm(result.state.x - x_star))
    kkt = kkt_residual(game, result.state.x, result.state.lam.mean(axis=0),
                       tol=1e-6)
    ok = (result.iterations <= 5000 and x_err <= 1e-5
          and kkt.worst() <= 1e-6 and wall < 1.0)
    report(1, ok, f"x err {x_err:.2e}, kkt {kkt.worst():.2e}, "
                  f"{result.iterations} iterations, {wall:.2f}s")


def test_criterion_2_oracle_inequality():
    x_star, lam_star = oracle_inequality_solution()
    assert lam_star == pytest.approx(0.75)
    game, graph, params, inner = toy_setup(gs.INEQUALITY)
    result = gs.run_splitting(game, graph, params, inner,
                              gs.StopRule(5000, 1e-7), seed=0)
    x_err = float(np.linalg.norm(result.state.x - x_star))
    cons = consensus_error(result.state.lam)
    comp = result.residuals.complementarity
    lam_err = float(np.abs(result.state.lam - lam_star).max())
    ok = (result.iterations <= 5000 and x_err <= 1e-5 and cons <= 1e-6
          and comp <= 1e-6 and lam_err <= 1e-4)
    report(2, ok, f"x err {x_err:.2e}, consensus {cons:.2e}, "
                  f"complementarity {comp:.2e}, lambda err {lam_err:.2e}")


def test_criterion_3_correspondence():
    game, graph, params, inner = toy_setup(gs.EQUALITY)
    rep = correspondence_check(game, graph, params, 100, inner, seed=0)
    ok = rep.max_deviation <= 1e-9
    report(3, ok, f"max relative mapping deviation {rep.max_deviation:.2e} "
                  "over 100 iterations")


def test_criterion_4_splitting_equivalence():
    game, graph, params, inner = toy_setup(gs.INEQUALITY)
    state = initial_state(game, graph, seed=0)
    w = state.w
    resolvent = InequalityResolvent(game, graph, params, inner)
    worst = 0.0
    for _ in range(100):
        swept, _ = splitting_iterate(game, graph, params, state,
                                     products(game, graph, state), inner, 0.0)
        state = relax(state, swept, params.rho)
        w, _ = pppa_step(resolvent, w, 0.0, params.rho)
        worst = max(worst, float(np.abs(state.w - w).max()))
    report(4, worst <= 1e-12,
           f"max pointwise deviation {worst:.2e} over 100 iterations")


def test_criterion_5_fejer_monotonicity():
    # equality side, lifted iterate against a known zero
    game, graph, params, inner = toy_setup(gs.EQUALITY)
    x_star, lam_star = oracle_equality_solution()
    lam_rows = np.full((2, 1), lam_star)
    Z_star = edge_flow_for(graph, -game.local_residual(x_star))
    w_star = pack(x_star, lam_rows, Z_star, np.zeros((2, 1)))
    resolvent = LiftedEqualityResolvent(game, graph, params, inner)
    phi = dense_preconditioner(params, game, graph, lifted=True)
    st = initial_state(game, graph, seed=0)
    w0 = pack(st.x, np.zeros((2, 1)), st.Z, np.zeros((2, 1)))
    history = run_proxpoint(resolvent, w0, params.rho, 400)
    rep_eq = fejer_check(history, phi, w_star)

    # inequality side
    game_i, graph_i, params_i, inner_i = toy_setup(gs.INEQUALITY)
    x_i, lam_i = oracle_inequality_solution()
    Z_i = edge_flow_for(graph_i, -game_i.local_residual(x_i))
    w_star_i = State.stack(x_i, Z_i, np.full((2, 1), lam_i)).w
    resolvent_i = InequalityResolvent(game_i, graph_i, params_i, inner_i)
    phi_i = dense_preconditioner(params_i, game_i, graph_i)
    w0_i = initial_state(game_i, graph_i, seed=0).w
    history_i = run_proxpoint(resolvent_i, w0_i, params_i.rho, 400)
    rep_in = fejer_check(history_i, phi_i, w_star_i)
    ok = rep_eq.monotone and rep_in.monotone
    report(5, ok, "weighted distances nonincreasing "
                  f"(worst increments {rep_eq.worst_violation:.2e} / "
                  f"{rep_in.worst_violation:.2e})")


def test_criterion_6_validators():
    failures = []
    # published step sizes on the two-player toy
    game, graph, params, _ = toy_setup(gs.INEQUALITY)
    if inequality_preconditioner(params, game, graph)["lam"] <= 0:
        failures.append("toy inequality validation")
    eq_game, eq_graph, eq_params, _ = toy_setup(gs.EQUALITY)
    if min(gs.check_step_sizes_equality(eq_params, eq_game,
                                        eq_graph).values()) <= 0:
        failures.append("toy equality validation")
    # published step sizes on the benchmark topology
    bench = gs.rate_control_game(0)
    bench_graph = gs.benchmark_graph("chain15")
    bench_params = gs.rate_control_params(bench, bench_graph)
    margin = inequality_preconditioner(
        bench_params, bench, bench_graph)["lam"]
    if margin <= 0:
        failures.append("benchmark inequality validation")
    # multiplier steps a hundred times larger must fail with a named condition
    big_h = gs.AlgoParams.uniform(bench, bench_graph, r=10.0, h=50.0, w=0.5,
                                  rho=1.1)
    try:
        inequality_preconditioner(big_h, bench, bench_graph)
        failures.append("oversized H accepted")
    except ValidationError as exc:
        if "positive definite" not in str(exc):
            failures.append("oversized H failure not named")
    # relaxation factor and non-SPD blocks rejected at validation time
    try:
        gs.AlgoParams.uniform(bench, bench_graph, 10.0, 0.5, 0.5, rho=2.1)
        failures.append("rho 2.1 accepted")
    except ValidationError as exc:
        if "[1, 2)" not in str(exc):
            failures.append("rho failure message")
    try:
        gs.AlgoParams(-np.ones(2), 0.5 * np.ones((2, 1)), 0.5 * np.ones((1, 1)),
                      1.1)
        failures.append("non-positive R accepted")
    except ValidationError:
        pass
    report(6, not failures,
           "validators accept published step sizes and reject "
           f"violations (benchmark margin {margin:.3g})"
           + (f"; failures: {failures}" if failures else ""))


def test_criterion_7_inexactness_robustness():
    game, graph, params_exact, inner_exact = toy_setup(gs.EQUALITY)
    tol = 1e-6
    stop = gs.StopRule(10_000, tol)
    r_exact = gs.run_admm(game, graph, params_exact, inner_exact, stop, seed=0)
    params_loose = gs.AlgoParams.uniform(game, graph, 10.0, 0.5, 0.5, 1.1,
                                         mu0=1.0)
    inner_oracle = ReferenceSolver()
    r_loose = gs.run_admm(game, graph, params_loose, inner_oracle, stop, seed=0)
    gap = float(np.linalg.norm(r_loose.state.x - r_exact.state.x))
    ok = (r_exact.converged and r_loose.converged and gap <= 10 * tol
          and max(r_loose.residuals) <= 10 * max(max(r_exact.residuals), tol))
    report(7, ok, f"limit gap {gap:.2e} with summable inner tolerances "
                  f"({r_loose.iterations} vs {r_exact.iterations} iterations)")


def test_criterion_8_rate_control_benchmark():
    started = time.perf_counter()
    game = gs.rate_control_game(0)
    graph = gs.benchmark_graph("chain15")
    params = gs.rate_control_params(game, graph)
    inner = ReferenceSolver()
    result = gs.run_splitting(game, graph, params, inner,
                              gs.StopRule(2000, 1e-6), seed=0)
    wall = time.perf_counter() - started
    gap = game.coupling_gap(result.state.x)
    violation = float(max(gap.max(), 0.0))
    cons = consensus_error(result.state.lam)
    comp = abs(float(np.maximum(result.state.lam.mean(axis=0), 0.0) @ gap))
    # outer and inner counts pinned: a change to either trajectory shows
    ok = (result.iterations <= 2000 and violation <= 1e-4 and cons <= 1e-4
          and comp <= 1e-3 and wall < 60.0
          and (result.iterations, result.inner_steps) == (1090, 4404))
    report(8, ok, f"violation {violation:.2e}, consensus {cons:.2e}, "
                  f"complementarity {comp:.2e}, "
                  f"{result.iterations} iterations, "
                  f"{result.inner_steps} inner steps, {wall:.1f}s")


def test_criterion_9_task_allocation_benchmark():
    game = gs.task_allocation_game(0)
    graph = gs.benchmark_graph("chain14")
    params = gs.task_allocation_params(game, graph, seed=0)
    inner = ReferenceSolver()
    result = gs.run_admm(game, graph, params, inner,
                         gs.StopRule(5000, 1e-5), seed=0)
    gap = float(np.linalg.norm(game.coupling_gap(result.state.x)))
    cons = consensus_error(result.state.lam)
    ok = (result.iterations <= 5000 and gap <= 1e-4 and cons <= 1e-4
          and (result.iterations, result.inner_steps) == (1870, 18485))
    report(9, ok, f"coupling gap {gap:.2e}, consensus {cons:.2e}, "
                  f"{result.iterations} iterations, "
                  f"{result.inner_steps} inner steps")


def test_criterion_10_structural_suite():
    failures = []
    # exact skew-symmetry of the three assembled linear parts; the
    # inequality operator shares the equality operator's linear part
    eq_game, graph, params, inner = toy_setup(gs.EQUALITY)
    ineq_game = toy_setup(gs.INEQUALITY)[0]
    for K, _ in (linear_part(eq_game, graph),
                 linear_part(ineq_game, graph),
                 linear_part(eq_game, graph, lifted=True)):
        if not np.array_equal(K + K.T, np.zeros_like(K)):
            failures.append("skew symmetry")
    # column sums of incidence matrices vanish exactly
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.integers(2, 9))
        edges = [(int(rng.integers(0, node)), node) for node in range(1, n)]
        g = gs.build_incidence(n, edges)
        if not np.array_equal(g.incidence.sum(axis=0), np.zeros(g.n_edges)):
            failures.append("column sums")
            break
        z = rng.normal(size=(g.n_edges, 3))
        lam = rng.normal(size=(n, 3))
        lhs = float(np.sum(g.node_aggregate(z) * lam))
        rhs = float(np.sum(z * g.edge_differences(lam)))
        if abs(lhs - rhs) > 1e-12 * max(1.0, abs(lhs)):
            failures.append("adjointness")
            break
    # firm nonexpansiveness and inclusion residuals on both oracle games
    phi_eq = dense_preconditioner(params, eq_game, graph, lifted=True)
    res_eq = LiftedEqualityResolvent(eq_game, graph, params, inner)
    K_eq, q_eq = linear_part(eq_game, graph, lifted=True)
    ineq_game, _, params_i, inner_i = toy_setup(gs.INEQUALITY)
    phi_in = dense_preconditioner(params_i, ineq_game, graph)
    res_in = InequalityResolvent(ineq_game, graph, params_i, inner_i)
    for trial in range(100):
        w1 = rng.normal(size=phi_eq.shape[0])
        w2 = rng.normal(size=phi_eq.shape[0])
        t1 = res_eq.solve(w1, 0.0).point
        t2 = res_eq.solve(w2, 0.0).point
        d, s = t1 - t2, w1 - w2
        if d @ phi_eq @ d > s @ phi_eq @ d + 1e-10:
            failures.append("firm nonexpansiveness (equality)")
            break
        incl = phi_eq @ (w1 - t1) - (K_eq @ t1 + q_eq)
        incl[:eq_game.n] -= eq_game.pseudo_gradient(t1[:eq_game.n])
        if np.abs(incl).max() > 1e-10:
            failures.append("resolvent inclusion (equality)")
            break
        u1 = rng.normal(size=phi_in.shape[0])
        u2 = rng.normal(size=phi_in.shape[0])
        s1 = res_in.solve(u1, 0.0).point
        s2 = res_in.solve(u2, 0.0).point
        d, s = s1 - s2, u1 - u2
        if d @ phi_in @ d > s @ phi_in @ d + 1e-10:
            failures.append("firm nonexpansiveness (inequality)")
            break
    report(10, not failures,
           "skew symmetry, zero column sums, adjointness, firm "
           "nonexpansiveness, resolvent inclusions all hold"
           + (f"; failures: {failures}" if failures else ""))
