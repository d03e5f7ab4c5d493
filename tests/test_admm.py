import numpy as np
import pytest

import gnesolve as gs
from gnesolve.admm import State, admm_iterate, initial_state, relax, run_admm
from gnesolve.errors import DivergenceError, StructuralError, ValidationError
from gnesolve.splitting import run_splitting, splitting_iterate
from conftest import edge_flow_for
from helpers import (admm_iterate_componentwise, equality_subgame_at,
                     misshapen_after, products)
from reference import ReferenceSolver, bind_checked, correspondence_check

#: game fixture and run driver of each algorithm, for tests of the shared loop
ALGORITHMS = {"admm": ("eq_game", run_admm),
              "splitting": ("ineq_game", run_splitting)}


def kkt_state(game, graph, solution):
    lam = np.full((game.n_players, game.m), solution["lambda"])
    Z = edge_flow_for(graph, -game.local_residual(solution["x"]))
    return State.stack(solution["x"], Z, lam)


def test_fixed_point_invariance(eq_game, pair_graph, toy_params, exact_inner):
    game, solution = eq_game
    state = kkt_state(game, pair_graph, solution)
    new, _ = admm_iterate(game, pair_graph, toy_params, state,
                          products(game, pair_graph, state), exact_inner, 0.0)
    assert np.linalg.norm(new.x - state.x) <= 1e-10
    assert np.linalg.norm(new.lam - state.lam) <= 1e-10
    assert np.linalg.norm(new.Z - state.Z) <= 1e-10


def test_componentwise_equals_compact(eq_game, pair_graph, toy_params,
                                      exact_inner):
    game, _ = eq_game
    state = initial_state(game, pair_graph, seed=12)
    for _ in range(5):
        a, _ = admm_iterate_componentwise(game, pair_graph, toy_params, state,
                                          exact_inner, 0.0)
        b, _ = admm_iterate(game, pair_graph, toy_params, state,
                            products(game, pair_graph, state), exact_inner, 0.0)
        b = relax(state, b, toy_params.rho)
        assert np.linalg.norm(a.x - b.x) <= 1e-12
        assert np.linalg.norm(a.lam - b.lam) <= 1e-12
        assert np.linalg.norm(a.Z - b.Z) <= 1e-12
        state = a


def test_state_is_one_vector_and_relax_writes_over_the_sweep(eq_game,
                                                             pair_graph):
    # x, Z and lam are views of one vector in (x, Z, lam) order; relax
    # writes over the sweep's vector and returns the sweep, and leaves the
    # state as it was, since the driver still reads it (the previous
    # decisions, the anchor)
    game, _ = eq_game
    state = initial_state(game, pair_graph, seed=1)
    n, mM = game.n, game.m * pair_graph.n_edges
    assert state.w.flags.c_contiguous and state.w.dtype == float
    assert state.w.shape == (n + mM + game.m * game.n_players,)
    for block, view in ((state.x, state.w[:n]), (state.Z, state.w[n:n + mM]),
                        (state.lam, state.w[n + mM:])):
        assert block.base is state.w and np.shares_memory(block, state.w)
        assert np.array_equal(block.reshape(-1), view)
    assert state.Z.shape == (pair_graph.n_edges, game.m)
    assert state.lam.shape == (game.n_players, game.m)
    swept = State.stack(state.x + 1.0, state.Z - 2.0, state.lam + 3.0)
    before, swept_before = state.w.copy(), swept.w.copy()
    new = relax(state, swept, 1.5)
    assert new is swept
    assert np.array_equal(state.w, before)
    assert not np.shares_memory(new.w, state.w)
    assert np.array_equal(new.w, before + 1.5 * (swept_before - before))
    assert new.x.base is new.w and new.lam.base is new.w
    assert np.array_equal(new.lam, state.lam + 4.5)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_sweeps_write_one_new_state(algorithm, request, pair_graph, toy_params,
                                    exact_inner):
    # each sweep writes its three blocks into one new vector, and leaves
    # the state it starts from, which the driver still reads, as it was
    game, _ = request.getfixturevalue(ALGORITHMS[algorithm][0])
    iterate = admm_iterate if algorithm == "admm" else splitting_iterate
    state = initial_state(game, pair_graph, seed=3)
    before = state.w.copy()
    swept, sol = iterate(game, pair_graph, toy_params, state,
                         products(game, pair_graph, state), exact_inner, 0.0)
    assert np.array_equal(state.w, before)
    assert not np.shares_memory(swept.w, state.w)
    assert all(block.base is swept.w for block in (swept.x, swept.Z, swept.lam))
    assert np.array_equal(swept.x, sol.x)
    assert np.isfinite(swept.w).all()


def test_rho_one_is_unrelaxed(eq_game, pair_graph, exact_inner):
    game, _ = eq_game
    params = gs.AlgoParams.uniform(game, pair_graph, 10.0, 0.5, 0.5, 1.0,
                                   mu0=0.0)
    state = initial_state(game, pair_graph, seed=2)
    swept, _ = admm_iterate(game, pair_graph, params, state,
                            products(game, pair_graph, state), exact_inner, 0.0)
    new = relax(state, swept, params.rho)
    # with rho = 1 the relaxed decision equals the subgame solution itself
    sub = equality_subgame_at(game, pair_graph, params, state.x, state.lam,
                              state.Z)
    x_tilde = exact_inner.solve(sub, 0.0).x
    assert np.allclose(new.x, x_tilde, atol=1e-14)
    lam_tilde = state.lam + params.apply_H(
        game.local_residual(x_tilde) + pair_graph.node_aggregate(state.Z))
    assert np.allclose(new.lam, lam_tilde, atol=1e-14)


def test_convergence_to_oracle_solution(eq_game, pair_graph, toy_params,
                                        exact_inner):
    game, solution = eq_game
    result = run_admm(game, pair_graph, toy_params, exact_inner,
                      gs.StopRule(5000, 1e-8), seed=0)
    assert result.converged
    assert np.linalg.norm(result.state.x - solution["x"]) <= 1e-5
    assert gs.consensus_error(result.state.lam) <= 1e-8
    # limit conditions: tracked constraint, multiplier agreement, stationarity
    assert max(result.residuals) <= 1e-8
    # global feasibility follows from the vanishing column sums
    assert np.linalg.norm(game.coupling_gap(result.state.x)) <= 1e-7


def test_high_relaxation_still_converges(eq_game, pair_graph, exact_inner):
    game, solution = eq_game
    params = gs.AlgoParams.uniform(game, pair_graph, 10.0, 0.5, 0.5, 1.9,
                                   mu0=0.0)
    result = run_admm(game, pair_graph, params, exact_inner,
                      gs.StopRule(8000, 1e-8), seed=0)
    assert result.converged
    assert np.linalg.norm(result.state.x - solution["x"]) <= 1e-5


def test_wrong_kind_rejected(ineq_game, pair_graph, toy_params, exact_inner):
    game, _ = ineq_game
    with pytest.raises(ValidationError):
        run_admm(game, pair_graph, toy_params, exact_inner)


def test_invalid_steps_rejected(eq_game, pair_graph, exact_inner):
    game, _ = eq_game
    params = gs.AlgoParams.uniform(game, pair_graph, 0.4, 0.5, 0.5, 1.1)
    with pytest.raises(ValidationError, match="step-size"):
        run_admm(game, pair_graph, params, exact_inner)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_divergence_detected(algorithm, request, pair_graph, toy_params,
                             exact_inner):
    # a non-finite subgame output must abort the run with the iteration
    # index, keeping the trace rows computed before it
    fixture, runner = ALGORITHMS[algorithm]
    game, _ = request.getfixturevalue(fixture)

    class BrokenInner:
        calls = 0

        def bind(self, game, params):
            return bind_checked(self, game, params)

        def solve(self, sub, mu):
            from gnesolve.subgames import InnerCertificate, InnerSolution
            self.calls += 1
            if self.calls < 3:
                return exact_inner.solve(sub, mu)
            bad = np.full(sub.anchor.shape, np.inf)
            return InnerSolution(bad, InnerCertificate(0.0, 1))

    with pytest.raises(DivergenceError) as err:
        runner(game, pair_graph, toy_params, BrokenInner(),
               gs.StopRule(50, 1e-6), seed=0)
    assert err.value.iteration == 3
    assert [row.k for row in err.value.rows] == [1, 2]


@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_structural_error_in_the_loop_keeps_progress(algorithm, request,
                                                     pair_graph, toy_params,
                                                     exact_inner):
    # an oracle whose output changes shape mid-run fails its per-call
    # check inside the loop; like every error raised there, the
    # StructuralError carries the iteration and the rows and inner steps
    # before it.  Exact mode calls the oracle once per residual: at the
    # initial state and at the end of each iteration, so the 4th call is in
    # iteration 3
    fixture, runner = ALGORITHMS[algorithm]
    game, _ = request.getfixturevalue(fixture)
    oracle, calls = game.profile_oracle, []

    def reshaping(x):
        calls.append(1)
        return oracle(x) if len(calls) < 4 else np.zeros(3)

    game.profile_oracle = reshaping
    with pytest.raises(StructuralError, match=r"returned shape \(3,\)") as err:
        runner(game, pair_graph, toy_params, exact_inner,
               gs.StopRule(50, 0.0), seed=0)
    assert err.value.iteration == 3
    assert [row.k for row in err.value.rows] == [1, 2]
    assert err.value.inner_steps == 0


@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_misshapen_exact_solution_in_the_loop_keeps_progress(
        algorithm, request, pair_graph, toy_params, exact_inner):
    # a closed-form solver whose output has the wrong shape used to fail in
    # the sweep with numpy's broadcasting ValueError, which is no
    # GnesolveError; the exact solve's shape check raises StructuralError
    # in iteration 3, carrying the rows and inner steps before it
    fixture, runner = ALGORITHMS[algorithm]
    game, _ = request.getfixturevalue(fixture)
    misshapen_after(game, 2)
    with pytest.raises(StructuralError, match=r"closed-form subgame solver "
                       r"returned shape \(3,\), expected \(2,\)") as err:
        runner(game, pair_graph, toy_params, exact_inner,
               gs.StopRule(50, 0.0), seed=0)
    assert err.value.iteration == 3
    assert [row.k for row in err.value.rows] == [1, 2]
    assert err.value.inner_steps == 0


@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_trace_rows_and_stride(algorithm, request, pair_graph, toy_params,
                               exact_inner):
    fixture, runner = ALGORITHMS[algorithm]
    game, _ = request.getfixturevalue(fixture)
    result = runner(game, pair_graph, toy_params, exact_inner,
                    gs.StopRule(100, 0.0), seed=0)
    ks = [row.k for row in result.rows]
    assert ks == list(range(1, 101))
    # complementarity is an inequality residual; equality runs write nan
    comp = [row.complementarity for row in result.rows]
    if algorithm == "admm":
        assert all(np.isnan(c) for c in comp)
    else:
        assert all(np.isfinite(c) for c in comp)
        assert comp[-1] == result.residuals.complementarity


# -- correspondence with the lifted proximal-point iteration -------------------------

def test_correspondence_exact(eq_game, pair_graph, toy_params, exact_inner):
    game, _ = eq_game
    report = correspondence_check(game, pair_graph, toy_params, 100,
                                  exact_inner, seed=0)
    assert report.max_deviation <= 1e-9
    assert report.per_iteration[0] <= 1e-12


def test_correspondence_breaks_with_wrong_start(eq_game, pair_graph,
                                                toy_params, exact_inner):
    game, _ = eq_game
    report = correspondence_check(game, pair_graph, toy_params, 20,
                                  exact_inner, seed=0, eta_perturbation=0.1)
    assert report.max_deviation > 1e-3


def test_correspondence_with_inexact_inner(eq_game, pair_graph):
    # the mapping is exact for any certified subgame tolerance: both
    # trajectories take the same inexact subgame solution, and the lifted
    # sweep applies to it the same linear maps as the distributed update
    game, _ = eq_game
    params = gs.AlgoParams.uniform(game, gs.path_graph(2), 10.0, 0.5, 0.5,
                                   1.1, mu0=0.1)
    inner = ReferenceSolver()
    report = correspondence_check(game, gs.path_graph(2), params, 50, inner,
                                  seed=1)
    assert report.max_deviation <= 1e-9


def test_correspondence_at_harsh_relaxation(eq_game, pair_graph, exact_inner):
    game, _ = eq_game
    params = gs.AlgoParams.uniform(game, pair_graph, 10.0, 0.5, 0.5, 1.9,
                                   mu0=0.0)
    report = correspondence_check(game, pair_graph, params, 150, exact_inner,
                                  seed=0)
    assert report.max_deviation <= 1e-9


def test_correspondence_on_task_benchmark():
    # benchmark-scale equality game: nonsmooth costs, forward-backward inner
    # solves, summable inexactness
    game = gs.task_allocation_game(0)
    graph = gs.benchmark_graph("chain14")
    params = gs.task_allocation_params(game, graph, seed=0,
                                       mu0=0.01)
    inner = ReferenceSolver()
    report = correspondence_check(game, graph, params, 30, inner, seed=0)
    assert report.max_deviation <= 1e-9


def test_correspondence_on_task_benchmark_in_residual_mode():
    # the default inner mode: no reference equilibrium exists, and the
    # lifted sweep still follows the distributed trajectory
    game = gs.task_allocation_game(0)
    graph = gs.benchmark_graph("chain14")
    params = gs.task_allocation_params(game, graph, seed=0,
                                       mu0=0.01)
    report = correspondence_check(game, graph, params, 30, gs.InnerSolver(),
                                  seed=0)
    assert report.max_deviation <= 1e-9


def test_inexactness_robustness(eq_game, pair_graph, exact_inner):
    # the summable-tolerance run lands on the same equilibrium as the exact
    # one, within ten times the outer tolerance
    game, solution = eq_game
    tol = 1e-6
    exact_params = gs.AlgoParams.uniform(game, pair_graph, 10.0, 0.5, 0.5,
                                         1.1, mu0=0.0)
    loose_params = gs.AlgoParams.uniform(game, pair_graph, 10.0, 0.5, 0.5,
                                         1.1, mu0=1.0)
    stop = gs.StopRule(10_000, tol)
    r_exact = run_admm(game, pair_graph, exact_params, exact_inner, stop, seed=0)
    oracle_inner = ReferenceSolver()
    r_loose = run_admm(game, pair_graph, loose_params, oracle_inner, stop, seed=0)
    assert r_exact.converged and r_loose.converged
    assert np.linalg.norm(r_loose.state.x - r_exact.state.x) <= 10 * tol
    assert max(r_loose.residuals) <= 10 * max(max(r_exact.residuals), tol)
