"""The outer driver evaluates each state once: the residual's products at
``x_{k+1}`` are what the next sweep reads, and they equal an evaluation
made afresh, so handing them on changes no trajectory.  A run binds its
sweep and residual once and sweeps into the idle one of two states; these
tests record the bound sweep's calls, and compare whole runs with a loop
over the public maps."""

import dataclasses
import itertools
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import gnesolve as gs
from gnesolve import admm, cli, splitting
from gnesolve.config import load_config
from gnesolve.games import Box, Player
from gnesolve.operators import (PointProducts, residual_equality,
                                residual_inequality)
from helpers import FailingInner, count_oracle_calls
from reference import ReferenceSolver

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = ("quadratic-equality", "rate-control", "task-allocation")

#: each algorithm's module and the name of its sweep binder there, which
#: its run driver hands the outer loop
SWEEP_BINDERS = {"admm": (admm, "admm_sweep"),
                 "splitting": (splitting, "splitting_sweep")}


def shipped(name):
    """Game, graph, params, inner solver, algorithm and public sweep of a
    shipped config."""
    game, graph, params, algorithm, inner, _ = cli._setup(
        load_config(CONFIGS / f"{name}.cfg"))
    iterate = (admm.admm_iterate if algorithm == "admm"
               else splitting.splitting_iterate)
    return game, graph, params, inner, algorithm, iterate


def fresh(game, graph, state):
    """Every product recomputed from the game and graph maps."""
    return PointProducts(
        game.smooth_gradient(state.x),
        game.local_residual(state.x) + graph.node_aggregate(state.Z),
        graph.node_aggregate(state.Z),
        game.price_gradient(state.lam), graph.edge_differences(state.lam))


class SweepCall(NamedTuple):
    copy: gs.State        # a copy of the state swept from, with its history
    at: PointProducts     # the products handed with it
    state: gs.State       # the state swept from, as the run holds it
    out: gs.State         # the state the sweep writes over


def record_sweeps(algorithm, monkeypatch):
    """The calls of the sweep that the runs of ``algorithm`` bind, recorded
    by a binder patched in for the one the run driver looks up.  The run
    reuses its two states, so each call keeps a copy of the state it
    sweeps from."""
    module, name = SWEEP_BINDERS[algorithm]
    bind, calls = getattr(module, name), []

    def recording_bind(*args):
        sweep = bind(*args)

        def recording(state, at, mu, out):
            copy = gs.State.stack(state.x, state.Z, state.lam)
            copy.history = state.history
            calls.append(SweepCall(copy, at, state, out))
            return sweep(state, at, mu, out)
        return recording

    monkeypatch.setattr(module, name, recording_bind)
    return calls


def driven_states(setup, n_iters, monkeypatch):
    """The (state, products) pairs the driver hands the sweep in the first
    ``n_iters`` outer iterations of a shipped config's ``setup``."""
    game, graph, params, inner, algorithm, _ = setup
    calls = record_sweeps(algorithm, monkeypatch)
    runner = gs.run_admm if algorithm == "admm" else gs.run_splitting
    runner(game, graph, params, inner, gs.StopRule(n_iters, 0.0))
    assert len(calls) == n_iters
    return [(call.copy, call.at) for call in calls]


def assert_same_sweep(a, b):
    (swept_a, sol_a), (swept_b, sol_b) = a, b
    for block in ("x", "lam", "Z"):
        assert np.array_equal(getattr(swept_a, block), getattr(swept_b, block))
    assert sol_a.certificate == sol_b.certificate


@pytest.mark.parametrize("name", SHIPPED)
def test_handed_products_match_a_fresh_evaluation(name, monkeypatch):
    setup = game, graph, params, inner, _, iterate = shipped(name)
    states = driven_states(setup, 40, monkeypatch)
    for k, (state, handed) in list(enumerate(states, start=1))[::3]:
        again = fresh(game, graph, state)
        for field in PointProducts._fields:
            assert np.array_equal(getattr(handed, field), getattr(again, field))
        mu = params.mu(k)
        assert_same_sweep(iterate(game, graph, params, state, handed, inner, mu),
                          iterate(game, graph, params, state, again, inner, mu))


@pytest.mark.parametrize("name", SHIPPED)
def test_each_sweep_gets_the_two_iterates_before_it(name, monkeypatch):
    # the warm start's history is the trajectory's last two steps and the
    # changes of the residual's smooth gradients along them, newest first
    states = driven_states(shipped(name), 6, monkeypatch)
    for k, (state, _) in enumerate(states):
        window = states[max(k - 2, 0):k + 1]
        steps = [(s.x - s_was.x, at.gradient - at_was.gradient)
                 for (s_was, at_was), (s, at) in zip(window, window[1:])]
        assert len(state.history) == len(steps)
        for (dx, dF), (dx_was, dF_was) in zip(state.history, steps[::-1]):
            assert np.array_equal(dx, dx_was) and np.array_equal(dF, dF_was)


@pytest.mark.parametrize("name", SHIPPED)
def test_inner_start_reads_the_anchor_gradient(name):
    # a poisoned gradient shows whether the inner start read it: an
    # iterative solve starts at the anchor, in the box or not, and reads it
    # there; an exact solve never does
    game, graph, params, inner, _, iterate = shipped(name)
    start = gs.initial_state(game, graph, seed=0)
    swept, _ = iterate(game, graph, params, start, fresh(game, graph, start),
                       inner, 1e-3)
    width = game.box_upper - game.box_lower
    outside = gs.State.stack(np.where(np.arange(game.n) == 0,
                                      game.box_upper + 0.05 * width, swept.x),
                             swept.Z, swept.lam)
    assert np.array_equal(game.project(start.x), start.x)
    assert not np.array_equal(game.project(outside.x), outside.x)
    exact = gs.InnerSolver("exact")
    solvers = [gs.InnerSolver(), ReferenceSolver()]
    if game.exact_subgame_solver is not None:
        solvers.append(exact)
    # the same step sizes, which residual mode binds to on every schedule
    iterative = dataclasses.replace(params, mu0=1.0)
    for solver, state in itertools.product(solvers, (start, outside)):
        at = fresh(game, graph, state)
        poisoned = at._replace(gradient=np.full(game.n, np.nan))
        if solver is not exact:
            with pytest.raises(gs.NumericError):
                iterate(game, graph, iterative, state, poisoned, solver, 1e-3)
        else:
            assert_same_sweep(
                iterate(game, graph, params, state, poisoned, solver, 1e-3),
                iterate(game, graph, params, state, at, solver, 1e-3))


@pytest.mark.parametrize("name", ["rate-control", "task-allocation"])
def test_one_oracle_call_per_inner_step_and_outer_iteration(name, monkeypatch):
    # residual mode calls the oracle once at the initial state, once per
    # inner step and once in the residual at each new state; the inner
    # start reads the residual's gradient, inside the box or out of it
    game, graph, params, inner, algorithm, _ = shipped(name)
    calls = count_oracle_calls(game)
    sweeps = record_sweeps(algorithm, monkeypatch)
    runner = gs.run_admm if algorithm == "admm" else gs.run_splitting
    result = runner(game, graph, params, inner, gs.StopRule(40, 0.0))
    anchors = [call.copy.x for call in sweeps]
    assert len(anchors) == result.iterations == 40
    # anchors outside the box occur in this window
    assert any(not np.array_equal(game.project(x), x) for x in anchors)
    inner_steps = sum(row.inner_iterations for row in result.rows)
    assert len(calls) == 1 + inner_steps + result.iterations


#: each toy game's run driver, residual and sweep
TOY_ALGORITHMS = {
    "admm": (gs.EQUALITY, gs.run_admm, residual_equality, admm.admm_iterate),
    "splitting": (gs.INEQUALITY, gs.run_splitting, residual_inequality,
                  splitting.splitting_iterate),
}


def public_loop(game, graph, params, inner, stop, residuals, iterate):
    """The outer loop written with the public maps: every residual's
    products are checked against `fresh`, which computes them with the
    shape-checked `Game` and `CommGraph` methods, and every step is
    `relax`.  Returns the trace rows and the final state."""
    state = gs.initial_state(game, graph, seed=0)
    res, at = residuals(game, graph, state.x, state.Z, state.lam)
    rows, k = [], 0
    while max(res) > stop.tol and k < stop.max_iter:
        k += 1
        mu = params.mu(k)
        swept, sol = iterate(game, graph, params, state, at, inner, mu)
        new = admm.relax(state, swept, params.rho)
        res, at_new = residuals(game, graph, new.x, new.Z, new.lam)
        again = fresh(game, graph, new)
        for field in PointProducts._fields:
            assert np.array_equal(getattr(at_new, field), getattr(again, field))
        dx, dF = new.x - state.x, at_new.gradient - at.gradient
        new.history = ((dx, dF), *state.history[:1])
        comp = getattr(res, "complementarity", np.nan)
        rows.append((k, np.linalg.norm(dx), res.stationarity,
                     res.consensus_edge, res.feasibility, comp,
                     sol.certificate.iterations, mu, sol.certificate.bound))
        state, at = new, at_new
    return rows, state


@pytest.mark.parametrize("algorithm", sorted(TOY_ALGORITHMS))
def test_driver_matches_a_loop_over_the_public_maps(algorithm):
    # the driver calls the unchecked cores; over a full exact run its rows
    # and final state equal, bit for bit, those of the loop over the public
    # checked maps
    kind, runner, residuals, iterate = TOY_ALGORITHMS[algorithm]
    game, _ = gs.quadratic_game(kind=kind)
    graph = gs.path_graph(2)
    params = gs.AlgoParams.uniform(game, graph, r=10.0, h=0.5, w=0.5,
                                   rho=1.1, mu0=0.0)
    stop = gs.StopRule(5000, 1e-8)
    inner = gs.InnerSolver("exact")
    result = runner(game, graph, params, inner, stop, seed=0)
    rows, state = public_loop(game, graph, params, inner, stop, residuals,
                              iterate)
    assert result.converged and len(rows) == result.iterations > 100
    assert np.array(result.rows).tobytes() == np.array(rows).tobytes()
    assert result.state.w.tobytes() == state.w.tobytes()



def padded_game(kind):
    """Three players of dimensions 1, 3 and 2, so the coupling blocks are
    zero-padded and `Game._index` is no slice, coupled by two rows, with
    the strongly monotone affine profile oracle ``M x + c``."""
    rng = np.random.default_rng(11)
    dims, m = (1, 3, 2), 2
    n = sum(dims)
    P = rng.normal(size=(n, n)) / np.sqrt(n)
    K = rng.normal(size=(n, n))
    M = P @ P.T + 0.5 * np.eye(n) + (K - K.T) / 4.0
    c = rng.normal(size=n)
    players = [Player(d, lambda xi, o: xi, rng.normal(size=(m, d)),
                      0.3 * rng.normal(size=m), Box(-2.0 * np.ones(d),
                                                    2.0 * np.ones(d)))
               for d in dims]
    return gs.Game(players, kind, profile_oracle=lambda x: M @ x + c)


@pytest.mark.parametrize("algorithm", sorted(TOY_ALGORITHMS))
def test_driver_matches_the_public_loop_on_a_padded_layout(algorithm,
                                                          monkeypatch):
    # unequal dimensions take the padded coupling maps, and residual mode
    # the iterative inner solve with its warm start: the bound run must
    # not depend on the toy's layout or on exact solves
    kind, runner, residuals, iterate = TOY_ALGORITHMS[algorithm]
    game = padded_game(kind)
    assert not isinstance(game._index, slice)
    graph = gs.path_graph(3)
    params = gs.AlgoParams.uniform(game, graph, r=10.0, h=0.1, w=0.5,
                                   rho=1.1, mu0=1e-3)
    stop = gs.StopRule(60, 0.0)
    inner = gs.InnerSolver("residual")
    rows, state = public_loop(game, graph, params, inner, stop, residuals,
                              iterate)
    calls = record_sweeps(algorithm, monkeypatch)
    result = runner(game, graph, params, inner, stop, seed=0)
    assert len(rows) == result.iterations == 60
    assert result.inner_steps > 60
    assert np.array(result.rows).tobytes() == np.array(rows).tobytes()
    assert result.state.w.tobytes() == state.w.tobytes()
    # the coupling products the run hands on are the per-player ones
    for call in calls[::10]:
        x, Z, lam = call.copy.x, call.copy.Z, call.copy.lam
        rows_i = [p.A @ xi - p.b for p, xi in zip(game.players, game.split(x))]
        np.testing.assert_allclose(
            call.at.tracked, np.array(rows_i) + graph.incidence @ Z,
            rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            call.at.price_gradient,
            np.concatenate([p.A.T @ li for p, li in zip(game.players, lam)]),
            rtol=1e-12, atol=1e-12)


def test_driver_matches_the_public_loop_on_task_allocation():
    # the separable prox and the smooth oracle of the published equality
    # game, in residual mode
    game, graph, params, inner, _, iterate = shipped("task-allocation")
    stop = gs.StopRule(50, 0.0)
    result = gs.run_admm(game, graph, params, inner, stop)
    rows, state = public_loop(game, graph, params, inner, stop,
                              residual_equality, iterate)
    assert len(rows) == result.iterations == 50
    assert np.array(result.rows).tobytes() == np.array(rows).tobytes()
    assert result.state.w.tobytes() == state.w.tobytes()


def toy_run(algorithm):
    """Game, graph and params of the toy game of ``algorithm``, whose exact
    runs `test_call_budget.py` counts."""
    kind = TOY_ALGORITHMS[algorithm][0]
    game, _ = gs.quadratic_game(kind=kind)
    graph = gs.path_graph(2)
    params = gs.AlgoParams.uniform(game, graph, r=10.0, h=0.5, w=0.5,
                                   rho=1.1, mu0=0.0)
    return game, graph, params


@pytest.mark.parametrize("max_iter", [7, 8])
@pytest.mark.parametrize("algorithm", sorted(TOY_ALGORITHMS))
def test_two_states_alternate_and_the_last_one_is_returned(algorithm,
                                                           max_iter,
                                                           monkeypatch):
    # an odd and an even number of iterations end in either state: each
    # returns the last state written, equal to the public loop's bit for
    # bit, and no history array is a view of either state
    _, runner, residuals, iterate = TOY_ALGORITHMS[algorithm]
    game, graph, params = toy_run(algorithm)
    stop = gs.StopRule(max_iter, 0.0)
    inner = gs.InnerSolver("exact")
    rows, state = public_loop(game, graph, params, inner, stop, residuals,
                              iterate)
    calls = record_sweeps(algorithm, monkeypatch)
    result = runner(game, graph, params, inner, stop, seed=0)
    assert len(calls) == result.iterations == max_iter
    assert result.state.w.tobytes() == state.w.tobytes()
    assert np.array(result.rows).tobytes() == np.array(rows).tobytes()
    # the sweep writes over the state it did not start from, and the next
    # one starts from it
    buffers = {id(call.state) for call in calls} | {id(call.out) for call in calls}
    assert len(buffers) == 2
    for call, following in zip(calls, calls[1:]):
        assert call.out is not call.state and following.state is call.out
    assert result.state is calls[-1].out
    histories = [call.copy.history for call in calls] + [result.state.history]
    for history, call in itertools.product(histories, calls[:2]):
        for array in itertools.chain.from_iterable(history):
            assert not np.shares_memory(array, call.state.w)
            assert not np.shares_memory(array, call.out.w)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("failure", [gs.InexactnessError, gs.DivergenceError,
                                     gs.StructuralError])
@pytest.mark.parametrize("algorithm", sorted(TOY_ALGORITHMS))
def test_failed_run_keeps_the_rows_of_a_clean_run(algorithm, failure):
    # a run that fails in its 3rd iteration, as in
    # `test_cli.py::test_failed_run_keeps_partial_outputs`, keeps its first
    # two rows as a run stopped after them has them: reusing the states
    # does not reach the rows
    _, runner, _, _ = TOY_ALGORITHMS[algorithm]
    game, graph, params = toy_run(algorithm)
    with pytest.raises(failure) as err:
        runner(game, graph, params, FailingInner(failure),
               gs.StopRule(50, 0.0), seed=0)
    clean = runner(game, graph, params, gs.InnerSolver("exact"),
                   gs.StopRule(2, 0.0), seed=0)
    assert err.value.iteration == 3
    assert np.array(err.value.rows).tobytes() == np.array(clean.rows).tobytes()
