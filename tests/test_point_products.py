"""The outer driver evaluates each state once: the residual's products at
``x_{k+1}`` are what the next sweep reads, and they equal an evaluation
made afresh, so handing them on changes no trajectory."""

import itertools
from pathlib import Path

import numpy as np
import pytest

import gnesolve as gs
from gnesolve import admm, cli, splitting
from gnesolve.config import load_config
from gnesolve.games import Game
from gnesolve.operators import PointProducts
from reference import ReferenceSolver

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = ("quadratic-equality", "rate-control", "task-allocation")


def shipped(name):
    """Game, graph, params, inner solver and sweep of a shipped config."""
    game, graph, params, algorithm, inner, _ = cli._setup(
        load_config(CONFIGS / f"{name}.cfg"))
    iterate = gs.admm_iterate if algorithm == "admm" else gs.splitting_iterate
    return game, graph, params, inner, iterate


def fresh(game, graph, state):
    """Every product recomputed from the game and graph maps."""
    return PointProducts(
        game.smooth_gradient(state.x),
        game.local_residual(state.x) + graph.node_aggregate(state.Z),
        graph.node_aggregate(state.Z),
        game.price_gradient(state.lam), graph.edge_differences(state.lam))


def driven_states(setup, n_iters, monkeypatch):
    """The (state, products) pairs the driver hands the sweep in the first
    ``n_iters`` outer iterations of a shipped config's ``setup``."""
    game, graph, params, inner, iterate = setup
    module = admm if iterate is gs.admm_iterate else splitting
    seen = []

    def recording(*args):
        seen.append((args[3], args[4]))
        return iterate(*args)

    monkeypatch.setattr(module, iterate.__name__, recording)
    runner = gs.run_admm if module is admm else gs.run_splitting
    runner(game, graph, params, inner, gs.StopRule(n_iters, 0.0))
    return seen


def assert_same_sweep(a, b):
    (swept_a, sol_a), (swept_b, sol_b) = a, b
    for block in ("x", "lam", "Z"):
        assert np.array_equal(getattr(swept_a, block), getattr(swept_b, block))
    assert sol_a.certificate == sol_b.certificate


@pytest.mark.parametrize("name", SHIPPED)
def test_handed_products_match_a_fresh_evaluation(name, monkeypatch):
    setup = game, graph, params, inner, iterate = shipped(name)
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
    game, graph, params, inner, iterate = shipped(name)
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
    for solver, state in itertools.product(solvers, (start, outside)):
        at = fresh(game, graph, state)
        poisoned = at._replace(gradient=np.full(game.n, np.nan))
        if solver is not exact:
            with pytest.raises(gs.NumericError):
                iterate(game, graph, params, state, poisoned, solver, 1e-3)
        else:
            assert_same_sweep(
                iterate(game, graph, params, state, poisoned, solver, 1e-3),
                iterate(game, graph, params, state, at, solver, 1e-3))


@pytest.mark.parametrize("name", ["rate-control", "task-allocation"])
def test_one_oracle_call_per_inner_step_and_outer_iteration(name, monkeypatch):
    # residual mode calls the oracle once at the initial state, once per
    # inner step and once in the residual at each new state; the inner
    # start reads the residual's gradient, inside the box or out of it
    # (counted in the unchecked core, which the public map also calls)
    calls = []
    original = Game._smooth_gradient

    def counting(game, x):
        calls.append(1)
        return original(game, x)

    monkeypatch.setattr(Game, "_smooth_gradient", counting)
    game, graph, params, inner, iterate = shipped(name)
    module = admm if iterate is gs.admm_iterate else splitting
    anchors = []

    def recording(*args):
        anchors.append(args[3].x)
        return iterate(*args)

    monkeypatch.setattr(module, iterate.__name__, recording)
    runner = gs.run_admm if module is admm else gs.run_splitting
    result = runner(game, graph, params, inner, gs.StopRule(40, 0.0))
    assert len(anchors) == result.iterations == 40
    # anchors outside the box occur in this window
    assert any(not np.array_equal(game.project(x), x) for x in anchors)
    inner_steps = sum(row.inner_iterations for row in result.rows)
    assert len(calls) == 1 + inner_steps + result.iterations


#: each toy game's run driver, residual and sweep
TOY_ALGORITHMS = {
    "admm": (gs.EQUALITY, gs.run_admm, gs.residual_equality, gs.admm_iterate),
    "splitting": (gs.INEQUALITY, gs.run_splitting, gs.residual_inequality,
                  gs.splitting_iterate),
}


def public_loop(game, graph, params, inner, stop, residuals, iterate):
    """The outer loop written with the public maps: every residual's
    products are checked against `fresh`, which computes them with the
    shape-checked `Game` and `CommGraph` methods, and every step is
    `relax`.  Returns the trace rows and the final state."""
    inner = inner.bind(game, params)
    state = gs.initial_state(game, graph, seed=0)
    res, at = residuals(game, graph, state.x, state.Z, state.lam)
    rows, k = [], 0
    while res.max() > stop.tol and k < stop.max_iter:
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

