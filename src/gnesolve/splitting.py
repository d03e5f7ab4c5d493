"""Distributed inequality-coupled equilibrium seeking (parallel splitting).

Decisions and edge variables update in parallel from iteration-k data; the
multiplier update then uses reflected (doubled-minus-old) terms and a
weighted projection onto the nonnegative orthant.  The driver relaxes each
sweep, so one outer iteration is one relaxed step of the preconditioned
proximal iteration on the inequality operator, whose resolvent
(`InequalityResolvent` in `tests/reference.py`) is this sweep.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .games import INEQUALITY, Game
from .graphs import CommGraph
from .operators import PointProducts
from .params import AlgoParams
from .subgames import InnerSolution, InnerSolver
from .admm import RunResult, State, StopRule, iterate_to_tolerance


def splitting_sweep(game: Game, graph: CommGraph, params: AlgoParams, solve):
    """The sweep of `splitting_iterate`, bound to one run:
    ``sweep(state, at, mu, out) -> InnerSolution`` writes the unrelaxed
    blocks over the state ``out``, and ``solve`` is the run's subgame solve
    (`InnerSolver.bind`).  The coupling rows, step sizes and incidence
    matrix are looked up here, once."""
    constraint_rows, b_rows = game._constraint_rows, game.b_rows
    H, W, V = params.H, params.W, graph.incidence

    def sweep(state, at, mu, out):
        x, lam, Z = state.x, state.lam, state.Z
        sol = solve(x, at.price_gradient, at.gradient, state.history, mu)
        out.x[:] = sol.x
        np.subtract(Z, W * at.edge_differences, out=out.Z)
        reflected = constraint_rows(2.0 * sol.x - x) + V @ (2.0 * out.Z - Z) - b_rows
        np.maximum(lam + H * reflected, 0.0, out=out.lam)
        return sol
    return sweep


def splitting_iterate(game: Game, graph: CommGraph, params: AlgoParams,
                      state: State, at: PointProducts, inner: InnerSolver,
                      mu: float) -> tuple[State, InnerSolution]:
    """Per-call form for `perfbench/spans.py`; a run binds its closure once.
    One unrelaxed sweep (`splitting_sweep`, solving by `InnerSolver.bind`)
    from iteration-k data, and the subgame solution behind its decision
    block.  ``at`` holds the residual products of ``state``: the subgame's
    price and the edge differences of ``lam``; the subgame also reads the
    state's history.

    The subgame solve and the edge update read only the given data and
    commute; the multiplier update consumes both through reflected terms.
    With diagonal ``H`` the projection onto the orthant in the ``H^-1``
    metric is a plain clamp.  The blocks are written into one new state.
    """
    out = state.empty_like()
    sweep = splitting_sweep(game, graph, params, inner.bind(game, params))
    return out, sweep(state, at, mu, out)


def run_splitting(game: Game, graph: CommGraph, params: AlgoParams,
                  inner: InnerSolver, stop: StopRule = StopRule(),
                  seed: int = 0) -> RunResult:
    """Iterate until all inequality-operator residuals fall below the
    tolerance.  The driver validates the preconditioner; the multiplier
    step matrices are diagonal, so the clamp is the exact orthant
    projection in their metric."""
    if game.kind != INEQUALITY:
        raise ValidationError(
            "the splitting algorithm needs an inequality-coupled game")
    return iterate_to_tolerance(game, graph, params, inner, stop, seed,
                                splitting_sweep)
