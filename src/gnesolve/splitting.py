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
from .operators import PointProducts, residual_inequality
from .params import AlgoParams
from .subgames import InnerSolution, InnerSolver, inequality_subgame
from .admm import RunResult, State, StopRule, iterate_to_tolerance


def splitting_iterate(game: Game, graph: CommGraph, params: AlgoParams,
                      state: State, at: PointProducts, inner: InnerSolver,
                      mu: float) -> tuple[State, InnerSolution]:
    """One unrelaxed sweep from iteration-k data, and the subgame solution
    behind its decision block.  ``at`` holds the residual products of
    ``state``: the subgame's price and the edge differences of ``lam``; the
    subgame also reads the state's history.

    The subgame solve and the edge update read only the given data and
    commute; the multiplier update consumes both through reflected terms.
    With diagonal ``H`` the projection onto the orthant in the ``H^-1``
    metric is a plain clamp.  The blocks are written into one new state
    vector.
    """
    x, lam, Z = state.x, state.lam, state.Z
    out = state.like(np.empty_like(state.w))
    sub = inequality_subgame(game, params, x, at, state.history)
    sol = inner.solve(sub, mu)
    out.x[:] = sol.x
    np.subtract(Z, params.apply_W(at.edge_differences), out=out.Z)
    reflected = (game._constraint_rows(2.0 * sol.x - x)
                 + graph._node_aggregate(2.0 * out.Z - Z) - game.b_rows)
    np.maximum(lam + params.apply_H(reflected), 0.0, out=out.lam)
    return out, sol


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
                                splitting_iterate, residual_inequality)
