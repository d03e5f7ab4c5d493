"""Distributed inequality-coupled equilibrium seeking (parallel splitting).

Decisions and edge variables update in parallel from iteration-k data; the
multiplier update then uses reflected (doubled-minus-old) terms and a
weighted projection onto the nonnegative orthant.  The driver relaxes each
sweep, so one outer iteration is one relaxed step of the preconditioned
proximal iteration on the inequality operator, whose resolvent
(`proxpoint.InequalityResolvent`) is this sweep.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .games import INEQUALITY, Game
from .graphs import CommGraph
from .operators import residual_inequality
from .params import AlgoParams
from .subgames import InnerSolution, InnerSolver, inequality_subgame
from .admm import AdmmState, RunResult, StopRule, iterate_to_tolerance


def splitting_iterate(game: Game, graph: CommGraph, params: AlgoParams,
                      state: AdmmState, inner: InnerSolver,
                      mu: float) -> tuple[AdmmState, InnerSolution]:
    """One unrelaxed sweep from iteration-k data, and the subgame solution
    behind its decision block.

    The subgame solve and the edge update read only the given data and
    commute; the multiplier update consumes both through reflected terms.
    With diagonal ``H`` the projection onto the orthant in the ``H^-1``
    metric is a plain clamp.
    """
    x, lam, Z = state.x, state.lam, state.Z
    sol = inner.solve(inequality_subgame(game, params, x, lam), mu)
    Z_t = Z - params.apply_W(graph.edge_differences(lam))
    reflected = (game.constraint_rows(2.0 * sol.x - x)
                 + graph.node_aggregate(2.0 * Z_t - Z) - game.b_rows)
    lam_t = np.maximum(lam + params.apply_H(reflected), 0.0)
    return AdmmState(sol.x, lam_t, Z_t), sol


def run_splitting(game: Game, graph: CommGraph, params: AlgoParams,
                  inner: InnerSolver, stop: StopRule = StopRule(),
                  seed: int = 0) -> RunResult:
    """Iterate until all inequality-operator residuals fall below the
    tolerance.  The driver validates the preconditioner, which requires
    diagonal multiplier step matrices (exact orthant projection)."""
    if game.kind != INEQUALITY:
        raise ValidationError(
            "the splitting algorithm needs an inequality-coupled game")
    return iterate_to_tolerance(
        game, graph, params, inner, stop, seed, splitting_iterate,
        lambda s: residual_inequality(game, graph, s.x, s.Z, s.lam),
        lambda x: float(max(game.coupling_gap(x).max(), 0.0)))
