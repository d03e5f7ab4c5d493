"""Distributed inequality-coupled equilibrium seeking (parallel splitting).

Decisions and edge variables update in parallel from iteration-k data; the
multiplier update then uses reflected (doubled-minus-old) terms and a
weighted projection onto the nonnegative orthant.  One iteration equals one
relaxed step of the preconditioned proximal iteration on the inequality
operator, a fact tested directly against the stacked resolvent path.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .games import INEQUALITY, Game
from .graphs import CommGraph
from .operators import residual_inequality, step_size_margins
from .params import AlgoParams
from .subgames import InnerSolver, inequality_subgame
from .admm import (AdmmState, IterInfo, RunResult, StopRule, initial_state,
                   iterate_to_tolerance)


def splitting_iterate(game: Game, graph: CommGraph, params: AlgoParams,
                      state: AdmmState, inner: InnerSolver,
                      mu: float) -> tuple[AdmmState, IterInfo]:
    """One outer iteration as stacked array updates.

    The subgame solve and the edge update read only iteration-k data and
    commute; the multiplier update consumes both tilde quantities through
    reflected terms.  With diagonal ``H`` the projection onto the orthant
    in the ``H^-1`` metric is a plain clamp.
    """
    x, lam, Z, k = state.x, state.lam, state.Z, state.k
    rho = params.rho
    sub = inequality_subgame(game, params, x, lam)
    sol = inner.solve(sub, mu)
    x_t = sol.x
    Z_t = Z - params.apply_W(graph.edge_differences(lam))
    reflected = (game.constraint_rows(2.0 * x_t - x)
                 + graph.node_aggregate(2.0 * Z_t - Z) - game.b_rows)
    lam_t = np.maximum(lam + params.apply_H(reflected), 0.0)
    new = AdmmState(x + rho * (x_t - x), lam + rho * (lam_t - lam),
                    Z + rho * (Z_t - Z), k + 1)
    return new, IterInfo(sol.certificate.iterations, mu, sol.certificate.bound)


def run_splitting(game: Game, graph: CommGraph, params: AlgoParams,
                  inner: InnerSolver, stop: StopRule = StopRule(),
                  state0: AdmmState | None = None, seed: int = 0,
                  trace_stride: int = 1) -> RunResult:
    """Iterate until all inequality-operator residuals fall below the
    tolerance.  Validates the preconditioner and requires diagonal
    multiplier step matrices (exact orthant projection)."""
    if game.kind != INEQUALITY:
        raise ValidationError(
            "the splitting algorithm needs an inequality-coupled game")
    if not params.h_is_diagonal():
        raise ValidationError(
            "multiplier step matrices must be diagonal for the splitting "
            "algorithm (exact weighted orthant projection)")
    margins = step_size_margins(params, game, graph)   # raises when indefinite
    state = state0 if state0 is not None else initial_state(game, graph, seed)
    # extrapolated multipliers dip negative by O((rho - 1) |lam|) during the
    # transient; the complementarity residual accounts for the negativity,
    # so monitoring must not reject such states
    return iterate_to_tolerance(
        game, graph, params, inner, stop, state, trace_stride, margins,
        splitting_iterate,
        lambda s: residual_inequality(game, graph, s.x, s.Z, s.lam, np.inf),
        lambda x: float(max(game.coupling_gap(x).max(), 0.0)))
