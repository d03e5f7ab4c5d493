"""Distributed inequality-coupled equilibrium seeking (parallel splitting).

Decisions and edge variables update in parallel from iteration-k data; the
multiplier update then uses reflected (doubled-minus-old) terms and a
weighted projection onto the nonnegative orthant.  One iteration equals one
relaxed step of the preconditioned proximal iteration on the inequality
operator, a fact tested directly against the stacked resolvent path.
"""

from __future__ import annotations

from .errors import ValidationError
from .games import INEQUALITY, Game
from .graphs import CommGraph
from .operators import residual_inequality, step_size_margins
from .params import AlgoParams
from .proxpoint import inequality_block_update
from .subgames import InnerSolution, InnerSolver
from .admm import (AdmmState, RunResult, StopRule, initial_state,
                   iterate_to_tolerance)


def splitting_iterate(game: Game, graph: CommGraph, params: AlgoParams,
                      state: AdmmState, inner: InnerSolver,
                      mu: float) -> tuple[AdmmState, InnerSolution]:
    """One outer iteration: the stacked block update from iteration-k data,
    relaxed by ``rho``."""
    x, lam, Z = state.x, state.lam, state.Z
    rho = params.rho
    x_t, Z_t, lam_t, sol = inequality_block_update(
        game, graph, params, inner, x, lam, Z, mu)
    new = AdmmState(x + rho * (x_t - x), lam + rho * (lam_t - lam),
                    Z + rho * (Z_t - Z))
    return new, sol


def run_splitting(game: Game, graph: CommGraph, params: AlgoParams,
                  inner: InnerSolver, stop: StopRule = StopRule(),
                  seed: int = 0) -> RunResult:
    """Iterate until all inequality-operator residuals fall below the
    tolerance.  Validates the preconditioner, which requires diagonal
    multiplier step matrices (exact orthant projection)."""
    if game.kind != INEQUALITY:
        raise ValidationError(
            "the splitting algorithm needs an inequality-coupled game")
    # raises on non-diagonal H or an indefinite preconditioner
    margins = step_size_margins(params, game, graph)
    return iterate_to_tolerance(
        game, graph, params, inner, stop, initial_state(game, graph, seed),
        margins, splitting_iterate,
        lambda s: residual_inequality(game, graph, s.x, s.Z, s.lam),
        lambda x: float(max(game.coupling_gap(x).max(), 0.0)))
