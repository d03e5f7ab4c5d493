"""Distributed inequality-coupled equilibrium seeking (parallel splitting).

Decisions and edge variables update in parallel from iteration-k data; the
multiplier update then uses reflected (doubled-minus-old) terms and a
weighted projection onto the nonnegative orthant.  One iteration equals one
relaxed step of the preconditioned proximal iteration on the inequality
operator, a fact tested directly against the stacked resolvent path.
"""

from __future__ import annotations

import numpy as np

from .diagnostics import consensus_error
from .errors import DivergenceError, ValidationError
from .games import INEQUALITY, Game
from .graphs import CommGraph
from .operators import residual_inequality, step_size_margins
from .params import AlgoParams
from .subgames import InnerSolver, inequality_subgame
from .trace import TraceRow
from .admm import AdmmState, IterInfo, RunResult, StopRule, initial_state

SplitState = AdmmState   # same fields: x, lam, Z, k


def project_nonneg_weighted(H_i: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Projection onto the nonnegative orthant in the ``H_i^{-1}`` metric.

    For diagonal weights the metric projection separates per coordinate and
    reduces to a plain clamp; general SPD weights would need a QP and are
    not supported.
    """
    H_i = np.atleast_2d(np.asarray(H_i, dtype=float))
    if np.count_nonzero(H_i - np.diag(np.diag(H_i))) != 0:
        raise ValidationError(
            "weighted nonnegative projection supports diagonal weights only")
    return np.maximum(np.asarray(v, dtype=float), 0.0)


def splitting_iterate(game: Game, graph: CommGraph, params: AlgoParams,
                      state: SplitState, inner: InnerSolver,
                      mu: float) -> tuple[SplitState, IterInfo]:
    """One outer iteration, player-by-player and edge-by-edge.

    The decision and edge updates read only iteration-k data and commute;
    the multiplier update consumes both tilde quantities.
    """
    x, lam, Z, k = state.x, state.lam, state.Z, state.k
    rho = params.rho

    # step 1a: regularized subgame priced by the local multiplier
    sub = inequality_subgame(game, params, x, lam)
    sol = inner.solve(sub, mu)
    xt_blocks = game.split(sol.x)

    # step 1b: edge integrators driven by multiplier differences
    Z_tilde = np.empty_like(Z)
    for l, (i, j) in enumerate(graph.edges):
        Z_tilde[l] = Z[l] - params.W[l] @ (lam[j] - lam[i])

    # step 2: reflected terms and weighted nonnegative projection
    refl_agg = graph.node_aggregate(2.0 * Z_tilde - Z)
    lam_next = np.empty_like(lam)
    blocks = game.split(x)
    for i, p in enumerate(game.players):
        reflected = p.A @ (2.0 * xt_blocks[i] - blocks[i]) + refl_agg[i] - p.b
        lam_tilde_i = project_nonneg_weighted(
            params.H[i], lam[i] + params.H[i] @ reflected)
        lam_next[i] = lam[i] + rho * (lam_tilde_i - lam[i])

    x_next = np.concatenate([
        xi + rho * (xti - xi) for xi, xti in zip(blocks, xt_blocks)])
    Z_next = Z + rho * (Z_tilde - Z)
    info = IterInfo(sol.certificate.iterations, mu, sol.certificate.bound)
    return SplitState(x_next, lam_next, Z_next, k + 1), info


def run_splitting(game: Game, graph: CommGraph, params: AlgoParams,
                  inner: InnerSolver, stop: StopRule = StopRule(),
                  state0: SplitState | None = None, seed: int = 0,
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
    rows: list[TraceRow] = []
    # extrapolated multipliers dip negative by O((rho - 1) |lam|) during the
    # transient; the complementarity residual accounts for the negativity,
    # so monitoring must not reject such states
    neg_tol = np.inf
    res = residual_inequality(game, graph, state.x, state.Z, state.lam, neg_tol)
    converged = res.max() <= stop.tol
    k = 0
    while not converged and k < stop.max_iter:
        k += 1
        prev_x = state.x
        state, info = splitting_iterate(game, graph, params, state, inner,
                                        params.mu(k))
        for arr in (state.x, state.lam, state.Z):
            if not np.all(np.isfinite(arr)):
                raise DivergenceError(
                    f"non-finite state at outer iteration {k}", k)
        res = residual_inequality(game, graph, state.x, state.Z, state.lam,
                                  neg_tol)
        if k % trace_stride == 0:
            gap = game.coupling_gap(state.x)
            rows.append(TraceRow(
                k=k,
                step_norm=float(np.linalg.norm(state.x - prev_x)),
                consensus_error=consensus_error(state.lam),
                feasibility=float(max(gap.max(), 0.0)),
                stationarity=res.stationarity,
                complementarity=res.complementarity,
                inner_iterations=info.inner_iterations,
                mu=info.mu,
                certified=info.certified))
        converged = res.max() <= stop.tol
    return RunResult(state, rows, converged, k, res, margins)
