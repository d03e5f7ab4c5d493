"""Distributed equality-coupled equilibrium seeking (proximal ADMM loop),
and the outer driver both algorithms share.

One sweep solves the regularized subgame inexactly, updates the local
multipliers with the tracked constraint residual, and exchanges the
resulting signals along edges to update the edge variables.  The driver
relaxes each sweep by the common factor, so one outer iteration is one
relaxed step of the preconditioned proximal iteration on the lifted
operator, which `proxpoint.correspondence_check` verifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import consensus_error
from .errors import (DivergenceError, InexactnessError, NumericError,
                     ValidationError)
from .games import EQUALITY, Game
from .graphs import CommGraph
from .operators import residual_equality, step_size_margins
from .params import AlgoParams
from .rng import SplitMix64
from .subgames import InnerSolution, InnerSolver, equality_subgame
from .trace import TraceRow


@dataclass(frozen=True)
class AdmmState:
    x: np.ndarray          # stacked decisions, length n
    lam: np.ndarray        # local multipliers, (N, m)
    Z: np.ndarray          # edge variables, (M, m)


def initial_state(game: Game, graph: CommGraph, seed: int = 0) -> AdmmState:
    """Random decisions inside the box; zero multipliers and edge variables."""
    return AdmmState(game.sample_profile(SplitMix64(seed)),
                     np.zeros((game.n_players, game.m)),
                     np.zeros((graph.n_edges, game.m)))


def admm_iterate(game: Game, graph: CommGraph, params: AlgoParams,
                 state: AdmmState, inner: InnerSolver,
                 mu: float) -> tuple[AdmmState, InnerSolution]:
    """One unrelaxed sweep as stacked array updates: subgame solve to
    ``mu``, multiplier step along ``H`` times the tracked constraint
    residual, and edge step along ``W`` times the multiplier-signal
    differences.  Each per-player and per-edge row reads only its own data
    and its neighbours' signals."""
    x, lam, Z = state.x, state.lam, state.Z
    sub = equality_subgame(game, graph, params, x, lam, Z)
    sol = inner.solve(sub, mu)
    tracked_t = game.local_residual(sol.x) + graph.node_aggregate(Z)
    h_t = params.apply_H(tracked_t)
    lam_t = lam + h_t
    Z_t = Z - params.apply_W(graph.edge_differences(lam_t + h_t))
    return AdmmState(sol.x, lam_t, Z_t), sol


def relax(state: AdmmState, swept: AdmmState, rho: float) -> AdmmState:
    """``state + rho (swept - state)`` in every block."""
    return AdmmState(state.x + rho * (swept.x - state.x),
                     state.lam + rho * (swept.lam - state.lam),
                     state.Z + rho * (swept.Z - state.Z))


@dataclass(frozen=True)
class StopRule:
    """Stop when every residual is at most ``tol`` or after ``max_iter``
    outer iterations; ``tol = 0`` runs the whole budget."""
    max_iter: int = 10_000
    tol: float = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ValidationError(
                f"stop.tol must be finite and nonnegative, got {self.tol}")
        if self.max_iter < 0:
            raise ValidationError(
                f"stop.max_iter must be nonnegative, got {self.max_iter}")


@dataclass
class RunResult:
    state: AdmmState
    rows: list
    converged: bool
    iterations: int
    residuals: object
    margins: dict              # step-size validator margins checked at start
    inner_steps: int           # over all outer iterations


def iterate_to_tolerance(game: Game, graph: CommGraph, params: AlgoParams,
                         inner: InnerSolver, stop: StopRule, seed: int,
                         iterate, residuals, feasibility) -> RunResult:
    """The outer loop of both algorithms.

    Refuses to start if the step-size conditions fail (`step_size_margins`)
    and reports their margins on the result; starts from
    ``initial_state(game, graph, seed)``.  ``iterate`` is the algorithm's
    sweep, which returns the unrelaxed blocks and the subgame solution
    behind them; each outer iteration relaxes it by ``params.rho``.
    ``residuals(state)`` is the state's distance to the operator's zero
    set, and ``feasibility(x)`` the trace's feasibility column.  Stops when
    every residual is at most ``stop.tol`` or after ``stop.max_iter``
    iterations; a non-finite state raises `DivergenceError`.  An error
    raised inside the loop carries the failing outer iteration, the trace
    rows computed before it, and the inner steps taken before it.
    """
    margins = step_size_margins(params, game, graph)
    state = initial_state(game, graph, seed)
    rows: list[TraceRow] = []
    k = inner_steps = 0
    try:
        res = residuals(state)
        converged = res.max() <= stop.tol
        while not converged and k < stop.max_iter:
            k += 1
            prev_x = state.x
            mu = params.mu(k)
            swept, sol = iterate(game, graph, params, state, inner, mu)
            state = relax(state, swept, params.rho)
            cert = sol.certificate
            inner_steps += cert.iterations
            if not all(np.isfinite(a).all() for a in (state.x, state.lam, state.Z)):
                raise DivergenceError(f"non-finite state at outer iteration {k}")
            res = residuals(state)
            rows.append(TraceRow(
                k=k,
                step_norm=float(np.linalg.norm(state.x - prev_x)),
                consensus_error=consensus_error(state.lam),
                feasibility=feasibility(state.x),
                stationarity=res.stationarity,
                # equality residuals have no complementarity part
                complementarity=getattr(res, "complementarity", math.nan),
                inner_iterations=cert.iterations,
                mu=mu,
                certified=cert.bound))
            converged = res.max() <= stop.tol
    except (DivergenceError, InexactnessError, NumericError) as exc:
        exc.iteration, exc.rows, exc.inner_steps = k, rows, inner_steps
        raise
    return RunResult(state, rows, converged, k, res, margins, inner_steps)


def run_admm(game: Game, graph: CommGraph, params: AlgoParams,
             inner: InnerSolver, stop: StopRule = StopRule(),
             seed: int = 0) -> RunResult:
    """Iterate to convergence of all equality-operator residuals.

    Refuses to start if the fixed-step-size conditions fail, and reports
    their margins on the result.  Stops when the stationarity,
    multiplier-difference, and constraint-tracking residuals all fall below
    ``stop.tol``, or errors out on non-finite states.
    """
    if game.kind != EQUALITY:
        raise ValidationError("the equality algorithm needs an equality-coupled game")
    return iterate_to_tolerance(
        game, graph, params, inner, stop, seed, admm_iterate,
        lambda s: residual_equality(game, graph, s.x, s.Z, s.lam),
        lambda x: float(np.linalg.norm(game.coupling_gap(x))))
