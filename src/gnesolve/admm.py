"""Distributed equality-coupled equilibrium seeking (proximal ADMM loop).

Each outer iteration solves the regularized subgame inexactly, updates the
local multipliers with the tracked constraint residual, exchanges the
resulting signals along edges to update the edge variables, and relaxes all
coordinates by the common factor.  The stacked form of one iteration equals
one relaxed step of the preconditioned proximal iteration on the lifted
operator, which is what the correspondence harness verifies.
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
from .operators import (pack_lifted, residual_equality, step_size_margins,
                        unpack_lifted)
from .params import AlgoParams
from .proxpoint import LiftedEqualityResolvent, pppa_step
from .rng import SplitMix64
from .subgames import InnerSolution, InnerSolver, equality_subgame
from .trace import TraceRow


@dataclass(frozen=True)
class AdmmState:
    x: np.ndarray          # stacked decisions, length n
    lam: np.ndarray        # local multipliers, (N, m)
    Z: np.ndarray          # edge variables, (M, m)


def initial_state(game: Game, graph: CommGraph, seed: int = 0,
                  x0: np.ndarray | None = None) -> AdmmState:
    """Random decisions inside the box; zero multipliers and edge variables."""
    if x0 is None:
        x0 = game.sample_profile(SplitMix64(seed))
    return AdmmState(np.asarray(x0, dtype=float),
                     np.zeros((game.n_players, game.m)),
                     np.zeros((graph.n_edges, game.m)))


def admm_iterate(game: Game, graph: CommGraph, params: AlgoParams,
                 state: AdmmState, inner: InnerSolver,
                 mu: float) -> tuple[AdmmState, InnerSolution]:
    """One outer iteration as stacked array updates: subgame solve to
    ``mu``, multiplier step along ``H`` times the tracked constraint
    residual, edge step along ``W`` times the multiplier-signal differences,
    and relaxation by ``rho``.  Each per-player and per-edge row reads only
    its own data and its neighbours' signals."""
    x, lam, Z = state.x, state.lam, state.Z
    rho = params.rho
    sub = equality_subgame(game, graph, params, x, lam, Z)
    sol = inner.solve(sub, mu)
    x_t = sol.x
    tracked_t = game.local_residual(x_t) + graph.node_aggregate(Z)
    h_t = params.apply_H(tracked_t)
    lam_t = lam + h_t
    Z_t = Z - params.apply_W(graph.edge_differences(lam_t + h_t))
    new = AdmmState(x + rho * (x_t - x), lam + rho * (lam_t - lam),
                    Z + rho * (Z_t - Z))
    return new, sol


@dataclass(frozen=True)
class StopRule:
    max_iter: int = 10_000
    tol: float = 1e-6


@dataclass
class RunResult:
    state: AdmmState
    rows: list
    converged: bool
    iterations: int
    residuals: object
    margins: dict              # step-size validator margins checked at start
    inner_steps: int           # over all outer iterations, traced or not


def iterate_to_tolerance(game: Game, graph: CommGraph, params: AlgoParams,
                         inner: InnerSolver, stop: StopRule, state: AdmmState,
                         trace_stride: int, margins: dict, iterate,
                         residuals, feasibility) -> RunResult:
    """The outer loop of both algorithms.

    ``iterate`` is the algorithm's one-iteration update, which returns the
    new state and the subgame solution behind it; ``residuals(state)`` is
    its distance to the operator's zero set, and ``feasibility(x)`` the
    trace's feasibility column.  Stops when every residual is at most
    ``stop.tol`` or after ``stop.max_iter`` iterations; a non-finite state
    raises `DivergenceError`.  An error raised inside the loop carries the
    failing outer iteration, the trace rows computed before it, and the
    inner steps taken before it.
    """
    rows: list[TraceRow] = []
    k = inner_steps = 0
    try:
        res = residuals(state)
        converged = res.max() <= stop.tol
        while not converged and k < stop.max_iter:
            k += 1
            prev_x = state.x
            mu = params.mu(k)
            state, sol = iterate(game, graph, params, state, inner, mu)
            cert = sol.certificate
            inner_steps += cert.iterations
            if not all(np.isfinite(a).all() for a in (state.x, state.lam, state.Z)):
                raise DivergenceError(f"non-finite state at outer iteration {k}")
            res = residuals(state)
            if k % trace_stride == 0:
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
             state0: AdmmState | None = None, seed: int = 0,
             trace_stride: int = 1) -> RunResult:
    """Iterate to convergence of all equality-operator residuals.

    Refuses to start if the fixed-step-size conditions fail, and reports
    their margins on the result.  Stops when the stationarity,
    multiplier-difference, and constraint-tracking residuals all fall below
    ``stop.tol``, or errors out on non-finite states.
    """
    if game.kind != EQUALITY:
        raise ValidationError("the equality algorithm needs an equality-coupled game")
    margins = step_size_margins(params, game, graph)
    state = state0 if state0 is not None else initial_state(game, graph, seed)
    return iterate_to_tolerance(
        game, graph, params, inner, stop, state, trace_stride, margins,
        admm_iterate,
        lambda s: residual_equality(game, graph, s.x, s.Z, s.lam),
        lambda x: float(np.linalg.norm(game.coupling_gap(x))))


@dataclass(frozen=True)
class CorrespondenceReport:
    max_deviation: float
    per_iteration: list


def lifted_initial_point(game: Game, graph: CommGraph, params: AlgoParams,
                         state: AdmmState) -> np.ndarray:
    """Lifted iterate matched to a distributed-algorithm state.

    The auxiliary split starts at ``theta = 0``, which forces
    ``eta = lam + H (tracked constraint residual)`` for the state mapping to
    hold at iteration zero.
    """
    tracked = game.local_residual(state.x) + graph.node_aggregate(state.Z)
    eta0 = state.lam + params.apply_H(tracked)
    theta0 = np.zeros_like(eta0)
    return pack_lifted(state.x, eta0, state.Z, theta0)


def mapped_state(game: Game, graph: CommGraph, params: AlgoParams,
                 w: np.ndarray) -> AdmmState:
    """Distributed-algorithm state read off a lifted iterate."""
    x, eta, Z, theta = unpack_lifted(game, graph, w)
    tracked = game.local_residual(x) + graph.node_aggregate(Z)
    lam = eta - theta - params.apply_H(tracked)
    return AdmmState(x, lam, Z)


def correspondence_check(game: Game, graph: CommGraph, params: AlgoParams,
                         n_iters: int, inner: InnerSolver,
                         state0: AdmmState | None = None, seed: int = 0,
                         eta_perturbation: float = 0.0) -> CorrespondenceReport:
    """Run the distributed loop and the lifted proximal-point iteration side
    by side and report the worst relative mismatch under the state mapping.

    With exact inner solves the two trajectories coincide up to rounding;
    ``eta_perturbation`` shifts the lifted starting point to demonstrate
    that the mapping is not accidental.
    """
    state = state0 if state0 is not None else initial_state(game, graph, seed)
    w = lifted_initial_point(game, graph, params, state)
    if eta_perturbation != 0.0:
        x0, eta0, Z0, theta0 = unpack_lifted(game, graph, w)
        w = pack_lifted(x0, eta0 + eta_perturbation, Z0, theta0)
    resolvent = LiftedEqualityResolvent(game, graph, params, inner)
    deviations = []
    worst = 0.0
    for k in range(1, n_iters + 1):
        mu = params.mu(k)
        state, _ = admm_iterate(game, graph, params, state, inner, mu)
        w, _ = pppa_step(resolvent, w, resolvent.nu_factor * mu, params.rho)
        mapped = mapped_state(game, graph, params, w)
        dev = max(
            float(np.linalg.norm(state.x - mapped.x)) / (1.0 + float(np.linalg.norm(state.x))),
            float(np.linalg.norm(state.Z - mapped.Z)) / (1.0 + float(np.linalg.norm(state.Z))),
            float(np.linalg.norm(state.lam - mapped.lam)) / (1.0 + float(np.linalg.norm(state.lam))),
        )
        deviations.append(dev)
        worst = max(worst, dev)
    return CorrespondenceReport(worst, deviations)
