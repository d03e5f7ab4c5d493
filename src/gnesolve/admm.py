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
from .errors import DivergenceError, ValidationError
from .games import EQUALITY, Game
from .graphs import CommGraph
from .operators import (pack_lifted, residual_equality, step_size_margins,
                        unpack_lifted)
from .params import AlgoParams
from .proxpoint import LiftedEqualityResolvent, pppa_step
from .rng import SplitMix64
from .subgames import InnerSolver, equality_subgame
from .trace import TraceRow


@dataclass(frozen=True)
class AdmmState:
    x: np.ndarray          # stacked decisions, length n
    lam: np.ndarray        # local multipliers, (N, m)
    Z: np.ndarray          # edge variables, (M, m)
    k: int = 0


def initial_state(game: Game, graph: CommGraph, seed: int = 0,
                  x0: np.ndarray | None = None) -> AdmmState:
    """Random decisions inside the box; zero multipliers and edge variables."""
    if x0 is None:
        x0 = game.sample_profile(SplitMix64(seed))
    return AdmmState(np.asarray(x0, dtype=float),
                     np.zeros((game.n_players, game.m)),
                     np.zeros((graph.n_edges, game.m)), 0)


@dataclass(frozen=True)
class IterInfo:
    inner_iterations: int
    mu: float
    certified: float


def admm_iterate(game: Game, graph: CommGraph, params: AlgoParams,
                 state: AdmmState, inner: InnerSolver,
                 mu: float) -> tuple[AdmmState, IterInfo]:
    """One outer iteration, written player-by-player and edge-by-edge.

    Mirrors the distributed message pattern: every player reads only its own
    data, its incident edge variables, and (for the edge update) the signal
    of the edge's other endpoint.  Kept as the reference that the stacked
    production update, `admm_iterate_compact`, is tested against.
    """
    x, lam, Z, k = state.x, state.lam, state.Z, state.k
    rho = params.rho
    blocks = game.split(x)
    agg = graph.node_aggregate(Z)

    # step 1: regularized subgame, solved to mu
    sub = equality_subgame(game, graph, params, x, lam, Z)
    sol = inner.solve(sub, mu)
    xt_blocks = game.split(sol.x)

    lam_next = np.empty_like(lam)
    tracked_t = np.empty_like(lam)
    for i, p in enumerate(game.players):
        tracked_t[i] = p.A @ xt_blocks[i] + agg[i] - p.b
        lam_next[i] = lam[i] + rho * (params.H[i] @ tracked_t[i])

    # step 3 signal: recover the unrelaxed multiplier from the relaxed one
    s = np.empty_like(lam)
    for i in range(game.n_players):
        lam_tilde_i = lam_next[i] / rho + (rho - 1.0) / rho * lam[i]
        s[i] = lam_tilde_i + params.H[i] @ tracked_t[i]

    Z_next = Z.copy()
    for l, (i, j) in enumerate(graph.edges):
        z_tilde = Z[l] - params.W[l] @ (s[j] - s[i])
        Z_next[l] = Z[l] + rho * (z_tilde - Z[l])

    x_next = np.concatenate([
        xi + rho * (xti - xi) for xi, xti in zip(blocks, xt_blocks)])
    new = AdmmState(x_next, lam_next, Z_next, k + 1)
    info = IterInfo(sol.certificate.iterations, mu, sol.certificate.bound)
    return new, info


def admm_iterate_compact(game: Game, graph: CommGraph, params: AlgoParams,
                         state: AdmmState, inner: InnerSolver,
                         mu: float) -> tuple[AdmmState, IterInfo]:
    """Same iteration in stacked form; the update `run_admm` performs."""
    x, lam, Z, k = state.x, state.lam, state.Z, state.k
    rho = params.rho
    sub = equality_subgame(game, graph, params, x, lam, Z)
    sol = inner.solve(sub, mu)
    x_t = sol.x
    tracked_t = game.local_residual(x_t) + graph.node_aggregate(Z)
    h_t = params.apply_H(tracked_t)
    lam_t = lam + h_t
    Z_t = Z - params.apply_W(graph.edge_differences(lam_t + h_t))
    new = AdmmState(x + rho * (x_t - x), lam + rho * (lam_t - lam),
                    Z + rho * (Z_t - Z), k + 1)
    return new, IterInfo(sol.certificate.iterations, mu, sol.certificate.bound)


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


def _check_finite(state: AdmmState) -> None:
    for arr in (state.x, state.lam, state.Z):
        if not np.all(np.isfinite(arr)):
            raise DivergenceError(
                f"non-finite state at outer iteration {state.k}", state.k)


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
    rows: list[TraceRow] = []
    res = residual_equality(game, graph, state.x, state.Z, state.lam)
    converged = res.max() <= stop.tol
    k = 0
    while not converged and k < stop.max_iter:
        k += 1
        prev_x = state.x
        state, info = admm_iterate_compact(game, graph, params, state, inner,
                                           params.mu(k))
        _check_finite(state)
        res = residual_equality(game, graph, state.x, state.Z, state.lam)
        if k % trace_stride == 0:
            rows.append(TraceRow(
                k=k,
                step_norm=float(np.linalg.norm(state.x - prev_x)),
                consensus_error=consensus_error(state.lam),
                feasibility=float(np.linalg.norm(game.coupling_gap(state.x))),
                stationarity=res.stationarity,
                complementarity=math.nan,
                inner_iterations=info.inner_iterations,
                mu=info.mu,
                certified=info.certified))
        converged = res.max() <= stop.tol
    return RunResult(state, rows, converged, k, res, margins)


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
    return AdmmState(x, lam, Z, 0)


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
