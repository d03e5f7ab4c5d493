"""Inexact relaxed preconditioned proximal-point engine: the reference
layer the two distributed loops are checked against.

One step solves the preconditioned inclusion ``Phi (w - w_hat) in M w_hat``
up to a certified distance ``nu`` and then relaxes:
``w_next = w + rho (w_tilde - w)``.  Resolvent oracles realize the solve by
construction (sequential block formulas); no preconditioner is ever
inverted densely.  The inequality resolvent is the splitting's sweep
itself; the lifted equality resolvent is checked against the ADMM sweep by
`correspondence_check`.  This module builds on `admm` and `splitting`, and
no solver module imports it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .admm import AdmmState, admm_iterate, initial_state, relax
from .errors import InexactnessError, ValidationError
from .games import Game
from .graphs import CommGraph
from .operators import (block_diag, incidence_sandwich,
                        inequality_preconditioner, pack, unpack_lifted,
                        unpack_plain)
from .params import AlgoParams
from .splitting import splitting_iterate
from .subgames import InnerSolver, Subgame


@dataclass(frozen=True)
class ResolventStep:
    point: np.ndarray          # the (possibly inexact) resolvent output
    bound: float               # certified distance to the exact resolvent


def pppa_step(resolvent, w: np.ndarray, nu: float, rho: float) -> tuple[np.ndarray, ResolventStep]:
    """One relaxed step of the inexact preconditioned proximal iteration.

    ``resolvent.solve(w, nu)`` must return a point within ``nu`` of the
    exact preconditioned resolvent at ``w`` together with the certified
    bound; a bound above ``nu`` is an error.
    """
    if not (1.0 <= rho < 2.0):
        raise ValidationError(f"relaxation factor rho={rho} outside [1, 2)")
    if nu < 0:
        raise ValidationError("inexactness tolerance must be nonnegative")
    step = resolvent.solve(w, nu)
    if step.bound > nu + 1e-15:
        raise InexactnessError(
            f"resolvent certified {step.bound:.3g} above requested {nu:.3g}",
            achieved=step.bound)
    return w + rho * (step.point - w), step


def run_proxpoint(resolvent, w0: np.ndarray, rho: float,
                  n_iters: int) -> list[np.ndarray]:
    """The iterates of ``n_iters`` exact ``pppa_step`` steps, ``w0`` first."""
    history = [np.array(w0, dtype=float)]
    for _ in range(n_iters):
        history.append(pppa_step(resolvent, history[-1], 0.0, rho)[0])
    return history


class InequalityResolvent:
    """Structured resolvent for the inequality-coupling operator.

    It is the splitting's sweep, `splitting_iterate`, on the unpacked
    blocks: the subgame, then the edge and the projected multiplier blocks.
    Inexactness enters only through the subgame solve; the certified bound
    inflates the subgame tolerance by the norm of the linear map the error
    passes through.
    """

    def __init__(self, game: Game, graph: CommGraph, params: AlgoParams,
                 inner: InnerSolver):
        self.game = game
        self.graph = graph
        self.params = params
        self.inner = inner
        # the splitting's validator: diagonal H and a positive definite metric
        inequality_preconditioner(params, game, graph)
        # certified inflation of the subgame tolerance into the stacked
        # iterate: the multiplier block moves by at most ||2 H Lam|| per
        # unit of decision error (the projection is nonexpansive); H Lam is
        # block-diagonal, so its norm is the largest of its blocks' norms
        HLam_norm = max(np.linalg.norm(Hi @ p.A, 2)
                        for Hi, p in zip(params.H, game.players))
        self.nu_factor = float(np.sqrt(1.0 + (2.0 * HLam_norm) ** 2))

    def mu_for(self, nu: float) -> float:
        return nu / self.nu_factor

    def solve(self, w: np.ndarray, nu: float) -> ResolventStep:
        x, Z, lam = unpack_plain(self.game, self.graph, w)
        swept, sol = splitting_iterate(
            self.game, self.graph, self.params, AdmmState(x, lam, Z),
            self.inner, self.mu_for(nu))
        return ResolventStep(pack(swept.x, swept.Z, swept.lam),
                             self.nu_factor * sol.certificate.bound)


class LiftedEqualityResolvent:
    """Structured resolvent for the lifted equality operator.

    One block sweep at the subgame solution ``x_t``: the subgame (priced by
    ``eta - theta``) gives the decision block, then the two auxiliary
    multiplier halves and the edge block are explicit,
    ``eta_t = eta + H (Vbar Z - A (x - 2 x_t) - b) / 2``,
    ``Z_t = Z + W Vbar^T (eta - 2 eta_t + theta)`` and
    ``theta_t = theta + H (A (x - 2 x_t) + Vbar (Z - 2 Z_t) + b) / 2``.

    The certificate holds in every inner mode: the sweep is affine in
    ``x_t`` with linear part ``J = (I; H Lam; -2 W Vbar^T H Lam;
    -(I - 2 H Vbar W Vbar^T) H Lam)``, and the exact resolvent is the same
    sweep at the exact subgame solution ``x_hat``, so the returned point
    is within ``|J|_2 |x_t - x_hat| <= |J|_2 * certificate`` of it.  The
    sweep at ``x_t`` also follows the distributed algorithm: the subgame
    and `mapped_state` read the auxiliary halves only through
    ``eta - theta``.
    """

    def __init__(self, game: Game, graph: CommGraph, params: AlgoParams,
                 inner: InnerSolver):
        self.game = game
        self.graph = graph
        self.params = params
        self.inner = inner
        # |J|_2^2 = 1 + lmax(HLam^T Q HLam) with Q = I + 4 Vbar W^T W Vbar^T
        # + P^T P and P = I - 2 H Vbar W Vbar^T, all of order mN; HLam is
        # block-diagonal with blocks H_i A_i, so lmax is of order n
        V, mN = graph.incidence, game.m * game.n_players
        P = np.eye(mN) - 2.0 * block_diag(params.H) @ incidence_sandwich(V, params.W)
        Q = (np.eye(mN) + P.T @ P + 4.0 * incidence_sandwich(
            V, params.W.transpose(0, 2, 1) @ params.W))
        HLam = block_diag([Hi @ p.A for Hi, p in zip(params.H, game.players)])
        self.nu_factor = float(np.sqrt(
            1.0 + np.linalg.eigvalsh(HLam.T @ Q @ HLam)[-1]))

    def mu_for(self, nu: float) -> float:
        return nu / self.nu_factor

    def solve(self, w: np.ndarray, nu: float) -> ResolventStep:
        game, graph, params = self.game, self.graph, self.params
        x, eta, Z, theta = unpack_lifted(game, graph, w)
        sub = Subgame(game, x, game.price_gradient(eta - theta), params)
        sol = self.inner.solve(sub, self.mu_for(nu))
        reflected = game.constraint_rows(x - 2.0 * sol.x)   # A_i (x - 2 x_t)
        eta_t = eta + 0.5 * params.apply_H(
            graph.node_aggregate(Z) - reflected - game.b_rows)
        Z_t = Z + params.apply_W(graph.edge_differences(eta - 2.0 * eta_t + theta))
        theta_t = theta + 0.5 * params.apply_H(
            reflected + graph.node_aggregate(Z - 2.0 * Z_t) + game.b_rows)
        return ResolventStep(pack(sol.x, eta_t, Z_t, theta_t),
                             self.nu_factor * sol.certificate.bound)


# -- correspondence of the ADMM loop with the lifted iteration -------------------

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
    return pack(state.x, eta0, state.Z, theta0)


def mapped_state(game: Game, graph: CommGraph, params: AlgoParams,
                 w: np.ndarray) -> AdmmState:
    """Distributed-algorithm state read off a lifted iterate."""
    x, eta, Z, theta = unpack_lifted(game, graph, w)
    tracked = game.local_residual(x) + graph.node_aggregate(Z)
    lam = eta - theta - params.apply_H(tracked)
    return AdmmState(x, lam, Z)


def correspondence_check(game: Game, graph: CommGraph, params: AlgoParams,
                         n_iters: int, inner: InnerSolver, seed: int = 0,
                         eta_perturbation: float = 0.0) -> CorrespondenceReport:
    """Run the distributed loop and the lifted proximal-point iteration side
    by side and report the worst relative mismatch under the state mapping.

    With exact inner solves the two trajectories coincide up to rounding;
    ``eta_perturbation`` shifts the lifted starting point to demonstrate
    that the mapping is not accidental.
    """
    state = initial_state(game, graph, seed)
    w = lifted_initial_point(game, graph, params, state)
    if eta_perturbation != 0.0:
        x0, eta0, Z0, theta0 = unpack_lifted(game, graph, w)
        w = pack(x0, eta0 + eta_perturbation, Z0, theta0)
    resolvent = LiftedEqualityResolvent(game, graph, params, inner)
    deviations = []
    worst = 0.0
    for k in range(1, n_iters + 1):
        mu = params.mu(k)
        swept, _ = admm_iterate(game, graph, params, state, inner, mu)
        state = relax(state, swept, params.rho)
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
