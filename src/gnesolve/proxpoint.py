"""Inexact relaxed preconditioned proximal-point engine.

One step solves the preconditioned inclusion ``Phi (w - w_hat) in M w_hat``
up to a certified distance ``nu`` and then relaxes:
``w_next = w + rho (w_tilde - w)``.  Resolvent oracles realize the solve by
construction (sequential block formulas); no preconditioner is ever
inverted densely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InexactnessError, ValidationError
from .games import Game
from .graphs import CommGraph
from .operators import (constraint_matrix, incidence_kron, pack_lifted,
                        pack_plain, unpack_lifted, unpack_plain)
from .params import AlgoParams
from .subgames import InnerSolution, InnerSolver, Subgame, inequality_subgame


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


def run_proxpoint(resolvent, w0: np.ndarray, rho: float, nu_schedule,
                  n_iters: int, keep_history: bool = True):
    """Iterate ``pppa_step`` for ``n_iters`` steps.

    ``nu_schedule`` maps the 1-based iteration index to the inexactness
    tolerance.  Returns the final iterate and (optionally) the list of all
    iterates including the initial one.
    """
    w = np.asarray(w0, dtype=float)
    history = [w.copy()] if keep_history else None
    for k in range(1, n_iters + 1):
        w, _ = pppa_step(resolvent, w, float(nu_schedule(k)), rho)
        if keep_history:
            history.append(w.copy())
    return w, history


class MatrixResolvent:
    """Exact resolvent of a linear operator ``w -> M w`` under a dense
    preconditioner: solves ``(Phi + M) w_hat = Phi w``.  Desk-scale utility
    for engine tests."""

    def __init__(self, M: np.ndarray, Phi: np.ndarray):
        M = np.atleast_2d(np.asarray(M, dtype=float))
        Phi = np.atleast_2d(np.asarray(Phi, dtype=float))
        self._lhs = Phi + M
        self._phi = Phi

    def solve(self, w: np.ndarray, nu: float) -> ResolventStep:
        w_hat = np.linalg.solve(self._lhs, self._phi @ np.atleast_1d(w))
        return ResolventStep(w_hat, 0.0)


def inequality_block_update(game: Game, graph: CommGraph, params: AlgoParams,
                            inner: InnerSolver, x: np.ndarray, lam: np.ndarray,
                            Z: np.ndarray, mu: float
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, InnerSolution]:
    """Unrelaxed blocks ``(x_t, Z_t, lam_t)`` of one inequality step, and the
    subgame solution behind ``x_t``.

    The subgame solve and the edge update read only the given data and
    commute; the multiplier update consumes both through reflected terms.
    With diagonal ``H`` the projection onto the orthant in the ``H^-1``
    metric is a plain clamp.
    """
    sol = inner.solve(inequality_subgame(game, params, x, lam), mu)
    x_t = sol.x
    Z_t = Z - params.apply_W(graph.edge_differences(lam))
    reflected = (game.constraint_rows(2.0 * x_t - x)
                 + graph.node_aggregate(2.0 * Z_t - Z) - game.b_rows)
    lam_t = np.maximum(lam + params.apply_H(reflected), 0.0)
    return x_t, Z_t, lam_t, sol


class InequalityResolvent:
    """Structured resolvent for the inequality-coupling operator.

    The three blocks are computed sequentially from local data: the
    regularized subgame gives the decision block, the edge block integrates
    multiplier differences, and the multiplier block applies the weighted
    nonnegative projection to the reflected constraint tracking term.
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
        # certified inflation of the subgame tolerance into the stacked
        # iterate: the multiplier block moves by at most ||2 H Lam|| per
        # unit of decision error (the projection is nonexpansive)
        HLam = params.dense_H() @ constraint_matrix(game)
        self.nu_factor = float(np.sqrt(
            1.0 + (2.0 * np.linalg.norm(HLam, 2)) ** 2))

    def mu_for(self, nu: float) -> float:
        return nu / self.nu_factor

    def solve(self, w: np.ndarray, nu: float) -> ResolventStep:
        x, Z, lam = unpack_plain(self.game, self.graph, w)
        x_t, Z_t, lam_t, sol = inequality_block_update(
            self.game, self.graph, self.params, self.inner, x, lam, Z,
            self.mu_for(nu))
        return ResolventStep(pack_plain(x_t, Z_t, lam_t),
                             self.nu_factor * sol.certificate.bound)


class LiftedEqualityResolvent:
    """Structured resolvent for the lifted equality operator.

    The exact blocks follow from eliminating the preconditioned inclusion
    block by block: the subgame (priced by ``eta - theta``) gives the
    decision block, then the two auxiliary multiplier halves and the edge
    block are explicit.  When the subgame is solved inexactly, the auxiliary
    blocks are selected so that the combined point stays within a certified
    multiple of the subgame error while reproducing the distributed
    algorithm's trajectory exactly under the state mapping.  Exact
    certificates require an inner mode that exposes the subgame equilibrium
    ("exact" or "oracle"); with residual-mode inner solves the bound is an
    estimate.
    """

    def __init__(self, game: Game, graph: CommGraph, params: AlgoParams,
                 inner: InnerSolver):
        self.game = game
        self.graph = graph
        self.params = params
        self.inner = inner
        Hd = params.dense_H()
        Lam = constraint_matrix(game)
        Vb = incidence_kron(graph, game.m)
        HLam = Hd @ Lam
        ZX = -2.0 * params.dense_W() @ Vb.T @ HLam     # edge error per unit decision error
        EX = HLam + 0.5 * Hd @ Vb @ ZX                 # eta error per unit decision error
        c1 = np.linalg.norm(ZX, 2)
        c2 = np.linalg.norm(EX, 2)
        self.nu_factor = float(np.sqrt(1.0 + c1 * c1 + 2.0 * c2 * c2))

    def mu_for(self, nu: float) -> float:
        return nu / self.nu_factor

    def solve(self, w: np.ndarray, nu: float) -> ResolventStep:
        game, graph, params = self.game, self.graph, self.params
        x, eta, Z, theta = unpack_lifted(game, graph, w)
        b = game.b_rows
        sub = Subgame(game, x, game.price_gradient(eta - theta), params)
        sol = self.inner.solve(sub, self.mu_for(nu))
        x_hat = sol.exact if sol.exact is not None else sol.x
        x_t = sol.x

        agg_Z = graph.node_aggregate(Z)
        reflected_x = game.constraint_rows(x - 2.0 * x_hat)   # A_i (x - 2 x_hat)
        eta_hat = eta + 0.5 * params.apply_H(agg_Z - reflected_x - b)
        Z_hat = Z + params.apply_W(graph.edge_differences(eta - 2.0 * eta_hat + theta))
        theta_hat = theta + 0.5 * params.apply_H(
            reflected_x + graph.node_aggregate(Z - 2.0 * Z_hat) + b)

        if sol.certificate.bound == 0.0:
            point = pack_lifted(x_hat, eta_hat, Z_hat, theta_hat)
            return ResolventStep(point, 0.0)

        # inexact selection: propagate the decision error through the same
        # linear maps the distributed algorithm applies
        dx_rows = game.constraint_rows(x_t - x_hat)          # A_i (x_t - x_hat)
        Z_t = Z_hat - 2.0 * params.apply_W(
            graph.edge_differences(params.apply_H(dx_rows)))
        dz = 0.5 * params.apply_H(graph.node_aggregate(Z_t - Z_hat))
        eta_t = eta_hat + params.apply_H(dx_rows) + dz
        theta_t = theta_hat - params.apply_H(dx_rows) - dz
        return ResolventStep(pack_lifted(x_t, eta_t, Z_t, theta_t),
                             self.nu_factor * sol.certificate.bound)
