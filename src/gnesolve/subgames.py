"""Regularized subgames and their inexact solution with certified accuracy.

Every outer iteration builds a subgame whose pseudo-gradient is the base
game's plus a proximal pull toward the current profile and a per-player
linear price term.  The proximal weights make the subgame strongly
monotone, so its equilibrium exists, is unique, and can be approximated
with a certified distance bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InexactnessError, StructuralError, ValidationError
from .games import Game, as_vector
from .graphs import CommGraph
from .params import AlgoParams


@dataclass
class Subgame:
    """Strongly monotone regularized game anchored at the current profile.

    The pseudo-gradient is ``F(y) + R (y - anchor) + shift`` over the
    original product box.
    """

    game: Game
    anchor: np.ndarray
    shift: np.ndarray
    params: AlgoParams

    def __post_init__(self):
        self.anchor = as_vector(self.anchor)
        self.shift = as_vector(self.shift)
        n = self.game.n
        if self.anchor.shape != (n,) or self.shift.shape != (n,):
            raise StructuralError(
                f"subgame anchor and shift have shapes {self.anchor.shape} "
                f"and {self.shift.shape}, expected ({n},)")

    def smooth_gradient(self, y: np.ndarray) -> np.ndarray:
        """Smooth part ``G`` of the subgame map: the game's smooth gradient
        plus the proximal pull and the price, in `Game.natural_step`'s
        order of operations."""
        return (self.game.smooth_gradient(y)
                + (self.params.apply_R(y - self.anchor) + self.shift))

    def step(self, y: np.ndarray, gamma: float) -> np.ndarray:
        """Forward-backward step whose fixed points are the equilibrium."""
        return self.game.backward_step(y - gamma * self.smooth_gradient(y), gamma)


def equality_subgame(game: Game, graph: CommGraph, params: AlgoParams,
                     x, lam, Z) -> Subgame:
    """Subgame of the equality algorithm.

    The price of player ``i`` is its multiplier plus ``H_i`` times the
    locally tracked constraint residual ``A_i x_i + (V Z)_i - b_i``, pulled
    back through ``A_i^T``.
    """
    x = as_vector(x)
    tracked = game.local_residual(x) + graph.node_aggregate(Z)
    price = np.asarray(lam, dtype=float) + params.apply_H(tracked)
    return Subgame(game, x, game.price_gradient(price), params)


def inequality_subgame(game: Game, params: AlgoParams, x, lam) -> Subgame:
    """Subgame of the inequality algorithm: the price is the bare multiplier."""
    x = as_vector(x)
    return Subgame(game, x, game.price_gradient(np.asarray(lam, dtype=float)), params)


@dataclass(frozen=True)
class InnerCertificate:
    bound: float       # certified upper bound on the distance to the equilibrium
    iterations: int


@dataclass(frozen=True)
class InnerSolution:
    x: np.ndarray                     # the returned subgame solution
    certificate: InnerCertificate     # its certified distance to the equilibrium


#: relative certificate at which oracle mode's reference equilibrium stops
FIXED_POINT_TOL = 1e-13


class InnerSolver:
    """Solves regularized subgames to a certified distance bound.

    mode
        ``"exact"`` uses the game's closed-form regularized-equilibrium
        solver.  ``"residual"`` (the default) runs forward-backward steps and
        stops at the first iterate whose computable error bound
        ``|(y - y+)/gamma - G(y) + G(y+)| / r_min`` certifies the tolerance;
        the bound follows from strong monotonicity alone.  ``"oracle"``
        returns the same iterate but continues the same trajectory to a
        machine-precision reference equilibrium and reports the true
        distance to it as the bound; at ``mu = 0`` it returns the reference
        itself, ``solve(sub, 0.0).x``, which the tests compare against.
    cap
        Hard iteration limit; exceeding it raises rather than silently
        returning an uncertified point.
    """

    def __init__(self, mode: str = "residual", cap: int = 100_000):
        if mode not in ("exact", "oracle", "residual"):
            raise ValidationError(f"unknown inner mode {mode!r}")
        self.mode = mode
        self.cap = cap

    def solve(self, sub: Subgame, mu: float) -> InnerSolution:
        if mu < 0:
            raise ValidationError("inner tolerance must be nonnegative")
        if self.mode == "exact":
            return self._solve_exact(sub)
        return self._forward_backward(sub, mu, self.mode == "oracle")

    def _solve_exact(self, sub: Subgame) -> InnerSolution:
        solver = sub.game.exact_subgame_solver
        if solver is None:
            raise ValidationError(
                "exact inner mode requires a game with a closed-form "
                "regularized-equilibrium solver")
        x_hat = np.asarray(solver(sub.anchor, sub.shift, sub.params.R), dtype=float)
        return InnerSolution(x_hat, InnerCertificate(0.0, 0))

    def _forward_backward(self, sub: Subgame, mu: float,
                          reference: bool) -> InnerSolution:
        """Forward-backward steps ``y+ = backward(y - gamma G(y))`` until the
        computable error bound certifies ``mu``.

        ``e = (y - y+) / gamma - G(y) + G(y+)`` lies in ``G(y+)`` plus the
        subdifferential of the backward part at ``y+``, an operator that is
        strongly monotone with modulus ``sigma = r_min``; hence
        ``|y+ - y*| <= |e| / sigma`` for any step ``gamma``.  ``G(y+)`` is
        reused by the next step, so each step costs one oracle call.

        Since no step can make the bound wrong, the step adapts freely: it
        starts at ``1 / r_max`` and after each step that
        does not certify becomes ``min(1.5 gamma, <dG, dy> / |dG|^2)`` with
        ``dy = y+ - y`` and ``dG = G(y+) - G(y)`` (Barzilai & Borwein 1988;
        Malitsky & Mishchenko 2020), or ``1.5 gamma`` when either quantity
        is not positive.  The second term is the largest step for which the
        forward map ``y - gamma G(y)`` contracts along the last move, so it
        also shrinks on skew-dominated maps.  Nothing is carried from one
        solve to the next.

        With ``reference`` (oracle mode) the same trajectory continues until
        the bound falls to ``FIXED_POINT_TOL (1 + |y+|)``; that iterate is
        the reference equilibrium.  The first iterate certifying ``mu`` is
        returned with its true distance to the reference as the bound, or
        the reference itself with bound 0 when none certified ``mu`` first.
        """
        if mu == 0.0 and not reference:
            raise ValidationError(
                "residual mode cannot certify an exactly zero tolerance")
        gamma = 1.0 / sub.params.r_max
        sigma = sub.params.r_min
        y = sub.game.project(sub.anchor)
        g = sub.smooth_gradient(y)
        bound = math.inf
        found = None
        for it in range(1, self.cap + 1):
            y_next = sub.game.backward_step(y - gamma * g, gamma)
            g_next = sub.smooth_gradient(y_next)
            bound = float(np.linalg.norm((y - y_next) / gamma - g + g_next)) / sigma
            if found is None and bound <= mu:
                if not reference:
                    return InnerSolution(y_next, InnerCertificate(bound, it))
                found = y_next
            if reference and bound <= FIXED_POINT_TOL * (1.0 + np.linalg.norm(y_next)):
                if found is None:
                    found = y_next
                distance = float(np.linalg.norm(found - y_next))
                return InnerSolution(found, InnerCertificate(distance, it))
            dy, dg = y_next - y, g_next - g
            curvature, dg_sq = float(dg @ dy), float(dg @ dg)
            gamma *= 1.5
            if curvature > 0.0 and dg_sq > 0.0:
                gamma = min(gamma, curvature / dg_sq)
            y, g = y_next, g_next
        raise InexactnessError(
            f"{self.mode} mode could not certify "
            f"{FIXED_POINT_TOL if found is not None else mu:.3g} within "
            f"{self.cap} iterations", achieved=bound)
