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

from .errors import InexactnessError, ValidationError
from .games import Game, as_vector
from .graphs import CommGraph
from .params import AlgoParams
from .rng import SplitMix64


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
        self.modulus = self.params.r_min

    def pseudo_gradient(self, y: np.ndarray) -> np.ndarray:
        return (self.game.pseudo_gradient(y)
                + self.params.apply_R(self.game, y - self.anchor)
                + self.shift)

    def project(self, y: np.ndarray) -> np.ndarray:
        return self.game.project(y)

    def smooth_gradient(self, y: np.ndarray) -> np.ndarray:
        """Smooth part ``G`` of the subgame map: the game's smooth gradient
        plus the proximal pull and the price, in `Game.natural_step`'s
        order of operations."""
        return (self.game.smooth_gradient(y)
                + (self.params.apply_R(self.game, y - self.anchor) + self.shift))

    def backward_step(self, v: np.ndarray, gamma: float) -> np.ndarray:
        return self.game.backward_step(v, gamma)

    def step(self, y: np.ndarray, gamma: float) -> np.ndarray:
        """Forward-backward step whose fixed points are the equilibrium."""
        return self.backward_step(y - gamma * self.smooth_gradient(y), gamma)

    def natural_residual(self, y: np.ndarray, gamma: float) -> float:
        return float(np.linalg.norm(y - self.step(y, gamma)))


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
    mode: str          # "oracle" or "residual"
    bound: float       # certified upper bound on the distance to the equilibrium
    iterations: int


@dataclass(frozen=True)
class InnerSolution:
    x: np.ndarray
    certificate: InnerCertificate
    exact: np.ndarray | None = None   # the equilibrium itself, when available


@dataclass
class InnerSettings:
    """Inner-solver configuration.

    mode
        ``"exact"`` uses the game's closed-form regularized-equilibrium
        solver.  ``"residual"`` (the default) runs forward-backward steps and
        stops at the first iterate whose computable error bound
        ``|(y - y+)/gamma - G(y) + G(y+)| / r_min`` certifies the tolerance;
        the bound follows from strong monotonicity alone.  ``"oracle"`` runs
        the same iteration to a machine-precision fixed point and returns
        the first iterate of a replay within the tolerance of it; it costs
        several times the steps and is kept as a test reference.
    gamma
        Forward-backward step; default ``1 / (modulus + lipschitz)``.
    lipschitz
        Lipschitz estimate for the subgame pseudo-gradient, used only to
        pick the default step.  When absent it is estimated once per game
        and parameters, from the game's hint or by sampling difference
        quotients.  A poor estimate slows the inner solve but cannot make a
        residual-mode certificate wrong.
    cap
        Hard iteration limit; exceeding it raises rather than silently
        returning an uncertified point.
    """

    mode: str = "residual"
    gamma: float | None = None
    lipschitz: float | None = None
    cap: int = 100_000
    fixed_point_tol: float = 1e-13

    def __post_init__(self):
        if self.mode not in ("exact", "oracle", "residual"):
            raise ValidationError(f"unknown inner mode {self.mode!r}")


_ESTIMATE_SEED = 0x5EED


class InnerSolver:
    """Solves regularized subgames to a certified distance bound."""

    def __init__(self, settings: InnerSettings | None = None):
        self.settings = settings or InnerSettings()
        # (game, params, estimate) of the last subgame family estimated
        self._lipschitz: tuple | None = None

    # -- helpers -----------------------------------------------------------

    def _estimate_lipschitz(self, sub: Subgame) -> float:
        rng = SplitMix64(_ESTIMATE_SEED)
        worst = 0.0
        for _ in range(20):
            a = sub.game.sample_profile(rng)
            b = sub.game.sample_profile(rng)
            gap = np.linalg.norm(a - b)
            if gap < 1e-12:
                continue
            quot = np.linalg.norm(
                sub.pseudo_gradient(a) - sub.pseudo_gradient(b)) / gap
            worst = max(worst, quot)
        return 1.5 * worst if worst > 0 else 1.0

    def lipschitz(self, sub: Subgame) -> float:
        """Lipschitz estimate for the full subgame map (base game plus the
        proximal pull); a user-supplied value takes precedence, then the
        game's hint for the bare map plus the proximal weight.  Estimates
        are cached for the subgame's game and parameters only."""
        if self.settings.lipschitz is not None:
            return self.settings.lipschitz
        cached = self._lipschitz
        if cached is None or cached[0] is not sub.game or cached[1] is not sub.params:
            if sub.game.lipschitz_hint is not None:
                value = sub.game.lipschitz_hint + sub.params.r_max
            else:
                value = self._estimate_lipschitz(sub)
            self._lipschitz = cached = (sub.game, sub.params, value)
        return cached[2]

    def gamma(self, sub: Subgame) -> float:
        if self.settings.gamma is not None:
            return self.settings.gamma
        return 1.0 / (sub.modulus + self.lipschitz(sub))

    # -- modes --------------------------------------------------------------

    def solve(self, sub: Subgame, mu: float) -> InnerSolution:
        if mu < 0:
            raise ValidationError("inner tolerance must be nonnegative")
        if self.settings.mode == "exact":
            return self._solve_exact(sub)
        if self.settings.mode == "oracle":
            return self._solve_oracle(sub, mu)
        return self._solve_residual(sub, mu)

    def _solve_exact(self, sub: Subgame) -> InnerSolution:
        solver = sub.game.exact_subgame_solver
        if solver is None:
            raise ValidationError(
                "exact inner mode requires a game with a closed-form "
                "regularized-equilibrium solver")
        x_hat = np.asarray(solver(sub.anchor, sub.shift, sub.params.R), dtype=float)
        cert = InnerCertificate("oracle", 0.0, 0)
        return InnerSolution(x_hat, cert, x_hat)

    def _fixed_point(self, sub: Subgame, gamma: float) -> tuple[np.ndarray, int]:
        y = sub.project(sub.anchor)
        tol = self.settings.fixed_point_tol
        for it in range(1, self.settings.cap + 1):
            y_next = sub.step(y, gamma)
            step = np.linalg.norm(y_next - y)
            y = y_next
            if step <= tol * (1.0 + np.linalg.norm(y)):
                return y, it
        raise InexactnessError(
            f"projected-gradient fixed point not reached in "
            f"{self.settings.cap} iterations (last step {step:.3g})",
            achieved=float(step))

    def _solve_oracle(self, sub: Subgame, mu: float) -> InnerSolution:
        gamma = self.gamma(sub)
        x_hat, its = self._fixed_point(sub, gamma)
        if mu <= self.settings.fixed_point_tol:
            return InnerSolution(x_hat, InnerCertificate("oracle", 0.0, its), x_hat)
        # replay the deterministic trajectory, stop at the first point close
        # enough to the equilibrium
        y = sub.project(sub.anchor)
        bound = float(np.linalg.norm(y - x_hat))
        replay = 0
        while bound > mu:
            y = sub.step(y, gamma)
            bound = float(np.linalg.norm(y - x_hat))
            replay += 1
            if replay > self.settings.cap:
                raise InexactnessError(
                    "replay pass failed to reach the certified tolerance",
                    achieved=bound)
        cert = InnerCertificate("oracle", bound, its + replay)
        return InnerSolution(y, cert, x_hat)

    def _solve_residual(self, sub: Subgame, mu: float) -> InnerSolution:
        """Forward-backward steps ``y+ = backward(y - gamma G(y))`` until the
        computable error bound certifies ``mu``.

        ``e = (y - y+) / gamma - G(y) + G(y+)`` lies in ``G(y+)`` plus the
        subdifferential of the backward part at ``y+``, an operator that is
        strongly monotone with modulus ``sigma = r_min``; hence
        ``|y+ - y*| <= |e| / sigma``.  The bound needs no Lipschitz
        constant, which only sets the step.  ``G(y+)`` is reused by the next
        step, so each step costs one oracle call.
        """
        if mu == 0.0:
            raise ValidationError(
                "residual mode cannot certify an exactly zero tolerance")
        gamma = self.gamma(sub)
        sigma = sub.modulus
        y = sub.project(sub.anchor)
        g = sub.smooth_gradient(y)
        bound = math.inf
        for it in range(1, self.settings.cap + 1):
            y_next = sub.backward_step(y - gamma * g, gamma)
            g_next = sub.smooth_gradient(y_next)
            bound = float(np.linalg.norm((y - y_next) / gamma - g + g_next)) / sigma
            if bound <= mu:
                return InnerSolution(
                    y_next, InnerCertificate("residual", bound, it), None)
            y, g = y_next, g_next
        raise InexactnessError(
            f"residual mode could not certify {mu:.3g} within "
            f"{self.settings.cap} iterations", achieved=bound)
