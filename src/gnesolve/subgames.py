"""Regularized subgames and their inexact solution with certified accuracy.

Every outer iteration builds a subgame whose pseudo-gradient is the base
game's plus a proximal pull toward the current profile and a per-player
linear price term.  The proximal weights make the subgame strongly
monotone, so its equilibrium exists, is unique, and can be approximated
with a certified distance bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InexactnessError, StructuralError, ValidationError
from .games import Game, as_vector
from .operators import PointProducts
from .params import AlgoParams


@dataclass
class Subgame:
    """Strongly monotone regularized game anchored at the current profile.

    The pseudo-gradient is ``F(y) + R (y - anchor) + shift`` over the
    original product box.  ``anchor_gradient`` is the game's smooth
    gradient at the anchor, which the residual at the anchor computed; an
    iterative solve starts at the anchor, where the subgame's ``G`` is
    ``anchor_gradient + shift`` and costs no oracle call and no ``R``
    product.
    """

    game: Game
    anchor: np.ndarray
    shift: np.ndarray
    params: AlgoParams
    anchor_gradient: np.ndarray

    def __post_init__(self):
        self.anchor = as_vector(self.anchor)
        self.shift = as_vector(self.shift)
        self.anchor_gradient = as_vector(self.anchor_gradient)
        n = self.game.n
        shapes = (self.anchor.shape, self.shift.shape, self.anchor_gradient.shape)
        if any(shape != (n,) for shape in shapes):
            raise StructuralError(
                f"subgame anchor, shift and anchor gradient have shapes "
                f"{', '.join(map(str, shapes))}, expected ({n},)")

    def smooth_gradient(self, y: np.ndarray) -> np.ndarray:
        """Smooth part ``G`` of the subgame map: the game's smooth gradient
        plus the proximal pull and the price, in `Game.natural_step`'s
        order of operations."""
        return self.game.smooth_gradient(y) + (
            self.params.apply_R(y - self.anchor) + self.shift)

    def step(self, y: np.ndarray, gamma: float) -> np.ndarray:
        """Forward-backward step whose fixed points are the equilibrium."""
        return self.game.backward_step(y - gamma * self.smooth_gradient(y), gamma)


def equality_subgame(game: Game, params: AlgoParams, x, lam,
                     at: PointProducts) -> Subgame:
    """Subgame of the equality algorithm at the state whose residual
    products are ``at``.

    The price of player ``i`` is its multiplier plus ``H_i`` times the
    locally tracked constraint residual ``A_i x_i + (V Z)_i - b_i``
    (``at.tracked``), pulled back through ``A_i^T``.
    """
    price = np.asarray(lam, dtype=float) + params.apply_H(at.tracked)
    return Subgame(game, x, game.price_gradient(price), params, at.gradient)


def inequality_subgame(game: Game, params: AlgoParams, x,
                       at: PointProducts) -> Subgame:
    """Subgame of the inequality algorithm at the state whose residual
    products are ``at``: the price is the bare multiplier's,
    ``at.price_gradient``."""
    return Subgame(game, x, at.price_gradient, params, at.gradient)


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
#: steps after which an iterative solve raises instead of returning uncertified
MAX_INNER_STEPS = 100_000


class InnerSolver:
    """Solves regularized subgames to a certified distance bound.

    ``"exact"`` uses the game's closed-form regularized-equilibrium solver.
    ``"residual"`` (the default) runs forward-backward steps (`_steps`) and
    stops at the first iterate whose computable error bound
    ``|(y - y+)/gamma - G(y) + G(y+)| / r_min`` certifies the tolerance; the
    bound follows from strong monotonicity alone.  ``"oracle"`` runs the
    same steps on to a machine-precision reference equilibrium, keeping on
    the way the iterate residual mode returns, and returns that iterate with
    its true distance to the reference as the bound; at ``mu = 0`` it
    returns the reference itself, ``solve(sub, 0.0).x``, which the tests
    compare against.
    """

    def __init__(self, mode: str = "residual"):
        if mode not in ("exact", "oracle", "residual"):
            raise ValidationError(f"unknown inner mode {mode!r}")
        self.mode = mode

    def solve(self, sub: Subgame, mu: float) -> InnerSolution:
        if not mu >= 0.0:
            raise ValidationError(f"inner tolerance must be nonnegative, got {mu}")
        if self.mode == "exact":
            return self._solve_exact(sub)
        if self.mode == "residual":
            if mu == 0.0:
                raise ValidationError(
                    "residual mode cannot certify an exactly zero tolerance")
            for y, bound, it in _steps(sub):
                if bound <= mu:
                    return InnerSolution(y, InnerCertificate(bound, it))
            target = mu
        else:
            # keeps the first iterate certifying mu (the reference if none
            # comes before it) and bounds it by its distance to the reference
            found = None
            for y, bound, it in _steps(sub):
                if found is None and bound <= mu:
                    found = y
                if bound <= FIXED_POINT_TOL * (1.0 + np.linalg.norm(y)):
                    found = y if found is None else found
                    return InnerSolution(found, InnerCertificate(
                        float(np.linalg.norm(found - y)), it))
            target = FIXED_POINT_TOL
        raise InexactnessError(
            f"{self.mode} mode could not certify {target:.3g} "
            f"within {MAX_INNER_STEPS} iterations", achieved=bound)

    def _solve_exact(self, sub: Subgame) -> InnerSolution:
        solver = sub.game.exact_subgame_solver
        if solver is None:
            raise ValidationError(
                "exact inner mode requires a game with a closed-form "
                "regularized-equilibrium solver")
        x_hat = np.asarray(solver(sub.anchor, sub.shift, sub.params.R), dtype=float)
        return InnerSolution(x_hat, InnerCertificate(0.0, 0))


def _steps(sub: Subgame):
    """Forward-backward steps ``y+ = backward(y - gamma G(y))``: yields
    ``(y+, bound, iteration)`` for each of at most `MAX_INNER_STEPS` steps,
    where ``bound`` is a computable upper bound on ``|y+ - y*|``.

    ``e = (y - y+) / gamma - G(y) + G(y+)`` lies in ``G(y+)`` plus the
    subdifferential of the backward part at ``y+``, an operator that is
    strongly monotone with modulus ``sigma = r_min``; hence
    ``|y+ - y*| <= |e| / sigma`` for any step ``gamma``.  ``G(y+)`` is
    reused by the next step, so each step costs one oracle call.  The
    bound holds for any ``y``, in the box or not, so the steps start at the
    anchor itself, whose ``G`` the subgame already holds: the start costs
    no oracle call and no ``R`` product.

    Since no step can make the bound wrong, the step adapts freely: it
    starts at ``1 / r_max`` and after each yielded step becomes
    ``min(1.5 gamma, <dG, dy> / |dG|^2)`` with ``dy = y+ - y`` and
    ``dG = G(y+) - G(y)`` (Barzilai & Borwein 1988; Malitsky & Mishchenko
    2020), or ``1.5 gamma`` when either quantity is not positive.  The
    second term is the largest step for which the forward map
    ``y - gamma G(y)`` contracts along the last move, so it also shrinks on
    skew-dominated maps.  Nothing is carried from one solve to the next, so
    equal arguments give the same trajectory.
    """
    gamma = 1.0 / sub.params.r_max
    sigma = sub.params.r_min
    y, g = sub.anchor, sub.anchor_gradient + sub.shift
    for it in range(1, MAX_INNER_STEPS + 1):
        y_next = sub.game.backward_step(y - gamma * g, gamma)
        g_next = sub.smooth_gradient(y_next)
        yield (y_next,
               float(np.linalg.norm((y - y_next) / gamma - g + g_next)) / sigma,
               it)
        dy, dg = y_next - y, g_next - g
        curvature, dg_sq = float(dg @ dy), float(dg @ dg)
        gamma *= 1.5
        if curvature > 0.0 and dg_sq > 0.0:
            gamma = min(gamma, curvature / dg_sq)
        y, g = y_next, g_next
