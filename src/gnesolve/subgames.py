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

from .errors import (InexactnessError, MonotonicityError, StructuralError,
                     ValidationError)
from .games import Game
from .operators import PointProducts, norm
from .params import AlgoParams


@dataclass
class Subgame:
    """Strongly monotone regularized game anchored at the current profile.

    The pseudo-gradient is ``F(y) + R (y - anchor) + shift`` over the
    original product box.  ``anchor_gradient`` is the game's smooth
    gradient at the anchor, which the residual at the anchor computed; an
    iterative solve starts at the anchor, where the subgame's ``G`` is
    ``anchor_gradient + shift`` and costs no oracle call and no ``R``
    product.  ``anchor``, ``shift`` and ``anchor_gradient`` are float
    vectors of length ``n``.
    """

    game: Game
    anchor: np.ndarray
    shift: np.ndarray
    params: AlgoParams
    anchor_gradient: np.ndarray

    def __post_init__(self):
        n = self.game.n
        shapes = (self.anchor.shape, self.shift.shape, self.anchor_gradient.shape)
        if any(shape != (n,) for shape in shapes):
            raise StructuralError(
                f"subgame anchor, shift and anchor gradient have shapes "
                f"{', '.join(map(str, shapes))}, expected ({n},)")

    def smooth_parts(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The two terms of ``G(y)``: the game's smooth gradient, and the
        proximal pull plus the price."""
        return (self.game.smooth_gradient(y),
                self.params.apply_R(y - self.anchor) + self.shift)

    def smooth_gradient(self, y: np.ndarray) -> np.ndarray:
        """Smooth part ``G`` of the subgame map: the game's smooth gradient
        plus the proximal pull and the price, in `Game.natural_step`'s
        order of operations."""
        gradient, pull = self.smooth_parts(y)
        return gradient + pull

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
    price = lam + params.apply_H(at.tracked)
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
    #: smallest ``<dG, dy> / |dy|^2 - r_min`` over the solve's steps
    #: (`monotone_ratio`); ``inf`` when no step moved
    monotonicity: float = math.inf


@dataclass(frozen=True)
class InnerSolution:
    x: np.ndarray                     # the returned subgame solution
    certificate: InnerCertificate     # its certified distance to the equilibrium


#: relative certificate at which oracle mode's reference equilibrium stops
FIXED_POINT_TOL = 1e-13
#: steps after which an iterative solve raises instead of returning uncertified
MAX_INNER_STEPS = 100_000
#: rounding allowance of the monotonicity checks, per unit of the compared
#: gradients' sizes times the distance between their points
MONOTONE_ALLOWANCE = 1e-9


def monotone_ratio(curvature: float, modulus: float, step: float,
                   terms: tuple, pair: str) -> float:
    """``curvature / step**2 - modulus`` for one pair of evaluated points a
    distance ``step`` apart, where ``curvature`` is the inner product of the
    gradient and point differences.

    A map that is strongly monotone with ``modulus`` gives
    ``curvature >= modulus step**2``.  A pair below that by more than the
    rounding allowance ``MONOTONE_ALLOWANCE step sum(|t| for t in terms)``
    raises `MonotonicityError` naming ``pair`` and both numbers; ``terms``
    are the arrays summed into the two gradients, whose sizes bound the
    rounding of their difference.  Those sizes are taken only for a pair
    below ``modulus step**2``.  Passing is evidence, not proof: only the
    pairs a run evaluates are checked.  Returns ``inf`` for a pair that did
    not move.
    """
    excess = curvature - modulus * step * step
    if excess < 0.0:
        allowance = MONOTONE_ALLOWANCE * step * sum(norm(t) for t in terms)
        if excess < -allowance:
            raise MonotonicityError(
                f"{pair} = {curvature:.6g} is below its floor "
                f"{modulus * step * step - allowance:.6g} (modulus "
                f"{modulus:.6g} times the squared step, less the rounding "
                f"allowance): the game is not monotone there")
    return excess / (step * step) if step > 0.0 else math.inf


class InnerSolver:
    """Solves regularized subgames to a certified distance bound.

    ``"exact"`` uses the game's closed-form regularized-equilibrium solver,
    bound to a run's ``R`` blocks by `bind`.
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
        # (game, params, closed-form solve bound to params.R) of one run
        self._run = (None, None, None)

    def bind(self, game: Game, params: AlgoParams) -> "InnerSolver":
        """This solver for one run of ``game`` with ``params``.  Exact mode
        binds the game's closed-form solver to the run's ``R`` blocks here,
        once, instead of at every solve; other subgames are still solved
        with their own blocks."""
        if self.mode != "exact" or game.exact_subgame_solver is None:
            return self
        bound = InnerSolver(self.mode)
        bound._run = (game, params, game.exact_subgame_solver(params.R))
        return bound

    def solve(self, sub: Subgame, mu: float) -> InnerSolution:
        if not mu >= 0.0:
            raise ValidationError(f"inner tolerance must be nonnegative, got {mu}")
        if self.mode == "exact":
            return self._solve_exact(sub)
        if self.mode == "residual":
            if mu == 0.0:
                raise ValidationError(
                    "residual mode cannot certify an exactly zero tolerance")
            for y, bound, it, ratio in _steps(sub):
                if bound <= mu:
                    return InnerSolution(y, InnerCertificate(bound, it, ratio))
            target = mu
        else:
            # keeps the first iterate certifying mu (the reference if none
            # comes before it) and bounds it by its distance to the reference
            found = None
            for y, bound, it, ratio in _steps(sub):
                if found is None and bound <= mu:
                    found = y
                if bound <= FIXED_POINT_TOL * (1.0 + np.linalg.norm(y)):
                    found = y if found is None else found
                    return InnerSolution(found, InnerCertificate(
                        float(np.linalg.norm(found - y)), it, ratio))
            target = FIXED_POINT_TOL
        raise InexactnessError(
            f"{self.mode} mode could not certify {target:.3g} "
            f"within {MAX_INNER_STEPS} iterations", achieved=bound)

    def _solve_exact(self, sub: Subgame) -> InnerSolution:
        binder = sub.game.exact_subgame_solver
        if binder is None:
            raise ValidationError(
                "exact inner mode requires a game with a closed-form "
                "regularized-equilibrium solver")
        game, params, solve = self._run
        if sub.game is not game or sub.params is not params:
            solve = binder(sub.params.R)
        x_hat = np.asarray(solve(sub.anchor, sub.shift), dtype=float)
        return InnerSolution(x_hat, InnerCertificate(0.0, 0))


def _steps(sub: Subgame):
    """Forward-backward steps ``y+ = backward(y - gamma G(y))``: yields
    ``(y+, bound, iteration, ratio)`` for each of at most `MAX_INNER_STEPS`
    steps, where ``bound`` is a computable upper bound on ``|y+ - y*|`` and
    ``ratio`` the smallest `monotone_ratio` of the steps so far.

    ``e = (y - y+) / gamma - G(y) + G(y+)`` lies in ``G(y+)`` plus the
    subdifferential of the backward part at ``y+``, an operator that is
    strongly monotone with modulus ``sigma = r_min``; hence
    ``|y+ - y*| <= |e| / sigma`` for any step ``gamma``.  ``G(y+)`` is
    reused by the next step, so each step costs one oracle call.  The
    bound holds for any ``y``, in the box or not, so the steps start at the
    anchor itself, whose ``G`` the subgame already holds: the start costs
    no oracle call and no ``R`` product.

    The bound rests on the game's smooth gradient being monotone, which
    makes ``<dG, dy> >= r_min |dy|^2`` with ``dy = y+ - y`` and
    ``dG = G(y+) - G(y)``.  Every step checks that inequality
    (`monotone_ratio`) before yielding, with a rounding allowance scaled by
    the sizes of the two terms of each ``G`` (`Subgame.smooth_parts`),
    which stay large where ``G`` itself cancels to rounding noise.

    Since no step can make the bound wrong, the step adapts freely: it
    starts at ``1 / r_max`` and after each yielded step becomes
    ``min(1.5 gamma, <dG, dy> / |dG|^2)`` (Barzilai & Borwein 1988;
    Malitsky & Mishchenko 2020), or ``1.5 gamma`` when either quantity is
    not positive.  The second term is the largest step for which the
    forward map ``y - gamma G(y)`` contracts along the last move, so it
    also shrinks on skew-dominated maps.  Nothing is carried from one solve
    to the next, so equal arguments give the same trajectory.
    """
    gamma = 1.0 / sub.params.r_max
    sigma = float(sub.params.r_min)
    y, g = sub.anchor, sub.anchor_gradient + sub.shift
    terms = (sub.anchor_gradient, sub.shift)
    ratio = math.inf
    for it in range(1, MAX_INNER_STEPS + 1):
        y_next = sub.game.backward_step(y - gamma * g, gamma)
        gradient, pull = sub.smooth_parts(y_next)
        g_next = gradient + pull
        bound = norm((y - y_next) / gamma - g + g_next) / sigma
        dy, dg = y_next - y, g_next - g
        curvature = float(dg.dot(dy))
        ratio = min(ratio, monotone_ratio(
            curvature, sigma, norm(dy), (*terms, gradient, pull),
            f"inner step {it}: <dG, dy>"))
        yield y_next, bound, it, ratio
        dg_sq = float(dg.dot(dg))
        gamma *= 1.5
        if curvature > 0.0 and dg_sq > 0.0:
            gamma = min(gamma, curvature / dg_sq)
        y, g, terms = y_next, g_next, (gradient, pull)
