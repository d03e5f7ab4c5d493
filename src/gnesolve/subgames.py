"""Regularized subgames and their inexact solution with certified accuracy.

Every outer iteration solves a subgame whose pseudo-gradient is the base
game's plus a proximal pull toward the current profile and a per-player
linear price term.  The proximal weights make the subgame strongly
monotone, so its equilibrium exists, is unique, and can be approximated
with a certified distance bound.  A run binds its solve once
(`InnerSolver.bind`) and hands it the subgame's arrays; `Subgame` holds them
as one checked object for the public maps and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
    gradient at the anchor, which the residual at the anchor computed, so
    the subgame's ``G`` at the anchor is ``anchor_gradient + shift`` and
    costs no oracle call and no ``R`` product.  ``history`` holds up to two
    ``(dx, dF)`` pairs, newest first: the outer steps that led to the
    anchor and the changes of the game's smooth gradient along them, the
    newest ``(anchor - x_prev, anchor_gradient - F(x_prev))``; from two, an
    iterative solve predicts its first step (`_steps`).  ``anchor``,
    ``shift``, ``anchor_gradient`` and the history's arrays are float
    vectors of length ``n``.
    """

    game: Game
    anchor: np.ndarray
    shift: np.ndarray
    params: AlgoParams
    anchor_gradient: np.ndarray
    history: tuple = ()

    def __post_init__(self):
        n = self.game.n
        if len(self.history) > 2:
            raise StructuralError(f"subgame history has {len(self.history)} "
                                  f"(dx, dF) pairs, at most 2 allowed")
        # compared directly: the list of shapes only words the error
        fits = (self.anchor.shape == self.shift.shape
                == self.anchor_gradient.shape == (n,))
        for dx, dF in self.history:
            fits = fits and dx.shape == dF.shape == (n,)
        if not fits:
            shapes = [self.anchor.shape, self.shift.shape, self.anchor_gradient.shape]
            for dx, dF in self.history:
                shapes += dx.shape, dF.shape
            raise StructuralError(
                f"subgame anchor, shift, anchor gradient and history have "
                f"shapes {', '.join(map(str, shapes))}, expected ({n},)")

    def smooth_gradient(self, y: np.ndarray) -> np.ndarray:
        """Smooth part ``G`` of the subgame map: the game's smooth gradient
        plus the proximal pull and the price, in `Game.natural_step`'s
        order of operations."""
        return (self.game._gradient_map()(y)
                + (self.params.apply_R(y - self.anchor) + self.shift))

    def step(self, y: np.ndarray, gamma: float) -> np.ndarray:
        """Forward-backward step whose fixed points are the equilibrium."""
        return self.game.backward_step(y - gamma * self.smooth_gradient(y), gamma)


def equality_subgame(game: Game, params: AlgoParams, x, lam,
                     at: PointProducts, history: tuple = ()) -> Subgame:
    """Per-call form for `perfbench/spans.py`; a run binds its closure once.
    The equality subgame at the state with residual products ``at`` and
    outer trajectory ``history``, priced as `admm.admm_sweep` prices it."""
    return Subgame(game, x, game._price_gradient(lam + params.H * at.tracked),
                   params, at.gradient, history)


def inequality_subgame(game: Game, params: AlgoParams, x,
                       at: PointProducts, history: tuple = ()) -> Subgame:
    """Per-call form for `perfbench/spans.py`; a run binds its closure once.
    The inequality subgame at the state with residual products ``at`` and
    outer trajectory ``history``, priced by ``at.price_gradient``."""
    return Subgame(game, x, at.price_gradient, params, at.gradient, history)


class InnerCertificate(NamedTuple):
    bound: float       # certified upper bound on the distance to the equilibrium
    iterations: int
    #: smallest ``<dG, dy> / |dy|^2 - r_min`` over the solve's steps
    #: (`monotone_ratio`); ``inf`` when no step moved
    monotonicity: float = math.inf


#: the certificate of every exact solve
EXACT_CERTIFICATE = InnerCertificate(0.0, 0)


class InnerSolution(NamedTuple):
    x: np.ndarray                     # the returned subgame solution
    certificate: InnerCertificate     # its certified distance to the equilibrium


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

    ``"exact"`` uses the game's closed-form regularized-equilibrium solver;
    `bind` refuses a game without one.
    ``"residual"`` (the default) runs forward-backward steps (`_steps`) and
    stops at the first iterate whose computable error bound
    ``|(y - y+)/gamma - G(y) + G(y+)| / r_min`` certifies the tolerance; the
    bound follows from strong monotonicity alone.

    Either mode's solve of one run's subgames is a closure over that run's
    game and step sizes (`_SOLVES`): `bind` returns it for the run's sweep
    to call on a subgame's arrays, and `solve` binds one for a `Subgame`
    on any tolerance schedule.
    """

    def __init__(self, mode: str = "residual"):
        if mode not in _SOLVES:
            raise ValidationError(f"unknown inner mode {mode!r}")
        self.mode = mode

    def bind(self, game: Game, params: AlgoParams):
        """The solve ``(anchor, shift, anchor_gradient, history, mu) ->
        InnerSolution`` of one run's subgames of ``game`` with ``params``,
        on a `Subgame`'s arrays, whose shapes the run fixed.  Raises
        `ValidationError` if the mode cannot solve them: exact mode needs
        the game's closed-form solver, residual mode a positive tolerance
        scale ``params.mu0``."""
        if self.mode == "residual" and params.mu0 == 0.0:
            raise ValidationError(
                "a zero tolerance schedule (params.mu = exact, or params.mu0 "
                "= 0) needs inner.mode = exact: residual mode cannot "
                "certify an exactly zero tolerance")
        return _SOLVES[self.mode](game, params)

    def solve(self, sub: Subgame, mu: float) -> InnerSolution:
        """Per-call form for `perfbench/spans.py`; a run binds its closure
        once (`bind`)."""
        return _SOLVES[self.mode](sub.game, sub.params)(
            sub.anchor, sub.shift, sub.anchor_gradient, sub.history, mu)


def _exact_solve(game: Game, params: AlgoParams):
    """Exact mode's solve ``(anchor, shift, anchor_gradient, history, mu)``
    of the subgames of ``game`` with ``params``: the closed-form solver,
    bound to ``params.R`` here, whose every output must have the anchor's
    shape (n,)."""
    if game.exact_subgame_solver is None:
        raise ValidationError(
            "exact inner mode requires a game with a closed-form "
            "regularized-equilibrium solver (the quadratic games)")
    closed_form = game.exact_subgame_solver(params.R)
    shape = (game.n,)

    def solve(anchor, shift, anchor_gradient, history, mu):
        if not mu >= 0.0:
            raise ValidationError(f"inner tolerance must be nonnegative, got {mu}")
        x_hat = np.asarray(closed_form(anchor, shift), dtype=float)
        if x_hat.shape != shape:
            raise StructuralError(
                f"closed-form subgame solver returned shape "
                f"{x_hat.shape}, expected {shape}")
        return InnerSolution(x_hat, EXACT_CERTIFICATE)
    return solve


def _residual_solve(game: Game, params: AlgoParams):
    """Residual mode's solve ``(anchor, shift, anchor_gradient, history,
    mu)`` of the subgames of ``game`` with ``params``: the first step of
    `_steps` whose bound is at most ``mu``."""
    steps = _steps(game, params)

    def solve(anchor, shift, anchor_gradient, history, mu):
        if not mu >= 0.0:
            raise ValidationError(f"inner tolerance must be nonnegative, got {mu}")
        if mu == 0.0:
            raise ValidationError(
                "residual mode cannot certify an exactly zero tolerance")
        for y, bound, it, ratio in steps(anchor, shift, anchor_gradient,
                                         history):
            if bound <= mu:
                return InnerSolution(y, InnerCertificate(bound, it, ratio))
        raise InexactnessError(
            f"residual mode could not certify {mu:.3g} within "
            f"{MAX_INNER_STEPS} iterations (last bound {bound:.3g})",
            achieved=bound)
    return solve


#: each inner mode's solve, bound to one run's game and step sizes
_SOLVES = {"exact": _exact_solve, "residual": _residual_solve}


def _steps(game: Game, params: AlgoParams):
    """Forward-backward steps ``y+ = backward(y - gamma G(y))`` on the
    subgames of ``game`` with ``params``, bound once:
    ``steps(anchor, shift, anchor_gradient, history)`` yields
    ``(y+, bound, iteration, ratio)`` for each of at most `MAX_INNER_STEPS`
    steps of the subgame of those arrays (`Subgame`), where ``bound`` is a
    computable upper bound on ``|y+ - y*|`` and ``ratio`` the smallest
    `monotone_ratio` of the steps so far.

    ``e = (y - y+) / gamma - G(y) + G(y+)`` lies in ``G(y+)`` plus the
    subdifferential of the backward part at ``y+``, an operator that is
    strongly monotone with modulus ``sigma = r_min``; hence
    ``|y+ - y*| <= |e| / sigma`` for any step ``gamma``.  ``G(y+)`` is
    reused by the next step, so each step costs one oracle call.

    The first step costs no more.  ``y+ = prox(v)`` puts
    ``(v - y+) / gamma`` in the subdifferential of the backward part at
    ``y+`` for any forward point ``v``, so the bound holds with any pair
    ``(y0, g0)`` in place of ``(y, G(y))`` in ``v = y0 - gamma g0`` and in
    ``e``, and ``G(y0)`` is never evaluated.  With fewer than two pairs of
    history the first step starts at the anchor, whose ``G`` the subgame
    holds.  With the differences ``D_k = x_k - x_{k-1}``,
    ``E_k = F_k - F_{k-1}`` and ``D_{k-1}``, ``E_{k-1}`` of the outer
    trajectory up to the anchor ``x_k`` (`Subgame.history`), it starts from
    a second-order prediction of the subgame solution.  The relaxed outer
    step ``x_{k+1} - x_k`` is ``rho`` times the move from the anchor to the
    solution, so the predicted move is ``d = (2 D_k - D_{k-1}) / rho``, the
    predicted gradient change ``dF = (2 E_k - E_{k-1}) / rho``, and
    ``y0 = anchor + d``, ``g0 = G(anchor) + dF + R d``.  Each player's
    block of the prediction reads only that player's own decisions and
    gradient block, so the solve stays center-free.

    The bound rests on the game's smooth gradient being monotone, which
    makes ``<dG, dy> >= r_min |dy|^2`` with ``dy = y+ - y`` and
    ``dG = G(y+) - G(y)``.  Every step checks that inequality
    (`monotone_ratio`) before yielding, with a rounding allowance scaled by
    the sizes of the two terms of each ``G``, the game's smooth gradient
    and the proximal pull plus the price, which stay large where ``G``
    itself cancels to rounding noise.  Only exactly evaluated pairs are
    checked: the first step's pair is the anchor and ``y+``, never the
    prediction.

    Since no step can make the bound wrong, the step adapts freely: it
    starts at ``1 / r_max`` and after each yielded step becomes
    ``min(1.5 gamma, <dG, dy> / |dG|^2)`` (Barzilai & Borwein 1988;
    Malitsky & Mishchenko 2020), or ``1.5 gamma`` when either quantity is
    not positive, again from the exactly evaluated pair.  The second term
    is the largest step for which the forward map ``y - gamma G(y)``
    contracts along the last move, so it also shrinks on skew-dominated
    maps.  The trajectory depends on the subgame alone, history included,
    so equal arguments give the same trajectory.
    """
    gradient_of, backward = game._gradient_map(), game._backward_map()
    R, rho = params.R, params.rho
    gamma_start, sigma = 1.0 / params.r_max, float(params.r_min)

    def steps(anchor, shift, anchor_gradient, history):
        gamma = gamma_start
        y, g = anchor, anchor_gradient + shift
        terms = (anchor_gradient, shift)
        y0, g0 = y, g
        if len(history) == 2:
            (D1, E1), (D2, E2) = history
            d = (2.0 * D1 - D2) / rho
            dF = (2.0 * E1 - E2) / rho
            y0, g0 = y + d, g + dF + R * d
        ratio = math.inf
        for it in range(1, MAX_INNER_STEPS + 1):
            y_next = backward(y0 - gamma * g0, gamma)
            gradient = gradient_of(y_next)
            pull = R * (y_next - anchor) + shift
            g_next = gradient + pull
            bound = norm((y0 - y_next) / gamma - g0 + g_next) / sigma
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
            y0, g0 = y, g
    return steps
