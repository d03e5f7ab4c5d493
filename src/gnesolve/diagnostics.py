"""Equilibrium certificates: KKT residuals, consensus metrics, and
trajectory-level monotone-distance checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .games import EQUALITY, Game, as_vector


@dataclass(frozen=True)
class KktReport:
    stationarity_per_player: tuple
    feasibility: float
    consensus: float
    complementarity: float | None
    is_variational: bool

    def worst(self) -> float:
        values = [max(self.stationarity_per_player), self.feasibility,
                  self.consensus]
        if self.complementarity is not None:
            values.append(self.complementarity)
        return max(values)


def _stationarity_blocks(game: Game, x: np.ndarray, lam: np.ndarray) -> tuple:
    """Natural-map residual per player for one shared multiplier."""
    price = game.price_gradient(np.broadcast_to(lam, (game.n_players, game.m)))
    stepped = game.natural_step(x, price)
    return tuple(
        float(np.linalg.norm(xi - si))
        for xi, si in zip(game.split(x), game.split(stepped)))


def _shared_multiplier(lam) -> tuple[np.ndarray, float]:
    """Accept one shared multiplier (length m) or a stack of local ones
    (N, m); local stacks are averaged and their consensus error reported."""
    lam = np.asarray(lam, dtype=float)
    if lam.ndim == 2:
        return lam.mean(axis=0), consensus_error(lam)
    return lam, 0.0


def kkt_residual_equality(game: Game, x, lam, tol: float = 1e-6) -> KktReport:
    """Shared-multiplier optimality certificate for equality coupling.

    ``lam`` is one multiplier of length m, or the (N, m) stack of local
    multipliers, which is then averaged with its consensus error recorded
    (the substitution error is bounded by the consensus error).
    Stationarity is the projected natural-map residual per player;
    feasibility is the norm of the coupling gap.  ``is_variational`` is true
    when every component is below ``tol``.
    """
    x = as_vector(x)
    shared, consensus = _shared_multiplier(lam)
    stationarity = _stationarity_blocks(game, x, shared)
    feasibility = float(np.linalg.norm(game.coupling_gap(x)))
    ok = (max(stationarity) <= tol and feasibility <= tol
          and consensus <= tol)
    return KktReport(stationarity, feasibility, consensus, None, ok)


def kkt_residual_inequality(game: Game, x, lam, tol: float = 1e-6) -> KktReport:
    """Shared-multiplier optimality certificate for inequality coupling.

    Adds the complementarity residual ``|| min(lam, -gap) ||`` which
    vanishes exactly when the multiplier is supported on active rows and the
    constraint holds.  The average of an (N, m) stack of local multipliers
    is clipped at zero, since relaxation overshoot may leave tiny negative
    entries in it; a single shared multiplier must be nonnegative.
    """
    x = as_vector(x)
    shared, consensus = _shared_multiplier(lam)
    if np.ndim(lam) == 2:
        shared = np.maximum(shared, 0.0)
    if shared.min() < 0:
        raise ValidationError("the shared multiplier must be nonnegative")
    stationarity = _stationarity_blocks(game, x, shared)
    gap = game.coupling_gap(x)
    feasibility = float(np.linalg.norm(np.maximum(gap, 0.0)))
    complementarity = float(np.linalg.norm(np.minimum(shared, -gap)))
    ok = (max(stationarity) <= tol and feasibility <= tol
          and complementarity <= tol and consensus <= tol)
    return KktReport(stationarity, feasibility, consensus, complementarity, ok)


def kkt_residual(game: Game, x, lam: np.ndarray, tol: float = 1e-6) -> KktReport:
    if game.kind == EQUALITY:
        return kkt_residual_equality(game, x, lam, tol)
    return kkt_residual_inequality(game, x, lam, tol)


def consensus_error(lam: np.ndarray) -> float:
    """Largest distance of any local multiplier from the average.

    Each squared distance is a stacked ``1 x m`` by ``m x 1`` product, the
    dot kernel `np.linalg.norm` uses on one row, so the value is the same
    to the last bit as the row-by-row norm (``sqrt`` is monotone).
    """
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    d = lam - lam.mean(axis=0)
    return float(np.sqrt(np.max(d[:, None, :] @ d[:, :, None])))


@dataclass(frozen=True)
class FejerReport:
    monotone: bool
    worst_violation: float


def fejer_check(history, phi: np.ndarray, w_star: np.ndarray,
                slack: float = 1e-10) -> FejerReport:
    """Check that the preconditioner-weighted distance to a known zero never
    increases along a trajectory of exact relaxed resolvent steps.

    ``history`` is a sequence of stacked iterates; ``phi`` the dense
    preconditioner; ``w_star`` any zero of the operator.
    """
    w_star = np.asarray(w_star, dtype=float)
    worst = 0.0
    previous = None
    for w in history:
        diff = np.asarray(w, dtype=float) - w_star
        dist = float(np.sqrt(diff @ (phi @ diff)))
        if previous is not None:
            worst = max(worst, dist - previous)
        previous = dist
    return FejerReport(worst <= slack, worst)
