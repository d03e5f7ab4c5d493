"""Equilibrium certificates: KKT residuals and consensus metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .games import EQUALITY, Game
from .operators import norm


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
    return tuple(norm(xi - si)
                 for xi, si in zip(game.split(x), game.split(stepped)))


def kkt_residual(game: Game, x, lam, tol: float = 1e-6) -> KktReport:
    """Shared-multiplier optimality certificate for the game's coupling.

    ``lam`` is one multiplier of length m, or the (N, m) stack of local
    multipliers, which is then averaged with its consensus error recorded
    (the substitution error is bounded by the consensus error).
    Stationarity is the projected natural-map residual per player.
    Feasibility is the norm of the coupling gap, of its positive part for
    inequality coupling, which adds the complementarity residual
    ``|| min(lam, -gap) ||``: it vanishes exactly when the multiplier is
    supported on active rows and the constraint holds.  There the average
    of a local stack is clipped at zero, since relaxation overshoot may
    leave tiny negative entries in it; a single shared multiplier must be
    nonnegative.  ``is_variational`` is true when every component is
    below ``tol``.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    local = lam.ndim == 2
    shared = lam.mean(axis=0) if local else lam
    consensus = consensus_error(lam) if local else 0.0
    gap = game.coupling_gap(x)
    if game.kind == EQUALITY:
        feasibility = norm(gap)
        complementarity = None
    else:
        if local:
            shared = np.maximum(shared, 0.0)
        if shared.min() < 0:
            raise ValidationError("the shared multiplier must be nonnegative")
        feasibility = norm(np.maximum(gap, 0.0))
        complementarity = norm(np.minimum(shared, -gap))
    stationarity = _stationarity_blocks(game, x, shared)
    ok = (all(s <= tol for s in stationarity) and feasibility <= tol
          and consensus <= tol
          and (complementarity is None or complementarity <= tol))
    return KktReport(stationarity, feasibility, consensus, complementarity, ok)


def consensus_error(lam: np.ndarray) -> float:
    """Largest distance of any local multiplier from the average.

    Each squared distance is a stacked ``1 x m`` by ``m x 1`` product, the
    dot kernel `np.linalg.norm` uses on one row, so the value is the same
    to the last bit as the row-by-row norm (``sqrt`` is monotone).
    """
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    d = lam - lam.mean(axis=0)
    return float(np.sqrt(np.max(d[:, None, :] @ d[:, :, None])))
