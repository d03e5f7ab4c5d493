"""Step sizes, relaxation factor, and the inner-tolerance scale."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import StructuralError, ValidationError
from .games import Game
from .graphs import CommGraph


def _check_positive(values: np.ndarray, name: str) -> None:
    """Every entry of a step-size array must be finite and positive, which
    makes each diagonal step matrix positive definite.  An error names the
    first failing entry in row-major order, and its value."""
    failing = ~((values > 0.0) & (values < np.inf))     # nan compares False
    if not failing.any():
        return
    index = np.unravel_index(np.argmax(failing), values.shape)
    raise ValidationError(
        f"{name}[{', '.join(map(str, index))}] = {values[index]:.3g} "
        f"is not a finite positive step size")


@dataclass
class AlgoParams:
    """Per-player and per-edge diagonal step sizes plus the relaxation factor.

    Each step matrix is diagonal and is stored as its diagonal: player
    ``i``'s ``R_i`` is ``diag`` of its slice of ``R``, ``H_i = diag(H[i])``
    and edge ``l``'s ``W_l = diag(W[l])``.

    Attributes
    ----------
    R : (n,) array
        Proximal weights in profile order.
    H : (N, m) array
        Multiplier step sizes, one row per player.
    W : (M, m) array
        Edge step sizes, one row per edge.
    rho : float
        Relaxation/extrapolation factor in [1, 2).
    mu0 : float
        Scale of the inner tolerances ``mu(k) = mu0 / k^2`` at the 1-based
        outer iteration ``k``; finite and nonnegative, so they are summable
        as the inexact proximal-point proof needs.  ``0`` means exact solves.
    r_min, r_max : float
        Smallest and largest entry of ``R``, the extreme eigenvalues of the
        ``R_i``.

    Every entry must be finite and positive; an error names the first
    failing entry and its value (``R[j]``, ``H[i, a]`` or ``W[l, a]``).
    """

    R: np.ndarray
    H: np.ndarray
    W: np.ndarray
    rho: float
    mu0: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.mu0 < np.inf:
            raise ValidationError(
                f"mu0 must be finite and nonnegative, got {self.mu0}")
        # private read-only copies: the checks below hold for the run
        self.R, self.H, self.W = (np.array(a, dtype=float)
                                  for a in (self.R, self.H, self.W))
        for a in (self.R, self.H, self.W):
            a.flags.writeable = False
        if self.R.ndim != 1:
            raise StructuralError(f"R must be an (n,) array, got shape {self.R.shape}")
        _check_positive(self.R, "R")
        for name, rows in (("H", self.H), ("W", self.W)):
            if rows.ndim != 2:
                raise StructuralError(f"{name} must be a 2-D array of rows, "
                                      f"got shape {rows.shape}")
            _check_positive(rows, name)
        self.r_min = float(self.R.min())
        self.r_max = float(self.R.max())
        if not (1.0 <= self.rho < 2.0):
            raise ValidationError(
                f"relaxation factor rho={self.rho} outside [1, 2)")

    # -- constructors --------------------------------------------------------

    @classmethod
    def uniform(cls, game: Game, graph: CommGraph, r: float, h: float,
                w: float, rho: float, mu0: float = 1.0) -> "AlgoParams":
        """Scalar step sizes replicated over every entry."""
        return cls(np.full(game.n, r), np.full((game.n_players, game.m), h),
                   np.full((graph.n_edges, game.m), w), rho, mu0)

    @classmethod
    def diagonal(cls, r_diags: Sequence[np.ndarray], h_diags: np.ndarray,
                 w_diags: np.ndarray, rho: float, mu0: float = 1.0) -> "AlgoParams":
        """Step sizes from the per-player ``R_i`` diagonals, in player order,
        and the ``H`` and ``W`` rows."""
        return cls(np.concatenate(r_diags), h_diags, w_diags, rho, mu0)

    def mu(self, k: int) -> float:
        """Inner tolerance ``mu0 / k^2`` at the 1-based outer iteration ``k``."""
        return self.mu0 / float(k * k)

    # -- products with the step matrices -------------------------------------

    def apply_R(self, v: np.ndarray) -> np.ndarray:
        """Per-call form for `perfbench/spans.py`; a run binds its closure
        once.  Product ``R v`` on a stacked profile vector."""
        return self.R * v

    def apply_H(self, rows: np.ndarray) -> np.ndarray:
        """Per-player products ``H_i rows_i`` on an (N, m) array."""
        return self.H * rows

    def apply_W(self, rows: np.ndarray) -> np.ndarray:
        """Per-edge products ``W_l rows_l`` on an (M, m) array."""
        return self.W * rows

    def r_min_eig(self) -> float:
        """Smallest eigenvalue of the diagonal ``R``; same as ``r_min``."""
        return self.r_min

    def r_max_eig(self) -> float:
        """Largest eigenvalue of the diagonal ``R``; same as ``r_max``."""
        return self.r_max
