"""Step sizes, relaxation factor, and the inner-tolerance scale."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import StructuralError, ValidationError
from .games import Game
from .graphs import CommGraph


def _check_positive(values: np.ndarray, name: str, starts: Sequence[int]) -> None:
    """Every entry of a flattened step-size array must be finite and
    positive, which makes each diagonal step matrix positive definite;
    block ``i`` of ``name`` runs from ``starts[i]`` to the next start.  An
    error names the first failing block, and that block's first failing
    condition."""
    failing = ~((values > 0.0) & (values < np.inf))     # nan compares False
    if not failing.any():
        return
    i = int(np.searchsorted(starts, np.argmax(failing), side="right")) - 1
    block = np.split(values, starts[1:])[i]
    if not np.isfinite(block).all():
        raise ValidationError(f"{name}[{i}] has non-finite entries")
    raise ValidationError(f"{name}[{i}] is not positive definite "
                          f"(smallest eigenvalue {block.min():.3g})")


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
    dims : tuple of int, optional
        Orders of the players' ``R_i``: errors name the blocks of ``R`` by
        them, and the validators match them against the game's; by default
        each entry of ``R`` is one block.
    r_min, r_max : float
        Smallest and largest entry of ``R``, the extreme eigenvalues of the
        ``R_i``.

    Every entry must be finite and positive; an error names the first
    failing block (``R[i]``, ``H[i]`` or ``W[l]``).
    """

    R: np.ndarray
    H: np.ndarray
    W: np.ndarray
    rho: float
    mu0: float = 1.0
    dims: Sequence[int] | None = None

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
        self.dims = (1,) * self.R.size if self.dims is None else tuple(self.dims)
        if sum(self.dims) != self.R.size:
            raise StructuralError(f"R has {self.R.size} entries but its block "
                                  f"orders {self.dims} sum to {sum(self.dims)}")
        _check_positive(self.R, "R", np.cumsum((0,) + self.dims[:-1]))
        for name, rows in (("H", self.H), ("W", self.W)):
            if rows.ndim != 2:
                raise StructuralError(f"{name} must be a 2-D array of rows, "
                                      f"got shape {rows.shape}")
            _check_positive(rows.ravel(), name, np.arange(len(rows)) * rows.shape[1])
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
                   np.full((graph.n_edges, game.m), w), rho, mu0, game.dims)

    @classmethod
    def diagonal(cls, r_diags: Sequence[np.ndarray], h_diags: np.ndarray,
                 w_diags: np.ndarray, rho: float, mu0: float = 1.0) -> "AlgoParams":
        """Step sizes from the per-player ``R_i`` diagonals, in player order,
        and the ``H`` and ``W`` rows."""
        return cls(np.concatenate(r_diags), h_diags, w_diags, rho, mu0,
                   [np.size(d) for d in r_diags])

    def mu(self, k: int) -> float:
        """Inner tolerance ``mu0 / k^2`` at the 1-based outer iteration ``k``."""
        return self.mu0 / float(k * k)

    # -- block applications ---------------------------------------------------

    def apply_R(self, v: np.ndarray) -> np.ndarray:
        """Blockwise product ``R v`` on a stacked profile vector."""
        return self.R * v

    def apply_H(self, rows: np.ndarray) -> np.ndarray:
        """Per-player products ``H_i rows_i`` on an (N, m) array."""
        return self.H * rows

    def apply_W(self, rows: np.ndarray) -> np.ndarray:
        """Per-edge products ``W_l rows_l`` on an (M, m) array."""
        return self.W * rows

    def r_min_eig(self) -> float:
        """Smallest eigenvalue over the ``R`` blocks; same as ``r_min``."""
        return self.r_min

    def r_max_eig(self) -> float:
        """Largest eigenvalue over the ``R`` blocks; same as ``r_max``."""
        return self.r_max
