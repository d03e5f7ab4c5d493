"""Step-size matrices, relaxation factor, and the inner-tolerance scale."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import StructuralError, ValidationError
from .games import Game, padded_layout
from .graphs import CommGraph

def _check_spd(stack: np.ndarray, name: str, first: int = 0) -> np.ndarray:
    """Validate a stack of symmetric positive definite blocks, block ``j``
    named ``name[first + j]``, with one batched eigendecomposition; returns
    their eigenvalues, ascending per block.  An error names the first
    failing block, and that block's first failing condition."""
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise StructuralError(
            f"{name}[{first}] must be square, got shape {stack.shape[1:]}")
    with np.errstate(invalid="ignore"):     # inf - inf in a non-finite block
        finite = np.isfinite(stack).all(axis=(1, 2))
        skew = np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
        scale = np.abs(stack).max(axis=(1, 2), initial=0.0)
    bad = ~finite | (skew > 1e-12 * (1.0 + scale))
    # the blocks before the first non-finite or asymmetric one
    good = int(np.argmax(bad)) if bad.any() else len(stack)
    head = stack[:good]
    eigs = np.linalg.eigvalsh(0.5 * (head + head.transpose(0, 2, 1)))
    indefinite = eigs[:, 0] <= 0.0
    if indefinite.any():
        j = int(np.argmax(indefinite))
        raise ValidationError(
            f"{name}[{first + j}] is not positive definite "
            f"(smallest eigenvalue {eigs[j, 0]:.3g})")
    if good < len(stack):
        condition = "is not symmetric" if finite[good] else "has non-finite entries"
        raise ValidationError(f"{name}[{first + good}] {condition}")
    return eigs


def _diagonal(stack: np.ndarray) -> np.ndarray | None:
    """The diagonals of a stack of square blocks, (count, order), if every
    block is diagonal; otherwise None."""
    diag = stack.diagonal(axis1=1, axis2=2)
    # no nonzero entry off the diagonals
    return diag.copy() if np.count_nonzero(stack) == np.count_nonzero(diag) else None


@dataclass
class AlgoParams:
    """Per-player and per-edge SPD step matrices plus the relaxation factor.

    Attributes
    ----------
    R : list of (n_i, n_i) arrays
        Proximal weights, one per player.
    H : (N, m, m) array
        Multiplier step matrices, one per player.
    W : (M, m, m) array
        Edge step matrices, one per edge.
    rho : float
        Relaxation/extrapolation factor in [1, 2).
    mu0 : float
        Scale of the inner tolerances ``mu(k) = mu0 / k^2`` at the 1-based
        outer iteration ``k``; finite and nonnegative, so they are summable
        as the inexact proximal-point proof needs.  ``0`` means exact solves.
    r_min, r_max : float
        Smallest and largest eigenvalue over the ``R`` blocks, computed
        once at construction.

    Construction also notes whether each of the ``R``, ``H`` and ``W``
    stacks is diagonal, as every shipped preset's is; a diagonal stack is
    applied as one elementwise product with its stored diagonal, which
    gives the batched product's bits, and any other through the batched
    product.
    """

    R: list
    H: np.ndarray
    W: np.ndarray
    rho: float
    mu0: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.mu0 < np.inf:
            raise ValidationError(
                f"mu0 must be finite and nonnegative, got {self.mu0}")
        self.R = [np.atleast_2d(np.asarray(Ri, dtype=float)) for Ri in self.R]
        self.H = np.asarray(self.H, dtype=float)
        self.W = np.asarray(self.W, dtype=float)
        r_eigs = [_check_spd(Ri[None], "R", i)[0] for i, Ri in enumerate(self.R)]
        self.r_min = min(e[0] for e in r_eigs)
        self.r_max = max(e[-1] for e in r_eigs)
        # blocks zero-padded to a common order, so that R v is one batched
        # product; _r_index maps profile entries into the padded layout
        dims = [Ri.shape[0] for Ri in self.R]
        order, self._r_index = padded_layout(dims)
        self._R_stack = np.zeros((len(dims), order, order))
        for Rs, Ri, d in zip(self._R_stack, self.R, dims):
            Rs[:d, :d] = Ri
        if self.H.ndim != 3 or self.H.shape[1] != self.H.shape[2]:
            raise StructuralError("H must be an (N, m, m) array")
        if self.W.ndim != 3 or self.W.shape[1] != self.W.shape[2]:
            raise StructuralError("W must be an (M, m, m) array")
        _check_spd(self.H, "H")
        _check_spd(self.W, "W")
        r_diag = _diagonal(self._R_stack)
        self._r_diag = None if r_diag is None else r_diag.reshape(-1)[self._r_index]
        self._h_diag = _diagonal(self.H)
        self._w_diag = _diagonal(self.W)
        if not (1.0 <= self.rho < 2.0):
            raise ValidationError(
                f"relaxation factor rho={self.rho} outside [1, 2)")

    # -- constructors --------------------------------------------------------

    @classmethod
    def uniform(cls, game: Game, graph: CommGraph, r: float, h: float,
                w: float, rho: float, mu0: float = 1.0) -> "AlgoParams":
        """Scalar step sizes replicated into identity blocks."""
        m = game.m
        R = [r * np.eye(p.dim) for p in game.players]
        H = np.stack([h * np.eye(m)] * game.n_players)
        W = np.stack([w * np.eye(m)] * graph.n_edges)
        return cls(R, H, W, rho, mu0)

    @classmethod
    def diagonal(cls, r_diags: Sequence[np.ndarray], h_diags: np.ndarray,
                 w_diags: np.ndarray, rho: float, mu0: float = 1.0) -> "AlgoParams":
        R = [np.diag(np.asarray(d, dtype=float)) for d in r_diags]
        H = np.stack([np.diag(np.asarray(d, dtype=float)) for d in h_diags])
        W = np.stack([np.diag(np.asarray(d, dtype=float)) for d in w_diags])
        return cls(R, H, W, rho, mu0)

    def mu(self, k: int) -> float:
        """Inner tolerance ``mu0 / k^2`` at the 1-based outer iteration ``k``."""
        return self.mu0 / float(k * k)

    # -- block applications ---------------------------------------------------

    def apply_R(self, v: np.ndarray) -> np.ndarray:
        """Blockwise product ``R v`` on a stacked profile vector whose
        player dimensions are the orders of the ``R`` blocks."""
        if self._r_diag is not None:
            return self._r_diag * v
        shape = self._R_stack.shape[:2]
        if isinstance(self._r_index, slice):    # equal orders: no padding
            return (self._R_stack @ v.reshape(*shape, 1)).reshape(-1)
        padded = np.zeros(shape)
        padded.reshape(-1)[self._r_index] = v
        return (self._R_stack @ padded[:, :, None]).reshape(-1)[self._r_index]

    def apply_H(self, rows: np.ndarray) -> np.ndarray:
        """Per-player products ``H_i rows_i`` on an (N, m) array."""
        if self._h_diag is not None:
            return self._h_diag * rows
        return (self.H @ rows[:, :, None])[:, :, 0]

    def apply_W(self, rows: np.ndarray) -> np.ndarray:
        """Per-edge products ``W_l rows_l`` on an (M, m) array."""
        if self._w_diag is not None:
            return self._w_diag * rows
        return (self.W @ rows[:, :, None])[:, :, 0]

    def r_min_eig(self) -> float:
        """Smallest eigenvalue over the ``R`` blocks; same as ``r_min``."""
        return self.r_min

    def r_max_eig(self) -> float:
        """Largest eigenvalue over the ``R`` blocks; same as ``r_max``."""
        return self.r_max

    def h_is_diagonal(self) -> bool:
        return self._h_diag is not None
