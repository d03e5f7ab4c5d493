"""Step-size matrices, relaxation factor, and inner-tolerance schedules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import StructuralError, ValidationError
from .games import Game, padded_layout
from .graphs import CommGraph

MuSchedule = Callable[[int], float]


def inverse_square(mu0: float = 1.0) -> MuSchedule:
    """Summable inner-tolerance schedule ``mu_k = mu0 / k^2`` (k >= 1)."""
    def mu(k: int) -> float:
        return mu0 / float(k * k)
    mu.description = f"{mu0}/k^2"
    return mu


def exact_schedule() -> MuSchedule:
    """Tolerance identically zero: subgames solved to machine precision."""
    def mu(k: int) -> float:
        return 0.0
    mu.description = "0"
    return mu


def _check_spd(M: np.ndarray, name: str) -> np.ndarray:
    """Validate a symmetric positive definite block; returns its eigenvalues."""
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise StructuralError(f"{name} must be square, got shape {M.shape}")
    if not np.array_equal(M, M.T):
        if np.abs(M - M.T).max() > 1e-12 * (1.0 + np.abs(M).max()):
            raise ValidationError(f"{name} is not symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
    if eigs[0] <= 0.0:
        raise ValidationError(
            f"{name} is not positive definite (smallest eigenvalue {eigs[0]:.3g})")
    return eigs


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
    mu : callable
        Inner-solve tolerance schedule evaluated at the 1-based outer
        iteration index; must be nonnegative and summable.
    r_min, r_max : float
        Smallest and largest eigenvalue over the ``R`` blocks, computed
        once at construction.
    """

    R: list
    H: np.ndarray
    W: np.ndarray
    rho: float
    mu: MuSchedule = field(default_factory=inverse_square)

    def __post_init__(self):
        self.R = [np.atleast_2d(np.asarray(Ri, dtype=float)) for Ri in self.R]
        self.H = np.asarray(self.H, dtype=float)
        self.W = np.asarray(self.W, dtype=float)
        r_eigs = [_check_spd(Ri, f"R[{i}]") for i, Ri in enumerate(self.R)]
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
        for i in range(self.H.shape[0]):
            _check_spd(self.H[i], f"H[{i}]")
        for l in range(self.W.shape[0]):
            _check_spd(self.W[l], f"W[{l}]")
        if not (1.0 <= self.rho < 2.0):
            raise ValidationError(
                f"relaxation factor rho={self.rho} outside [1, 2)")

    # -- constructors --------------------------------------------------------

    @classmethod
    def uniform(cls, game: Game, graph: CommGraph, r: float, h: float,
                w: float, rho: float, mu: MuSchedule | None = None) -> "AlgoParams":
        """Scalar step sizes replicated into identity blocks."""
        m = game.m
        R = [r * np.eye(p.dim) for p in game.players]
        H = np.stack([h * np.eye(m)] * game.n_players)
        W = np.stack([w * np.eye(m)] * graph.n_edges)
        return cls(R, H, W, rho, mu if mu is not None else inverse_square())

    @classmethod
    def diagonal(cls, r_diags: Sequence[np.ndarray], h_diags: np.ndarray,
                 w_diags: np.ndarray, rho: float,
                 mu: MuSchedule | None = None) -> "AlgoParams":
        R = [np.diag(np.asarray(d, dtype=float)) for d in r_diags]
        H = np.stack([np.diag(np.asarray(d, dtype=float)) for d in h_diags])
        W = np.stack([np.diag(np.asarray(d, dtype=float)) for d in w_diags])
        return cls(R, H, W, rho, mu if mu is not None else inverse_square())

    # -- block applications ---------------------------------------------------

    def apply_R(self, v: np.ndarray) -> np.ndarray:
        """Blockwise product ``R v`` on a stacked profile vector whose
        player dimensions are the orders of the ``R`` blocks."""
        padded = np.zeros(self._R_stack.shape[:2])
        padded.reshape(-1)[self._r_index] = v
        return (self._R_stack @ padded[:, :, None]).reshape(-1)[self._r_index]

    def apply_H(self, rows: np.ndarray) -> np.ndarray:
        """Per-player products ``H_i rows_i`` on an (N, m) array."""
        return np.einsum("nij,nj->ni", self.H, rows)

    def apply_W(self, rows: np.ndarray) -> np.ndarray:
        """Per-edge products ``W_l rows_l`` on an (M, m) array."""
        return np.einsum("lij,lj->li", self.W, rows)

    def r_min_eig(self) -> float:
        """Smallest eigenvalue over the ``R`` blocks; same as ``r_min``."""
        return self.r_min

    def r_max_eig(self) -> float:
        """Largest eigenvalue over the ``R`` blocks; same as ``r_max``."""
        return self.r_max

    def h_is_diagonal(self) -> bool:
        return all(np.count_nonzero(Hi - np.diag(np.diag(Hi))) == 0 for Hi in self.H)

    # -- dense forms for desk-scale validation --------------------------------

    def dense_R(self, game: Game) -> np.ndarray:
        R = np.zeros((game.n, game.n))
        for Ri, o, d in zip(self.R, game.offsets, game.dims):
            R[o:o + d, o:o + d] = Ri
        return R

    def dense_H(self) -> np.ndarray:
        N, m, _ = self.H.shape
        out = np.zeros((N * m, N * m))
        for i in range(N):
            out[i * m:(i + 1) * m, i * m:(i + 1) * m] = self.H[i]
        return out

    def dense_W(self) -> np.ndarray:
        M, m, _ = self.W.shape
        out = np.zeros((M * m, M * m))
        for l in range(M):
            out[l * m:(l + 1) * m, l * m:(l + 1) * m] = self.W[l]
        return out
