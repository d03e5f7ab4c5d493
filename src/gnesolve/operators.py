"""Monotone-operator assembly, preconditioner validation, and residuals.

The distributed algorithms never invert these matrices; dense assembly
exists to validate step sizes (smallest-eigenvalue checks at desk scale),
to evaluate weighted norms in tests, and to verify structural identities
such as skew-symmetry of the linear parts.

Each stacked layout is its block sizes plus its coupling blocks above the
block diagonal, ``{(i, j): B}`` (`layout_sizes`, `coupling_blocks`):

* plain ``(x, Z, lam)``: ``(0, 2): Lam^T`` and ``(1, 2): Vbar^T``;
* lifted ``(x, eta, Z, theta)``: ``(0, 1): Lam^T``, ``(0, 3): -Lam^T``,
  ``(1, 2): -Vbar`` and ``(2, 3): -Vbar^T``.

With ``U`` their strictly upper block matrix, every linear part is
``K = U - U^T`` and every preconditioner is ``Phi = D - (U + U^T)``, where
``D`` is ``diag(R, W^-1, H^-1)`` (plain) or ``diag(R, 2 H^-1, W^-1, 2 H^-1)``
(lifted).  So ``Phi + K = D - 2 U^T`` is block lower triangular, and each
resolvent is one sequential sweep: the subgame, then the local multiplier
and edge updates.  Node and edge blocks flatten row-major from (N, m) and
(M, m) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError, ValidationError
from .games import EQUALITY, Game, as_vector
from .graphs import CommGraph
from .params import AlgoParams


# -- dense building blocks ----------------------------------------------------

def block_diag(blocks) -> np.ndarray:
    """Dense block-diagonal matrix of 2-D blocks, rectangular ones included."""
    rows = np.cumsum([0] + [B.shape[0] for B in blocks])
    cols = np.cumsum([0] + [B.shape[1] for B in blocks])
    out = np.zeros((rows[-1], cols[-1]))
    for B, r, c in zip(blocks, rows, cols):
        out[r:r + B.shape[0], c:c + B.shape[1]] = B
    return out


def constraint_matrix(game: Game) -> np.ndarray:
    """Block-diagonal stack of the player coupling blocks, (m*N, n)."""
    return block_diag([p.A for p in game.players])


def incidence_kron(graph: CommGraph, m: int) -> np.ndarray:
    """Incidence matrix acting on m-vector-valued node/edge data."""
    return np.kron(graph.incidence, np.eye(m))


# -- the two stacked layouts ----------------------------------------------------

def layout_sizes(game: Game, graph: CommGraph, lifted: bool = False) -> tuple:
    """Block sizes of the plain ``(x, Z, lam)`` or the lifted
    ``(x, eta, Z, theta)`` layout."""
    n, mM, mN = game.n, game.m * graph.n_edges, game.m * game.n_players
    return (n, mN, mM, mN) if lifted else (n, mM, mN)


def coupling_blocks(game: Game, graph: CommGraph, lifted: bool = False) -> dict:
    """The layout's blocks above the block diagonal, ``{(i, j): B}``."""
    Lam, Vb = constraint_matrix(game), incidence_kron(graph, game.m)
    if lifted:
        return {(0, 1): Lam.T, (0, 3): -Lam.T, (1, 2): -Vb, (2, 3): -Vb.T}
    return {(0, 2): Lam.T, (1, 2): Vb.T}


def _assemble(game: Game, graph: CommGraph, lifted: bool, diagonal: tuple,
              s_u: float, s_l: float) -> np.ndarray:
    """The layout's matrix in one allocation: the given diagonal blocks,
    ``s_u B`` at each coupling block ``(i, j)`` and ``s_l B^T`` at ``(j, i)``."""
    edges = np.cumsum((0,) + layout_sizes(game, graph, lifted))
    b = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    out = np.zeros((edges[-1], edges[-1]))
    for i, D in enumerate(diagonal):
        out[b[i], b[i]] = D
    for (i, j), B in coupling_blocks(game, graph, lifted).items():
        np.multiply(B, s_u, out=out[b[i], b[j]])
        np.multiply(B.T, s_l, out=out[b[j], b[i]])
    return out


def equality_operator(game: Game, graph: CommGraph) -> tuple[np.ndarray, np.ndarray]:
    """Linear part and constant shift of the equality-coupling operator.

    The full operator adds the normal cone of the product box plus the
    pseudo-subdifferential on the ``x`` block; those set-valued parts are
    handled by the resolvent routines, not here.  The inequality operator
    has the same linear part and shift, with the normal cone of the
    nonnegative orthant added on the multiplier block.
    """
    n, mM, _ = layout_sizes(game, graph)
    K = _assemble(game, graph, False, (), 1.0, -1.0)
    return K, pack(np.zeros(n + mM), game.b_rows)


def lifted_equality_operator(game: Game, graph: CommGraph) -> tuple[np.ndarray, np.ndarray]:
    """Linear part and shift of the four-block lifted equality operator."""
    n, _, mM, _ = layout_sizes(game, graph, lifted=True)
    K = _assemble(game, graph, True, (), 1.0, -1.0)
    return K, pack(np.zeros(n), game.b_rows, np.zeros(mM), -game.b_rows)


# -- packing helpers ----------------------------------------------------------

def pack(*blocks) -> np.ndarray:
    """Stacked iterate of the given blocks, each flattened row-major."""
    return np.concatenate([np.asarray(b, dtype=float).reshape(-1) for b in blocks])


def _unpack(sizes: tuple, m: int, w: np.ndarray):
    if w.size != sum(sizes):
        raise StructuralError(
            f"stacked iterate has length {w.size}, expected {sum(sizes)}")
    x, *rows = np.split(w, np.cumsum(sizes[:-1]))
    return (x, *(r.reshape(-1, m) for r in rows))


def unpack_plain(game: Game, graph: CommGraph, w: np.ndarray):
    """Views ``x, Z (M, m), lam (N, m)`` of a plain stacked iterate."""
    return _unpack(layout_sizes(game, graph), game.m, w)


def unpack_lifted(game: Game, graph: CommGraph, w: np.ndarray):
    """Views ``x, eta (N, m), Z (M, m), theta (N, m)`` of a lifted iterate."""
    return _unpack(layout_sizes(game, graph, lifted=True), game.m, w)


# -- step-size validation -------------------------------------------------------

@dataclass(frozen=True)
class StepCheck:
    ok: bool
    margin_x: float
    margin_z: float


def check_step_sizes_equality(params: AlgoParams, game: Game,
                              graph: CommGraph) -> StepCheck:
    """Smallest eigenvalues of the two fixed-step-size conditions for the
    equality algorithm: ``R - Lam^T H Lam`` and ``W^-1 - Vbar^T H Vbar``."""
    Lam, Vb = constraint_matrix(game), incidence_kron(graph, game.m)
    Hd = block_diag(params.H)
    Mx = block_diag(params.R) - Lam.T @ Hd @ Lam
    Mz = np.linalg.inv(block_diag(params.W)) - Vb.T @ Hd @ Vb
    margin_x = float(np.linalg.eigvalsh(0.5 * (Mx + Mx.T)).min())
    margin_z = float(np.linalg.eigvalsh(0.5 * (Mz + Mz.T)).min())
    return StepCheck(margin_x > 0.0 and margin_z > 0.0, margin_x, margin_z)


@dataclass(frozen=True)
class PreconditionerReport:
    matrix: np.ndarray
    margins: dict


def equality_preconditioner(params: AlgoParams, game: Game,
                            graph: CommGraph) -> PreconditionerReport:
    """Dense preconditioner for the lifted equality operator.

    Positive definiteness is certified through the step-size conditions:
    the quadratic form decomposes into two nonnegative weighted-norm terms
    plus norms weighted by ``R - Lam^T H Lam`` and ``W^-1 - Vbar^T H Vbar``,
    so positive margins for those two blocks imply a positive definite
    preconditioner.
    """
    margins = step_size_margins(params, game, graph)
    Hinv2 = 2.0 * np.linalg.inv(block_diag(params.H))
    D = (block_diag(params.R), Hinv2, np.linalg.inv(block_diag(params.W)), Hinv2)
    Phi = _assemble(game, graph, True, D, -1.0, -1.0)
    return PreconditionerReport(Phi, margins)


def inequality_preconditioner(params: AlgoParams, game: Game,
                              graph: CommGraph) -> PreconditionerReport:
    """Dense preconditioner for the inequality operator, with its smallest
    eigenvalue as the positive-definiteness verdict.  Requires diagonal
    ``H``, for which the multiplier update's clamp onto the orthant is the
    projection in the ``H^-1`` metric."""
    if not params.h_is_diagonal():
        raise ValidationError(
            "multiplier step matrices must be diagonal for the inequality "
            "operator (exact weighted orthant projection)")
    D = (block_diag(params.R), np.linalg.inv(block_diag(params.W)),
         np.linalg.inv(block_diag(params.H)))
    Phi = _assemble(game, graph, False, D, -1.0, -1.0)
    smallest = float(np.linalg.eigvalsh(Phi).min())
    if smallest <= 0.0:
        raise ValidationError(
            "inequality preconditioner is not positive definite: "
            f"min eig {smallest:.6g}")
    return PreconditionerReport(Phi, {"min_eig": smallest})


def step_size_margins(params: AlgoParams, game: Game,
                      graph: CommGraph) -> dict:
    """Validator margins of the fixed step sizes for the game's coupling
    kind; raises `ValidationError` naming the failed condition."""
    if game.kind == EQUALITY:
        check = check_step_sizes_equality(params, game, graph)
        if not check.ok:
            raise ValidationError(
                "step-size conditions failed: "
                f"min eig(R - Lam^T H Lam) = {check.margin_x:.6g}, "
                f"min eig(W^-1 - Vbar^T H Vbar) = {check.margin_z:.6g}")
        return {"x": check.margin_x, "z": check.margin_z}
    return inequality_preconditioner(params, game, graph).margins


# -- residuals to the operator zero sets ---------------------------------------

@dataclass(frozen=True)
class EqualityResiduals:
    stationarity: float
    consensus_edge: float
    feasibility: float

    def max(self) -> float:
        return max(self.stationarity, self.consensus_edge, self.feasibility)


@dataclass(frozen=True)
class InequalityResiduals:
    stationarity: float
    consensus_edge: float
    feasibility: float
    complementarity: float

    def max(self) -> float:
        return max(self.stationarity, self.consensus_edge,
                   self.feasibility, self.complementarity)


def _stationarity(game: Game, x: np.ndarray, lam: np.ndarray) -> float:
    return float(np.linalg.norm(
        x - game.natural_step(x, game.price_gradient(lam))))


def residual_equality(game: Game, graph: CommGraph, x, Z, lam) -> EqualityResiduals:
    """Distance of (x, Z, lam) from the zero set of the equality operator.

    All three components vanish exactly at a zero: the natural-map
    stationarity residual, the per-edge multiplier differences, and the
    local constraint-tracking error.
    """
    x = as_vector(x)
    Z = np.asarray(Z, dtype=float)
    lam = np.asarray(lam, dtype=float)
    edge = float(np.linalg.norm(graph.edge_differences(lam)))
    feas = float(np.linalg.norm(game.local_residual(x) + graph.node_aggregate(Z)))
    return EqualityResiduals(_stationarity(game, x, lam), edge, feas)


def residual_inequality(game: Game, graph: CommGraph, x, Z,
                        lam) -> InequalityResiduals:
    """Distance of (x, Z, lam) from the zero set of the inequality operator.

    Feasibility measures only the positive part of the tracked constraint,
    and complementarity is the projection-form residual of the orthant
    condition on the multiplier block.  Relaxed multipliers dip negative by
    O((rho - 1) |lam|) during the transient; complementarity measures that
    negativity, so such states are accepted.
    """
    x = as_vector(x)
    Z = np.asarray(Z, dtype=float)
    lam = np.asarray(lam, dtype=float)
    tracked = game.local_residual(x) + graph.node_aggregate(Z)
    edge = float(np.linalg.norm(graph.edge_differences(lam)))
    feas = float(np.linalg.norm(np.maximum(tracked, 0.0)))
    comp = float(np.linalg.norm(lam - np.maximum(lam + tracked, 0.0)))
    return InequalityResiduals(_stationarity(game, x, lam), edge, feas, comp)
