"""Monotone-operator assembly, preconditioner validation, and residuals.

The distributed algorithms never invert these matrices; dense assembly
exists to validate step sizes (smallest-eigenvalue checks at desk scale),
to evaluate weighted norms in tests, and to verify structural identities
such as skew-symmetry of the linear parts.

Layouts of stacked iterates:

* plain:  ``[x (n), Z (m*M), lam (m*N)]``
* lifted: ``[x (n), eta (m*N), Z (m*M), theta (m*N)]``

(N, m)- and (M, m)-shaped arrays flatten row-major, i.e. node/edge blocks
are contiguous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError, ValidationError
from .games import EQUALITY, Game, as_vector
from .graphs import CommGraph
from .params import AlgoParams


# -- dense building blocks ----------------------------------------------------

def constraint_matrix(game: Game) -> np.ndarray:
    """Block-diagonal stack of the player coupling blocks, (m*N, n)."""
    m, N = game.m, game.n_players
    out = np.zeros((m * N, game.n))
    for i, (p, o) in enumerate(zip(game.players, game.offsets)):
        out[i * m:(i + 1) * m, o:o + p.dim] = p.A
    return out


def incidence_kron(graph: CommGraph, m: int) -> np.ndarray:
    """Incidence matrix acting on m-vector-valued node/edge data."""
    return np.kron(graph.incidence, np.eye(m))


def equality_operator(game: Game, graph: CommGraph) -> tuple[np.ndarray, np.ndarray]:
    """Linear part and constant shift of the equality-coupling operator.

    The full operator adds the normal cone of the product box plus the
    pseudo-subdifferential on the ``x`` block; those set-valued parts are
    handled by the resolvent routines, not here.  The inequality operator
    has the same linear part and shift, with the normal cone of the
    nonnegative orthant added on the multiplier block.
    """
    n, mM, mN = game.n, game.m * graph.n_edges, game.m * game.n_players
    Lam = constraint_matrix(game)
    Vb = incidence_kron(graph, game.m)
    K = np.zeros((n + mM + mN,) * 2)
    K[:n, n + mM:] = Lam.T
    K[n:n + mM, n + mM:] = Vb.T
    K[n + mM:, :n] = -Lam
    K[n + mM:, n:n + mM] = -Vb
    q = np.concatenate([np.zeros(n), np.zeros(mM), game.b_rows.reshape(-1)])
    return K, q


def lifted_equality_operator(game: Game, graph: CommGraph) -> tuple[np.ndarray, np.ndarray]:
    """Linear part and shift of the four-block lifted equality operator."""
    n, m = game.n, game.m
    mN, mM = m * game.n_players, m * graph.n_edges
    Lam = constraint_matrix(game)
    Vb = incidence_kron(graph, m)
    dim = n + mN + mM + mN
    K = np.zeros((dim, dim))
    ox, oe, oz, ot = 0, n, n + mN, n + mN + mM
    K[ox:oe, oe:oz] = Lam.T
    K[ox:oe, ot:] = -Lam.T
    K[oe:oz, ox:oe] = -Lam
    K[oe:oz, oz:ot] = -Vb
    K[oz:ot, oe:oz] = Vb.T
    K[oz:ot, ot:] = -Vb.T
    K[ot:, ox:oe] = Lam
    K[ot:, oz:ot] = Vb
    b = game.b_rows.reshape(-1)
    q = np.concatenate([np.zeros(n), b, np.zeros(mM), -b])
    return K, q


# -- packing helpers ----------------------------------------------------------

def pack_plain(x, Z, lam) -> np.ndarray:
    return np.concatenate([as_vector(x), np.asarray(Z, dtype=float).reshape(-1),
                           np.asarray(lam, dtype=float).reshape(-1)])


def unpack_plain(game: Game, graph: CommGraph, w: np.ndarray):
    n, m = game.n, game.m
    M, N = graph.n_edges, game.n_players
    if w.size != n + m * M + m * N:
        raise StructuralError("stacked iterate has wrong length")
    x = w[:n]
    Z = w[n:n + m * M].reshape(M, m)
    lam = w[n + m * M:].reshape(N, m)
    return x, Z, lam


def pack_lifted(x, eta, Z, theta) -> np.ndarray:
    return np.concatenate([
        as_vector(x), np.asarray(eta, dtype=float).reshape(-1),
        np.asarray(Z, dtype=float).reshape(-1),
        np.asarray(theta, dtype=float).reshape(-1)])


def unpack_lifted(game: Game, graph: CommGraph, w: np.ndarray):
    n, m = game.n, game.m
    M, N = graph.n_edges, game.n_players
    if w.size != n + 2 * m * N + m * M:
        raise StructuralError("lifted iterate has wrong length")
    x = w[:n]
    eta = w[n:n + m * N].reshape(N, m)
    Z = w[n + m * N:n + m * N + m * M].reshape(M, m)
    theta = w[n + m * N + m * M:].reshape(N, m)
    return x, eta, Z, theta


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
    Lam = constraint_matrix(game)
    Vb = incidence_kron(graph, game.m)
    Hd = params.dense_H()
    Mx = params.dense_R(game) - Lam.T @ Hd @ Lam
    Mz = np.linalg.inv(params.dense_W()) - Vb.T @ Hd @ Vb
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
    n, m = game.n, game.m
    mN, mM = m * game.n_players, m * graph.n_edges
    Lam = constraint_matrix(game)
    Vb = incidence_kron(graph, m)
    Hinv2 = 2.0 * np.linalg.inv(params.dense_H())
    Winv = np.linalg.inv(params.dense_W())
    dim = n + mN + mM + mN
    Phi = np.zeros((dim, dim))
    ox, oe, oz, ot = 0, n, n + mN, n + mN + mM
    Phi[ox:oe, ox:oe] = params.dense_R(game)
    Phi[ox:oe, oe:oz] = -Lam.T
    Phi[ox:oe, ot:] = Lam.T
    Phi[oe:oz, ox:oe] = -Lam
    Phi[oe:oz, oe:oz] = Hinv2
    Phi[oe:oz, oz:ot] = Vb
    Phi[oz:ot, oe:oz] = Vb.T
    Phi[oz:ot, oz:ot] = Winv
    Phi[oz:ot, ot:] = Vb.T
    Phi[ot:, ox:oe] = Lam
    Phi[ot:, oz:ot] = Vb
    Phi[ot:, ot:] = Hinv2
    return PreconditionerReport(Phi, margins)


def inequality_preconditioner(params: AlgoParams, game: Game,
                              graph: CommGraph) -> PreconditionerReport:
    """Dense preconditioner for the inequality operator, with its smallest
    eigenvalue as the positive-definiteness verdict."""
    n, m = game.n, game.m
    mN, mM = m * game.n_players, m * graph.n_edges
    Lam = constraint_matrix(game)
    Vb = incidence_kron(graph, m)
    dim = n + mM + mN
    Phi = np.zeros((dim, dim))
    ox, oz, ol = 0, n, n + mM
    Phi[ox:oz, ox:oz] = params.dense_R(game)
    Phi[ox:oz, ol:] = -Lam.T
    Phi[oz:ol, oz:ol] = np.linalg.inv(params.dense_W())
    Phi[oz:ol, ol:] = -Vb.T
    Phi[ol:, ox:oz] = -Lam
    Phi[ol:, oz:ol] = -Vb
    Phi[ol:, ol:] = np.linalg.inv(params.dense_H())
    smallest = float(np.linalg.eigvalsh(0.5 * (Phi + Phi.T)).min())
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
