"""Step-size validation and residuals.

The validators decide whether each loop's preconditioner ``Phi`` is
positive definite from the per-player blocks ``R_i``, ``A_i``, ``H_i``,
the per-edge blocks ``W_l`` and the graph's incidence matrix: the largest
matrix they decompose has order ``max(n, mM, mN)``, never that of the
stacked ``Phi``.  Each returns its margins, keyed by the block of its
condition, or raises a `ValidationError` naming the failed condition.  The
dense stacked operators and preconditioners, and the stacked iterates they
act on, live in the tests, as the independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError, ValidationError
from .games import EQUALITY, Game
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


def incidence_sandwich(V: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``Vbar blockdiag(B) Vbar^T`` with ``Vbar = V kron I_m``, for a (p, q)
    incidence-like ``V`` and (q, m, m) blocks ``B``; order ``p m``.  Entry
    ``((i, a), (j, b))`` is ``sum_l V_il V_jl B_l[a, b]``, so nothing of
    order ``q m`` is formed."""
    p, m = V.shape[0], B.shape[-1]
    return np.einsum("il,jl,lab->iajb", V, V, B).reshape(p * m, p * m)


# -- step-size validation -------------------------------------------------------

def _check_fit(params: AlgoParams, game: Game, graph: CommGraph) -> None:
    """The step matrices must match the game and graph: one ``R_i`` of
    order ``d_i`` per player, ``H`` of shape (N, m, m), ``W`` of (M, m, m)."""
    m = game.m
    for name, given, expected in (
            ("R block orders", tuple(Ri.shape[0] for Ri in params.R), game.dims),
            ("H shape", params.H.shape, (game.n_players, m, m)),
            ("W shape", params.W.shape, (graph.n_edges, m, m))):
        if given != expected:
            raise StructuralError(f"{name} {given}, expected {expected}")


def _min_eig(M: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (M + M.T)).min())


def check_step_sizes_equality(params: AlgoParams, game: Game,
                              graph: CommGraph) -> dict:
    """Margins of the equality algorithm's two fixed-step-size conditions,
    ``x``: ``R - Lam^T H Lam`` (one block per player) and ``z``:
    ``W^-1 - Vbar^T H Vbar``; raises `ValidationError` unless both are
    positive definite.  Together they make the lifted preconditioner
    positive definite: its quadratic form is two nonnegative weighted norms
    plus the norms these two matrices weight."""
    _check_fit(params, game, graph)
    margin_x = min(_min_eig(Ri - p.A.T @ Hi @ p.A)
                   for Ri, Hi, p in zip(params.R, params.H, game.players))
    # each entry of Vbar^T H Vbar is a sum of at most two +-H_i terms
    VHV = incidence_sandwich(graph.incidence.T, params.H)
    margin_z = _min_eig(block_diag(np.linalg.inv(params.W)) - VHV)
    if not (margin_x > 0.0 and margin_z > 0.0):
        raise ValidationError(
            "step-size conditions failed: "
            f"min eig(R - Lam^T H Lam) = {margin_x:.6g}, "
            f"min eig(W^-1 - Vbar^T H Vbar) = {margin_z:.6g}")
    return {"x": margin_x, "z": margin_z}


def inequality_preconditioner(params: AlgoParams, game: Game,
                              graph: CommGraph) -> dict:
    """Margin ``lam`` of the inequality preconditioner: the smallest
    eigenvalue of its Schur complement ``H^-1 - Lam R^-1 Lam^T -
    Vbar W Vbar^T``; raises `ValidationError` unless it is positive.
    Requires diagonal ``H``, for which the multiplier update's clamp onto
    the orthant is the projection in the ``H^-1`` metric."""
    _check_fit(params, game, graph)
    if not params.h_is_diagonal():
        raise ValidationError(
            "multiplier step matrices must be diagonal for the inequality "
            "operator (exact weighted orthant projection)")
    S = -incidence_sandwich(graph.incidence, params.W)
    S += block_diag([np.linalg.inv(Hi) - p.A @ np.linalg.solve(Ri, p.A.T)
                     for Ri, Hi, p in zip(params.R, params.H, game.players)])
    margin = _min_eig(S)
    if not margin > 0.0:
        raise ValidationError(
            "inequality preconditioner is not positive definite: "
            f"min eig(H^-1 - Lam R^-1 Lam^T - Vbar W Vbar^T) = {margin:.6g}")
    return {"lam": margin}


def step_size_margins(params: AlgoParams, game: Game,
                      graph: CommGraph) -> dict:
    """Validator margins of the fixed step sizes for the game's coupling
    kind; raises `ValidationError` naming the failed condition."""
    if game.kind == EQUALITY:
        return check_step_sizes_equality(params, game, graph)
    return inequality_preconditioner(params, game, graph)


# -- residuals to the operator zero sets ---------------------------------------

def norm(v: np.ndarray) -> float:
    """``|v|`` of a float array, bit for bit as `np.linalg.norm` computes it
    (``sqrt(v . v)``, flattened), without its dispatch: loops take many."""
    v = v.ravel()
    return math.sqrt(float(v.dot(v)))


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


@dataclass(frozen=True)
class PointProducts:
    """What the residual evaluation computes at a state ``(x, Z, lam)``, in
    the form the next sweep from that state reads it.  The outer driver
    hands it from the residual to that sweep; it lives for one iteration."""
    gradient: np.ndarray           # game.smooth_gradient(x), length n
    tracked: np.ndarray            # local_residual(x) + V Z, (N, m)
    price_gradient: np.ndarray     # price_gradient(lam), length n
    edge_differences: np.ndarray   # edge_differences(lam), (M, m)


def point_products(game: Game, graph: CommGraph, x, Z, lam) -> PointProducts:
    """The products of the game and graph maps at ``(x, Z, lam)``, float
    arrays of the state's shapes."""
    return PointProducts(
        game.smooth_gradient(x),
        game.local_residual(x) + graph.node_aggregate(Z),
        game.price_gradient(lam), graph.edge_differences(lam))


def _stationarity(game: Game, x, at: PointProducts) -> float:
    """Natural-map residual ``|x - natural_step(x, price)|``, from the
    gradient and price already in hand."""
    return norm(x - game.backward_step(x - (at.gradient + at.price_gradient), 1.0))


def residual_equality(game: Game, graph: CommGraph, x, Z,
                      lam) -> tuple[EqualityResiduals, PointProducts]:
    """Distance of (x, Z, lam) from the zero set of the equality operator,
    and the products it was computed from.

    All three components vanish exactly at a zero: the natural-map
    stationarity residual, the per-edge multiplier differences, and the
    local constraint-tracking error.
    """
    at = point_products(game, graph, x, Z, lam)
    edge = norm(at.edge_differences)
    feas = norm(at.tracked)
    return EqualityResiduals(_stationarity(game, x, at), edge, feas), at


def residual_inequality(game: Game, graph: CommGraph, x, Z,
                        lam) -> tuple[InequalityResiduals, PointProducts]:
    """Distance of (x, Z, lam) from the zero set of the inequality operator,
    and the products it was computed from.

    Feasibility measures only the positive part of the tracked constraint,
    and complementarity is the projection-form residual of the orthant
    condition on the multiplier block.  Relaxed multipliers dip negative by
    O((rho - 1) |lam|) during the transient; complementarity measures that
    negativity, so such states are accepted.
    """
    at = point_products(game, graph, x, Z, lam)
    edge = norm(at.edge_differences)
    feas = norm(np.maximum(at.tracked, 0.0))
    comp = norm(lam - np.maximum(lam + at.tracked, 0.0))
    return InequalityResiduals(_stationarity(game, x, at), edge, feas, comp), at
