"""Step-size validation and residuals.

The validators decide whether each loop's preconditioner ``Phi`` is
positive definite from the per-player blocks ``R_i``, ``A_i``, ``H_i``,
the per-edge blocks ``W_l`` and the graph's incidence matrix; the step
blocks are diagonal, read from the step-size vectors.  Each condition's
matrix splits by row groups: two coupling rows are in one group when a
block of the condition has a nonzero entry linking them, and the matrix is
the direct sum of one block per group ``C``, of order ``N |C|`` or
``M |C|`` (`_schur_margin`).  Only a player's own ``A_i R_i^-1 A_i^T``
links two rows, so the equality ``z`` condition splits into single rows,
and the largest matrix decomposed has order ``max(d_i, N |C|, M)``; a
pattern that couples every row is one group, of order ``mN``.  Each
validator returns its margins, keyed by the block of its condition, or
raises a `ValidationError` naming the failed condition.  The dense stacked
operators and preconditioners, the dense step matrices, and the stacked
iterates they act on, live in the tests, as the independent reference.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import StructuralError, ValidationError
from .games import EQUALITY, INEQUALITY, Game
from .graphs import CommGraph
from .params import AlgoParams


# -- step-size validation -------------------------------------------------------

def _check_fit(params: AlgoParams, game: Game, graph: CommGraph) -> None:
    """The graph and step sizes must match the game: one graph node per
    player, ``R`` of shape (n,), ``H`` of (N, m) and ``W`` of (M, m) for
    the graph's M edges."""
    if graph.n_nodes != game.n_players:
        raise StructuralError(f"the graph has {graph.n_nodes} nodes but the "
                              f"game has {game.n_players} players")
    m = game.m
    for name, given, expected in (
            ("R shape", params.R.shape, (game.n,)),
            ("H shape", params.H.shape, (game.n_players, m)),
            ("W shape", params.W.shape, (graph.n_edges, m))):
        if given != expected:
            raise StructuralError(f"{name} {given}, expected {expected}")


def _diag_stack(rows: np.ndarray) -> np.ndarray:
    """The stack of diagonal matrices, (..., d, d), whose diagonals are the
    rows of a (..., d) array."""
    return rows[..., None] * np.eye(rows.shape[-1])


def _min_eig(stack: np.ndarray) -> float:
    """Smallest eigenvalue over a (count, order, order) stack of blocks,
    each symmetrized, in one batched decomposition."""
    return float(np.linalg.eigvalsh(
        0.5 * (stack + stack.transpose(0, 2, 1)))[:, 0].min())


def _player_stacks(params: AlgoParams, game: Game):
    """``(players, R, A)`` for each block order ``d``: the indices of the
    players of that order and their stacked ``R_i`` diagonals (count, d)
    and ``A_i`` (count, m, d)."""
    by_order = {}
    for i, d in enumerate(game.dims):
        by_order.setdefault(d, []).append(i)
    return [(ids, np.array([params.R[game.offsets[i]:game.offsets[i] + d]
                            for i in ids]),
             np.array([game.players[i].A for i in ids]))
            for d, ids in by_order.items()]


def _row_groups(coupled: np.ndarray) -> list:
    """The connected components of the rows that the (m, m) boolean pattern
    ``coupled`` links, as one (count, size) array of row indices per
    component size."""
    if coupled.all():               # one group: m = 1, or every row linked
        return [np.arange(len(coupled))[None]]
    reach = coupled | coupled.T | np.eye(len(coupled), dtype=bool)
    while True:                     # transitive closure by squaring
        wider = reach @ reach
        if (wider == reach).all():
            break
        reach = wider
    # each row's component is its row of reach; its first row names it
    components = {}
    for row, first in enumerate(reach.argmax(axis=1).tolist()):
        components.setdefault(first, []).append(row)
    by_size = {}
    for rows in components.values():
        by_size.setdefault(len(rows), []).append(rows)
    return [np.array(groups) for groups in by_size.values()]


def _schur_margin(V: np.ndarray, D: np.ndarray, B: np.ndarray) -> float:
    """Smallest eigenvalue of ``blockdiag(D) - Vbar diag(B) Vbar^T`` with
    ``Vbar = V kron I_m``, for a (p, q) incidence-like ``V``, a stack of
    (m, m) blocks ``D`` (p) and the rows of step sizes ``B`` (q, m),
    symmetrized.

    Entry ``((i, a), (j, b))`` of the matrix is ``D_i[a, b]`` on the
    diagonal blocks minus ``sum_l V_il V_jl B_l[a]`` when ``a = b``, so it
    vanishes unless ``a = b`` or some ``D_i`` has a nonzero ``(a, b)``
    entry.  The matrix is therefore the direct sum of its row groups'
    blocks (rows ``(i, a)`` with ``a`` in one group ``C``, order
    ``p |C|``); each is built from slices of ``D`` and ``B``, and the
    groups of one size share one batched decomposition.  When every row
    is coupled there is one group, the whole matrix."""
    p, q = V.shape
    nodes = np.arange(p)
    margin = math.inf
    for groups in _row_groups((D != 0.0).any(axis=0)):
        count, size = groups.shape
        rows, cols = groups[:, :, None], groups[:, None, :]
        # sum_l V_il V_jl diag(B_l), symmetric in (i, j): one product over
        # l per j
        VB = V[:, :, None, None, None] * _diag_stack(B[:, groups])
        S = -(V @ VB.reshape(p, q, -1)).reshape(p, p, count, size, size)
        S[nodes, nodes] += D[:, rows, cols]
        S = S.transpose(2, 0, 3, 1, 4).reshape(count, p * size, p * size)
        margin = min(margin, _min_eig(S))
    return margin


def check_step_sizes_equality(params: AlgoParams, game: Game,
                              graph: CommGraph) -> dict:
    """Margins of the equality algorithm's two fixed-step-size conditions,
    ``x``: ``R - Lam^T H Lam`` (one block per player) and ``z``:
    ``W^-1 - Vbar^T H Vbar``; raises `ValidationError` unless both are
    positive definite.  Together they make the lifted preconditioner
    positive definite: its quadratic form is two nonnegative weighted norms
    plus the norms these two matrices weight."""
    _check_fit(params, game, graph)
    margin_x = min(_min_eig(_diag_stack(R)
                            - (A.transpose(0, 2, 1) * params.H[ids, None, :]) @ A)
                   for ids, R, A in _player_stacks(params, game))
    margin_z = _schur_margin(graph.incidence.T, _diag_stack(1.0 / params.W),
                             params.H)
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
    ``H`` is diagonal, so the multiplier update's clamp onto the orthant is
    the projection in the ``H^-1`` metric."""
    _check_fit(params, game, graph)
    D = _diag_stack(1.0 / params.H)
    for ids, R, A in _player_stacks(params, game):
        D[ids] -= A @ ((1.0 / R)[:, :, None] * A.transpose(0, 2, 1))
    margin = _schur_margin(graph.incidence, D, params.W)
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
    return math.sqrt(v.dot(v))


class EqualityResiduals(NamedTuple):
    stationarity: float
    consensus_edge: float
    feasibility: float


class InequalityResiduals(NamedTuple):
    stationarity: float
    consensus_edge: float
    feasibility: float
    complementarity: float


class PointProducts(NamedTuple):
    """What `residual_map` computes at a state ``(x, Z, lam)``, in the form
    the next sweep from that state reads it.  The outer driver hands it
    from the residual to that sweep; it lives for one iteration."""
    gradient: np.ndarray           # game.smooth_gradient(x), length n
    tracked: np.ndarray            # local_residual(x) + V Z, (N, m)
    node_aggregate: np.ndarray     # V Z = graph.node_aggregate(Z), (N, m)
    price_gradient: np.ndarray     # price_gradient(lam), length n
    edge_differences: np.ndarray   # edge_differences(lam), (M, m)


def residual_map(game: Game, graph: CommGraph, kind: str):
    """The residual of one run of ``game`` on ``graph`` for the coupling
    ``kind``, bound once: ``(x, Z, lam) -> (residuals, products)``
    (`residual_equality`, `residual_inequality`), where ``products`` are the
    state's `PointProducts`.  The state's blocks are not checked again: the
    run fixed their shapes (`_check_fit`, `admm.initial_state`).

    The stationarity residual is the natural-map residual
    ``|x - natural_step(x, price)|``, from the gradient and price already in
    hand; the edge residual is the multipliers' per-edge differences.
    """
    gradient_of, backward = game._gradient_map(), game._backward_map()
    constraint_rows, price_gradient = game._constraint_rows, game._price_gradient
    b_rows, V, Vt = game.b_rows, graph.incidence, graph.incidence.T

    def residual(x, Z, lam):
        gradient = gradient_of(x)
        aggregate = V @ Z
        at = PointProducts(gradient, constraint_rows(x) - b_rows + aggregate,
                           aggregate, price_gradient(lam), Vt @ lam)
        stationarity = norm(x - backward(x - (gradient + at.price_gradient), 1.0))
        edge = norm(at.edge_differences)
        if kind == EQUALITY:
            return EqualityResiduals(stationarity, edge, norm(at.tracked)), at
        feas = norm(np.maximum(at.tracked, 0.0))
        comp = norm(lam - np.maximum(lam + at.tracked, 0.0))
        return InequalityResiduals(stationarity, edge, feas, comp), at
    return residual


def residual_equality(game: Game, graph: CommGraph, x, Z,
                      lam) -> tuple[EqualityResiduals, PointProducts]:
    """Per-call form for `perfbench/spans.py`; a run binds its closure once.
    Distance of (x, Z, lam) from the equality operator's zero set, and the
    products it was computed from.  All three components vanish exactly at
    a zero: the natural-map stationarity residual, the per-edge multiplier
    differences, and the local constraint-tracking error.
    """
    return residual_map(game, graph, EQUALITY)(x, Z, lam)


def residual_inequality(game: Game, graph: CommGraph, x, Z,
                        lam) -> tuple[InequalityResiduals, PointProducts]:
    """Per-call form for `perfbench/spans.py`; a run binds its closure once.
    Distance of (x, Z, lam) from the inequality operator's zero set, and
    the products it was computed from.  Feasibility measures only the
    positive part of the tracked constraint, and complementarity is the
    projection-form residual of the orthant condition on the multiplier
    block.  Relaxed multipliers dip negative by O((rho - 1) |lam|) during
    the transient; complementarity measures that negativity, so such
    states are accepted.
    """
    return residual_map(game, graph, INEQUALITY)(x, Z, lam)
