"""Independent oracles used by the tests: objective values rebuilt from the
instance payloads (not from the package's gradient code), plain central
finite differences, the per-player loop form of an ADMM iteration, an
inner solver that fails on purpose mid-run, the dense step matrices of the step-size vectors, and the dense stacked
operators and preconditioners the structured validators and the resolvents
of `reference` are checked against."""

import csv

import numpy as np

from gnesolve.errors import DivergenceError
from gnesolve.operators import residual_map
from gnesolve.subgames import (InnerCertificate, InnerSolution, InnerSolver,
                               equality_subgame)
from reference import ResolventStep, bind_checked, layout_sizes, pack


def read_trace_csv(path) -> list[dict]:
    """Rows of a ``trace.csv`` as dicts of strings, keyed by column."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# -- dense building blocks ------------------------------------------------------

def block_diag(blocks) -> np.ndarray:
    """Dense block-diagonal matrix of 2-D blocks, rectangular ones included."""
    rows = np.cumsum([0] + [B.shape[0] for B in blocks])
    cols = np.cumsum([0] + [B.shape[1] for B in blocks])
    out = np.zeros((rows[-1], cols[-1]))
    for B, r, c in zip(blocks, rows, cols):
        out[r:r + B.shape[0], c:c + B.shape[1]] = B
    return out


def step_matrices(params, game):
    """The dense step matrices of ``params``: the per-player ``R_i`` (a
    list) and the ``H`` (N, m, m) and ``W`` (M, m, m) stacks, the diagonal
    matrices of its step-size vectors.  The references below use the
    general SPD-block algebra on them."""
    return ([np.diag(r) for r in game.split(params.R)],
            params.H[:, :, None] * np.eye(params.H.shape[1]),
            params.W[:, :, None] * np.eye(params.W.shape[1]))


def incidence_sandwich(V: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``Vbar blockdiag(B) Vbar^T`` with ``Vbar = V kron I_m``, for a (p, q)
    incidence-like ``V`` and (q, m, m) blocks ``B``; order ``p m``.  Entry
    ``((i, a), (j, b))`` is ``sum_l V_il V_jl B_l[a, b]``, so nothing of
    order ``q m`` is formed."""
    p, m = V.shape[0], B.shape[-1]
    return np.einsum("il,jl,lab->iajb", V, V, B).reshape(p * m, p * m)


# -- dense stacked operators -----------------------------------------------------
#
# Each stacked layout is its block sizes (`layout_sizes`) plus its coupling
# blocks above the block diagonal, ``{(i, j): B}`` (`coupling_blocks`):
#
# * plain ``(x, Z, lam)``: ``(0, 2): Lam^T`` and ``(1, 2): Vbar^T``;
# * lifted ``(x, eta, Z, theta)``: ``(0, 1): Lam^T``, ``(0, 3): -Lam^T``,
#   ``(1, 2): -Vbar`` and ``(2, 3): -Vbar^T``.
#
# With ``U`` their strictly upper block matrix, every linear part is
# ``K = U - U^T`` and every preconditioner is ``Phi = D - (U + U^T)``, where
# ``D`` is ``diag(R, W^-1, H^-1)`` (plain) or ``diag(R, 2 H^-1, W^-1, 2 H^-1)``
# (lifted).  So ``Phi + K = D - 2 U^T`` is block lower triangular, and each
# resolvent is one sequential sweep: the subgame, then the local multiplier
# and edge updates.

def constraint_matrix(game):
    """``Lam``: block-diagonal stack of the player coupling blocks, (m*N, n)."""
    return block_diag([p.A for p in game.players])


def incidence_kron(graph, m):
    """``Vbar``: the incidence matrix acting on m-vector-valued node/edge
    data."""
    return np.kron(graph.incidence, np.eye(m))


def coupling_blocks(game, graph, lifted=False):
    """The layout's blocks above the block diagonal, ``{(i, j): B}``."""
    Lam, Vb = constraint_matrix(game), incidence_kron(graph, game.m)
    if lifted:
        return {(0, 1): Lam.T, (0, 3): -Lam.T, (1, 2): -Vb, (2, 3): -Vb.T}
    return {(0, 2): Lam.T, (1, 2): Vb.T}


def _assemble(game, graph, lifted, diagonal, s_u, s_l):
    """The layout's matrix: the given diagonal blocks, ``s_u B`` at each
    coupling block ``(i, j)`` and ``s_l B^T`` at ``(j, i)``."""
    edges = np.cumsum((0,) + layout_sizes(game, graph, lifted))
    b = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    out = np.zeros((edges[-1], edges[-1]))
    for i, D in enumerate(diagonal):
        out[b[i], b[i]] = D
    for (i, j), B in coupling_blocks(game, graph, lifted).items():
        out[b[i], b[j]] = s_u * B
        out[b[j], b[i]] = s_l * B.T
    return out


def linear_part(game, graph, lifted=False):
    """Linear part ``K`` and constant shift ``q`` of the plain or lifted
    equality-coupling operator.

    The full operator adds the normal cone of the product box plus the
    pseudo-subdifferential on the ``x`` block.  The inequality operator has
    the plain layout's linear part and shift, with the normal cone of the
    nonnegative orthant added on the multiplier block.
    """
    K = _assemble(game, graph, lifted, (), 1.0, -1.0)
    sizes = layout_sizes(game, graph, lifted)
    if lifted:
        n, _, mM, _ = sizes
        return K, pack(np.zeros(n), game.b_rows, np.zeros(mM), -game.b_rows)
    n, mM, _ = sizes
    return K, pack(np.zeros(n + mM), game.b_rows)


def dense_preconditioner(params, game, graph, lifted=False):
    """Dense ``Phi`` of the plain (inequality) or lifted (equality) layout."""
    R, H, W = step_matrices(params, game)
    R = block_diag(R)
    Hinv = np.linalg.inv(block_diag(H))
    Winv = np.linalg.inv(block_diag(W))
    D = (R, 2.0 * Hinv, Winv, 2.0 * Hinv) if lifted else (R, Winv, Hinv)
    return _assemble(game, graph, lifted, D, -1.0, -1.0)


def dense_equality_margins(params, game, graph):
    """Smallest eigenvalues of the dense ``R - Lam^T H Lam`` and
    ``W^-1 - Vbar^T H Vbar``."""
    Lam, Vb = constraint_matrix(game), incidence_kron(graph, game.m)
    R, H, W = step_matrices(params, game)
    Hd = block_diag(H)
    Mx = block_diag(R) - Lam.T @ Hd @ Lam
    Mz = np.linalg.inv(block_diag(W)) - Vb.T @ Hd @ Vb
    return {"x": float(np.linalg.eigvalsh(0.5 * (Mx + Mx.T)).min()),
            "z": float(np.linalg.eigvalsh(0.5 * (Mz + Mz.T)).min())}


def dense_schur_complement(params, game, graph):
    """Dense ``H^-1 - Lam R^-1 Lam^T - Vbar W Vbar^T`` (order mN), the Schur
    complement whose smallest eigenvalue is the inequality margin,
    symmetrized."""
    R, H, W = step_matrices(params, game)
    S = -incidence_sandwich(graph.incidence, W)
    S += block_diag([np.linalg.inv(Hi) - p.A @ np.linalg.solve(Ri, p.A.T)
                     for Ri, Hi, p in zip(R, H, game.players)])
    return 0.5 * (S + S.T)


def dense_lifted_jacobian(params, game, graph):
    """``J = (I; H Lam; -2 W Vbar^T H Lam; -(I - 2 H Vbar W Vbar^T) H Lam)``:
    the linear part of the lifted resolvent's sweep in its decision block."""
    Lam, Vb = constraint_matrix(game), incidence_kron(graph, game.m)
    _, H, W = step_matrices(params, game)
    Hd, Wd = block_diag(H), block_diag(W)
    HLam = Hd @ Lam
    return np.vstack([np.eye(game.n), HLam, -2.0 * Wd @ Vb.T @ HLam,
                      -(np.eye(len(Hd)) - 2.0 * Hd @ Vb @ Wd @ Vb.T) @ HLam])


class MatrixResolvent:
    """Exact resolvent of a linear operator ``w -> M w`` under a dense
    preconditioner: solves ``(Phi + M) w_hat = Phi w``."""

    def __init__(self, M, Phi):
        M = np.atleast_2d(np.asarray(M, dtype=float))
        Phi = np.atleast_2d(np.asarray(Phi, dtype=float))
        self._lhs = Phi + M
        self._phi = Phi

    def solve(self, w, nu):
        w_hat = np.linalg.solve(self._lhs, self._phi @ np.atleast_1d(w))
        return ResolventStep(w_hat, 0.0)


def fd_block_gradient(f_value, x, offset, dim, eps=1e-5):
    """Central finite differences of a scalar function along one block."""
    grad = np.empty(dim)
    for j in range(dim):
        plus = x.copy()
        minus = x.copy()
        plus[offset + j] += eps
        minus[offset + j] -= eps
        grad[j] = (f_value(plus) - f_value(minus)) / (2.0 * eps)
    return grad


def rate_control_value(payload, i):
    """Player i's objective of the rate-control family, from the payload."""
    C = np.array(payload["C"])
    chi = np.array(payload["chi"])
    kappa = np.array(payload["kappa"])
    xi = np.array(payload["xi"])

    def value(x, A):
        load = A @ x
        delay = kappa / (C - load + xi)
        return -chi[i] * np.log(x[i] + 1.0) + float(delay @ (A[:, i] * x[i]))

    return value


def task_allocation_value(payload, i):
    """Worker i's objective of the task-allocation family."""
    C = np.array(payload["C"])
    chi = np.array(payload["chi"])
    kappa = np.array(payload["kappa"])
    blk = payload["workers"][i]
    q = np.array(blk["q"])
    xi = np.array(blk["xi"])
    l = np.array(blk["l"])
    d = float(blk["d"])
    p = np.array(blk["p"])
    S = np.array(blk["S"])

    def value(x, A_full, A_i):
        y = x[4 * i:4 * i + 4]
        load = A_full @ x
        price = kappa - chi * np.log(load + 1.0)
        cost = float(np.sum(np.maximum(q * y * y - xi * y, l * y)))
        cost += (p @ y - d) ** 2 + y @ S @ y
        return cost - float(price @ (A_i @ y))

    return value


def quadratic_value(t, delta, i):
    def value(x):
        other = x[1 - i]
        return 0.5 * (x[i] - t[i]) ** 2 + delta * x[i] * other
    return value


def products(game, graph, state):
    """Residual products of a `State`, evaluated afresh by the residual a
    run binds: what the outer driver hands the sweep from that state."""
    return residual_map(game, graph, game.kind)(state.x, state.Z, state.lam)[1]


class FailingInner:
    """Exact inner solves for two outer iterations, then a failure: a raised
    error, or a non-finite solution that makes the run diverge.  A raised
    `StructuralError` or `ValidationError` stands for a closed-form solver
    that fails, or an oracle whose output changes shape, mid-run."""

    def __init__(self, failure):
        self.failure = failure
        self.exact = InnerSolver("exact")
        self.calls = 0

    def bind(self, game, params):
        return bind_checked(self, game, params)

    def solve(self, sub, mu):
        self.calls += 1
        if self.calls < 3:
            return self.exact.solve(sub, mu)
        if self.failure is DivergenceError:
            bad = np.full(sub.anchor.shape, np.inf)
            return InnerSolution(bad, InnerCertificate(0.0, 1))
        raise self.failure("inner solve failed on purpose")


def count_oracle_calls(game):
    """Wrap the oracle the game's smooth gradient reads (the smooth oracle
    of a game with a separable prox, else the profile oracle) in a counter;
    returns the list it appends to.  A run binds the oracle when it starts,
    so the wrapper must be in place before."""
    attr = "smooth_oracle" if game.separable_prox is not None else "profile_oracle"
    oracle, calls = getattr(game, attr), []
    setattr(game, attr, lambda x: calls.append(1) or oracle(x))
    return calls


def misshapen_after(game, solves):
    """``game`` with its closed-form subgame solver replaced by one that
    returns shape (3,) once ``solves`` solves have succeeded, as a
    closed-form solver with a bug would."""
    binder, calls = game.exact_subgame_solver, []

    def bind(R):
        solve = binder(R)

        def misshapen(anchor, shift):
            calls.append(1)
            return solve(anchor, shift) if len(calls) <= solves else np.zeros(3)
        return misshapen

    game.exact_subgame_solver = bind
    return game


def equality_subgame_at(game, graph, params, x, lam, Z):
    """`equality_subgame` at the state ``(x, lam, Z)``, from its residual
    products evaluated afresh."""
    return equality_subgame(game, params, x, lam,
                            residual_map(game, graph, game.kind)(x, Z, lam)[1])


def admm_iterate_componentwise(game, graph, params, state, inner, mu):
    """One proximal ADMM iteration written player-by-player and
    edge-by-edge, as the distributed message pattern runs it: every player
    reads only its own data, its incident edge variables, and (for the edge
    update) the signal of the edge's other endpoint.  Reference for the
    stacked `gnesolve.admm.admm_iterate`."""
    from gnesolve.admm import State

    x, lam, Z = state.x, state.lam, state.Z
    rho = params.rho
    _, H, W = step_matrices(params, game)
    blocks = game.split(x)
    agg = graph.node_aggregate(Z)

    # step 1: regularized subgame, solved to mu
    sol = inner.solve(equality_subgame_at(game, graph, params, x, lam, Z), mu)
    xt_blocks = game.split(sol.x)

    lam_next = np.empty_like(lam)
    tracked_t = np.empty_like(lam)
    for i, p in enumerate(game.players):
        tracked_t[i] = p.A @ xt_blocks[i] + agg[i] - p.b
        lam_next[i] = lam[i] + rho * (H[i] @ tracked_t[i])

    # step 3 signal: recover the unrelaxed multiplier from the relaxed one
    s = np.empty_like(lam)
    for i in range(game.n_players):
        lam_tilde_i = lam_next[i] / rho + (rho - 1.0) / rho * lam[i]
        s[i] = lam_tilde_i + H[i] @ tracked_t[i]

    Z_next = Z.copy()
    for l, (i, j) in enumerate(graph.edges):
        z_tilde = Z[l] - W[l] @ (s[j] - s[i])
        Z_next[l] = Z[l] + rho * (z_tilde - Z[l])

    x_next = np.concatenate([
        xi + rho * (xti - xi) for xi, xti in zip(blocks, xt_blocks)])
    return State.stack(x_next, Z_next, lam_next), sol
