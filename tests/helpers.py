"""Independent oracles used by the tests: objective values rebuilt from the
instance payloads (not from the package's gradient code), plain central
finite differences, and the per-player loop form of an ADMM iteration."""

import numpy as np


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


def admm_iterate_componentwise(game, graph, params, state, inner, mu):
    """One proximal ADMM iteration written player-by-player and
    edge-by-edge, as the distributed message pattern runs it: every player
    reads only its own data, its incident edge variables, and (for the edge
    update) the signal of the edge's other endpoint.  Reference for the
    stacked `gnesolve.admm.admm_iterate`."""
    from gnesolve.admm import AdmmState, IterInfo
    from gnesolve.subgames import equality_subgame

    x, lam, Z, k = state.x, state.lam, state.Z, state.k
    rho = params.rho
    blocks = game.split(x)
    agg = graph.node_aggregate(Z)

    # step 1: regularized subgame, solved to mu
    sol = inner.solve(equality_subgame(game, graph, params, x, lam, Z), mu)
    xt_blocks = game.split(sol.x)

    lam_next = np.empty_like(lam)
    tracked_t = np.empty_like(lam)
    for i, p in enumerate(game.players):
        tracked_t[i] = p.A @ xt_blocks[i] + agg[i] - p.b
        lam_next[i] = lam[i] + rho * (params.H[i] @ tracked_t[i])

    # step 3 signal: recover the unrelaxed multiplier from the relaxed one
    s = np.empty_like(lam)
    for i in range(game.n_players):
        lam_tilde_i = lam_next[i] / rho + (rho - 1.0) / rho * lam[i]
        s[i] = lam_tilde_i + params.H[i] @ tracked_t[i]

    Z_next = Z.copy()
    for l, (i, j) in enumerate(graph.edges):
        z_tilde = Z[l] - params.W[l] @ (s[j] - s[i])
        Z_next[l] = Z[l] + rho * (z_tilde - Z[l])

    x_next = np.concatenate([
        xi + rho * (xti - xi) for xi, xti in zip(blocks, xt_blocks)])
    info = IterInfo(sol.certificate.iterations, mu, sol.certificate.bound)
    return AdmmState(x_next, lam_next, Z_next, k + 1), info
