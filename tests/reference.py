"""Inexact relaxed preconditioned proximal-point iteration (PPPA): the
reference the two distributed loops are checked against.

One step solves the preconditioned inclusion ``Phi (w - w_hat) in M w_hat``
up to a certified distance ``nu`` and then relaxes:
``w_next = w + rho (w_tilde - w)``.  Resolvent oracles realize the solve by
construction (sequential block formulas); no preconditioner is ever
inverted densely.  The inequality resolvent is the splitting's sweep
itself; the lifted equality resolvent is checked against the ADMM sweep by
`correspondence_check`.  The iterates are stacked vectors whose node and
edge blocks flatten row-major from (N, m) and (M, m) arrays; `fejer_check`
tests their preconditioner-weighted distance to a zero against a dense
``Phi`` (`helpers.dense_preconditioner`).  `ReferenceSolver` solves
subgames to machine precision, with true distances as certificates.
"""

from dataclasses import dataclass

import numpy as np

from gnesolve import subgames
from gnesolve.admm import State, admm_iterate, initial_state, relax
from gnesolve.errors import InexactnessError, StructuralError, ValidationError
from gnesolve.operators import inequality_preconditioner, norm, residual_map
from gnesolve.splitting import splitting_iterate
from gnesolve.subgames import InnerCertificate, InnerSolution, Subgame


# -- the reference subgame solve --------------------------------------------------

#: relative certificate at which the reference equilibrium stops
REFERENCE_TOL = 1e-13


def subgame_steps(sub):
    """Residual mode's forward-backward steps (`subgames._steps`) on the
    subgame ``sub``."""
    return subgames._steps(sub.game, sub.params)(
        sub.anchor, sub.shift, sub.anchor_gradient, sub.history)


def bind_checked(solver, game, params):
    """The solve of a stand-in inner solver with ``solve(sub, mu)``, bound
    to ``game`` and ``params`` as `InnerSolver.bind` binds a mode's: each
    call builds a checked `Subgame` of its arrays and hands it to
    ``solver.solve``."""
    def solve(anchor, shift, anchor_gradient, history, mu):
        return solver.solve(Subgame(game, anchor, shift, params,
                                    anchor_gradient, history), mu)
    return solve


class ReferenceSolver:
    """Inner solver whose certificates are true distances, for the tests.

    It runs residual mode's forward-backward steps (`subgame_steps`) once,
    on until the certificate falls to ``REFERENCE_TOL (1 + |y|)``, which
    gives the reference equilibrium.  On the way it keeps the first iterate
    that certifies ``mu``, residual mode's point, and returns it with its
    distance to the reference as the bound; when ``mu`` is 0, or too small
    to be certified before the reference, it returns the reference itself
    with bound 0, so the reference is ``solve(sub, 0.0).x``.  The run
    drivers accept it like `InnerSolver`: `bind` returns its solve
    (`bind_checked`).
    """

    def bind(self, game, params):
        return bind_checked(self, game, params)

    def solve(self, sub, mu):
        if not mu >= 0.0:
            raise ValidationError(f"inner tolerance must be nonnegative, got {mu}")
        found = None
        for y, bound, it, ratio in subgame_steps(sub):
            if found is None and bound <= mu:
                found = y
            if bound <= REFERENCE_TOL * (1.0 + norm(y)):
                found = y if found is None else found
                return InnerSolution(found, InnerCertificate(
                    norm(found - y), it, ratio))
        raise InexactnessError(
            f"the reference solve could not certify {REFERENCE_TOL:.3g} "
            f"within {subgames.MAX_INNER_STEPS} iterations", achieved=bound)


# -- stacked layouts ------------------------------------------------------------

def layout_sizes(game, graph, lifted=False):
    """Block sizes of the plain ``(x, Z, lam)`` or the lifted
    ``(x, eta, Z, theta)`` layout."""
    n, mM, mN = game.n, game.m * graph.n_edges, game.m * game.n_players
    return (n, mN, mM, mN) if lifted else (n, mM, mN)


def pack(*blocks):
    """Stacked iterate of the given blocks, each flattened row-major."""
    return np.concatenate([np.asarray(b, dtype=float).reshape(-1) for b in blocks])


def _check_length(sizes, w):
    if w.size != sum(sizes):
        raise StructuralError(
            f"stacked iterate has length {w.size}, expected {sum(sizes)}")


def plain_state(game, graph, w):
    """The solver's `State` over a plain stacked iterate ``w``: its views
    ``x``, ``Z`` (M, m) and ``lam`` (N, m)."""
    _check_length(layout_sizes(game, graph), w)
    return State(w, game.n, graph.n_edges, game.m)


def unpack_lifted(game, graph, w):
    """Views ``x, eta (N, m), Z (M, m), theta (N, m)`` of a lifted iterate."""
    sizes = layout_sizes(game, graph, lifted=True)
    _check_length(sizes, w)
    x, *rows = np.split(w, np.cumsum(sizes[:-1]))
    return (x, *(r.reshape(-1, game.m) for r in rows))


# -- the relaxed proximal-point step ----------------------------------------------

@dataclass(frozen=True)
class ResolventStep:
    point: np.ndarray          # the (possibly inexact) resolvent output
    bound: float               # certified distance to the exact resolvent


def pppa_step(resolvent, w, nu, rho):
    """One relaxed step of the inexact preconditioned proximal iteration.

    ``resolvent.solve(w, nu)`` must return a point within ``nu`` of the
    exact preconditioned resolvent at ``w`` together with the certified
    bound; a bound above ``nu`` is an error.
    """
    if not (1.0 <= rho < 2.0):
        raise ValidationError(f"relaxation factor rho={rho} outside [1, 2)")
    if nu < 0:
        raise ValidationError("inexactness tolerance must be nonnegative")
    step = resolvent.solve(w, nu)
    if step.bound > nu + 1e-15:
        raise InexactnessError(
            f"resolvent certified {step.bound:.3g} above requested {nu:.3g}",
            achieved=step.bound)
    return w + rho * (step.point - w), step


def run_proxpoint(resolvent, w0, rho, n_iters):
    """The iterates of ``n_iters`` exact ``pppa_step`` steps, ``w0`` first."""
    history = [np.array(w0, dtype=float)]
    for _ in range(n_iters):
        history.append(pppa_step(resolvent, history[-1], 0.0, rho)[0])
    return history


class InequalityResolvent:
    """Structured resolvent for the inequality-coupling operator.

    It is the splitting's sweep, `splitting_iterate`, on the solver's
    `State` over the iterate: the subgame, then the edge and the projected
    multiplier blocks.
    Inexactness enters only through the subgame solve; the certified bound
    inflates the subgame tolerance by the norm of the linear map the error
    passes through.
    """

    def __init__(self, game, graph, params, inner):
        self.game = game
        self.graph = graph
        self.params = params
        self.inner = inner
        # imported here, since helpers imports this module
        from helpers import step_matrices
        # the splitting's validator: a positive definite metric
        inequality_preconditioner(params, game, graph)
        # certified inflation of the subgame tolerance into the stacked
        # iterate: the multiplier block moves by at most ||2 H Lam|| per
        # unit of decision error (the projection is nonexpansive); H Lam is
        # block-diagonal, so its norm is the largest of its blocks' norms
        _, H, _ = step_matrices(params, game)
        HLam_norm = max(np.linalg.norm(Hi @ p.A, 2)
                        for Hi, p in zip(H, game.players))
        self.nu_factor = float(np.sqrt(1.0 + (2.0 * HLam_norm) ** 2))

    def solve(self, w, nu):
        state = plain_state(self.game, self.graph, w)
        swept, sol = splitting_iterate(
            self.game, self.graph, self.params, state,
            residual_map(self.game, self.graph, self.game.kind)(
                state.x, state.Z, state.lam)[1],
            self.inner, nu / self.nu_factor)
        return ResolventStep(swept.w, self.nu_factor * sol.certificate.bound)


class LiftedEqualityResolvent:
    """Structured resolvent for the lifted equality operator.

    One block sweep at the subgame solution ``x_t``: the subgame (priced by
    ``eta - theta``) gives the decision block, then the two auxiliary
    multiplier halves and the edge block are explicit,
    ``eta_t = eta + H (Vbar Z - A (x - 2 x_t) - b) / 2``,
    ``Z_t = Z + W Vbar^T (eta - 2 eta_t + theta)`` and
    ``theta_t = theta + H (A (x - 2 x_t) + Vbar (Z - 2 Z_t) + b) / 2``.

    The certificate holds in every inner mode: the sweep is affine in
    ``x_t`` with linear part ``J = (I; H Lam; -2 W Vbar^T H Lam;
    -(I - 2 H Vbar W Vbar^T) H Lam)``, and the exact resolvent is the same
    sweep at the exact subgame solution ``x_hat``, so the returned point
    is within ``|J|_2 |x_t - x_hat| <= |J|_2 * certificate`` of it.  The
    sweep at ``x_t`` also follows the distributed algorithm: the subgame
    and `mapped_state` read the auxiliary halves only through
    ``eta - theta``.
    """

    def __init__(self, game, graph, params, inner):
        # imported here, since helpers imports this module
        from helpers import block_diag, incidence_sandwich, step_matrices
        self.game = game
        self.graph = graph
        self.params = params
        self.inner = inner
        # |J|_2^2 = 1 + lmax(HLam^T Q HLam) with Q = I + 4 Vbar W^T W Vbar^T
        # + P^T P and P = I - 2 H Vbar W Vbar^T, all of order mN; HLam is
        # block-diagonal with blocks H_i A_i, so lmax is of order n
        V, mN = graph.incidence, game.m * game.n_players
        _, H, W = step_matrices(params, game)
        P = np.eye(mN) - 2.0 * block_diag(H) @ incidence_sandwich(V, W)
        Q = (np.eye(mN) + P.T @ P + 4.0 * incidence_sandwich(
            V, W.transpose(0, 2, 1) @ W))
        HLam = block_diag([Hi @ p.A for Hi, p in zip(H, game.players)])
        self.nu_factor = float(np.sqrt(
            1.0 + np.linalg.eigvalsh(HLam.T @ Q @ HLam)[-1]))

    def solve(self, w, nu):
        game, graph, params = self.game, self.graph, self.params
        x, eta, Z, theta = unpack_lifted(game, graph, w)
        sub = Subgame(game, x, game.price_gradient(eta - theta), params,
                      game.smooth_gradient(x))
        sol = self.inner.solve(sub, nu / self.nu_factor)
        reflected = game.constraint_rows(x - 2.0 * sol.x)   # A_i (x - 2 x_t)
        eta_t = eta + 0.5 * params.apply_H(
            graph.node_aggregate(Z) - reflected - game.b_rows)
        Z_t = Z + params.apply_W(graph.edge_differences(eta - 2.0 * eta_t + theta))
        theta_t = theta + 0.5 * params.apply_H(
            reflected + graph.node_aggregate(Z - 2.0 * Z_t) + game.b_rows)
        return ResolventStep(pack(sol.x, eta_t, Z_t, theta_t),
                             self.nu_factor * sol.certificate.bound)


# -- correspondence of the ADMM loop with the lifted iteration -------------------

@dataclass(frozen=True)
class CorrespondenceReport:
    max_deviation: float
    per_iteration: list


def lifted_initial_point(game, graph, params, state):
    """Lifted iterate matched to a distributed-algorithm state.

    The auxiliary split starts at ``theta = 0``, which forces
    ``eta = lam + H (tracked constraint residual)`` for the state mapping to
    hold at iteration zero.
    """
    tracked = game.local_residual(state.x) + graph.node_aggregate(state.Z)
    eta0 = state.lam + params.apply_H(tracked)
    theta0 = np.zeros_like(eta0)
    return pack(state.x, eta0, state.Z, theta0)


def mapped_state(game, graph, params, w):
    """Distributed-algorithm state read off a lifted iterate."""
    x, eta, Z, theta = unpack_lifted(game, graph, w)
    tracked = game.local_residual(x) + graph.node_aggregate(Z)
    lam = eta - theta - params.apply_H(tracked)
    return State.stack(x, Z, lam)


def correspondence_check(game, graph, params, n_iters, inner, seed=0,
                         eta_perturbation=0.0):
    """Run the distributed loop and the lifted proximal-point iteration side
    by side and report the worst relative mismatch under the state mapping.

    With exact inner solves the two trajectories coincide up to rounding;
    ``eta_perturbation`` shifts the lifted starting point to demonstrate
    that the mapping is not accidental.
    """
    state = initial_state(game, graph, seed)
    w = lifted_initial_point(game, graph, params, state)
    if eta_perturbation != 0.0:
        x0, eta0, Z0, theta0 = unpack_lifted(game, graph, w)
        w = pack(x0, eta0 + eta_perturbation, Z0, theta0)
    resolvent = LiftedEqualityResolvent(game, graph, params, inner)
    deviations = []
    worst = 0.0
    for k in range(1, n_iters + 1):
        mu = params.mu(k)
        at = residual_map(game, graph, game.kind)(state.x, state.Z, state.lam)[1]
        swept, _ = admm_iterate(game, graph, params, state, at, inner, mu)
        state = relax(state, swept, params.rho)
        w, _ = pppa_step(resolvent, w, resolvent.nu_factor * mu, params.rho)
        mapped = mapped_state(game, graph, params, w)
        dev = max(
            float(np.linalg.norm(state.x - mapped.x)) / (1.0 + float(np.linalg.norm(state.x))),
            float(np.linalg.norm(state.Z - mapped.Z)) / (1.0 + float(np.linalg.norm(state.Z))),
            float(np.linalg.norm(state.lam - mapped.lam)) / (1.0 + float(np.linalg.norm(state.lam))),
        )
        deviations.append(dev)
        worst = max(worst, dev)
    return CorrespondenceReport(worst, deviations)


# -- trajectory-level monotone distance ---------------------------------------------

@dataclass(frozen=True)
class FejerReport:
    monotone: bool
    worst_violation: float


def fejer_check(history, phi, w_star, slack=1e-10):
    """Check that the preconditioner-weighted distance to a known zero never
    increases along a trajectory of exact relaxed resolvent steps.

    ``history`` is a sequence of stacked iterates; ``phi`` the dense
    preconditioner; ``w_star`` any zero of the operator.
    """
    w_star = np.asarray(w_star, dtype=float)
    worst = 0.0
    previous = None
    for w in history:
        diff = np.asarray(w, dtype=float) - w_star
        dist = float(np.sqrt(diff @ (phi @ diff)))
        if previous is not None:
            worst = max(worst, dist - previous)
        previous = dist
    return FejerReport(worst <= slack, worst)
