"""Distributed equality-coupled equilibrium seeking (proximal ADMM loop),
and the outer driver both algorithms share.

One sweep solves the regularized subgame inexactly, updates the local
multipliers with the tracked constraint residual, and exchanges the
resulting signals along edges to update the edge variables.  The driver
relaxes each sweep by the common factor, so one outer iteration is one
relaxed step of the preconditioned proximal iteration on the lifted
operator, which `correspondence_check` in `tests/reference.py` verifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, GnesolveError, ValidationError
from .games import EQUALITY, Game, all_finite
from .graphs import CommGraph
from .operators import PointProducts, norm, residual_map, step_size_margins
from .params import AlgoParams
from .rng import SplitMix64
from .subgames import InnerSolution, InnerSolver, monotone_ratio
from .trace import TraceRow


class State:
    """The stacked iterate of both algorithms: one contiguous float vector
    ``w``, and its views ``x`` (n,) of the decisions, ``Z`` (M, m) of the
    edge variables and ``lam`` (N, m) of the local multipliers, in order.
    ``history`` holds the outer steps before it, which the sweep's
    subgame reads (`Subgame.history`): empty unless the outer loop
    (`iterate_to_tolerance`) set it."""

    __slots__ = ("w", "x", "Z", "lam", "history")

    def __init__(self, w: np.ndarray, n: int, n_edges: int, m: int):
        self.w = w
        self.x = w[:n]
        self.Z = w[n:n + n_edges * m].reshape(n_edges, m)
        self.lam = w[n + n_edges * m:].reshape(-1, m)
        self.history = ()

    @classmethod
    def stack(cls, x, Z, lam) -> "State":
        """The state of copies of the blocks ``x``, ``Z`` and ``lam``."""
        n_edges, m = np.shape(Z)
        return cls(np.concatenate((x, Z, lam), axis=None, dtype=float),
                   np.size(x), n_edges, m)

    def empty_like(self) -> "State":
        """A state with this state's layout over a new, unset vector."""
        return State(np.empty_like(self.w), self.x.size, *self.Z.shape)


def initial_state(game: Game, graph: CommGraph, seed: int = 0) -> State:
    """Random decisions inside the box; zero multipliers and edge variables."""
    return State.stack(game.sample_profile(SplitMix64(seed)),
                       np.zeros((graph.n_edges, game.m)),
                       np.zeros((game.n_players, game.m)))


def admm_sweep(game: Game, graph: CommGraph, params: AlgoParams, solve):
    """The sweep of `admm_iterate`, bound to one run:
    ``sweep(state, at, mu, out) -> InnerSolution`` writes the unrelaxed
    blocks over the state ``out``, and ``solve`` is the run's subgame solve
    (`InnerSolver.bind`).  Player ``i``'s subgame price is ``A_i^T`` times
    its multiplier plus ``H_i`` times its tracked constraint residual
    (``at.tracked``).  The coupling rows, step sizes and incidence matrix
    are looked up here, once."""
    price_gradient = game._price_gradient
    constraint_rows, b_rows = game._constraint_rows, game.b_rows
    H, W, Vt = params.H, params.W, graph.incidence.T

    def sweep(state, at, mu, out):
        x, lam, Z = state.x, state.lam, state.Z
        sol = solve(x, price_gradient(lam + H * at.tracked), at.gradient,
                    state.history, mu)
        out.x[:] = sol.x
        h_t = H * (constraint_rows(sol.x) - b_rows + at.node_aggregate)
        np.add(lam, h_t, out=out.lam)
        np.subtract(Z, W * (Vt @ (out.lam + h_t)), out=out.Z)
        return sol
    return sweep


def admm_iterate(game: Game, graph: CommGraph, params: AlgoParams,
                 state: State, at: PointProducts, inner: InnerSolver,
                 mu: float) -> tuple[State, InnerSolution]:
    """Per-call form for `perfbench/spans.py`; a run binds its closure once.
    One unrelaxed sweep (`admm_sweep`, solving by `InnerSolver.bind`) as
    stacked array updates: subgame solve to ``mu``, multiplier step along
    ``H`` times the tracked constraint residual, and edge step along ``W``
    times the multiplier-signal differences.  ``at`` holds the products the
    residual built at ``state`` (`residual_map`): the subgame reads them
    with the state's history, and the new tracked residual reuses their
    ``V Z``.  Each per-player and per-edge row reads only its own data and
    its neighbours' signals; the blocks are written into one new state."""
    out = state.empty_like()
    sweep = admm_sweep(game, graph, params, inner.bind(game, params))
    return out, sweep(state, at, mu, out)


def relax(state: State, swept: State, rho: float) -> State:
    """``w + rho (w_hat - w)``, written over ``swept``'s vector and returned
    as ``swept``: the outer loop does not read the sweep again.  A caller
    that still reads the sweep relaxes a copy of it."""
    w = swept.w
    w -= state.w
    w *= rho
    w += state.w
    return swept


@dataclass(frozen=True)
class StopRule:
    """Stop when every residual is at most ``tol`` or after ``max_iter``
    outer iterations; ``tol = 0`` runs the whole budget."""
    max_iter: int = 10_000
    tol: float = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ValidationError(
                f"stop.tol must be finite and nonnegative, got {self.tol}")
        if self.max_iter < 0:
            raise ValidationError(
                f"stop.max_iter must be nonnegative, got {self.max_iter}")


@dataclass
class RunResult:
    state: State
    rows: list
    converged: bool
    iterations: int
    residuals: object
    margins: dict              # step-size validator margins checked at start
    inner_steps: int           # over all outer iterations
    #: smallest monotonicity ratios seen, ``"inner"`` over the inner steps
    #: and ``"outer"`` over successive outer iterates; None without a pair
    monotonicity: dict


def iterate_to_tolerance(game: Game, graph: CommGraph, params: AlgoParams,
                         inner: InnerSolver, stop: StopRule, seed: int,
                         bind_sweep) -> RunResult:
    """The outer loop of both algorithms.

    Refuses to start if the step-size conditions fail (`step_size_margins`)
    and reports their margins on the result; starts from
    ``initial_state(game, graph, seed)``.  Those two fix every shape the
    loop passes on, once per run: the validators check that the graph and
    step sizes fit the game (`operators._check_fit`), and the initial state
    lays out the iterate, so the loop's maps do not check shapes again.
    Then the run binds its maps once: the subgame solve
    (`InnerSolver.bind`), the residual of the game's coupling kind
    (`residual_map`), which builds a state's `PointProducts` and returns
    them with its distance to the operator's zero set, and the algorithm's
    sweep ``bind_sweep(game, graph, params, solve)``, which from a state and
    those products writes the unrelaxed blocks over a second state and
    returns the subgame solution behind them.  Each outer iteration sweeps
    into the idle one of two states made once per run and relaxes it by
    ``params.rho`` in place (`relax`), so the loop allocates no state.  Each
    relaxed state carries the trajectory's last two outer steps and
    smooth-gradient changes, ``(dx, dF)`` newest first, as its ``history``:
    the differences the monotonicity check forms, from which the next
    sweep's inner solve predicts its first step.  Each trace row records
    the residuals the stop rule tests.  Successive iterates' smooth
    gradients must pass the monotonicity check ``<dF, dx> >= 0``
    (`monotone_ratio`); the result reports its smallest ratio and that of
    the inner solves.  Stops when every residual is at most ``stop.tol`` or
    after ``stop.max_iter`` iterations; a non-finite state raises
    `DivergenceError`.  Any `GnesolveError` raised inside the loop carries
    the failing outer iteration, the trace rows computed before it, and the
    inner steps taken before it; one raised before the loop carries none.
    """
    margins = step_size_margins(params, game, graph)
    sweep = bind_sweep(game, graph, params, inner.bind(game, params))
    state = initial_state(game, graph, seed)
    idle = state.empty_like()
    residual = residual_map(game, graph, game.kind)
    rho = params.rho
    rows: list[TraceRow] = []
    k = inner_steps = 0
    inner_ratio = outer_ratio = math.inf
    try:
        res, at = residual(state.x, state.Z, state.lam)
        converged = max(res) <= stop.tol
        while not converged and k < stop.max_iter:
            k += 1
            mu = params.mu(k)
            sol = sweep(state, at, mu, idle)
            new = relax(state, idle, rho)
            cert = sol.certificate
            inner_steps += cert.iterations
            inner_ratio = min(inner_ratio, cert.monotonicity)
            if not all_finite(new.w):
                raise DivergenceError(f"non-finite state at outer iteration {k}")
            res, at_new = residual(new.x, new.Z, new.lam)
            dx = new.x - state.x
            dF = at_new.gradient - at.gradient
            new.history = ((dx, dF), *state.history[:1])
            step_norm = norm(dx)
            outer_ratio = min(outer_ratio, monotone_ratio(
                float(dF.dot(dx)), 0.0, step_norm,
                (at.gradient, at_new.gradient), "<dF, dx>"))
            # equality residuals have no complementarity part
            rows.append(TraceRow(
                k, step_norm, res.stationarity, res.consensus_edge,
                res.feasibility, getattr(res, "complementarity", math.nan),
                cert.iterations, mu, cert.bound))
            converged = max(res) <= stop.tol
            state, idle, at = new, state, at_new
    except GnesolveError as exc:
        exc.iteration, exc.rows, exc.inner_steps = k, rows, inner_steps
        raise
    monotonicity = {"inner": inner_ratio, "outer": outer_ratio}
    return RunResult(state, rows, converged, k, res, margins, inner_steps,
                     {key: value if value < math.inf else None
                      for key, value in monotonicity.items()})


def run_admm(game: Game, graph: CommGraph, params: AlgoParams,
             inner: InnerSolver, stop: StopRule = StopRule(),
             seed: int = 0) -> RunResult:
    """Iterate to convergence of all equality-operator residuals.

    Refuses to start if the fixed-step-size conditions fail, and reports
    their margins on the result.  Stops when the stationarity,
    multiplier-difference, and constraint-tracking residuals all fall below
    ``stop.tol``, or errors out on non-finite states.
    """
    if game.kind != EQUALITY:
        raise ValidationError("the equality algorithm needs an equality-coupled game")
    return iterate_to_tolerance(game, graph, params, inner, stop, seed,
                                admm_sweep)
