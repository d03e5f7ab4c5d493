"""Game model: players with box constraints, affine coupling blocks, and
pseudo-gradient oracles.

A game couples ``N`` players through an affine constraint on the sum of the
per-player terms ``A_i x_i``.  Each player supplies a selection oracle for
the subdifferential of its objective in its own variable; the stacked
selection is the game's pseudo-gradient.  Only box-shaped private sets are
supported, which keeps projections exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, StructuralError, ValidationError
from .rng import SplitMix64

EQUALITY = "equality"
INEQUALITY = "inequality"

#: oracle signature: (own block, concatenation of the other blocks in player
#: order) -> subgradient selection for the own block
Oracle = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise StructuralError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with nonempty interior."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = _vector(self.lower, "lower")
        upper = _vector(self.upper, "upper")
        if lower.shape != upper.shape:
            raise StructuralError("box bounds must have equal length")
        if not np.all(lower < upper):
            raise ValidationError("box must satisfy lower < upper componentwise")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.size


@dataclass(frozen=True)
class Player:
    """One player: decision dimension, oracle, coupling block, private box."""

    dim: int
    oracle: Oracle
    A: np.ndarray
    b: np.ndarray
    box: Box

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = _vector(self.b, "b")
        if self.dim < 1:
            raise ValidationError("player dimension must be positive")
        if A.shape[1] != self.dim:
            raise StructuralError(f"A has {A.shape[1]} columns, expected {self.dim}")
        if b.size != A.shape[0]:
            raise StructuralError("b length must equal the row count of A")
        if self.box.dim != self.dim:
            raise StructuralError("box dimension must equal the player dimension")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)


def all_finite(v: np.ndarray) -> bool:
    """Whether every entry of the float array ``v`` is finite.

    A finite ``v . v`` proves it at the cost of one dot product; only when
    it is not (a non-finite entry, or a square sum that overflows) are the
    entries tested one by one.  `np.vdot` computes it because, unlike
    ``dot``, it warns of no overflow, so huge finite entries pass
    silently."""
    return math.isfinite(np.vdot(v, v)) or bool(np.isfinite(v).all())


def _checked(g, shape: tuple, source: str, name: str) -> np.ndarray:
    """An oracle's output as a float array; raises `StructuralError` unless
    it has ``shape``, and `NumericError` unless its entries are finite
    (`all_finite`)."""
    if type(g) is not np.ndarray or g.dtype != np.float64:
        g = np.asarray(g, dtype=float)
    if g.shape != shape:
        raise StructuralError(f"{source} returned shape {g.shape}, expected {shape}")
    if not all_finite(g):
        raise NumericError(f"{name} has non-finite entries")
    return g


def _checking(oracle, n: int, source: str, name: str):
    """``oracle`` with every output checked as `_checked` checks it.  An
    output that is already a float vector of length ``n`` with a finite
    square sum passes on the spot, which is all `_checked` would find;
    any other goes through `_checked`, which converts it or raises."""
    shape = (n,)

    def checked(x):
        g = oracle(x)
        if (type(g) is np.ndarray and g.dtype == np.float64
                and g.shape == shape and math.isfinite(np.vdot(g, g))):
            return g
        return _checked(g, shape, source, name)
    return checked


def padded_layout(dims: Sequence[int]) -> tuple[int, slice | np.ndarray]:
    """Layout of per-player blocks zero-padded to a common order.

    Returns that order and the index of the stacked profile's entries in
    the flattened ``(N, order)`` padding; the index is a plain slice when
    every block already has that order.
    """
    order = max(dims)
    if min(dims) == order:
        return order, slice(None)
    return order, np.concatenate(
        [i * order + np.arange(d) for i, d in enumerate(dims)])


def _coupling_maps(A_stack: np.ndarray, index):
    """The unchecked coupling cores over the blocks ``A_stack``, zero-padded
    to (N, m, order), and the stacked profile's ``index`` in the flattened
    padding (`padded_layout`): ``constraint_rows(x)``, the (N, m) array of
    rows ``A_i x_i``, and ``price_gradient(lam_rows)``, the stacked
    ``A_i^T lam_i``.  With equal orders the profile is that padding
    already, so neither map copies or indexes it.

    Each map's kernel is chosen here, once per game.  When the contracted
    axis has length one (order 1 for ``constraint_rows``, ``m = 1`` for
    ``price_gradient``) every entry of the product is a one-term sum, which
    is its single product: the map is a broadcast multiply with a
    contiguous (N, m) or (N, order) copy of the blocks, equal to the
    batched product bit for bit at a fraction of its call cost.  (The
    batched product adds that term to a zero, so the two can differ only
    in the sign of an exact zero, which no output can show: every trace
    and summary value the maps feed is a norm.)  Every other shape is one
    batched product.
    """
    n_players, m, order = A_stack.shape
    padded = not isinstance(index, slice)
    if order == 1:
        # one player per profile entry, so the layout is never padded
        A_rows = A_stack[:, :, 0].copy()

        def constraint_rows(x):
            return A_rows * x[:, None]
    elif padded:

        def constraint_rows(x):
            padding = np.zeros((n_players, order))
            padding.reshape(-1)[index] = x
            return (A_stack @ padding[:, :, None])[:, :, 0]
    else:

        def constraint_rows(x):
            return (A_stack @ x.reshape(n_players, order, 1))[:, :, 0]

    if m == 1:
        A_cols = A_stack[:, 0, :].copy()
        if padded:

            def price_gradient(lam_rows):
                return (A_cols * lam_rows).reshape(-1)[index]
        else:

            def price_gradient(lam_rows):
                return (A_cols * lam_rows).reshape(-1)
        return constraint_rows, price_gradient

    # a view: it makes `@` run the per-block kernel of `A_i.T @ lam_i`
    At_stack = A_stack.transpose(0, 2, 1)
    if padded:

        def price_gradient(lam_rows):
            return (At_stack @ lam_rows[:, :, None]).reshape(-1)[index]
    else:

        def price_gradient(lam_rows):
            return (At_stack @ lam_rows[:, :, None]).reshape(-1)
    return constraint_rows, price_gradient


class Game:
    """Immutable monotone game with an affine coupling constraint.

    Parameters
    ----------
    players : sequence of Player
        Player data in fixed order; player ``i`` also owns node ``i`` of the
        communication graph.
    kind : str
        ``"equality"`` for ``sum A_i x_i = sum b_i`` or ``"inequality"``
        for ``sum A_i x_i <= sum b_i``.
    profile_oracle : callable, optional
        Vectorized pseudo-gradient ``x -> F(x)`` over the full profile.
        When given it must agree with the per-player oracles; it is used as
        a fast path by the inner solvers.
    exact_subgame_solver : callable, optional
        ``R -> solve``, binding a run's proximal weights (the (n,) vector
        ``AlgoParams.R``) once, where ``solve(anchor, shift) -> x_hat``
        returns the exact equilibrium of the proximally regularized
        subgame.  Supplied by generators of games whose regularized
        equilibrium has a closed form.
    generator : dict, optional
        Metadata echoed into the JSON serialization so that the instance can
        be rebuilt (name of the generating family plus its parameters).
    smooth_oracle, separable_prox : callables, optional
        Splitting structure for objectives with a separable nonsmooth part:
        ``smooth_oracle(x)`` returns the stacked gradient of the smooth
        part, and ``separable_prox(v, gamma)`` the proximal map of the
        nonsmooth part plus the box indicator.  When present, natural-map
        residuals and inner forward-backward steps handle kinks exactly
        instead of relying on the single-valued selection.
    """

    def __init__(self, players: Sequence[Player], kind: str,
                 profile_oracle=None, exact_subgame_solver=None,
                 generator: dict | None = None,
                 smooth_oracle=None, separable_prox=None):
        if kind not in (EQUALITY, INEQUALITY):
            raise ValidationError(f"unknown coupling kind {kind!r}")
        players = tuple(players)
        if not players:
            raise ValidationError("a game needs at least one player")
        m = players[0].A.shape[0]
        for i, p in enumerate(players):
            if p.A.shape[0] != m:
                raise StructuralError(
                    f"player {i} has {p.A.shape[0]} coupling rows, expected {m}")
        self.players = players
        self.kind = kind
        self.m = m
        self.n_players = len(players)
        self.dims = tuple(p.dim for p in players)
        self.n = sum(self.dims)
        self.offsets = tuple(np.cumsum((0,) + self.dims[:-1]))
        self.profile_oracle = profile_oracle
        self.exact_subgame_solver = exact_subgame_solver
        self.generator = dict(generator) if generator else {"name": "opaque"}
        if (smooth_oracle is None) != (separable_prox is None):
            raise ValidationError(
                "smooth_oracle and separable_prox must be supplied together")
        self.smooth_oracle = smooth_oracle
        self.separable_prox = separable_prox
        self.box_lower = np.concatenate([p.box.lower for p in players])
        self.box_upper = np.concatenate([p.box.upper for p in players])
        #: per-player right-hand sides stacked as an (N, m) array
        self.b_rows = np.stack([p.b for p in players])
        self.b_rows.flags.writeable = False
        # coupling blocks zero-padded to (N, m, d_max), so that every A_i x_i
        # and A_i^T lam_i is one product over all players; the unchecked
        # cores of `constraint_rows` and `price_gradient`, each with its
        # kernel chosen for the blocks' shape, are bound to them here
        self._order, self._index = padded_layout(self.dims)
        self._A_stack = np.zeros((self.n_players, m, self._order))
        for As, p in zip(self._A_stack, players):
            As[:, :p.dim] = p.A
        self._constraint_rows, self._price_gradient = _coupling_maps(
            self._A_stack, self._index)

    # -- profile helpers ---------------------------------------------------
    #
    # Each public map checks its argument's shape and calls an unchecked
    # core, a method or closure with a leading underscore.  `_gradient_map`
    # and `_backward_map` bind the oracle and backward cores (the coupling
    # cores are bound when the game is built, `_coupling_maps`): at each
    # call of a public map, and once per run in the run's binders
    # (`InnerSolver.bind`, `residual_map`), whose loops call them; the
    # run's `_check_fit` and `initial_state` fix the shapes of everything
    # they pass.  Oracle outputs are checked on every call (`_checked`).

    def _profile(self, x, name: str = "profile") -> np.ndarray:
        """``x`` as a float array; raises, calling it ``name``, unless its
        shape is ``(n,)``."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise StructuralError(f"{name} shape {x.shape}, expected ({self.n},)")
        return x

    def split(self, x) -> list[np.ndarray]:
        x = self._profile(x)
        return [x[o:o + d] for o, d in zip(self.offsets, self.dims)]

    def project(self, x) -> np.ndarray:
        """Projection onto the product of the private boxes."""
        return self._project(self._profile(x))

    def _project(self, x: np.ndarray, gamma: float = 1.0) -> np.ndarray:
        # `np.clip` bit for bit, without its Python-level wrapper; a
        # projection is the prox of the box indicator at every step size, so
        # ``gamma`` is ignored and this is also the plain games' backward step
        return np.minimum(np.maximum(x, self.box_lower), self.box_upper)

    def sample_profile(self, rng: SplitMix64) -> np.ndarray:
        """Profile drawn uniformly in the product box, coordinate by
        coordinate in profile order."""
        return rng.uniforms(self.n, self.box_lower, self.box_upper)

    # -- oracles -----------------------------------------------------------

    def pseudo_gradient(self, x) -> np.ndarray:
        """Stacked subgradient selection of all players at profile ``x``."""
        return self._gradient_map(smooth=False)(self._profile(x))

    def _gradient_map(self, smooth: bool = True):
        """The unchecked core of `smooth_gradient` (of `pseudo_gradient`
        when ``smooth`` is false) as a map of float vectors of length ``n``,
        bound to the game's oracles as they are now: a run binds it once,
        and calls it without looking the oracle up again.  Every output is
        still checked (`_checking`)."""
        if smooth and self.separable_prox is not None:
            return _checking(self.smooth_oracle, self.n, "smooth oracle",
                             "smooth gradient")
        if self.profile_oracle is not None:
            return _checking(self.profile_oracle, self.n, "profile oracle",
                             "pseudo-gradient")
        return self._player_gradient

    def _player_gradient(self, x: np.ndarray) -> np.ndarray:
        # each player's oracle also reads the other blocks in player order
        # (none in a one-player game)
        blocks = self.split(x)
        return np.concatenate([
            _checked(p.oracle(blocks[i], np.concatenate(
                         [np.empty(0), *blocks[:i], *blocks[i + 1:]])),
                     (p.dim,), f"player {i} oracle", "pseudo-gradient")
            for i, p in enumerate(self.players)])

    # -- coupling-constraint helpers ----------------------------------------

    def constraint_rows(self, x) -> np.ndarray:
        """(N, m) array with row ``i`` equal to ``A_i x_i``."""
        return self._constraint_rows(self._profile(x))

    def local_residual(self, x) -> np.ndarray:
        """(N, m) array with row ``i`` equal to ``A_i x_i - b_i``."""
        return self._constraint_rows(self._profile(x)) - self.b_rows

    def price_gradient(self, lam_rows: np.ndarray) -> np.ndarray:
        """Stacked ``A_i^T lambda_i`` for per-player multipliers (N, m)."""
        lam_rows = np.asarray(lam_rows, dtype=float)
        if lam_rows.shape != (self.n_players, self.m):
            raise StructuralError(
                f"multiplier array shape {lam_rows.shape}, "
                f"expected ({self.n_players}, {self.m})")
        return self._price_gradient(lam_rows)

    def coupling_gap(self, x) -> np.ndarray:
        """``sum_i A_i x_i - sum_i b_i`` (length m)."""
        return self.local_residual(x).sum(axis=0)

    # -- natural map ---------------------------------------------------------

    def natural_step(self, x, price: np.ndarray) -> np.ndarray:
        """One unit step of the natural map for the priced game.

        For plain games this is the box projection of a pseudo-gradient
        step; for games with a splitting structure the nonsmooth part is
        absorbed into its prox, so fixed points characterize solutions even
        where the subgradient selection is discontinuous.
        """
        x = self._profile(x)
        price = self._profile(price, "price")
        return self._backward_map()(x - (self._gradient_map()(x) + price), 1.0)

    def smooth_gradient(self, x) -> np.ndarray:
        """Forward part of the natural map: the smooth oracle for games with
        a splitting structure, otherwise the pseudo-gradient."""
        return self._gradient_map()(self._profile(x))

    def backward_step(self, v, gamma: float) -> np.ndarray:
        """Backward part of the natural map: the separable prox (nonsmooth
        part plus box) when present, otherwise the box projection."""
        return self._backward_map()(self._profile(v), gamma)

    def _backward_map(self):
        """The unchecked core of `backward_step` as a map ``(v, gamma)``,
        bound to the game's backward part as it is now (`_gradient_map`)."""
        if self.separable_prox is not None:
            return self.separable_prox
        return self._project


@dataclass(frozen=True)
class MonotonicityReport:
    min_inner_product: float
    violations: int


def check_monotonicity_samples(game: Game, n_pairs: int,
                               seed: int) -> MonotonicityReport:
    """Sampled monotonicity audit of the pseudo-gradient.

    Draws ``n_pairs`` pairs uniformly in the product box and reports the
    minimum of ``<x - y, F(x) - F(y)>`` along with the count of pairs below
    ``-1e-9``.  This is an audit, not a proof: monotonicity of an arbitrary
    oracle is not verifiable from samples.  No run calls it: runs check the
    pairs they evaluate (`subgames.monotone_ratio`), and the tests audit
    the builtin games with it.
    """
    if n_pairs < 1:
        raise ValidationError("n_pairs must be at least 1")
    # one batch holds the same draws as 2 n_pairs `sample_profile` calls
    draws = SplitMix64(seed).uniforms(
        2 * n_pairs * game.n, np.tile(game.box_lower, 2 * n_pairs),
        np.tile(game.box_upper, 2 * n_pairs)).reshape(n_pairs, 2, game.n)
    inner = np.array([(x - y) @ (game.pseudo_gradient(x) - game.pseudo_gradient(y))
                      for x, y in draws])
    return MonotonicityReport(float(inner.min()), int(np.count_nonzero(inner < -1e-9)))


# -- serialization -----------------------------------------------------------

def game_to_dict(game: Game) -> dict:
    """Documented JSON structure for a game instance.

    Matrices are stored as row-major nested lists.  The ``generator`` block
    carries everything needed to rebuild the objective oracles.
    """
    return {
        "schema": "gnesolve-game-v1",
        "kind": game.kind,
        "m": game.m,
        "generator": game.generator,
        "players": [
            {
                "dim": p.dim,
                "A": p.A.tolist(),
                "b": p.b.tolist(),
                "lower": p.box.lower.tolist(),
                "upper": p.box.upper.tolist(),
            }
            for p in game.players
        ],
    }


def game_from_dict(data: dict) -> Game:
    """Rebuild a game from its JSON structure.

    Objective oracles are code, not data, so only the builtin families of
    `benchgames.FAMILIES` (quadratic, rate-control, task-allocation) load:
    the ``generator`` block rebuilds the game, and the payload must equal
    what `game_to_dict` writes for it.
    """
    from .benchgames import FAMILIES   # benchgames imports this module
    if not isinstance(data, dict) or data.get("schema") != "gnesolve-game-v1":
        raise ValidationError("unrecognized game schema")
    try:
        name = data.get("generator", {}).get("name", "opaque")
        if name not in FAMILIES:
            raise ValidationError(
                f"cannot rebuild objectives for generator {name!r}; "
                f"only the builtin families {sorted(FAMILIES)} are loadable")
        # JSON true equals 1, so the payload comparison would accept it
        for key, value in data["generator"].items():
            if isinstance(value, bool):
                raise ValidationError(f"game payload field {key!r} is a boolean")
        if not isinstance(data["generator"].get("seed", 0), int):
            raise ValidationError("game payload field 'seed' is not an integer")
        game = FAMILIES[name](data["generator"])
        rebuilt = game_to_dict(game)
        differ = [key for key in sorted(data.keys() | rebuilt.keys())
                  if data.get(key) != rebuilt.get(key)]
    except KeyError as exc:
        raise ValidationError(f"game payload is missing field {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValidationError(f"game payload has a malformed field: {exc}") from exc
    if differ:
        raise ValidationError(
            f"game payload does not match generator {name!r} in fields {differ}")
    return game


def save_game(game: Game, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(game_to_dict(game), fh, indent=1)
        fh.write("\n")


def load_game(path) -> Game:
    with open(path, encoding="utf-8") as fh:
        try:
            return game_from_dict(json.load(fh))
        except ValueError as exc:
            raise ValidationError(f"game file {path} is not valid JSON: {exc}") from exc
