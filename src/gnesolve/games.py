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


def _checked(g, shape: tuple, source: str, name: str) -> np.ndarray:
    """An oracle's output as a float array; raises `StructuralError` unless
    it has ``shape``, and `NumericError` unless its entries are finite.

    A finite ``g . g`` proves every entry finite at the cost of one dot
    product; only when it is not (a non-finite entry, or a square sum that
    overflows) are the entries tested one by one.  `np.vdot` computes it
    because, unlike ``dot``, it warns of no overflow, so huge finite
    entries pass silently."""
    if type(g) is not np.ndarray or g.dtype != np.float64:
        g = np.asarray(g, dtype=float)
    if g.shape != shape:
        raise StructuralError(f"{source} returned shape {g.shape}, expected {shape}")
    if not math.isfinite(np.vdot(g, g)) and not np.isfinite(g).all():
        raise NumericError(f"{name} has non-finite entries")
    return g


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
        ``R_blocks -> solve``, binding a run's proximal weights once, where
        ``solve(anchor, shift) -> x_hat`` returns the exact equilibrium of
        the proximally regularized subgame.  Supplied by generators of games
        whose regularized equilibrium has a closed form.
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
        # and A_i^T lam_i is one batched product; the transpose stays a view,
        # which makes `@` run the per-block kernel of `A_i.T @ lam_i`
        self._order, self._index = padded_layout(self.dims)
        self._A_stack = np.zeros((self.n_players, m, self._order))
        for As, p in zip(self._A_stack, players):
            As[:, :p.dim] = p.A
        self._At_stack = self._A_stack.transpose(0, 2, 1)

    # -- profile helpers ---------------------------------------------------

    def _profile(self, x) -> np.ndarray:
        """``x`` as a flat float array; raises unless it has length ``n``."""
        x = np.asarray(x, dtype=float)
        if x.size != self.n:
            raise StructuralError(f"profile length {x.size}, expected {self.n}")
        return x

    def split(self, x) -> list[np.ndarray]:
        x = self._profile(x)
        return [x[o:o + d] for o, d in zip(self.offsets, self.dims)]

    def project(self, x) -> np.ndarray:
        """Projection onto the product of the private boxes (`np.clip` bit
        for bit, without its Python-level wrapper)."""
        return np.minimum(np.maximum(self._profile(x), self.box_lower), self.box_upper)

    def sample_profile(self, rng: SplitMix64) -> np.ndarray:
        """Profile drawn uniformly in the product box, coordinate by
        coordinate in profile order."""
        return rng.uniforms(self.n, self.box_lower, self.box_upper)

    # -- oracles -----------------------------------------------------------

    def pseudo_gradient(self, x) -> np.ndarray:
        """Stacked subgradient selection of all players at profile ``x``."""
        if self.profile_oracle is not None:
            return _checked(self.profile_oracle(self._profile(x)), (self.n,),
                            "profile oracle", "pseudo-gradient")
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
        x = self._profile(x)
        if isinstance(self._index, slice):      # equal orders: no padding
            return (self._A_stack @ x.reshape(self.n_players, self._order, 1))[:, :, 0]
        padded = np.zeros((self.n_players, self._order))
        padded.reshape(-1)[self._index] = x
        return (self._A_stack @ padded[:, :, None])[:, :, 0]

    def local_residual(self, x) -> np.ndarray:
        """(N, m) array with row ``i`` equal to ``A_i x_i - b_i``."""
        return self.constraint_rows(x) - self.b_rows

    def price_gradient(self, lam_rows: np.ndarray) -> np.ndarray:
        """Stacked ``A_i^T lambda_i`` for per-player multipliers (N, m)."""
        lam_rows = np.asarray(lam_rows, dtype=float)
        if lam_rows.shape != (self.n_players, self.m):
            raise StructuralError(
                f"multiplier array shape {lam_rows.shape}, "
                f"expected ({self.n_players}, {self.m})")
        return (self._At_stack @ lam_rows[:, :, None]).reshape(-1)[self._index]

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
        x = np.asarray(x, dtype=float)
        price = np.asarray(price, dtype=float)
        return self.backward_step(x - (self.smooth_gradient(x) + price), 1.0)

    def smooth_gradient(self, x) -> np.ndarray:
        """Forward part of the natural map: the smooth oracle for games with
        a splitting structure, otherwise the pseudo-gradient."""
        if self.separable_prox is None:
            return self.pseudo_gradient(x)
        return _checked(self.smooth_oracle(self._profile(x)), (self.n,),
                        "smooth oracle", "smooth gradient")

    def backward_step(self, v, gamma: float) -> np.ndarray:
        """Backward part of the natural map: the separable prox (nonsmooth
        part plus box) when present, otherwise the box projection."""
        if self.separable_prox is not None:
            return self.separable_prox(v, gamma)
        return self.project(v)


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
