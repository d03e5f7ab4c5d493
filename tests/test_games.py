import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gnesolve as gs
from gnesolve.games import Box, Player
from gnesolve.errors import NumericError, StructuralError, ValidationError
from gnesolve.rng import SplitMix64

from helpers import constraint_matrix, fd_block_gradient, quadratic_value


# -- boxes ---------------------------------------------------------------------

def box_game(lower, upper):
    """One-player game whose private set is the box ``[lower, upper]``."""
    box = Box(np.asarray(lower, dtype=float), np.asarray(upper, dtype=float))
    player = Player(box.dim, lambda xi, o: xi, np.zeros((1, box.dim)),
                    np.zeros(1), box)
    return gs.Game([player], gs.EQUALITY)


def test_box_clamps():
    game = box_game(np.zeros(2), np.full(2, 5.0))
    assert np.allclose(game.project(np.array([-1.0, 7.0])), [0.0, 5.0])
    inside = np.array([1.0, 4.9])
    assert np.array_equal(game.project(inside), inside)
    tight = box_game(np.zeros(3), np.full(3, 6.0))
    assert np.allclose(tight.project(np.full(3, 6.0001)), np.full(3, 6.0))


def test_project_rejects_a_wrong_length_profile():
    # a short profile would otherwise broadcast against the box bounds, and
    # a column profile of the right length would broadcast to a square; the
    # other public profile maps check the shape too, the backward step
    # whether it is the box projection or a separable prox, while the loops
    # call their unchecked cores on shapes the run fixed once
    for game in (box_game(np.zeros(2), np.full(2, 5.0)),
                 gs.task_allocation_game(0)):
        n = game.n
        for call in (game.project, game.pseudo_gradient, game.smooth_gradient,
                     game.constraint_rows, game.local_residual,
                     lambda x: game.backward_step(x, 1.0),
                     lambda x: game.natural_step(x, np.zeros(n))):
            for bad in (np.full(n - 1, 5.0), np.full((n, 1), 5.0)):
                with pytest.raises(StructuralError, match=re.escape(
                        f"profile shape {bad.shape}, expected ({n},)")):
                    call(bad)
        for price in (np.zeros(n + 1), np.zeros((n, 1))):
            with pytest.raises(StructuralError, match=re.escape(
                    f"price shape {price.shape}, expected ({n},)")):
                game.natural_step(np.zeros(n), price)


#: entries on which a clamp can differ from np.clip: signed zeros, infinities,
#: nan, the smallest subnormals and normal, and ordinary values
CLAMP_EDGES = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                        2.2250738585072014e-308, -1.5, 0.5, 1.0, 2.5])


def same_bits(a, b) -> bool:
    """Equal as IEEE bit patterns: signs of zero and nan payloads included."""
    return np.array_equal(np.asarray(a, dtype=float).view(np.int64),
                          np.asarray(b, dtype=float).view(np.int64))


def test_box_steps_equal_np_clip_bit_for_bit():
    # Game.project and task allocation's separable prox clamp with
    # np.minimum/np.maximum instead of np.clip; they must give its bits, with
    # the same bound arrays, on the edge entries and on the bounds themselves
    for lower, upper in itertools.product((0.0, -0.0, 5e-324, -1.0, -np.inf),
                                          (1.0, 5e-324, np.inf)):
        if not lower < upper:
            continue
        v = np.concatenate([CLAMP_EDGES, [lower, upper]])
        game = box_game(np.full(v.size, lower), np.full(v.size, upper))
        assert same_bits(game.project(v),
                         np.clip(v, game.box_lower, game.box_upper))
    game = gs.task_allocation_game(0)
    l = np.concatenate([w["l"] for w in game.generator["workers"]])
    lower, upper = game.box_lower, game.box_upper
    edges = np.resize(CLAMP_EDGES, game.n)
    for v in (edges, lower, upper, -lower, edges + upper, edges - upper):
        for gamma in (0.0, 0.5):
            assert same_bits(game.separable_prox(v, gamma),
                             np.clip(v - gamma * l, lower, upper))
            assert same_bits(game.project(v), np.clip(v, lower, upper))


def test_box_rejects_empty_interior():
    with pytest.raises(ValidationError):
        Box(np.array([0.0, 1.0]), np.array([1.0, 1.0]))


@given(st.lists(st.floats(-50, 50), min_size=3, max_size=3),
       st.lists(st.floats(-50, 50), min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_box_projection_idempotent_and_nonexpansive(u, v):
    game = box_game([-1.0, 0.0, 2.0], [1.0, 3.0, 9.0])
    u, v = np.array(u), np.array(v)
    pu, pv = game.project(u), game.project(v)
    assert np.array_equal(game.project(pu), pu)
    assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12


# -- pseudo-gradient -----------------------------------------------------------

def test_pseudo_gradient_quadratic_example():
    # closed-form gradient (x_i - t_i + delta x_{-i}) at x = t reversed
    game, _ = gs.quadratic_game(t=(2.0, 1.0), delta=0.5)
    pg = game.pseudo_gradient(np.array([2.0, 1.0]))
    assert np.allclose(pg, [0.5, 1.0])


def test_zero_objective_game():
    box = Box(np.array([-1.0]), np.array([1.0]))
    players = [Player(1, lambda xi, o: np.zeros(1), np.array([[1.0]]),
                      np.array([0.0]), box) for _ in range(3)]
    game = gs.Game(players, gs.EQUALITY)
    assert np.array_equal(game.pseudo_gradient(np.zeros(3)), np.zeros(3))
    report = gs.check_monotonicity_samples(game, 50, seed=1)
    assert report.violations == 0 and report.min_inner_product == 0.0


def test_oracle_shape_and_finiteness_errors():
    box = Box(np.array([-1.0]), np.array([1.0]))
    bad_shape = Player(1, lambda xi, o: np.zeros(2), np.array([[1.0]]),
                       np.array([0.0]), box)
    good = Player(1, lambda xi, o: np.zeros(1), np.array([[1.0]]),
                  np.array([0.0]), box)
    game = gs.Game([bad_shape, good], gs.EQUALITY)
    with pytest.raises(StructuralError):
        game.pseudo_gradient(np.zeros(2))
    nan_player = Player(1, lambda xi, o: np.array([np.nan]), np.array([[1.0]]),
                        np.array([0.0]), box)
    game = gs.Game([nan_player, good], gs.EQUALITY)
    with pytest.raises(NumericError):
        game.pseudo_gradient(np.zeros(2))


def test_checked_refuses_non_finite_entries_and_passes_huge_ones():
    # one dot product proves an oracle value finite; when it is not finite
    # the entries are tested one by one, so NaN and both infinities raise,
    # while entries whose square sum overflows pass, without a warning
    # (pytest turns warnings into errors)
    from gnesolve.games import _checked
    for bad in (np.nan, np.inf, -np.inf):
        g = np.ones(5)
        g[3] = bad
        with pytest.raises(NumericError, match="gradient has non-finite entries"):
            _checked(g, (5,), "oracle", "gradient")
    huge = np.array([1e200, -1e200, 1e200, 0.0, 1.0])
    assert _checked(huge, (5,), "oracle", "gradient") is huge
    huge[2] = np.nan
    with pytest.raises(NumericError):
        _checked(huge, (5,), "oracle", "gradient")
    # other inputs are converted to float arrays before the shape test
    assert np.array_equal(_checked([1, 2], (2,), "oracle", "gradient"), [1.0, 2.0])
    with pytest.raises(StructuralError, match=r"returned shape \(1, 2\)"):
        _checked(np.zeros((1, 2)), (2,), "oracle", "gradient")
    player = Player(3, lambda xi, o: xi, np.zeros((1, 3)), np.zeros(1),
                    Box(-np.ones(3), np.ones(3)))
    game = gs.Game([player], gs.EQUALITY, profile_oracle=lambda x: 1e200 * x)
    assert np.array_equal(game.pseudo_gradient(np.ones(3)), np.full(3, 1e200))


def blockwise(game, x):
    """Pseudo-gradient through the per-player oracles: the same players in
    a game without the vectorized profile oracle."""
    return gs.Game(game.players, game.kind).pseudo_gradient(x)


def test_profile_oracle_matches_blockwise():
    # the vectorized oracles against the per-player ones, on the box and at
    # shifted points whose rates and loads go negative (the soft-log
    # helpers' slow branch); task allocation's are flat products that sum
    # in another order than its per-worker oracles, so agreement is to
    # 1e-12, not bit for bit
    negative_loads = 0
    for build in (lambda: gs.rate_control_game(0),
                  lambda: gs.task_allocation_game(0),
                  lambda: gs.quadratic_game()[0]):
        game = build()
        A = np.hstack([p.A for p in game.players])
        rng = SplitMix64(9)
        for _ in range(5):
            x = game.sample_profile(rng)
            for y in (x, x - 0.5 * game.box_upper, x - game.box_upper):
                reference = blockwise(game, y)
                assert np.allclose(game.pseudo_gradient(y), reference,
                                   rtol=1e-12, atol=1e-12)
                if game.smooth_oracle is None:
                    continue
                # task allocation: smooth part plus the max-branch selection
                # (ties to the quadratic branch), rebuilt from the payload;
                # the box holds only the linear branch, and the shifted
                # points reach the quadratic one at their negative coordinates
                workers = game.generator["workers"]
                q, xi, l = (np.concatenate([w[key] for w in workers])
                            for key in ("q", "xi", "l"))
                branch = np.where(q * y * y - xi * y >= l * y,
                                  2.0 * q * y - xi, l)
                assert np.allclose(game.smooth_oracle(y) + branch, reference,
                                   rtol=1e-12, atol=1e-12)
                negative_loads += (A @ y).min() < 0.0
    assert negative_loads >= 5


def _where_soft_log1p(u):
    return np.where(u >= 0.0, np.log1p(np.maximum(u, 0.0)), u - 0.5 * u * u)


def _where_soft_log1p_grad(u):
    return np.where(u >= 0.0, 1.0 / (1.0 + np.maximum(u, 0.0)), 1.0 - u)


def _where_soft_log1p_and_grad(u):
    return _where_soft_log1p(u), _where_soft_log1p_grad(u)


def test_soft_log1p_fast_path_bit_identical(monkeypatch):
    # the nonnegative-input fast path of the soft-log helper (value and
    # slope, with one `min` test) reproduces the two-branch formulas bit for
    # bit, on the box and on shifted profiles whose loads and rates are
    # partly negative
    from gnesolve import benchgames
    games = (gs.rate_control_game(0), gs.task_allocation_game(0))
    rng = SplitMix64(21)
    points = []
    for game in games:
        for _ in range(20):
            x = game.sample_profile(rng)
            points += [(game, y) for y in (x, x - 0.5 * game.box_upper,
                                           x - game.box_upper)]
    oracles = ("profile_oracle", "smooth_oracle")
    fast = [[getattr(g, name)(y) for name in oracles
             if getattr(g, name) is not None] + [blockwise(g, y)]
            for g, y in points]
    loads = [np.concatenate([y, np.hstack([p.A for p in g.players]) @ y])
             for g, y in points]
    helpers = [benchgames._soft_log1p_and_grad(u) for u in loads]
    assert sum(u.min() < 0.0 for u in loads) >= 5
    assert any(u.min() >= 0.0 for u in loads)
    monkeypatch.setattr(benchgames, "_soft_log1p_and_grad", _where_soft_log1p_and_grad)
    for (g, y), got in zip(points, fast):
        want = [getattr(g, name)(y) for name in oracles
                if getattr(g, name) is not None] + [blockwise(g, y)]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    for u, (value, slope) in zip(loads, helpers):
        assert np.array_equal(value, _where_soft_log1p(u))
        assert np.array_equal(slope, _where_soft_log1p_grad(u))


def test_stacked_decision_roundtrip():
    game, _ = gs.quadratic_game()
    x = np.array([0.25, -0.75])
    blocks = game.split(x)
    assert [b.size for b in blocks] == list(game.dims) == [1, 1]
    assert np.array_equal(np.concatenate(blocks), x)


# -- stacked coupling blocks -------------------------------------------------------

def coupling_per_player(game, x, lam_rows):
    """`constraint_rows`, `local_residual` and `price_gradient` written
    player by player: the reference for the stacked products."""
    blocks = game.split(x)
    rows = np.stack([p.A @ xi for p, xi in zip(game.players, blocks)])
    residual = np.stack([p.A @ xi - p.b for p, xi in zip(game.players, blocks)])
    price = np.concatenate([p.A.T @ li for p, li in zip(game.players, lam_rows)])
    return rows, residual, price


def coupling_stacked(game, x, lam_rows):
    return (game.constraint_rows(x), game.local_residual(x),
            game.price_gradient(lam_rows))


@given(st.lists(st.integers(1, 4), min_size=1, max_size=5), st.integers(1, 5),
       st.booleans(), st.integers(0, 2 ** 31))
@settings(max_examples=80, deadline=None)
def test_stacked_coupling_matches_per_player_forms(dims, m, equal_dims, seed):
    if equal_dims:
        dims = [dims[0]] * len(dims)
    rng = np.random.default_rng(seed)
    players = [Player(d, lambda xi, o: np.zeros_like(xi), rng.normal(size=(m, d)),
                      rng.normal(size=m), Box(-np.ones(d), np.ones(d)))
               for d in dims]
    game = gs.Game(players, gs.EQUALITY)
    x = rng.normal(size=game.n)
    lam = rng.normal(size=(game.n_players, m))
    rows, residual, price = coupling_stacked(game, x, lam)
    Lam = constraint_matrix(game)
    np.testing.assert_allclose(rows.reshape(-1), Lam @ x, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(residual.reshape(-1),
                               Lam @ x - game.b_rows.reshape(-1),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(price, Lam.T @ lam.reshape(-1),
                               rtol=1e-12, atol=1e-12)
    if len(set(dims)) == 1:
        # no padding: each block runs the kernel of its per-player product
        for got, want in zip((rows, residual, price),
                             coupling_per_player(game, x, lam)):
            assert np.array_equal(got, want)
    for bad_x in (np.zeros(game.n + 1), np.zeros(game.n - 1)):
        with pytest.raises(StructuralError):
            game.constraint_rows(bad_x)
        with pytest.raises(StructuralError):
            game.local_residual(bad_x)
    for bad_lam in (np.zeros((game.n_players, m + 1)), lam.reshape(-1),
                    np.zeros((game.n_players + 1, m))):
        with pytest.raises(StructuralError):
            game.price_gradient(bad_lam)


@given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 16),
       st.integers(0, 2 ** 31))
@settings(max_examples=40, deadline=None)
def test_constraint_rows_skip_padding_bit_for_bit(order, n_players, m, seed):
    # with equal block orders the profile is the padded layout itself, so
    # constraint_rows multiplies it directly; that gives the bits of the
    # zero-filled, scattered padding
    rng = np.random.default_rng(seed)
    players = [Player(order, lambda xi, o: np.zeros_like(xi),
                      rng.normal(size=(m, order)), rng.normal(size=m),
                      Box(-np.ones(order), np.ones(order)))
               for _ in range(n_players)]
    game = gs.Game(players, gs.EQUALITY)
    assert isinstance(game._index, slice)
    x = rng.normal(size=game.n)
    padded = np.zeros((n_players, order))
    padded.reshape(-1)[:] = x
    want = (game._A_stack @ padded[:, :, None])[:, :, 0]
    assert np.array_equal(game.constraint_rows(x), want)


@given(st.lists(st.integers(1, 4), min_size=1, max_size=5), st.integers(1, 16),
       st.booleans(), st.integers(0, 2 ** 31))
@example([1, 1], 1, False, 0)           # both maps one-term (the sweep's game)
@example([1] * 5, 16, False, 1)         # order 1 (rate control's layout)
@example([4, 2, 3], 1, True, 2)         # m = 1 on a padded layout
@example([1, 3, 2], 5, True, 3)         # padded, neither axis of length one
@settings(max_examples=120, deadline=None)
def test_coupling_kernels_bit_identical_to_batched_matmul(dims, m, mixed, seed):
    # whichever kernel `Game` chose for the blocks' shape (a broadcast
    # multiply where the contracted axis has length one, a batched matmul
    # otherwise), the coupling maps give the bits of the batched matmul over
    # the padded stack, and of the per-player products when no block is
    # padded; "mixed" puts a one-dimensional player among wider ones
    rng = np.random.default_rng(seed)
    if mixed:
        dims = list(rng.permutation([1] + [max(d, 2) for d in (dims[1:] or [2])]))
    else:
        dims = [dims[0]] * len(dims)
    players = [Player(d, lambda xi, o: np.zeros_like(xi), rng.normal(size=(m, d)),
                      rng.normal(size=m), Box(-np.ones(d), np.ones(d)))
               for d in dims]
    game = gs.Game(players, gs.EQUALITY)
    assert isinstance(game._index, slice) == (not mixed)
    shape = (game.n_players, m)
    x = rng.normal(size=game.n)
    lam = rng.normal(size=shape)
    shared = np.broadcast_to(lam[0], shape)     # the KKT report's multiplier
    padding = np.zeros((game.n_players, game._order))
    padding.reshape(-1)[game._index] = x
    rows = (game._A_stack @ padding[:, :, None])[:, :, 0]

    def price(lam_rows):
        return (game._A_stack.transpose(0, 2, 1)
                @ lam_rows[:, :, None]).reshape(-1)[game._index]
    assert np.array_equal(game.constraint_rows(x), rows)
    assert np.array_equal(game.local_residual(x), rows - game.b_rows)
    for lam_rows in (lam, shared):
        assert np.array_equal(game.price_gradient(lam_rows), price(lam_rows))
    if not mixed:
        for got, want in zip(coupling_stacked(game, x, lam),
                             coupling_per_player(game, x, lam)):
            assert np.array_equal(got, want)
        assert np.array_equal(game.price_gradient(shared),
                              coupling_per_player(game, x, shared)[2])


def test_stacked_coupling_bit_identical_on_shipped_games():
    rng = SplitMix64(17)
    for game in (gs.rate_control_game(0), gs.task_allocation_game(0),
                 gs.quadratic_game()[0]):
        shape = (game.n_players, game.m)
        for _ in range(10):
            x = game.sample_profile(rng)
            lam = rng.uniforms(game.n_players * game.m, -5.0, 5.0).reshape(shape)
            for y in (x, x - 0.5 * game.box_upper):
                for got, want in zip(coupling_stacked(game, y, lam),
                                     coupling_per_player(game, y, lam)):
                    assert np.array_equal(got, want)
            # one shared multiplier for every player, as the KKT report uses
            shared = lam[0]
            assert np.array_equal(
                game.price_gradient(np.broadcast_to(shared, shape)),
                np.concatenate([p.A.T @ shared for p in game.players]))


# -- monotonicity audit ----------------------------------------------------------

def test_monotone_quadratic_audit():
    game, _ = gs.quadratic_game(delta=0.5)
    report = gs.check_monotonicity_samples(game, 1000, seed=7)
    assert report.violations == 0
    assert report.min_inner_product >= -1e-9


@pytest.mark.parametrize("build", [gs.rate_control_game, gs.task_allocation_game],
                         ids=["rate", "task"])
def test_audit_batch_equals_per_pair_samples(build):
    # the audit draws all its pairs in one batch; the reference draws each
    # profile with its own sample_profile call, x then y, pair by pair
    game = build(0)
    rng = SplitMix64(11)
    inner = []
    for _ in range(60):
        x = game.sample_profile(rng)
        y = game.sample_profile(rng)
        inner.append(float((x - y) @ (game.pseudo_gradient(x)
                                      - game.pseudo_gradient(y))))
    report = gs.check_monotonicity_samples(game, 60, seed=11)
    assert report.min_inner_product == min(inner)
    assert report.violations == sum(v < -1e-9 for v in inner)


def test_non_monotone_coupling_detected():
    # delta = 2 makes the coupling matrix indefinite; built by hand because
    # the generator refuses it
    box = Box(np.array([-10.0]), np.array([10.0]))
    t = (2.0, 1.0)

    def oracle(i):
        return lambda xi, o: np.array([xi[0] - t[i] + 2.0 * o[0]])

    players = [Player(1, oracle(i), np.array([[1.0]]), np.array([0.5]), box)
               for i in range(2)]
    game = gs.Game(players, gs.EQUALITY)
    report = gs.check_monotonicity_samples(game, 1000, seed=7)
    assert report.violations > 0


def test_audit_rejects_zero_pairs():
    game, _ = gs.quadratic_game()
    with pytest.raises(ValidationError):
        gs.check_monotonicity_samples(game, 0, seed=0)


# -- finite differences against the analytic oracles ------------------------------

def test_quadratic_gradient_matches_fd():
    game, _ = gs.quadratic_game(t=(2.0, 1.0), delta=0.5)
    rng = SplitMix64(3)
    for _ in range(20):
        x = game.sample_profile(rng)
        pg = game.pseudo_gradient(x)
        for i in range(2):
            fd = fd_block_gradient(quadratic_value((2.0, 1.0), 0.5, i), x, i, 1)
            assert abs(fd[0] - pg[i]) <= 1e-5 * max(1.0, abs(pg[i]))


# -- serialization -----------------------------------------------------------------

def test_json_roundtrip_quadratic(tmp_path):
    game, _ = gs.quadratic_game()
    path = tmp_path / "game.json"
    gs.save_game(game, path)
    loaded = gs.load_game(path)
    assert loaded.kind == game.kind and loaded.m == game.m
    x = np.array([0.4, -0.2])
    assert np.allclose(loaded.pseudo_gradient(x), game.pseudo_gradient(x))


def test_json_roundtrip_benchmarks(tmp_path):
    for build in (gs.rate_control_game, gs.task_allocation_game):
        game = build(3)
        path = tmp_path / "inst.json"
        gs.save_game(game, path)
        loaded = gs.load_game(path)
        for p, q in zip(game.players, loaded.players):
            assert np.array_equal(p.A, q.A)
            assert np.array_equal(p.b, q.b)
            assert np.array_equal(p.box.upper, q.box.upper)
        x = game.sample_profile(SplitMix64(5))
        assert np.allclose(loaded.pseudo_gradient(x), game.pseudo_gradient(x))


def test_opaque_games_not_loadable():
    box = Box(np.array([-1.0]), np.array([1.0]))
    players = [Player(1, lambda xi, o: np.zeros(1), np.array([[1.0]]),
                      np.array([0.0]), box) for _ in range(2)]
    game = gs.Game(players, gs.EQUALITY)
    data = gs.game_to_dict(game)
    with pytest.raises(ValidationError):
        gs.game_from_dict(data)


@pytest.mark.parametrize("edit", ["cut players", "kind and m", "b one ulp",
                                  "generator value", "extra key"])
def test_payload_header_must_match_the_rebuilt_game(edit):
    # the generator rebuilds the whole game from its seed; a payload that is
    # not exactly what it writes is not that game, and the error names the
    # differing top-level fields (a b one ulp off, a changed generator value
    # and an extra key used to load)
    data = gs.game_to_dict(gs.rate_control_game(0))
    fields = ["players"]
    if edit == "cut players":
        data["players"] = data["players"][:3]
    elif edit == "kind and m":
        data["kind"], data["m"] = gs.EQUALITY, 99
        fields = ["kind", "m"]
    elif edit == "b one ulp":
        b = data["players"][4]["b"]
        b[2] = float(np.nextafter(b[2], np.inf))
    elif edit == "generator value":
        data["generator"] = dict(data["generator"], chi=data["generator"]["B"])
        fields = ["generator"]
    else:
        data["note"] = "hand-edited"
        fields = ["note"]
    with pytest.raises(ValidationError, match=re.escape(
            f"does not match generator 'rate-control' in fields {fields}")):
        gs.game_from_dict(data)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("build", [
    lambda seed: gs.quadratic_game(t=(2.0, 1.0 + seed), delta=0.5 - 0.25 * seed,
                                   kind=(gs.EQUALITY, gs.INEQUALITY)[seed % 2])[0],
    gs.rate_control_game, gs.task_allocation_game],
    ids=["quadratic", "rate-control", "task-allocation"])
def test_saved_game_loads_to_the_same_payload(tmp_path, build, seed):
    game = build(seed)
    gs.save_game(game, tmp_path / "game.json")
    assert gs.game_to_dict(gs.load_game(tmp_path / "game.json")) \
        == gs.game_to_dict(game)
