import numpy as np
from hypothesis import example, given, settings, strategies as st

from gnesolve.rng import SplitMix64


def test_reference_sequence():
    # reference values for SplitMix64 with seed 1234567 (Vigna's test vector)
    rng = SplitMix64(1234567)
    assert rng.next_uint64() == 6457827717110365317
    assert rng.next_uint64() == 3203168211198807973
    assert rng.next_uint64() == 9817491932198370423


def test_uniform_range_and_determinism():
    a = SplitMix64(42).uniforms(1000, -3.0, 7.0)
    b = SplitMix64(42).uniforms(1000, -3.0, 7.0)
    assert (a == b).all()
    assert a.min() >= -3.0 and a.max() < 7.0


def test_streams_differ_by_seed():
    assert SplitMix64(0).next_uint64() != SplitMix64(1).next_uint64()


@given(st.integers(0, 2 ** 64 - 1), st.integers(0, 57), st.booleans())
@example(2 ** 64 - 1, 57, True)
@example(2 ** 64 - 1, 0, False)
@settings(max_examples=100, deadline=None)
def test_uniforms_batch_equals_consecutive_draws(seed, n, array_bounds):
    # one uint64 batch gives the values, and leaves the stream where, n
    # calls to uniform do; the counter wraps modulo 2^64 near the top seed
    if array_bounds:
        low = np.linspace(-3.0, 2.0, n)
        high = low + np.linspace(0.5, 9.0, n)
        bounds = list(zip(low, high))
    else:
        low, high = -3.0, 7.0
        bounds = [(low, high)] * n
    batch, single = SplitMix64(seed), SplitMix64(seed)
    got = batch.uniforms(n, low, high)
    want = np.array([single.uniform(lo, hi) for lo, hi in bounds], dtype=float)
    assert got.shape == (n,) and np.array_equal(got, want)
    assert batch.next_uint64() == single.next_uint64()
