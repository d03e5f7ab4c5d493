"""Deterministic random generator for reproducible benchmark instances.

The generator is SplitMix64 (Steele, Lea & Flood, 2014): a 64-bit counter
advanced by the golden-ratio increment 0x9E3779B97F4A7C15, with the output
mixed through two xor-shift-multiply rounds.  Doubles are produced from the
top 53 bits, so every draw is reproducible bit-for-bit in any language with
64-bit integer arithmetic.  This is deliberately independent of numpy's
generator to keep instance files portable.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """SplitMix64 stream seeded by a 64-bit integer."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform double in [low, high) from the top 53 bits."""
        u = (self.next_uint64() >> 11) * 2.0 ** -53
        return low + (high - low) * u

    def uniforms(self, n: int, low=0.0, high=1.0) -> np.ndarray:
        """``n`` uniform doubles in ``[low, high)``, bounds scalars or arrays
        of length ``n``: the same values, and the same stream position
        afterwards, as ``n`` calls to `uniform`, computed in one batch of
        ``uint64`` arithmetic that wraps modulo 2^64."""
        z = np.uint64(self._state) + np.uint64(_GAMMA) * np.arange(
            1, n + 1, dtype=np.uint64)
        self._state = (self._state + n * _GAMMA) & _MASK
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        u = ((z ^ (z >> np.uint64(31))) >> np.uint64(11)) * 2.0 ** -53
        return low + (high - low) * u
