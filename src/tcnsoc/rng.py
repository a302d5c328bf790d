"""Deterministic, splittable random number stream.

Every stochastic choice in this package (weight initialization, dropout
masks, shuffles, synthetic profiles) is drawn from a SplitMix64 counter
stream so that runs are bit-reproducible and the stream can be regenerated
in any language from the constants below.

Stream definition, for a 64-bit key ``k`` (all arithmetic mod 2**64):

    raw(i) = mix64(k + (i + 1) * 0x9E3779B97F4A7C15)          i = 0, 1, 2, ...

    mix64(z):
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        return z ^ (z >> 31)

A uniform double in [0, 1) takes the top 53 bits: (raw >> 11) * 2**-53.
A Bernoulli(p) draw is the integer test (raw >> 11) < ceil(p * 2**53). It
equals uniform() < p bit for bit: scaling by 2**53 is exact, and an integer
m is below a real x exactly when it is below ceil(x).
Splitting draws one raw value from the parent and uses it as the child
key, so child streams are independent of how much of the parent has been
consumed afterwards.
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = 0xFFFFFFFFFFFFFFFF
_INV_2_53 = 2.0 ** -53


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


class SplitMix64:
    """Counter-based SplitMix64 stream with a documented wire format."""

    def __init__(self, seed: int):
        self.key = np.uint64(seed & _MASK)
        self.counter = 0

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        return _mix64(self.key + idx * _GOLDEN)

    def next_u64(self) -> int:
        return int(self._raw(1)[0])

    def spawn(self) -> "SplitMix64":
        """Independent child stream keyed off the next raw parent value."""
        return SplitMix64(self.next_u64())

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        """Uniform doubles in [low, high); scalar when size is None."""
        n = 1 if size is None else int(np.prod(size))
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        out = low + u * (high - low)
        if size is None:
            return float(out[0])
        return out.reshape(size)

    def bernoulli(self, p: float, size) -> np.ndarray:
        """Boolean array equal to ``uniform(size=size) < p``, drawn without floats."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"bernoulli() needs p in [0, 1], got {p}")
        n = int(np.prod(size))
        threshold = np.uint64(math.ceil(p * 2.0 ** 53))
        return ((self._raw(n) >> np.uint64(11)) < threshold).reshape(size)

    def below(self, n: int) -> int:
        """Integer in [0, n). Bias is O(n / 2**53), negligible for n << 2**53."""
        if n <= 0:
            raise ValueError(f"below() needs n >= 1, got {n}")
        return min(int(self.uniform() * n), n - 1)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        perm = np.arange(n)
        if n < 2:
            return perm
        u = self.uniform(size=n - 1)
        for i in range(n - 1, 0, -1):
            j = min(int(u[n - 1 - i] * (i + 1)), i)
            perm[i], perm[j] = perm[j], perm[i]
        return perm
