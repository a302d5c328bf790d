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
m is below a real x exactly when it is below ceil(x). It is computed as
raw < ceil(p * 2**53) << 11, the same test without the shift pass; at
p = 1, where that threshold would be 2**64, every draw passes.
Splitting draws one raw value from the parent and uses it as the child
key, so child streams are independent of how much of the parent has been
consumed afterwards.

Every draw is computed one way, by ``_raw``: it adds its offset
``k + counter * golden`` to a table of ``(i + 1) * golden`` built once at
import, then mixes that fresh array in place. A scalar draw (``next_u64``,
``spawn``, ``uniform()``) is that array at one element.
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = 0xFFFFFFFFFFFFFFFF
_INV_2_53 = 2.0 ** -53
# (i + 1) * golden mod 2**64 for i < 2**16 (512 KB), enough for a dropout mask
# at the paper's training shape (32 * 4 * 500 = 64,000 draws): an array draw
# adds its offset to a slice of it; a larger draw computes its own steps
_STEPS = np.arange(1, 2 ** 16 + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
_STEPS.setflags(write=False)  # mixing in place must never reach the table


def _mix64(z: np.ndarray) -> np.ndarray:
    """mix64 of every element of a uint64 array, in place; returns it."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def check_seed(seed) -> None:
    """The rule of every seed: an int or a numpy integer (its str reads back), not a bool."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an int or a numpy integer, not a bool, got {seed!r}")


class SplitMix64:
    """Counter-based SplitMix64 stream with a documented wire format."""

    def __init__(self, seed: int):
        check_seed(seed)
        self.key = int(seed) & _MASK
        self.counter = 0

    def _raw(self, n: int) -> np.ndarray:
        # offset in Python ints: numpy's uint64 scalar arithmetic warns on wrap
        offset = np.uint64((self.key + self.counter * _GOLDEN) & _MASK)
        self.counter += n
        steps = (_STEPS if n <= _STEPS.size
                 else np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN))
        return _mix64(steps[:n] + offset)

    def next_u64(self) -> int:
        return int(self._raw(1)[0])

    def spawn(self) -> "SplitMix64":
        """Independent child stream keyed off the next raw parent value."""
        return SplitMix64(self.next_u64())

    def spawned_uniforms(self, counts) -> np.ndarray:
        """The first ``counts[l]`` ``uniform()`` draws of each child that
        ``len(counts)`` ``spawn()`` calls would make, concatenated."""
        counts = np.asarray(counts, dtype=np.int64)
        z = np.arange(1, counts.sum() + 1, dtype=np.uint64)  # counter i + 1 in each child
        z -= np.repeat((np.cumsum(counts) - counts).astype(np.uint64), counts)
        z *= np.uint64(_GOLDEN)
        z += np.repeat(self._raw(len(counts)), counts)
        return (_mix64(z) >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        """Uniform doubles in [low, high): an array of shape size, against
        which low and high may broadcast, or, when size is None, the one
        draw of shape () as a Python float."""
        shape = () if size is None else size
        u = (self._raw(int(np.prod(shape))) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        x = low + u.reshape(shape) * (high - low)
        return x if size is not None else float(x)

    def bernoulli(self, p: float, size) -> np.ndarray:
        """Boolean array equal to ``uniform(size=size) < p``, drawn without floats."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"bernoulli() needs p in [0, 1], got {p}")
        if p == 1.0:  # every draw passes, and the shifted threshold would be 2**64
            self.counter += int(np.prod(size))  # skip the draws, unmixed
            return np.ones(size, dtype=bool)
        raw = self._raw(int(np.prod(size)))
        return (raw < np.uint64(math.ceil(p * 2.0 ** 53) << 11)).reshape(size)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n): for i = n-1 down to 1, swap
        i and min(int(u * (i + 1)), i), with every u drawn in one array."""
        if n < 2:
            return np.arange(n)
        i = np.arange(n - 1, 0, -1)
        j = np.minimum((self.uniform(size=n - 1) * (i + 1)).astype(np.int64), i)
        perm = list(range(n))
        for a, b in zip(i.tolist(), j.tolist()):
            perm[a], perm[b] = perm[b], perm[a]
        return np.array(perm)
