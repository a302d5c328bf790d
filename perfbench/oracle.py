"""Reference computations the correctness gate checks the package against.

They are written from the documented model (README "Architecture" and the
TCN1 parameter order) and share no code with ``tcnsoc``, so a wrong kernel,
window or closed-loop buffer shows up as a mismatch on any seed.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Predictions are SOC fractions; 1e-5 admits reordered float64 sums and a
# float32 inference path, and rejects any real fault.
ABS_TOL = 1e-5
# Relative tolerance on scalar fingerprints (MSE, MAE, epoch history).
REL_TOL = 1e-5


def conv(x: np.ndarray, weights: np.ndarray, bias: np.ndarray, dilation: int) -> np.ndarray:
    """y[b,o,t] = bias[o] + sum_{c,j} w[o,c,j] * x[b,c,t-(k-1-j)*d], zero before t=0."""
    k = weights.shape[2]
    t = x.shape[2]
    pad = (k - 1) * dilation
    xp = np.concatenate([np.zeros(x.shape[:2] + (pad,)), x], axis=2)
    y = np.zeros((x.shape[0], weights.shape[0], t)) + bias[None, :, None]
    for j in range(k):
        y += weights[:, :, j] @ xp[:, :, j * dilation: j * dilation + t]
    return y


def forward_last(model, windows: np.ndarray) -> np.ndarray:
    """Final-step output of the eval-mode network for windows (B, 4, W)."""
    cfg = model.config
    params = iter(model.parameters())
    h = np.asarray(windows, dtype=np.float64)
    for s in range(cfg.stacks):
        for i in range(cfg.blocks_per_stack):
            in_ch = cfg.input_features if (s == 0 and i == 0) else cfg.filters
            d = 2 ** i
            a = np.maximum(conv(h, next(params), next(params), d), 0.0)
            a = np.maximum(conv(a, next(params), next(params), d), 0.0)
            skip = conv(h, next(params), next(params), 1) if in_ch != cfg.filters else h
            h = np.maximum(a + skip, 0.0)
    head_w, head_b = next(params), next(params)
    return head_w @ h[:, :, -1].T + head_b[0]


def normalized(cycle, norm) -> np.ndarray:
    """(4, n) min-max scaled voltage, current, temperature and SOC."""
    cols = (cycle.voltage_v, cycle.current_a, cycle.temperature_c, cycle.soc)
    names = ("voltage", "current", "temperature", "soc")
    return np.stack([(c - getattr(norm, f"{n}_min")) / (getattr(norm, f"{n}_max") - getattr(norm, f"{n}_min"))
                     for c, n in zip(cols, names)])


def window_at(features: np.ndarray, past_soc: np.ndarray, start: int, width: int) -> np.ndarray:
    """One (1, 4, W) input: telemetry at start..start+W-1 and SOC shifted one step."""
    w = np.empty((1, 4, width))
    w[0, :3] = features[:3, start:start + width]
    w[0, 3, 0] = past_soc[start]
    w[0, 3, 1:] = past_soc[start:start + width - 1]
    return w


def mae(pred: np.ndarray, truth: np.ndarray) -> float:
    return math.fsum(abs(float(p) - float(t)) for p, t in zip(pred, truth)) / len(pred)


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(abs(a), abs(b), 1e-12)


def compare(observed, expected, path: str = "") -> list[str]:
    """Mismatches between two nested fingerprints of floats, lists and dicts."""
    if isinstance(expected, dict):
        if not isinstance(observed, dict) or set(observed) != set(expected):
            return [f"{path or 'fingerprint'}: keys differ"]
        return [m for key in expected for m in compare(observed[key], expected[key], f"{path}.{key}" if path else key)]
    if isinstance(expected, list):
        if not isinstance(observed, list) or len(observed) != len(expected):
            return [f"{path}: not a list of {len(expected)} entries"]
        return [m for i, (o, e) in enumerate(zip(observed, expected)) for m in compare(o, e, f"{path}[{i}]")]
    if not close(float(observed), float(expected)):
        return [f"{path}: {observed!r} != reference {expected!r}"]
    return []


class SpeedReference:
    """Fixed pure-numpy work, independent of tcnsoc, that tracks the machine's speed.

    It is a stack of small dilated convolutions on fixed random weights:
    the same mix of small-array numpy calls and Python dispatch as the
    package's own inference, so it slows down with the machine.
    """

    passes = 64

    def __init__(self):
        rng = np.random.default_rng(2020)
        self.x = rng.standard_normal((1, 4, 250))
        self.layers = [(rng.uniform(-0.2, 0.2, (4, 4, 8)), rng.uniform(-0.1, 0.1, 4), 2 ** (i % 4))
                       for i in range(16)]

    def _pass(self) -> None:
        h = self.x
        for weights, bias, dilation in self.layers:
            h = np.maximum(conv(h, weights, bias, dilation), 0.0)

    def seconds(self) -> float:
        """Time of ``passes`` passes, after one untimed pass that warms the caches."""
        self._pass()
        start = time.perf_counter()
        for _ in range(self.passes):
            self._pass()
        return time.perf_counter() - start
