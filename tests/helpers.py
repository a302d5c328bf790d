"""Shared naive oracles used across test modules."""

import numpy as np

# float32 inference matches float64 to this fraction of max(1, |output|)
# (README, "Precision").
FLOAT32_TOL = 1e-5


def float32_tolerance(reference: np.ndarray) -> float:
    """Absolute bound on |float32 - float64| output for float64 ``reference``."""
    return FLOAT32_TOL * max(1.0, float(np.max(np.abs(reference))))


def conv_oracle(x: np.ndarray, w: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    """Defining sum of the left-padded causal convolution, loops only."""
    batch, channels, steps = x.shape
    out_ch, _, k = w.shape
    out = np.zeros((batch, out_ch, steps))
    for bi in range(batch):
        for o in range(out_ch):
            for t in range(steps):
                acc = b[o]
                for c in range(channels):
                    for j in range(k):
                        ti = t - (k - 1 - j) * d
                        if ti >= 0:
                            acc += w[o, c, j] * x[bi, c, ti]
                out[bi, o, t] = acc
    return out


def model_forward_oracle(model, x: np.ndarray) -> np.ndarray:
    """Eval-mode network output composed from the naive convolution oracle."""
    h = x
    for block in model.blocks:
        a1 = np.maximum(conv_oracle(h, block.conv1.weights, block.conv1.bias,
                                    block.conv1.dilation), 0.0)
        a2 = np.maximum(conv_oracle(a1, block.conv2.weights, block.conv2.bias,
                                    block.conv2.dilation), 0.0)
        if block.downsample is None:
            skip = h
        else:
            skip = conv_oracle(h, block.downsample.weights, block.downsample.bias, 1)
        h = np.maximum(a2 + skip, 0.0)
    out = np.empty((x.shape[0], x.shape[2]))
    for bi in range(x.shape[0]):
        for t in range(x.shape[2]):
            out[bi, t] = model.head_bias[0] + float(
                np.dot(model.head_weights, h[bi, :, t])
            )
    return out


def make_positive(model) -> None:
    """Shift every weight to |w| + 0.05 so all ReLU gates stay open for
    non-negative inputs and any positive input bump reaches the output."""
    for arr in model.parameters():
        arr[...] = np.abs(arr) + 0.05
