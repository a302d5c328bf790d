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


def tap_stack_sliced(x: np.ndarray, kernel_size: int, dilation: int) -> np.ndarray:
    """The earlier tap builder: a zeroed (batch, channels, kernel, time)
    buffer filled by one slice copy per tap, reshaped to (batch, channels*kernel, time)."""
    b, c, t = x.shape
    taps = np.zeros((b, c, kernel_size, t), dtype=x.dtype)
    for j in range(kernel_size):
        s = (kernel_size - 1 - j) * dilation
        if s < t:
            taps[:, :, j, s:] = x[:, :, :t - s]
    return taps.reshape(b, c * kernel_size, t)


def conv_forward_sliced(x: np.ndarray, params) -> np.ndarray:
    """The earlier forward kernel: sliced taps, one matmul, bias added in place."""
    taps = tap_stack_sliced(x, params.kernel_size, params.dilation)
    out = params.weights.reshape(params.out_channels, -1) @ taps
    out += params.bias[:, None]
    return out


def conv_backward_sliced(x: np.ndarray, params, grad_out: np.ndarray):
    """The earlier backward kernel: the input gradient is scattered back
    through one slice per tap. Returns (grad_x, grad_weights, grad_bias)."""
    b, c, t = x.shape
    k, d = params.kernel_size, params.dilation
    w2d = params.weights.reshape(params.out_channels, -1)
    grad_bias = grad_out.sum(axis=(0, 2))
    taps = tap_stack_sliced(x, k, d)
    grad_weights = (grad_out @ taps.transpose(0, 2, 1)).sum(axis=0).reshape(params.weights.shape)
    grad_taps = (w2d.T @ grad_out).reshape(b, c, k, t)
    grad_x = np.zeros_like(x)
    for j in range(k):
        s = (k - 1 - j) * d
        if s < t:
            grad_x[:, :, :t - s] += grad_taps[:, :, j, s:]
    return grad_x, grad_weights, grad_bias


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
