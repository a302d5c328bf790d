"""Shared naive oracles used across test modules."""

from types import SimpleNamespace

import numpy as np

from tcnsoc.kernels import (
    ConvParams,
    causal_conv_backward,
    causal_conv_forward,
    dropout_backward,
    linear_head_backward,
    linear_head_forward,
    relu,
    relu_backward,
)
from tcnsoc.model import _views

# float32 inference matches float64 to this fraction of max(1, |output|)
# (README, "Precision").
FLOAT32_TOL = 1e-5


def float32_tolerance(reference: np.ndarray) -> float:
    """Absolute bound on |float32 - float64| output for float64 ``reference``."""
    return FLOAT32_TOL * max(1.0, float(np.max(np.abs(reference))))


def lag_oracle(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """y[0] = 0, y[k] = a*y[k-1] + b*x[k-1], one sample at a time: the
    sequential first-order lag, bit for bit what scipy.signal's
    lfilter([0, b], [1, -a], x) computes."""
    y = np.zeros(len(x))
    for k in range(1, len(x)):
        y[k] = a * y[k - 1] + b * x[k - 1]
    return y


def init_conv_params(out_channels: int, in_channels: int, kernel_size: int, dilation: int,
                     rng) -> ConvParams:
    """One layer's weights, then bias, drawn from ``rng`` uniform in
    [-1/sqrt(fan_in), +1/sqrt(fan_in)], fan_in = in*k: the per-layer oracle of
    ``build_model``, which draws every layer's child stream in one array."""
    bound = 1.0 / np.sqrt(in_channels * kernel_size)
    weights = rng.uniform(-bound, bound, (out_channels, in_channels, kernel_size))
    bias = rng.uniform(-bound, bound, (out_channels,))
    return ConvParams(weights, bias, dilation)


def below(rng, n: int) -> int:
    """Integer in [0, n) from one scalar draw of ``rng``. Bias is O(n / 2**53),
    negligible for n << 2**53."""
    if n <= 0:
        raise ValueError(f"below() needs n >= 1, got {n}")
    return min(int(rng.uniform() * n), n - 1)


def written_rows(path, float_columns) -> list[list[str]]:
    """The rows of a CSV the package wrote, after checking its format: UTF-8,
    ``\\n`` line ends with no ``\\r`` anywhere, and every field of the named
    columns the shortest round-trip repr of its float."""
    text = path.read_bytes().decode("utf-8")
    assert "\r" not in text and text.endswith("\n")
    rows = [line.split(",") for line in text[:-1].split("\n")]
    for name in float_columns:
        column = rows[0].index(name)
        for row in rows[1:]:
            assert row[column] == repr(float(row[column])), (name, row)
    return rows


def permutation_oracle(rng, n: int) -> np.ndarray:
    """Fisher-Yates permutation of range(n), swapping numpy array elements
    one at a time, from the same draws as SplitMix64.permutation."""
    perm = np.arange(n)
    if n < 2:
        return perm
    u = rng.uniform(size=n - 1)
    for i in range(n - 1, 0, -1):
        j = min(int(u[n - 1 - i] * (i + 1)), i)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


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


def anti_causal_tap_stack_sliced(g: np.ndarray, kernel_size: int, dilation: int) -> np.ndarray:
    """``tap_stack_sliced`` mirrored: row o*k + j at time t holds
    g[o, t + (k-1-j)*d], and 0 past the end."""
    b, o, t = g.shape
    taps = np.zeros((b, o, kernel_size, t), dtype=g.dtype)
    for j in range(kernel_size):
        s = (kernel_size - 1 - j) * dilation
        if s < t:
            taps[:, :, j, :t - s] = g[:, :, s:]
    return taps.reshape(b, o * kernel_size, t)


def conv_weight_grad_anti_causal(x: np.ndarray, params, grad_out: np.ndarray) -> np.ndarray:
    """The weight gradient from the anti-causal taps G of grad_out: row
    o*k + j of G @ x^T, summed over the batch, is grad_weights[o, :, j]."""
    o, c, k = params.weights.shape
    taps = anti_causal_tap_stack_sliced(grad_out, k, params.dilation)
    return (taps @ x.transpose(0, 2, 1)).sum(axis=0).reshape(o, k, c).transpose(0, 2, 1)


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


def dropout_composed(x, p_keep, rng, train):
    """The earlier inverted dropout: a fresh ``x * mask / p_keep`` and its
    mask, or (x, None) without a draw in eval mode and at p_keep 1."""
    if not train or p_keep == 1.0:
        return x, None
    mask = rng.bernoulli(p_keep, x.shape)
    return x * mask / p_keep, mask


def block_forward_composed(block, x, p_keep, train, rng):
    """The earlier residual block: every ReLU and dropout allocates its
    output, and the cache keeps the masks and the pre-activations ``a1``,
    ``a2`` and ``pre``."""
    a1 = causal_conv_forward(x, block.conv1)
    d1, mask1 = dropout_composed(relu(a1), p_keep, rng, train)
    a2 = causal_conv_forward(d1, block.conv2)
    d2, mask2 = dropout_composed(relu(a2), p_keep, rng, train)
    skip = x if block.downsample is None else causal_conv_forward(x, block.downsample)
    pre = d2 + skip
    return relu(pre), SimpleNamespace(x=x, a1=a1, mask1=mask1, d1=d1, a2=a2,
                                      mask2=mask2, pre=pre)


def block_backward_composed(block, cache, grad_y, p_keep):
    """Gradients of ``block_forward_composed`` by separate ReLU and dropout
    gradients, the ReLU gates read from the cached pre-activations, and the
    input gradient of every convolution. Returns
    (grad_x, [conv1, conv2, downsample grads])."""
    g_pre = relu_backward(cache.pre, grad_y)
    g_a2 = relu_backward(cache.a2, dropout_backward(g_pre, cache.mask2, p_keep))
    g_d1, g_w2, g_b2 = causal_conv_backward(cache.d1, block.conv2, g_a2)
    g_a1 = relu_backward(cache.a1, dropout_backward(g_d1, cache.mask1, p_keep))
    g_x, g_w1, g_b1 = causal_conv_backward(cache.x, block.conv1, g_a1)
    grads = [g_w1, g_b1, g_w2, g_b2]
    if block.downsample is None:
        return g_x + g_pre, grads
    g_skip, g_wd, g_bd = causal_conv_backward(cache.x, block.downsample, g_pre)
    return g_x + g_skip, grads + [g_wd, g_bd]


def model_forward_composed(model, x, train=False, rng=None):
    """The network through ``block_forward_composed``: a float32 window runs
    on views of a float32 copy of ``theta``, rounded once up front, which
    ``model.forward``'s kernels must match by rounding per call. Returns
    (output, cache)."""
    if x.dtype == np.float32:
        _, blocks, head_weights, head_bias = _views(model.config,
                                                    model.theta.astype(np.float32))
    else:
        blocks, head_weights, head_bias = model.blocks, model.head_weights, model.head_bias
    h, caches = x, []
    for block in blocks:
        h, cache = block_forward_composed(block, h, model.config.p_keep, train, rng)
        caches.append(cache)
    return linear_head_forward(h, head_weights, float(head_bias[0])), (caches, h)


def model_backward_composed(model, cache, grad_y):
    """Parameter gradients from a float64 ``model_forward_composed`` cache,
    in parameter order."""
    caches, head_input = cache
    g_h, g_hw, g_hb = linear_head_backward(head_input, model.head_weights, grad_y)
    grads = [g_hw, np.array([g_hb])]
    for block, block_cache in zip(reversed(model.blocks), reversed(caches)):
        g_h, block_grads = block_backward_composed(block, block_cache, g_h,
                                                   model.config.p_keep)
        grads[:0] = block_grads
    return grads


def make_positive(model) -> None:
    """Shift every weight to |w| + 0.05 so all ReLU gates stay open for
    non-negative inputs and any positive input bump reaches the output."""
    for arr in model.parameters():
        arr[...] = np.abs(arr) + 0.05
