"""Numeric kernels: dilated causal 1-D convolution with exact gradients,
ReLU, inverted dropout and the gradient gate through both, a per-step
linear regression head, MSE loss, and the Adam optimizer.

All kernels are pure functions of their arguments, except that ``relu`` and
``causal_conv_forward`` write into an ``out=`` array when given one,
training-mode ``dropout`` masks and scales its input in place (a ReLU output
the model owns), and ``adam_step`` updates the parameter vector and its
optimizer state in place. The convolution and head kernels compute in their
input's dtype, float64 or float32, rounding weights and bias of the other to
it; they refuse any other input dtype, and in backward an output gradient of
another dtype. Sequence tensors are rank-3, shaped (batch, channels, time).

A convolution is one matrix product per batch slab: its layer's (out,
in*kernel) weight matrix, a view built with the ``ConvParams``, times a tap
matrix cut from one padded copy of the input. That copy is allocated zeroed,
which is its pad's only zero pass; the bias column, also a view, is added
after.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import check_int
from .rng import SplitMix64


@dataclass
class ConvParams:
    """Weights of one dilated causal convolution layer.

    weights: (out_channels, in_channels, kernel_size), bias: (out_channels,).
    float32 arrays stay float32; anything else is stored as float64, and
    weights C-contiguous. ``w2d`` (out_channels, in_channels*kernel_size) and
    ``bias_col`` (out_channels, 1) are the operands ``causal_conv_forward``
    multiplies and adds, built once here as views of ``weights`` and ``bias``,
    so an in-place write to either reaches them; no kernel keeps a rounded copy.
    """

    weights: np.ndarray
    bias: np.ndarray
    dilation: int = 1
    w2d: np.ndarray = field(init=False, repr=False, compare=False)
    bias_col: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dtype = np.float32 if np.asarray(self.weights).dtype == np.float32 else np.float64
        self.weights = np.ascontiguousarray(self.weights, dtype=dtype)
        self.bias = np.asarray(self.bias, dtype=dtype)
        if self.weights.ndim != 3:
            raise ValueError(f"weights must be rank 3, got shape {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[0],):
            raise ValueError(
                f"bias shape {self.bias.shape} does not match "
                f"{self.weights.shape[0]} output channels"
            )
        if self.kernel_size < 1:
            raise ValueError(f"kernel_size must be >= 1, got {self.kernel_size}")
        check_int("dilation", self.dilation, 1)
        self.w2d = self.weights.reshape(self.out_channels, -1)
        self.bias_col = self.bias[:, None]

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.weights.shape[2]


def _check_grad_dtype(x: np.ndarray, grad_out: np.ndarray) -> None:
    if x.dtype != grad_out.dtype:
        raise ValueError(f"input dtype {x.dtype} does not match grad_out dtype {grad_out.dtype}")


def _in_dtype_of(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``a`` rounded to the input's dtype where they differ; it must then be float32 or float64."""
    if a.dtype != x.dtype and x.dtype not in (np.float32, np.float64):
        raise ValueError(f"input dtype {x.dtype} is neither float32 nor float64")
    return a if a.dtype == x.dtype else a.astype(x.dtype)


def _check_input(x: np.ndarray, params: ConvParams) -> None:
    if x.ndim != 3:
        raise ValueError(f"input must be (batch, channels, time), got shape {x.shape}")
    if x.shape[1] != params.in_channels:
        raise ValueError(
            f"input shape {x.shape} has {x.shape[1]} channels but weights "
            f"{params.weights.shape} expect {params.in_channels}"
        )


def _taps(x: np.ndarray, kernel_size: int, dilation: int, causal: bool = True) -> np.ndarray:
    """Tap matrix (batch, channels*kernel, time), rows in the order of the
    columns of ``ConvParams.w2d``: row c*k + j at time t holds
    x[c, t - (k-1-j)*d] (causal) or x[c, t + (k-1-j)*d], and 0 off the ends:
    one strided view of a copy of x padded in front (causal) or behind, plus
    one reshape copy. The pad's one zero pass is the zeroed allocation, which
    at batch 1 costs less than an empty one plus a fill of the pad."""
    if kernel_size == 1:  # a 1x1 convolution's tap matrix is x itself, in C order
        return np.ascontiguousarray(x)
    b, c, t = x.shape
    pad = (kernel_size - 1) * dilation
    front = pad if causal else 0
    buf = np.zeros((b, c, pad + t), dtype=x.dtype)
    buf[:, :, front:front + t] = x
    sb, sc, st = buf.strides
    view = np.ndarray((b, c, kernel_size, t), x.dtype, buf, (pad - front) * st,
                      (sb, sc, (dilation if causal else -dilation) * st, st))
    return view.reshape(b, c * kernel_size, t)


# Bytes of taps per batch slab (so a float32 slab holds twice the rows): a
# slab's tap matrix is multiplied while it is still in L2 (README, "Batch slabs").
_SLAB_BYTES = 512 * 1024


def _slab_rows(channels: int, kernel_size: int, steps: int, itemsize: int) -> int:
    """Batch rows per slab: as many as keep a slab's tap matrix within budget."""
    return max(1, _SLAB_BYTES // max(1, channels * kernel_size * steps * itemsize))


def causal_conv_forward(x: np.ndarray, params: ConvParams,
                        out: np.ndarray | None = None) -> np.ndarray:
    """y[b,o,t] = bias[o] + sum_{c,j} w[o,c,j] * x[b,c,t-(k-1-j)*d], into ``out`` if given."""
    _check_input(x, params)
    k, d = params.kernel_size, params.dilation
    w2d, bias_col = params.w2d, params.bias_col
    if w2d.dtype != x.dtype:  # the bias too, before it is added; float64 predict skips this
        w2d, bias_col = _in_dtype_of(x, w2d), _in_dtype_of(x, bias_col)
    if x.nbytes * k <= _SLAB_BYTES:  # one slab; a cheap test, as every B=1 predict makes it
        taps = _taps(x, k, d)
        out = w2d @ taps if out is None else np.matmul(w2d, taps, out=out)
    else:
        b, c, t = x.shape
        rows = _slab_rows(c, k, t, x.itemsize)
        if out is None:
            out = np.empty((b, params.out_channels, t), x.dtype)
        for lo in range(0, b, rows):
            s = slice(lo, lo + rows)
            np.matmul(w2d, _taps(x[s], k, d), out=out[s])
    out += bias_col
    return out


def causal_conv_backward(
    x: np.ndarray, params: ConvParams, grad_out: np.ndarray, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Exact gradients of sum(grad_out * forward(x)) w.r.t. x, weights, bias from
    one tap matrix per batch slab, the anti-causal taps G of grad_out (row o*k + j
    holds grad_out[o, t + (k-1-j)*d]): grad_weights sums G @ x^T over the batch;
    grad_x is the (in, out*k) weights times G, or None without ``input_grad``."""
    _check_input(x, params)
    b, c, t = x.shape
    o = params.out_channels
    if grad_out.shape != (b, o, t):
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match forward output {(b, o, t)}"
        )
    _check_grad_dtype(x, grad_out)
    k, d = params.kernel_size, params.dilation
    # the sums must not depend on either input's memory layout
    x, grad_out = np.ascontiguousarray(x), np.ascontiguousarray(grad_out)
    grad_bias = grad_out.sum(axis=(0, 2))
    w_t = _in_dtype_of(x, params.weights).transpose(1, 0, 2).reshape(c, -1)
    rows = _slab_rows(o, k, t, x.itemsize)
    per_row = np.empty((b, o * k, c), x.dtype)
    grad_x = np.empty((b, c, t), x.dtype) if input_grad else None
    for lo in range(0, b, rows):
        s = slice(lo, lo + rows)
        g_taps = _taps(grad_out[s], k, d, causal=False)
        np.matmul(g_taps, x[s].transpose(0, 2, 1), out=per_row[s])
        if input_grad:
            np.matmul(w_t, g_taps, out=grad_x[s])
        del g_taps  # freed before the next slab's taps are allocated
    grad_weights = per_row.sum(axis=0).reshape(o, k, c).transpose(0, 2, 1)
    return grad_x, grad_weights, grad_bias


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    # subgradient at exactly 0 is taken as 0
    return np.where(x > 0.0, grad_out, 0.0)


def dropout(x: np.ndarray, p_keep: float, rng: SplitMix64 | None, train: bool) -> np.ndarray:
    """Inverted dropout in place, survivors scaled by 1/p_keep so E[out] = x:
    ``x *= mask; x /= p_keep`` with the mask drawn once per call from ``rng``,
    returning ``x``. Evaluation mode, and training at p_keep 1 (an all-true
    mask), is the identity without a draw."""
    if not 0.0 < p_keep <= 1.0:
        raise ValueError(f"p_keep must be in (0, 1], got {p_keep}")
    if not train or p_keep == 1.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an rng stream")
    x *= rng.bernoulli(p_keep, x.shape)
    x /= p_keep
    return x


def dropout_backward(
    grad_out: np.ndarray, mask: np.ndarray | None, p_keep: float
) -> np.ndarray:
    if mask is None:
        return grad_out
    return grad_out * mask / p_keep


def relu_dropout_backward(grad_out: np.ndarray, gate: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Gradient through ``out = dropout(relu(a))`` w.r.t. a, from the bool ``gate``
    out > 0: grad_out * gate / scale, ``scale`` the p_keep of a drawn mask, else 1.
    out > 0 exactly where a > 0 (the subgradient at 0 is 0) and the mask is
    set, as a positive divided by p_keep <= 1 is never 0. The model's backward
    uses it in place of relu_backward and dropout_backward."""
    grad = grad_out * gate
    if scale != 1.0:
        grad /= scale
    return grad


def linear_head_forward(
    x: np.ndarray, weights: np.ndarray, bias: float
) -> np.ndarray:
    """Per-step regression output y[b,t] = bias + sum_c w[c] * x[b,c,t]."""
    if x.ndim != 3:
        raise ValueError(f"input must be (batch, channels, time), got shape {x.shape}")
    if weights.shape != (x.shape[1],):
        raise ValueError(
            f"head weights shape {weights.shape} does not match "
            f"{x.shape[1]} input channels"
        )
    return _in_dtype_of(x, weights) @ x + bias  # a Python float bias takes x's dtype


def linear_head_backward(
    x: np.ndarray, weights: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Gradients of the head w.r.t. input, weights and bias."""
    if grad_out.shape != (x.shape[0], x.shape[2]):
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match "
            f"output shape {(x.shape[0], x.shape[2])}"
        )
    weights = _in_dtype_of(x, weights)
    _check_grad_dtype(x, grad_out)
    grad_weights = np.tensordot(grad_out, x, axes=([0, 1], [0, 2]))
    grad_bias = float(grad_out.sum())
    grad_x = weights[None, :, None] * grad_out[:, None, :]
    return grad_x, grad_weights, grad_bias


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient 2*(pred - target)/N w.r.t. pred."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"pred shape {pred.shape} != target shape {target.shape}")
    if pred.size == 0:
        raise ValueError("mse_loss needs at least one element")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    return loss, 2.0 * diff / diff.size


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


@dataclass
class AdamState:
    """Adam's first and second moment estimates, each shaped like the
    parameter vector, its learning rate and its step count."""

    m: np.ndarray
    v: np.ndarray
    lr: float = 1e-3
    step: int = 0


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of ``theta`` and ``state``, both in place."""
    if grad.shape != theta.shape:
        raise ValueError(f"grad shape {grad.shape} != param shape {theta.shape}")
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    theta -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
