"""Numeric kernels: dilated causal 1-D convolution with exact gradients,
ReLU, inverted dropout, a per-step linear regression head, MSE loss, and
the Adam optimizer.

All kernels are pure functions of their arguments and operate on float64
arrays. Sequence tensors are rank-3, shaped (batch, channels, time).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import SplitMix64


@dataclass
class ConvParams:
    """Weights of one dilated causal convolution layer.

    weights: (out_channels, in_channels, kernel_size), bias: (out_channels,).
    """

    weights: np.ndarray
    bias: np.ndarray
    dilation: int = 1

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 3:
            raise ValueError(f"weights must be rank 3, got shape {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[0],):
            raise ValueError(
                f"bias shape {self.bias.shape} does not match "
                f"{self.weights.shape[0]} output channels"
            )
        if self.kernel_size < 1:
            raise ValueError(f"kernel_size must be >= 1, got {self.kernel_size}")
        if self.dilation < 1:
            raise ValueError(f"dilation must be >= 1, got {self.dilation}")

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.weights.shape[2]

    @property
    def n_params(self) -> int:
        return self.weights.size + self.bias.size


def init_conv_params(
    out_channels: int,
    in_channels: int,
    kernel_size: int,
    dilation: int,
    rng: SplitMix64,
) -> ConvParams:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)], fan_in = in*k."""
    bound = 1.0 / np.sqrt(in_channels * kernel_size)
    weights = rng.uniform(-bound, bound, (out_channels, in_channels, kernel_size))
    bias = rng.uniform(-bound, bound, (out_channels,))
    return ConvParams(weights, bias, dilation)


def _check_input(x: np.ndarray, params: ConvParams) -> None:
    if x.ndim != 3:
        raise ValueError(f"input must be (batch, channels, time), got shape {x.shape}")
    if x.shape[1] != params.in_channels:
        raise ValueError(
            f"input shape {x.shape} has {x.shape[1]} channels but weights "
            f"{params.weights.shape} expect {params.in_channels}"
        )


def _tap_stack(x: np.ndarray, kernel_size: int, dilation: int) -> np.ndarray:
    """Causal tap matrix (batch, channels*kernel, time), rows in the order of
    ``weights.reshape(out_channels, -1)``: row c*k + j at time t holds
    x[c, t - (k-1-j)*d], or 0 where that time is negative.
    """
    b, c, t = x.shape
    taps = np.zeros((b, c, kernel_size, t))
    for j in range(kernel_size):
        s = (kernel_size - 1 - j) * dilation
        if s < t:
            taps[:, :, j, s:] = x[:, :, :t - s]
    return taps.reshape(b, c * kernel_size, t)


def causal_conv_forward(x: np.ndarray, params: ConvParams) -> np.ndarray:
    """y[b,o,t] = bias[o] + sum_{c,j} w[o,c,j] * x[b,c,t-(k-1-j)*d]."""
    _check_input(x, params)
    taps = _tap_stack(x, params.kernel_size, params.dilation)
    out = params.weights.reshape(params.out_channels, -1) @ taps
    out += params.bias[:, None]
    return out


def causal_conv_backward(
    x: np.ndarray, params: ConvParams, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients of sum(grad_out * forward(x)) w.r.t. x, weights, bias."""
    _check_input(x, params)
    b, c, t = x.shape
    expected = (b, params.out_channels, t)
    if grad_out.shape != expected:
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match forward output {expected}"
        )
    k, d = params.kernel_size, params.dilation
    w2d = params.weights.reshape(params.out_channels, -1)

    grad_bias = grad_out.sum(axis=(0, 2))
    taps = _tap_stack(x, k, d)
    grad_weights = (grad_out @ taps.transpose(0, 2, 1)).sum(axis=0).reshape(params.weights.shape)
    grad_taps = (w2d.T @ grad_out).reshape(b, c, k, t)
    grad_x = np.zeros_like(x)
    for j in range(k):
        s = (k - 1 - j) * d
        if s < t:
            grad_x[:, :, :t - s] += grad_taps[:, :, j, s:]
    return grad_x, grad_weights, grad_bias


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    # subgradient at exactly 0 is taken as 0
    return np.where(x > 0.0, grad_out, 0.0)


def dropout(
    x: np.ndarray, p_keep: float, rng: SplitMix64 | None, train: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout: survivors are scaled by 1/p_keep so E[out] = x.

    Evaluation mode is the identity and returns mask None. In training mode
    the mask is drawn once per call from ``rng``.
    """
    if not 0.0 < p_keep <= 1.0:
        raise ValueError(f"p_keep must be in (0, 1], got {p_keep}")
    if not train:
        return x, None
    if rng is None:
        raise ValueError("training-mode dropout needs an rng stream")
    mask = rng.uniform(size=x.shape) < p_keep
    return x * mask / p_keep, mask


def dropout_backward(
    grad_out: np.ndarray, mask: np.ndarray | None, p_keep: float
) -> np.ndarray:
    if mask is None:
        return grad_out
    return grad_out * mask / p_keep


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
    return weights @ x + bias


def linear_head_backward(
    x: np.ndarray, weights: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Gradients of the head w.r.t. input, weights and bias."""
    if grad_out.shape != (x.shape[0], x.shape[2]):
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match "
            f"output shape {(x.shape[0], x.shape[2])}"
        )
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


@dataclass
class AdamState:
    """Optimizer state for a fixed list of parameter arrays."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @classmethod
    def for_params(cls, params: list[np.ndarray], lr: float = 1e-3, **kwargs) -> "AdamState":
        state = cls(lr=lr, **kwargs)
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
        return state


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState
) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam update. Parameter arrays are updated in place."""
    if not (len(params) == len(grads) == len(state.m) == len(state.v)):
        raise ValueError(
            f"param/grad/state length mismatch: {len(params)}/{len(grads)}/"
            f"{len(state.m)}"
        )
    state.step += 1
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ValueError(f"grad shape {g.shape} != param shape {p.shape}")
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return params, state
