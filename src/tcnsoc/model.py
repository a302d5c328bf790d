"""Residual-stack TCN assembly on top of the numeric kernels.

A model is S stacks of residual blocks. Each block holds two dilated causal
convolutions sharing one dilation; the dilation schedule restarts at 1 in
every stack and doubles per block (1, 2, 4, 8 for the default four blocks),
so every input step stays covered while the receptive field grows
exponentially with depth. A per-step linear head turns the last block's
activation map into the SOC estimate; the value at the final time step is
the prediction for the window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import NormalizationParams
from .kernels import (
    ConvParams,
    causal_conv_backward,
    causal_conv_forward,
    dropout,
    dropout_backward,
    init_conv_params,
    linear_head_backward,
    linear_head_forward,
    relu,
    relu_backward,
)
from .rng import SplitMix64


@dataclass
class TcnConfig:
    """Architecture hyperparameters.

    input_features covers (voltage, current, temperature, past SOC);
    dilation_base is fixed at 2 to avoid skipping input positions.
    """

    stacks: int
    input_window: int
    kernel_size: int = 8
    filters: int = 4
    input_features: int = 4
    blocks_per_stack: int = 4
    p_keep: float = 0.9
    dilation_base: int = 2

    def validate(self) -> None:
        for name in ("stacks", "input_window", "kernel_size", "filters",
                     "input_features", "blocks_per_stack"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"config field {name} must be a positive integer, got {value!r}")
        if not 0.0 < self.p_keep <= 1.0:
            raise ValueError(f"config field p_keep must be in (0, 1], got {self.p_keep}")
        if self.dilation_base != 2:
            raise ValueError(
                f"config field dilation_base is fixed at 2, got {self.dilation_base}"
            )


def _layout(config: TcnConfig):
    """The parameter layout: the one place that knows shapes and order.

    Yields one list of (out_channels, in_channels, kernel_size, dilation)
    convolution shapes per residual block in model order (conv1, conv2,
    and a 1x1 downsample where the channel count changes), then the head
    as a single (1, filters, 1) convolution. Each convolution is stored as
    its weights, then its bias.
    """
    k, f = config.kernel_size, config.filters
    for s in range(config.stacks):
        for i in range(config.blocks_per_stack):
            in_ch = config.input_features if (s == 0 and i == 0) else f
            dilation = config.dilation_base ** i
            convs = [(f, in_ch, k, dilation), (f, f, k, dilation)]
            if in_ch != f:
                convs.append((f, in_ch, 1, 1))
            yield convs
    yield [(1, f, 1, 1)]


@dataclass
class ResidualBlock:
    """Two equal-dilation convolutions with ReLU/dropout and a skip path.

    output = ReLU(branch(x) + skip(x)) with
    branch = dropout(relu(conv2(dropout(relu(conv1(x)))))) and skip the
    identity, or a 1x1 convolution when channel counts differ.
    """

    conv1: ConvParams
    conv2: ConvParams
    downsample: ConvParams | None = None


def _views(config: TcnConfig, theta: np.ndarray):
    """Layer views into a parameter vector, in its dtype: every convolution
    in parameter order (the head last), the residual blocks, and the head's
    weights and bias."""
    groups, pos = [], 0
    for shapes in _layout(config):
        group = []
        for out_ch, in_ch, k, dilation in shapes:
            end = pos + out_ch * in_ch * k
            group.append(ConvParams(theta[pos:end].reshape(out_ch, in_ch, k),
                                    theta[end:end + out_ch], dilation))
            pos = end + out_ch
        groups.append(group)
    *block_groups, (head,) = groups
    layers = [conv for group in groups for conv in group]
    return layers, [ResidualBlock(*group) for group in block_groups], \
        head.weights.reshape(-1), head.bias


@dataclass
class TcnModel:
    """A TCN whose trainable scalars all live in one float64 vector.

    ``theta`` holds them in parameter order (see ``_layout``); every
    ``ConvParams`` array in ``blocks``, ``head_weights`` and ``head_bias``
    is a view into it, so weights must be changed in place.
    """

    config: TcnConfig
    theta: np.ndarray
    norm: NormalizationParams | None = None
    seed: int = 0
    # every convolution in parameter order, the head last as a (1, F, 1) conv
    layers: list[ConvParams] = field(init=False, repr=False)
    blocks: list[ResidualBlock] = field(init=False, repr=False)
    head_weights: np.ndarray = field(init=False, repr=False)
    head_bias: np.ndarray = field(init=False, repr=False)  # shape (1,)

    def __post_init__(self):
        theta = self.theta
        if theta.dtype != np.float64 or theta.shape != (parameter_count(self.config),):
            raise ValueError(f"theta is {theta.dtype} {theta.shape}, expected float64 "
                             f"({parameter_count(self.config)},)")
        self.layers, self.blocks, self.head_weights, self.head_bias = _views(self.config, theta)

    def parameters(self) -> list[np.ndarray]:
        """Views of every trainable array in parameter order (blocks, then head)."""
        arrays = [a for conv in self.layers[:-1] for a in (conv.weights, conv.bias)]
        return arrays + [self.head_weights, self.head_bias]


def build_model(config: TcnConfig, seed: int, norm: NormalizationParams | None = None) -> TcnModel:
    """Deterministic weight initialization from a seeded splittable stream.

    One child stream per layer, spawned in parameter order; each layer draws
    uniform weights then bias in [-1/sqrt(fan_in), +1/sqrt(fan_in)].
    """
    config.validate()
    model = TcnModel(config, np.empty(parameter_count(config)), norm=norm, seed=seed)
    parent = SplitMix64(seed)
    for conv in model.layers:
        init = init_conv_params(conv.out_channels, conv.in_channels, conv.kernel_size,
                                conv.dilation, parent.spawn())
        conv.weights[...] = init.weights
        conv.bias[...] = init.bias
    return model


@dataclass
class _BlockCache:
    x: np.ndarray
    a1: np.ndarray
    mask1: np.ndarray | None
    d1: np.ndarray
    a2: np.ndarray
    mask2: np.ndarray | None
    pre: np.ndarray


def _block_forward(block: ResidualBlock, x: np.ndarray, p_keep: float,
                   train: bool, rng: SplitMix64 | None):
    a1 = causal_conv_forward(x, block.conv1)
    d1, mask1 = dropout(relu(a1), p_keep, rng, train)
    a2 = causal_conv_forward(d1, block.conv2)
    d2, mask2 = dropout(relu(a2), p_keep, rng, train)
    skip = x if block.downsample is None else causal_conv_forward(x, block.downsample)
    pre = d2 + skip
    return relu(pre), _BlockCache(x, a1, mask1, d1, a2, mask2, pre)


def _block_backward(block: ResidualBlock, cache: _BlockCache, grad_y: np.ndarray,
                    p_keep: float):
    g_pre = relu_backward(cache.pre, grad_y)
    g_a2 = relu_backward(cache.a2, dropout_backward(g_pre, cache.mask2, p_keep))
    g_d1, g_w2, g_b2 = causal_conv_backward(cache.d1, block.conv2, g_a2)
    g_a1 = relu_backward(cache.a1, dropout_backward(g_d1, cache.mask1, p_keep))
    g_x, g_w1, g_b1 = causal_conv_backward(cache.x, block.conv1, g_a1)
    grads = [g_w1, g_b1, g_w2, g_b2]
    if block.downsample is None:
        g_x = g_x + g_pre
    else:
        g_skip, g_wd, g_bd = causal_conv_backward(cache.x, block.downsample, g_pre)
        g_x = g_x + g_skip
        grads += [g_wd, g_bd]
    return g_x, grads


def _check_window(model: TcnModel, window: np.ndarray) -> None:
    cfg = model.config
    if window.ndim != 3 or window.shape[1] != cfg.input_features or \
            window.shape[2] != cfg.input_window:
        raise ValueError(
            f"window shape {window.shape} does not match model input "
            f"(batch, {cfg.input_features}, {cfg.input_window})"
        )


def forward(model: TcnModel, window: np.ndarray, train: bool = False,
            rng: SplitMix64 | None = None) -> np.ndarray:
    """Per-step regression output (batch, time); dropout active only in train mode.

    A float32 window runs in float32 throughout, through views of one
    float32 copy of ``theta``, and gives float32 output; any other window
    runs in float64.
    """
    _check_window(model, window)
    if window.dtype == np.float32:
        _, blocks, head_weights, head_bias = _views(model.config, model.theta.astype(np.float32))
    else:
        window = window.astype(np.float64, copy=False)
        blocks, head_weights, head_bias = model.blocks, model.head_weights, model.head_bias
    h = window
    for block in blocks:
        h, _ = _block_forward(block, h, model.config.p_keep, train, rng)
    return linear_head_forward(h, head_weights, float(head_bias[0]))


def forward_with_cache(model: TcnModel, window: np.ndarray, train: bool,
                       rng: SplitMix64 | None):
    """``forward`` in float64 whatever the window's dtype, keeping what
    ``backward`` needs."""
    _check_window(model, window)
    h = window.astype(np.float64, copy=False)
    caches = []
    for block in model.blocks:
        h, cache = _block_forward(block, h, model.config.p_keep, train, rng)
        caches.append(cache)
    y = linear_head_forward(h, model.head_weights, float(model.head_bias[0]))
    return y, (caches, h)


def backward(model: TcnModel, cache, grad_y: np.ndarray) -> list[np.ndarray]:
    """Gradients for every parameter array, in parameters() order."""
    caches, head_input = cache
    g_h, g_hw, g_hb = linear_head_backward(head_input, model.head_weights, grad_y)
    block_grads: list[list[np.ndarray]] = []
    for block, blk_cache in zip(reversed(model.blocks), reversed(caches)):
        g_h, grads = _block_backward(block, blk_cache, g_h, model.config.p_keep)
        block_grads.append(grads)
    flat: list[np.ndarray] = []
    for grads in reversed(block_grads):
        flat += grads
    flat += [g_hw, np.array([g_hb])]
    return flat


def predict(model: TcnModel, window: np.ndarray) -> np.ndarray:
    """SOC estimate per batch element: the final-step head output, unclamped."""
    return forward(model, window)[:, -1]


def receptive_field(config: TcnConfig) -> int:
    """Closed-form look-back: 1 + 2*(k-1)*S*(2**blocks_per_stack - 1) steps."""
    per_stack = 2 * (config.kernel_size - 1) * (config.dilation_base ** config.blocks_per_stack - 1)
    return 1 + config.stacks * per_stack


def _conv_sizes(config: TcnConfig):
    """Number of scalars of each convolution (weights and bias), in parameter order."""
    return (out_ch * in_ch * k + out_ch
            for shapes in _layout(config) for out_ch, in_ch, k, _ in shapes)


def parameter_count(config: TcnConfig) -> int:
    """Exact number of trainable scalars, downsample layers and head included."""
    return sum(_conv_sizes(config))
