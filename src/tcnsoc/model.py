"""Residual-stack TCN assembly on top of the numeric kernels.

A model is S stacks of residual blocks. Each block holds two dilated causal
convolutions sharing one dilation; the dilation schedule restarts at 1 in
every stack and doubles per block (1, 2, 4, 8 for the default four blocks),
so every input step stays covered while the receptive field grows
exponentially with depth. A per-step linear head turns the last block's map
into the SOC estimate, read at the final step. ``forward`` is inference;
``forward_with_cache`` trains, with dropout, and keeps nothing per step but the
arena of block maps, in the dtype ``backward`` computes in, and bool gates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import kernels
from .data import CHANNEL_NAMES, NormalizationParams, check_int, is_real
from .kernels import (
    ConvParams,
    causal_conv_backward,
    causal_conv_forward,
    dropout,
    linear_head_backward,
    linear_head_forward,
    relu,
    relu_dropout_backward,
)
from .rng import SplitMix64, check_seed


@dataclass(frozen=True)
class TcnConfig:
    """Architecture hyperparameters, checked when built (``replace`` too) and
    immutable after: a ``TcnConfig`` that exists is a valid one.

    input_features covers (voltage, current, temperature, past SOC). The
    dilation schedule is not a setting: ``_layout`` doubles it per block.
    """

    stacks: int
    input_window: int
    kernel_size: int = 8
    filters: int = 4
    input_features: int = len(CHANNEL_NAMES)
    blocks_per_stack: int = 4
    p_keep: float = 0.9

    def __post_init__(self):
        for name in CONFIG_INT_FIELDS:
            check_int(f"config field {name}", getattr(self, name), 1)
        if not is_real(self.p_keep) or not 0.0 < self.p_keep <= 1.0:
            raise ValueError(f"config field p_keep must be a number in (0, 1], got {self.p_keep!r}")


# the integer fields of TcnConfig in declaration order, as the TCN1 header lists them
CONFIG_INT_FIELDS = tuple(f.name for f in fields(TcnConfig) if f.type == "int")


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
            dilation = 2 ** i  # doubling never skips an input position
            convs = [(f, in_ch, k, dilation), (f, f, k, dilation)]
            if in_ch != f:
                convs.append((f, in_ch, 1, 1))
            yield convs
    yield [(1, f, 1, 1)]


@dataclass
class ResidualBlock:
    """Two equal-dilation convolutions, ReLU, dropout (in training only) and
    a skip path: output = ReLU(branch(x) + skip(x)) with branch =
    dropout(relu(conv2(dropout(relu(conv1(x)))))) and skip the identity, or a
    1x1 convolution when channel counts differ."""

    conv1: ConvParams
    conv2: ConvParams
    downsample: ConvParams | None = None


def _views(config: TcnConfig, theta: np.ndarray):
    """Layer views into a float64 vector in ``theta``'s layout (the parameters
    or their gradient): every convolution in parameter order (the head last),
    the residual blocks, and the head's weights and bias."""
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
        check_seed(self.seed)  # TCN1 stores str(seed)
        theta = self.theta
        if theta.dtype != np.float64 or theta.shape != (parameter_count(self.config),):
            raise ValueError(f"theta is {theta.dtype} {theta.shape}, expected float64 "
                             f"({parameter_count(self.config)},)")
        self.layers, self.blocks, self.head_weights, self.head_bias = _views(self.config, theta)

    def parameters(self) -> list[np.ndarray]:
        """Views of every trainable array in parameter order (blocks, then head)."""
        arrays = [a for conv in self.layers[:-1] for a in (conv.weights, conv.bias)]
        return arrays + [self.head_weights, self.head_bias]


def build_model(config: TcnConfig, seed: int) -> TcnModel:
    """Deterministic weight initialization from a seeded splittable stream.

    One child stream per layer, spawned in parameter order; each layer draws
    uniform weights then bias in [-1/sqrt(fan_in), +1/sqrt(fan_in)], so
    ``theta`` is every layer's leading draws, concatenated.
    """
    counts = list(_conv_sizes(config))
    fan_in = [in_ch * k for shapes in _layout(config) for _, in_ch, k, _ in shapes]
    bound = 1.0 / np.sqrt(fan_in)
    theta = SplitMix64(seed).spawned_uniforms(counts)
    theta *= np.repeat(bound + bound, counts)
    theta -= np.repeat(bound, counts)  # -bound + u * (bound + bound), rounded the same
    return TcnModel(config, theta, seed=seed)


def _block_forward(block: ResidualBlock, x: np.ndarray) -> np.ndarray:
    """The block's output at inference (inverted dropout is the identity), its maps
    fresh from the two-argument ``causal_conv_forward``, which perfbench's gate replaces."""
    a1 = causal_conv_forward(x, block.conv1)
    a2 = causal_conv_forward(relu(a1, out=a1), block.conv2)
    relu(a2, out=a2)
    skip = x if block.downsample is None else causal_conv_forward(x, block.downsample)
    a2 += skip  # never into skip: it may be the caller's window
    return relu(a2, out=a2)


def _block_train(block: ResidualBlock, x: np.ndarray, p_keep: float, rng: SplitMix64,
                 d1: np.ndarray, out: np.ndarray, maps: np.ndarray,
                 gates: np.ndarray) -> np.ndarray:
    """The block's training output, computed in the float64 work maps ``d1`` (the
    ReLU output masked and scaled in place) and ``out``, where d2 is made the same
    way before the skip is added. ``maps`` keeps d1 and the output in the arena's
    dtype, ``gates`` d1, d2 and output > 0 read off the float64 values, as a
    positive float64 can round to float32 0. Dropout at p_keep 1 draws nothing."""
    dropout(relu(kernels.causal_conv_forward(x, block.conv1, out=d1), out=d1), p_keep, rng, True)
    dropout(relu(kernels.causal_conv_forward(d1, block.conv2, out=out), out=out), p_keep, rng, True)
    np.greater(d1, 0.0, out=gates[0])
    np.greater(out, 0.0, out=gates[1])
    out += x if block.downsample is None else causal_conv_forward(x, block.downsample)
    np.greater(relu(out, out=out), 0.0, out=gates[2])
    maps[0], maps[1] = d1, out
    return out


def _block_backward(block: ResidualBlock, grad: ResidualBlock, x: np.ndarray, d1: np.ndarray,
                    gates: np.ndarray, grad_y: np.ndarray, p_keep: float,
                    input_grad: bool) -> np.ndarray | None:
    """Writes the block's parameter gradients into ``grad``, views into the gradient
    vector, and returns the gradient of its input ``x`` (None without ``input_grad``:
    ``x`` is the data window) in the dtype of ``x``, ``d1`` and ``grad_y``, through
    the bool ``gates``."""
    g_pre = relu_dropout_backward(grad_y, gates[2])
    g_a2 = relu_dropout_backward(g_pre, gates[1], p_keep)
    g_d1, grad.conv2.weights[...], grad.conv2.bias[...] = \
        causal_conv_backward(d1, block.conv2, g_a2)
    g_a1 = relu_dropout_backward(g_d1, gates[0], p_keep)
    g_x, grad.conv1.weights[...], grad.conv1.bias[...] = \
        causal_conv_backward(x, block.conv1, g_a1, input_grad)
    g_skip = g_pre
    if block.downsample is not None:
        g_skip, grad.downsample.weights[...], grad.downsample.bias[...] = \
            causal_conv_backward(x, block.downsample, g_pre, input_grad)
    if g_x is not None:
        g_x += g_skip
    return g_x


def _check_window(model: TcnModel, window: np.ndarray) -> None:
    cfg = model.config
    if window.ndim != 3 or window.shape[1] != cfg.input_features or \
            window.shape[2] != cfg.input_window:
        raise ValueError(
            f"window shape {window.shape} does not match model input "
            f"(batch, {cfg.input_features}, {cfg.input_window})"
        )


def forward(model: TcnModel, window: np.ndarray) -> np.ndarray:
    """Per-step regression output (batch, time) at inference, float32 throughout
    for a float32 window (the kernels round the layers to it), else float64."""
    _check_window(model, window)
    if window.dtype != np.float32:
        window = window.astype(np.float64, copy=False)
    for block in model.blocks:
        window = _block_forward(block, window)
    return linear_head_forward(window, model.head_weights, float(model.head_bias[0]))


@dataclass
class Arena:
    """A training step's maps, views of one allocation (README, "Activation arena"): block
    i's d1 and output at ``maps[i, 0..1]`` in ``backward``'s dtype, its gates d1, d2, output
    > 0 at ``gates[i]``, 3 float64 ``work`` maps, and the ``rows`` the last forward wrote."""

    maps: np.ndarray
    gates: np.ndarray
    work: np.ndarray
    rows: int = 0


def new_arena(model: TcnModel, batch: int, dtype) -> Arena:
    """An arena of ``dtype`` maps, float32 or float64, for up to ``batch`` windows, its
    arrays views of one block: that keeps glibc's heap trim threshold (twice the largest
    block it has unmapped) as high as the arena allows, so at the benchmark's train shape
    repeated training keeps its heap instead of trimming it and faulting it back."""
    if (dtype := np.dtype(dtype)) not in (np.float32, np.float64):
        raise ValueError(f"arena dtype must be float32 or float64, got {dtype}")
    shape = (batch, model.config.filters, model.config.input_window)
    n, blocks = int(np.prod(shape)), len(model.blocks)
    maps_end = (24 + 2 * dtype.itemsize * blocks) * n  # after 3 float64 work maps
    buffer = np.empty(maps_end + 3 * blocks * n, dtype=np.uint8)
    return Arena(buffer[24 * n:maps_end].view(dtype).reshape(blocks, 2, *shape),
                 buffer[maps_end:].view(bool).reshape(blocks, 3, *shape),
                 buffer[:24 * n].view(np.float64).reshape(3, *shape))


def _arena_rows(model: TcnModel, arena: Arena, rows: int):
    """Per block, its maps and gates for the first ``rows`` windows, and the work maps."""
    maps, gates = arena.maps, arena.gates
    if len(maps) != len(model.blocks) or len(gates) != len(model.blocks):
        raise ValueError(f"arena has maps for {len(maps)} blocks and gates for {len(gates)}, "
                         f"but the model has {len(model.blocks)} blocks")
    if rows > maps.shape[2]:
        raise ValueError(f"batch of {rows} windows, but the arena holds {maps.shape[2]}")
    return maps[:, :, :rows], gates[:, :, :rows], arena.work[:, :rows]


def forward_with_cache(model: TcnModel, window: np.ndarray, rng: SplitMix64,
                       arena: Arena) -> np.ndarray:
    """``forward`` in training: float64 whatever the window's dtype, in the arena's work maps
    (block outputs alternate between two, never over their input), dropout drawn from ``rng``
    at ``config.p_keep``, and block i's maps and gates left in the ``arena`` for ``backward``."""
    _check_window(model, window)
    h = window.astype(np.float64, copy=False)
    maps, gates, (d1, *outs) = _arena_rows(model, arena, len(h))
    for i, block in enumerate(model.blocks):
        h = _block_train(block, h, model.config.p_keep, rng, d1, outs[i % 2], maps[i], gates[i])
    arena.rows = len(h)
    return linear_head_forward(h, model.head_weights, float(model.head_bias[0]))


def backward(model: TcnModel, window: np.ndarray, arena: Arena, grad_y: np.ndarray) -> np.ndarray:
    """Gradient of every parameter, read from the ``arena`` and ``window`` of
    the last ``forward_with_cache``: one float64 vector in ``theta``'s layout,
    each slot written by the layer it belongs to.

    It computes in the arena's dtype, reading its maps as they are, with the
    ``window`` and ``grad_y`` cast to it once (the kernels round the layers).
    """
    grad, p_keep = np.empty_like(model.theta), model.config.p_keep
    _, grad_blocks, grad_hw, grad_hb = _views(model.config, grad)
    maps, gates, _ = _arena_rows(model, arena, len(window))
    if len(window) != arena.rows:
        raise ValueError(f"backward of {len(window)} windows, but the last forward wrote "
                         f"{arena.rows}")
    # the last block's output is the head's input
    g_h, grad_hw[...], grad_hb[0] = \
        linear_head_backward(maps[-1, 1], model.head_weights, grad_y.astype(maps.dtype, copy=False))
    for i in reversed(range(len(maps))):  # block 0's input is the data: no gradient
        x = maps[i - 1, 1] if i else window.astype(maps.dtype, copy=False)
        g_h = _block_backward(model.blocks[i], grad_blocks[i], x, maps[i, 0], gates[i], g_h,
                              p_keep, i > 0)
    return grad


def predict(model: TcnModel, window: np.ndarray) -> np.ndarray:
    """SOC estimate per batch element: the final-step head output, unclamped."""
    return forward(model, window)[:, -1]


def receptive_field(config: TcnConfig) -> int:
    """Look-back in steps: 1 plus (k-1)*dilation for every convolution in
    ``_layout`` (the 1x1 downsamples and the head add nothing)."""
    return 1 + sum((k - 1) * dilation
                   for shapes in _layout(config) for _, _, k, dilation in shapes)


def _conv_sizes(config: TcnConfig):
    """Number of scalars of each convolution (weights and bias), in parameter order."""
    return (out_ch * in_ch * k + out_ch
            for shapes in _layout(config) for out_ch, in_ch, k, _ in shapes)


def parameter_count(config: TcnConfig) -> int:
    """Exact number of trainable scalars, downsample layers and head included."""
    return sum(_conv_sizes(config))
