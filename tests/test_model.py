"""Tests for the network assembly: blocks, forward/backward, receptive field."""

import hashlib
import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from numpy.lib.stride_tricks import sliding_window_view

import tcnsoc.kernels
import tcnsoc.model
import tcnsoc.training
from helpers import (
    conv_oracle,
    float32_tolerance,
    init_conv_params,
    make_positive,
    model_backward_composed,
    model_forward_composed,
    model_forward_oracle,
)
from tcnsoc.data import (
    DEFAULT_CELL,
    NormalizationParams,
    fit_normalization,
    make_windows,
)
from tcnsoc.kernels import AdamState, ConvParams, _slab_rows, adam_step, causal_conv_forward
from tcnsoc.model import (
    Arena,
    TcnConfig,
    TcnModel,
    backward,
    build_model,
    forward,
    forward_with_cache,
    new_arena,
    parameter_count,
    predict,
    receptive_field,
)
from tcnsoc.modelio import deserialize, serialize
from tcnsoc.rng import SplitMix64
from tcnsoc.simulate import EcmConfig, generate_profile, simulate_ecm
from tcnsoc.training import TrainConfig


def tiny_config(**kw):
    base = dict(stacks=1, input_window=12, kernel_size=3, filters=3,
                input_features=4, blocks_per_stack=2)
    base.update(kw)
    return TcnConfig(**base)


def rf_oracle(config: TcnConfig) -> int:
    # accumulate per-conv look-back block by block, apart from model._layout
    rf = 1
    for _ in range(config.stacks):
        for i in range(config.blocks_per_stack):
            rf += 2 * (config.kernel_size - 1) * 2 ** i
    return rf


# ------------------------------------------------------------ construction


def test_build_deterministic():
    cfg = tiny_config()
    m1 = build_model(cfg, seed=42)
    m2 = build_model(cfg, seed=42)
    for a, b in zip(m1.parameters(), m2.parameters()):
        assert np.array_equal(a, b)
    m3 = build_model(cfg, seed=43)
    assert any(
        not np.array_equal(a, b) for a, b in zip(m1.parameters(), m3.parameters())
    )
    assert m1.seed == 42


@pytest.mark.parametrize("config", [
    pytest.param(tiny_config(kernel_size=1), id="k1-downsample"),
    pytest.param(tiny_config(stacks=2, filters=5), id="S2-F5-downsample"),
    pytest.param(TcnConfig(stacks=2, input_window=20, blocks_per_stack=2), id="default-widths"),
])
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, np.uint64(2**63 + 5)], ids=str)
def test_build_model_equals_one_spawned_child_per_layer(config, seed):
    # the oracle: each layer in parameter order draws its weights, then its
    # bias, from its own child of the seed's stream
    parent, layers = SplitMix64(seed), []
    for conv in build_model(config, seed=0).layers:
        init = init_conv_params(conv.out_channels, conv.in_channels, conv.kernel_size,
                                conv.dilation, parent.spawn())
        layers += [init.weights.ravel(), init.bias]
    assert build_model(config, seed=seed).theta.tobytes() == np.concatenate(layers).tobytes()


def test_downsample_only_where_channels_change():
    m = build_model(tiny_config(), seed=0)
    assert m.blocks[0].downsample is not None  # 4 -> 3 channels
    assert m.blocks[1].downsample is None  # 3 -> 3
    m2 = build_model(tiny_config(input_features=3), seed=0)
    assert all(b.downsample is None for b in m2.blocks)


def test_dilations_reset_each_stack():
    cfg = tiny_config(stacks=2, blocks_per_stack=3)
    m = build_model(cfg, seed=1)
    dilations = [b.conv1.dilation for b in m.blocks]
    assert dilations == [1, 2, 4, 1, 2, 4]
    assert all(b.conv1.dilation == b.conv2.dilation for b in m.blocks)


def test_config_validation():
    with pytest.raises(ValueError):
        TcnConfig(stacks=0, input_window=10)
    with pytest.raises(ValueError):
        TcnConfig(stacks=1, input_window=10, p_keep=0.0)
    with pytest.raises(ValueError):
        TcnConfig(stacks=1, input_window=10, p_keep=1.2)
    with pytest.raises(ValueError):
        TcnConfig(stacks=1, input_window=10, kernel_size=-2)
    # bool is an int, but TCN1 would store "True", which no reader parses
    with pytest.raises(ValueError, match="stacks"):
        TcnConfig(stacks=True, input_window=10)
    with pytest.raises(ValueError, match="filters"):
        TcnConfig(stacks=1, input_window=10, filters=True)
    with pytest.raises(ValueError, match="p_keep"):
        TcnConfig(stacks=1, input_window=10, p_keep=True)
    # reals: a string raised a bare TypeError; a numpy scalar wrote a TCN1
    # header line ("p_keep=np.float64(0.9)") that no reader parses
    for value in (False, "0.5", math.nan, math.inf, np.float64(0.9)):
        with pytest.raises(ValueError, match="config field p_keep must be a number in"):
            TcnConfig(stacks=1, input_window=10, p_keep=value)
    assert TcnConfig(stacks=1, input_window=10, p_keep=1).p_keep == 1


def test_settings_cannot_be_changed_once_checked():
    unit = NormalizationParams(0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
    for settings, name in [(TcnConfig(stacks=1, input_window=10), "stacks"),
                           (TrainConfig(), "epochs"), (unit, "soc_max")]:
        with pytest.raises(FrozenInstanceError):
            setattr(settings, name, 0)
        assert getattr(settings, name) != 0


# ------------------------------------------------------------ param counts


def test_parameter_count_132_per_conv_at_default_widths():
    # 4 input features, 4 filters, kernel 8: every full conv is 4*4*8+4 = 132
    cfg = TcnConfig(stacks=1, input_window=100)
    m = build_model(cfg, seed=0)
    for block in m.blocks:
        assert block.conv1.weights.size + block.conv1.bias.size == 132
        assert block.conv2.weights.size + block.conv2.bias.size == 132
    assert all(b.downsample is None for b in m.blocks)
    # 4 blocks of 2 convs plus the 5-parameter head
    assert parameter_count(cfg) == 8 * 132 + 5


def test_parameter_count_hand_derived():
    cfg = tiny_config(stacks=1, blocks_per_stack=1, kernel_size=2,
                      filters=3, input_features=2)
    # conv1 3*2*2+3=15, conv2 3*3*2+3=21, downsample 3*2*1+3=9, head 3+1=4
    assert parameter_count(cfg) == 49
    m = build_model(cfg, seed=0)
    assert sum(a.size for a in m.parameters()) == 49


def test_parameter_count_matches_arrays(tmp_path):
    for cfg in (tiny_config(), tiny_config(stacks=3, filters=5, kernel_size=4),
                TcnConfig(stacks=2, input_window=64)):
        m = build_model(cfg, seed=7)
        assert sum(a.size for a in m.parameters()) == parameter_count(cfg)
        path = tmp_path / "m.bin"
        serialize(m, path)
        for model in (m, deserialize(path)):
            # every array is a view into the one flat vector, in its order
            assert model.theta.size == parameter_count(cfg)
            assert all(np.shares_memory(a, model.theta) for a in model.parameters())
            assert np.array_equal(
                np.concatenate([a.ravel() for a in model.parameters()]), model.theta)


def test_model_rejects_theta_of_wrong_size_or_dtype():
    cfg = tiny_config()
    n = parameter_count(cfg)
    for theta in (np.zeros(n - 1), np.zeros(n + 1), np.zeros(n, dtype=np.float32)):
        with pytest.raises(ValueError, match="theta"):
            TcnModel(cfg, theta)


def test_parameter_count_grows_linearly_in_stacks():
    # each extra stack adds the same block parameters once input width is fixed
    counts = [
        parameter_count(TcnConfig(stacks=s, input_window=50)) for s in (1, 2, 3, 4)
    ]
    deltas = np.diff(counts)
    assert len(set(deltas.tolist())) == 1


# ------------------------------------------------------------ forward


def test_forward_matches_composed_oracle():
    rng = SplitMix64(77)
    for cfg in (
        tiny_config(),
        tiny_config(stacks=2, kernel_size=2, filters=2, input_window=10),
        tiny_config(blocks_per_stack=1, filters=4),  # identity skips only
    ):
        m = build_model(cfg, seed=5)
        x = rng.uniform(-1, 1, (2, cfg.input_features, cfg.input_window))
        got = forward(m, x)
        want = model_forward_oracle(m, x)
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_predict_is_last_step_of_forward():
    cfg = tiny_config()
    m = build_model(cfg, seed=9)
    x = SplitMix64(1).uniform(-1, 1, (3, 4, cfg.input_window))
    assert np.array_equal(predict(m, x), forward(m, x)[:, -1])


# sha256 of forward's output bytes per (stacks, window, filters): one float64
# window, then a float32 batch of 16 (at W=500 it runs the slab loop)
INFERENCE_DIGESTS = {
    (2, 100, 8): ("d83729ba75d7ad5ec6da0f6324f4055891f372a36d143334f2c7149d50d6fb0c",
                  "63be65a0007c4f20ea3005eac53eed046593f5bf76fd27ffb88e29fb202d927f"),
    (1, 500, 4): ("a43b967460108bedf960ad935300728ad1a8402b4d633c50d36d134133e3f08a",
                  "ed190059063de4c87490557bfbb537c150ecbdb8e843120d895350c57978f19a"),
}


@pytest.mark.parametrize("stacks, window, filters", INFERENCE_DIGESTS)
def test_inference_bytes_are_pinned(stacks, window, filters):
    m = build_model(TcnConfig(stacks=stacks, input_window=window, filters=filters), seed=stacks)
    x = SplitMix64(window).uniform(-1, 1, (16, 4, window))
    digests = INFERENCE_DIGESTS[stacks, window, filters]
    for xd, digest in zip((x[:1], x.astype(np.float32)), digests):
        y = forward(m, xd)
        assert y.dtype == xd.dtype and y.shape == (len(xd), window)
        assert hashlib.sha256(y.astype(y.dtype.newbyteorder("<")).tobytes()).hexdigest() == digest
        assert predict(m, xd).tobytes() == y[:, -1].tobytes()


def test_layer_operands_follow_in_place_writes():
    # each ConvParams multiplies by w2d and adds bias_col, views built with the layer, which a
    # float32 input rounds per call: an Adam step on theta and a write to one bias must reach
    # the next forward in either dtype, as no float32 copy is kept to go stale
    cfg = TcnConfig(stacks=2, input_window=100, filters=8)
    for dtype in (np.float64, np.float32):
        m = build_model(cfg, seed=2)
        x = SplitMix64(3).uniform(-1, 1, (1, 4, cfg.input_window)).astype(dtype)
        before = forward(m, x)
        state = AdamState(np.zeros_like(m.theta), np.zeros_like(m.theta), lr=0.05)
        adam_step(m.theta, SplitMix64(4).uniform(-1, 1, m.theta.shape), state)
        after = forward(m, x)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, forward(TcnModel(cfg, m.theta.copy()), x))
        conv = m.blocks[0].conv1
        y = causal_conv_forward(x, conv)
        conv.bias[0] += 1.0
        fresh = ConvParams(conv.weights.copy(), conv.bias.copy(), conv.dilation)
        got = causal_conv_forward(x, conv)
        assert not np.array_equal(got, y) and np.array_equal(got, causal_conv_forward(x, fresh))
        assert np.array_equal(forward(m, x), forward(TcnModel(cfg, m.theta.copy()), x))


def test_float32_passes_build_no_second_layer_set(monkeypatch):
    # the kernels round the model's own float64 layers to a float32 input, so a float32
    # forward builds no ConvParams and a float32-arena backward only the gradient's views
    cfg, batch = BLOCK_CASES["train-shape"]
    m = build_model(cfg, seed=64)
    x = SplitMix64(65).uniform(-1, 1, (batch, 4, cfg.input_window))
    arena = new_arena(m, batch, np.float32)
    grad_y = SplitMix64(66).uniform(-1, 1, forward_with_cache(m, x, SplitMix64(67), arena).shape)
    built, post_init = [], ConvParams.__post_init__
    monkeypatch.setattr(ConvParams, "__post_init__", lambda p: built.append(p) or post_init(p))
    assert forward(m, x.astype(np.float32)).dtype == np.float32
    assert built == []
    grad = backward(m, x, arena, grad_y)
    assert len(built) == len(m.layers) == 18
    assert all(np.shares_memory(p.weights, grad) for p in built)


def test_forward_float32_window_returns_float32():
    cfg = tiny_config()
    m = build_model(cfg, seed=4)
    theta = m.theta.copy()
    x = SplitMix64(5).uniform(0, 1, (3, 4, cfg.input_window)).astype(np.float32)
    y = forward(m, x)
    assert y.dtype == np.float32 and y.shape == (3, cfg.input_window)
    assert np.array_equal(predict(m, x), y[:, -1])
    assert m.theta.dtype == np.float64 and np.array_equal(m.theta, theta)


@pytest.mark.parametrize("stacks", [1, 2, 8, 20])
def test_forward_float32_final_step_within_tolerance(stacks):
    for window in (20, 500):
        m = build_model(TcnConfig(stacks=stacks, input_window=window), seed=stacks)
        x = SplitMix64(window + stacks).uniform(0, 1, (4, 4, window))
        want = forward(m, x)[:, -1]
        got = forward(m, x.astype(np.float32))[:, -1]
        assert np.abs(got - want).max() <= float32_tolerance(want)


def test_forward_runs_other_dtypes_in_float64():
    cfg = tiny_config()
    m = build_model(cfg, seed=6)
    x = SplitMix64(7).uniform(-4, 4, (2, 4, cfg.input_window))
    for dtype in (np.float16, np.int64):
        xd = x.astype(dtype)
        y = forward(m, xd)
        assert y.dtype == np.float64
        assert np.array_equal(y, forward(m, xd.astype(np.float64)))


def test_forward_eval_deterministic_and_train_seeded():
    cfg = tiny_config()
    m = build_model(cfg, seed=2)
    x = SplitMix64(3).uniform(-1, 1, (2, 4, cfg.input_window))
    assert np.array_equal(forward(m, x), forward(m, x))

    def train_pass(seed):
        return forward_with_cache(m, x, SplitMix64(seed), new_arena(m, len(x), np.float64))

    t1, t2, t3 = train_pass(11), train_pass(11), train_pass(12)
    assert np.array_equal(t1, t2)
    assert not np.array_equal(t1, t3)


def test_inference_draws_no_dropout(monkeypatch):
    # inverted dropout is the identity outside training: not even a call
    calls = []

    def spy(*args):
        calls.append(args)
        return args[0]

    monkeypatch.setattr(tcnsoc.model, "dropout", spy)
    monkeypatch.setattr(tcnsoc.kernels, "dropout", spy)
    cfg = tiny_config()
    m = build_model(cfg, seed=8)
    x = SplitMix64(9).uniform(-1, 1, (2, 4, cfg.input_window))
    for window in (x, x.astype(np.float32)):
        forward(m, window)
        predict(m, window)
    assert calls == []
    forward_with_cache(m, x, SplitMix64(10), new_arena(m, len(x), np.float64))
    assert len(calls) == 2 * len(m.blocks)


def test_forward_rejects_bad_window():
    m = build_model(tiny_config(), seed=0)
    with pytest.raises(ValueError):
        forward(m, np.zeros((4, 12)))
    with pytest.raises(ValueError):
        forward(m, np.zeros((1, 3, 12)))
    with pytest.raises(ValueError):
        forward(m, np.zeros((1, 4, 13)))


# ------------------------------------------------------------ causality


def test_causality_random_models():
    rng = SplitMix64(500)
    for trial in range(10):
        cfg = tiny_config(
            stacks=1 + trial % 2,
            kernel_size=2 + trial % 3,
            input_window=16,
            blocks_per_stack=1 + trial % 3,
        )
        m = build_model(cfg, seed=trial)
        x = rng.uniform(-1, 1, (1, 4, 16))
        base = forward(m, x)
        t = 4 + trial % 9
        x2 = x.copy()
        x2[0, trial % 4, t:] = rng.uniform(-1, 1, 16 - t)
        assert np.array_equal(forward(m, x2)[:, :t], base[:, :t])


# ------------------------------------------------------------ receptive field


def test_receptive_field_closed_form_vs_accumulation():
    for k in (2, 3, 5, 8):
        for s in (1, 2, 3):
            for b in (1, 2, 4):
                cfg = tiny_config(stacks=s, kernel_size=k, blocks_per_stack=b,
                                  input_window=1000)
                assert receptive_field(cfg) == rf_oracle(cfg)


def test_receptive_field_default_blocks():
    # four blocks per stack: 1 + 30*(k-1)*S
    assert receptive_field(TcnConfig(stacks=2, input_window=500)) == 1 + 30 * 7 * 2
    assert receptive_field(TcnConfig(stacks=1, input_window=500, kernel_size=2)) == 31


def test_receptive_field_impulse_boundary():
    # a positive-weight model reacts to inputs at distance < RF and is
    # bit-exactly blind to anything older
    cases = [
        dict(stacks=1, kernel_size=2, blocks_per_stack=2),  # rf 7
        dict(stacks=1, kernel_size=3, blocks_per_stack=2),  # rf 13
        dict(stacks=2, kernel_size=2, blocks_per_stack=2),  # rf 13
        dict(stacks=1, kernel_size=8, blocks_per_stack=1),  # rf 15
    ]
    for case in cases:
        cfg = tiny_config(input_window=40, filters=2, **case)
        rf = receptive_field(cfg)
        assert rf < cfg.input_window
        m = build_model(cfg, seed=3)
        make_positive(m)
        window = cfg.input_window
        x = np.zeros((window + 1, 4, window))
        for i in range(window):
            x[1 + i, i % 4, i] += 1.0
        y = forward(m, x)[:, -1]
        affected = y[1:] != y[0]
        expected = np.arange(window) >= window - rf
        assert np.array_equal(affected, expected), case


# ------------------------------------------------------------ gradients


def _finite_difference_check(m, grad, loss, step=1e-5) -> int:
    """Compare grad[i] with a central difference of loss() in theta[i] for
    every i, to 1e-4 relative; returns the number of coordinates checked."""
    checked = 0
    for i in range(m.theta.size):
        keep = m.theta[i]
        m.theta[i] = keep + step
        hi = loss()
        m.theta[i] = keep - step
        lo = loss()
        m.theta[i] = keep
        fd = (hi - lo) / (2 * step)
        scale = max(abs(fd), abs(grad[i]), 1e-8)
        assert abs(fd - grad[i]) / scale < 1e-4, (i, fd, grad[i])
        checked += 1
    return checked


def test_model_gradients_match_finite_differences():
    # at p_keep 1 the training pass is the inference forward the loss reads
    cfg = tiny_config(input_window=9, kernel_size=2, filters=2, blocks_per_stack=2, p_keep=1.0)
    m = build_model(cfg, seed=13)
    rng = SplitMix64(14)
    x = rng.uniform(-1, 1, (3, 4, 9))
    target = rng.uniform(0, 1, 3)

    def loss() -> float:
        p = forward(m, x)[:, -1]
        return float(np.mean((p - target) ** 2))

    arena = new_arena(m, len(x), np.float64)
    y = forward_with_cache(m, x, SplitMix64(15), arena)
    diff = y[:, -1] - target
    grad_y = np.zeros_like(y)
    grad_y[:, -1] = 2.0 * diff / diff.size
    grad = backward(m, x, arena, grad_y)
    assert grad.dtype == np.float64 and grad.shape == m.theta.shape

    assert _finite_difference_check(m, grad, loss) == parameter_count(cfg)


def test_gradients_with_train_mode_dropout_mask():
    # backward must route through the same masks the forward pass drew
    cfg = tiny_config(input_window=8, kernel_size=2, filters=2,
                      blocks_per_stack=1, p_keep=0.7)
    m = build_model(cfg, seed=21)
    x = SplitMix64(22).uniform(-1, 1, (2, 4, 8))
    target = np.array([0.3, 0.6])

    arena = new_arena(m, len(x), np.float64)
    y = forward_with_cache(m, x, SplitMix64(23), arena)
    diff = y[:, -1] - target
    grad_y = np.zeros_like(y)
    grad_y[:, -1] = 2.0 * diff / diff.size
    grad = backward(m, x, arena, grad_y)

    # replaying the identical mask stream reproduces the same loss surface
    def loss() -> float:
        p = forward_with_cache(m, x, SplitMix64(23), new_arena(m, len(x), np.float64))[:, -1]
        return float(np.mean((p - target) ** 2))

    assert _finite_difference_check(m, grad, loss) == parameter_count(cfg)


def test_zero_grad_output_gives_zero_param_grads():
    cfg = tiny_config()
    m = build_model(cfg, seed=1)
    x = SplitMix64(2).uniform(-1, 1, (2, 4, cfg.input_window))
    arena = new_arena(m, len(x), np.float64)
    y = forward_with_cache(m, x, SplitMix64(3), arena)
    grad = backward(m, x, arena, np.zeros_like(y))
    assert grad.shape == m.theta.shape and not grad.any()


# ------------------------------------------------------------ in-place block

# the train benchmark shape (block 0 has a downsample), and default widths,
# where block 0's skip path is the window itself
BLOCK_CASES = {
    "train-shape": (TcnConfig(stacks=2, input_window=100, filters=8), 32),
    "identity-skip": (TcnConfig(stacks=1, input_window=60), 5),
}


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_forward_gives_the_bytes_of_the_composed_block(case):
    cfg, batch = BLOCK_CASES[case]
    m = build_model(cfg, seed=31)
    assert (m.blocks[0].downsample is None) == (case == "identity-skip")
    x = SplitMix64(32).uniform(-1, 1, (batch, 4, cfg.input_window))
    for dtype in (np.float64, np.float32):
        xd = x.astype(dtype)
        want = model_forward_composed(m, xd)[0]
        got = forward(m, xd)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert predict(m, xd).tobytes() == want[:, -1].tobytes()


# ids without a p_keep are the default 0.9; train False (no dropout) is the
# training pass at p_keep 1, the one case in which it draws nothing
GRADIENT_CASES = [
    pytest.param(case, train, p_keep,
                 id=f"{case}-{train}" + ("" if p_keep == 0.9 else f"-p{p_keep}"))
    for p_keep in (0.9, 0.5, 1.0) for train in (True, False) for case in BLOCK_CASES
    if train or p_keep == 1.0
]


def _stream(train, seed):
    return SplitMix64(seed) if train else None


@pytest.mark.parametrize("case,train,p_keep", GRADIENT_CASES)
def test_gradients_equal_those_of_the_composed_block(case, train, p_keep):
    """The arena keeps the dropout outputs instead of pre-activations and
    masks; the one gate read from each, and so every gradient, gives the
    bytes of separate ReLU and dropout gradients."""
    cfg, batch = BLOCK_CASES[case]
    cfg = replace(cfg, p_keep=p_keep)
    m = build_model(cfg, seed=33)
    rng = SplitMix64(34)
    x = rng.uniform(-1, 1, (batch, 4, cfg.input_window))
    grad_y = rng.uniform(-1, 1, (batch, cfg.input_window))
    arena = new_arena(m, batch, np.float64)
    y = forward_with_cache(m, x, _stream(train, 35), arena)
    want_y, want_cache = model_forward_composed(m, x, train, _stream(train, 35))
    assert np.array_equal(y, want_y)
    # every slot of the vector is written: it holds the bytes of the list oracle
    got = backward(m, x, arena, grad_y)
    want = np.concatenate([g.ravel() for g in model_backward_composed(m, want_cache, grad_y)])
    assert got.dtype == np.float64 and got.shape == m.theta.shape
    assert got.tobytes() == want.tobytes()


def _float32_and_float64_gradients(m, x, grad_y, stream):
    """The gradient of a float32 arena and of a float64 one, each filled by a
    forward pass of the same dropout ``stream``, and the two arenas."""
    arenas = [new_arena(m, len(x), dtype) for dtype in (np.float32, np.float64)]
    for arena in arenas:
        forward_with_cache(m, x, stream(), arena)
    return [backward(m, x, arena, grad_y) for arena in arenas], arenas


@pytest.mark.parametrize("case,train,p_keep", GRADIENT_CASES)
def test_float32_gradients_are_within_rounding_of_the_float64_ones(case, train, p_keep):
    """A float32 arena runs backward in float32 and still returns a float64
    vector, against the float64 arena of the same forward pass. Its maps are
    the float64 ones rounded once, and its gates are the same. Over 20 seeds
    per case the largest deviation was 1.4e-6 of the largest float64
    gradient; the bound is 2e-5."""
    cfg, batch = BLOCK_CASES[case]
    m = build_model(replace(cfg, p_keep=p_keep), seed=33)
    rng = SplitMix64(34)
    x = rng.uniform(-1, 1, (batch, 4, cfg.input_window))
    grad_y = rng.uniform(-1, 1, (batch, cfg.input_window))
    (got, want), (arena, arena64) = \
        _float32_and_float64_gradients(m, x, grad_y, lambda: _stream(train, 35))
    assert arena.maps.dtype == np.float32 and arena.work.dtype == np.float64
    assert arena.maps.tobytes() == arena64.maps.astype(np.float32).tobytes()
    assert arena.gates.tobytes() == arena64.gates.tobytes()
    assert got.dtype == np.float64 and got.shape == m.theta.shape
    # the blocks ran in float32, not on an upcast grad_y (the head is the last F + 1)
    blocks = slice(0, -cfg.filters - 1)
    assert got[blocks].tobytes() != want[blocks].tobytes()
    assert np.abs(got - want).max() <= 2e-5 * np.abs(want).max()


def test_gates_are_read_off_float64_values_not_float32_maps():
    """Block 0's d1 is 1e-46 everywhere: positive in float64, 0 in float32.
    The float32 arena's map reads 0 there, but its d1 > 0 gate is open, so
    conv1 still gets its gradient, within the float32 bound of the float64
    arena's. A gate read off the float32 map would give conv1 none."""
    cfg, batch = BLOCK_CASES["identity-skip"]
    m = build_model(replace(cfg, p_keep=1.0), seed=33)
    m.blocks[0].conv1.weights[...] = 0.0
    m.blocks[0].conv1.bias[...] = 1e-46
    rng = SplitMix64(34)
    x = rng.uniform(-1, 1, (batch, 4, cfg.input_window))
    grad_y = rng.uniform(-1, 1, (batch, cfg.input_window))
    (got, want), (arena, arena64) = \
        _float32_and_float64_gradients(m, x, grad_y, lambda: None)
    assert (arena64.maps[0, 0] == 1e-46).all()
    assert (arena.maps[0, 0] == 0.0).all()
    assert arena.gates[0, 0].all()
    conv1 = slice(0, m.blocks[0].conv1.weights.size + m.blocks[0].conv1.bias.size)
    assert np.abs(got[conv1]).min() > 0.0
    assert np.abs(got - want).max() <= 2e-5 * np.abs(want).max()


def test_train_runs_backward_in_float32_and_the_rest_in_float64(monkeypatch):
    """At the train benchmark shape every conv backward gets float32 input and
    output gradient and returns float32 gradients (the model's float64 weights
    are rounded in the kernel), k=8 taps in slabs of 20 rows (10 in float64),
    from a float32 arena, while the training forward computes in the arena's
    float64 work maps and the validation forward stays float64."""
    cfg, batch = BLOCK_CASES["train-shape"]
    cycle = simulate_ecm(generate_profile("urban", 60.0, 0.1, seed=61), EcmConfig(),
                         DEFAULT_CELL, 0.9, 0.1)
    dataset = make_windows(cycle, fit_normalization([cycle]), cfg.input_window, stride=10)
    assert len(dataset) == 51  # 46 training windows: a batch of 32 and one of 14
    conv_backward, taps = tcnsoc.model.causal_conv_backward, tcnsoc.kernels._taps
    train_forward, val_forward = tcnsoc.training.forward_with_cache, tcnsoc.training.forward
    seen = {"backward": set(), "slabs": set(), "train": set(), "validation": set()}

    def spy_backward(x, params, grad_out, *args):
        grads = conv_backward(x, params, grad_out, *args)
        seen["backward"].add((x.dtype, grad_out.dtype, *(g.dtype for g in grads if g is not None)))
        return grads

    def spy_taps(x, k, d, causal=True):
        if not causal and k == cfg.kernel_size:
            seen["slabs"].add(len(x))
        return taps(x, k, d, causal)

    def spy_train_forward(model, window, rng, arena):
        seen["train"].add((window.dtype, arena.maps.dtype, arena.work.dtype))
        return train_forward(model, window, rng, arena)

    def spy_val_forward(model, window):
        seen["validation"].add(window.dtype)
        return val_forward(model, window)

    monkeypatch.setattr(tcnsoc.model, "causal_conv_backward", spy_backward)
    monkeypatch.setattr(tcnsoc.kernels, "_taps", spy_taps)
    monkeypatch.setattr(tcnsoc.training, "forward_with_cache", spy_train_forward)
    monkeypatch.setattr(tcnsoc.training, "forward", spy_val_forward)
    model = build_model(cfg, seed=62)
    tcnsoc.training.train(model, dataset, TrainConfig(batch_size=batch, epochs=1, seed=63))
    # block 0's input is the data: its convs return no input gradient
    assert seen["backward"] == {(np.dtype(np.float32),) * 5, (np.dtype(np.float32),) * 4}
    assert _slab_rows(cfg.filters, cfg.kernel_size, cfg.input_window, 4) == 20
    assert seen["slabs"] == {20, 12, 14}  # 32 rows as 20 + 12, and the batch of 14
    assert seen["train"] == {(np.dtype(np.float64), np.dtype(np.float32), np.dtype(np.float64))}
    assert seen["validation"] == {np.dtype(np.float64)}


# a full batch and a short last batch of each block case, as train() runs them
ARENA_CASES = [
    pytest.param(case, short, train, p_keep,
                 id=f"{case}-{'short' if short else 'full'}-{train}-p{p_keep}")
    for case in BLOCK_CASES for short in (False, True)
    for train in (True, False) for p_keep in (0.5, 0.9, 1.0)
    if train or p_keep == 1.0
]


@pytest.mark.parametrize("case,short,train,p_keep", ARENA_CASES)
def test_arena_gives_the_bytes_of_fresh_activations(case, short, train, p_keep):
    """A float64 arena keeps the dropout output d1 and the output of the
    composed block, and the gates d1 > 0, d2 > 0 and output > 0, whatever an
    earlier step left in it or in the work maps."""
    cfg, batch = BLOCK_CASES[case]
    cfg = replace(cfg, p_keep=p_keep)
    m = build_model(cfg, seed=51)
    rows = batch - 3 if short else batch
    rng = SplitMix64(52)
    x = rng.uniform(-1, 1, (rows, 4, cfg.input_window))
    grad_y = rng.uniform(-1, 1, (rows, cfg.input_window))
    arena = new_arena(m, batch, np.float64)
    maps, gates, work = arena.maps, arena.gates, arena.work
    assert maps.shape == (len(m.blocks), 2, batch, cfg.filters, cfg.input_window)
    assert maps.dtype == np.float64
    assert gates.shape == (len(m.blocks), 3, batch, cfg.filters, cfg.input_window)
    assert gates.dtype == np.bool_
    assert work.shape == (3, batch, cfg.filters, cfg.input_window)
    assert work.dtype == np.float64
    # one allocation, so that repeated training keeps its heap (README, "Activation arena")
    assert maps.base is not None and maps.base is gates.base is work.base
    maps.fill(np.nan)
    gates.fill(True)
    work.fill(np.nan)
    # a previous full step leaves its maps and gates in every slot
    forward_with_cache(m, rng.uniform(-1, 1, (batch, 4, cfg.input_window)), _stream(train, 54),
                       arena)
    y = forward_with_cache(m, x, _stream(train, 53), arena)
    want_y, (want_caches, head_input) = model_forward_composed(m, x, train, _stream(train, 53))
    assert y.tobytes() == want_y.tobytes()
    assert maps[-1, 1, :rows].tobytes() == head_input.tobytes()
    # block i reads the window or block i-1's output slot, its own d1 slot and its gates
    outputs = [want.x for want in want_caches[1:]] + [head_input]
    for i, (want, output) in enumerate(zip(want_caches, outputs)):
        block_input = maps[i - 1, 1, :rows] if i else x
        assert block_input.tobytes() == want.x.tobytes(), i
        assert maps[i, 0, :rows].tobytes() == want.d1.tobytes(), i
        want_gate = want.a2 > 0.0
        if want.mask2 is not None:
            want_gate &= want.mask2
        assert (want.mask2 is None) == (not train or p_keep == 1.0)
        assert np.array_equal(gates[i, 0, :rows], want.d1 > 0.0), i
        assert np.array_equal(gates[i, 1, :rows], want_gate), i
        assert np.array_equal(gates[i, 2, :rows], output > 0.0), i
    got = backward(m, x, arena, grad_y)
    want = model_backward_composed(m, (want_caches, head_input), grad_y)
    assert got.tobytes() == np.concatenate([g.ravel() for g in want]).tobytes()


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_backward_reads_the_arena_and_the_window_without_writing_them(case):
    # a short batch in a full-size arena, as train()'s last batch runs
    cfg, batch = BLOCK_CASES[case]
    m = build_model(cfg, seed=57)
    rng = SplitMix64(58)
    x = rng.uniform(-1, 1, (batch - 3, 4, cfg.input_window))
    grad_y = rng.uniform(-1, 1, (len(x), cfg.input_window))
    for dtype in (np.float32, np.float64):
        arena = new_arena(m, batch, dtype)
        arena.maps.fill(np.nan)
        arena.gates.fill(True)
        forward_with_cache(m, x, SplitMix64(59), arena)
        before = arena.maps.tobytes(), arena.gates.tobytes(), x.tobytes(), arena.rows
        first = backward(m, x, arena, grad_y)
        assert (arena.maps.tobytes(), arena.gates.tobytes(), x.tobytes(), arena.rows) == before
        assert backward(m, x, arena, grad_y).tobytes() == first.tobytes()


def test_arena_for_another_block_count_is_refused():
    cfg, batch = BLOCK_CASES["identity-skip"]
    m = build_model(cfg, seed=55)
    full = new_arena(m, batch, np.float32)
    maps, gates, work = full.maps, full.gates, full.work
    x = np.zeros((batch, 4, cfg.input_window))
    for arena in (Arena(maps[1:], gates[1:], work), Arena(maps, gates[1:], work),
                  Arena(maps[1:], gates, work)):
        message = (f"arena has maps for {len(arena.maps)} blocks and gates for "
                   f"{len(arena.gates)}, but the model has {len(m.blocks)} blocks")
        with pytest.raises(ValueError, match=f"^{message}$"):
            forward_with_cache(m, x, SplitMix64(56), arena)
        with pytest.raises(ValueError, match=f"^{message}$"):
            backward(m, x, arena, np.zeros((batch, cfg.input_window)))


def test_arena_for_a_smaller_batch_is_refused():
    cfg, batch = BLOCK_CASES["identity-skip"]
    m = build_model(cfg, seed=55)
    arena = new_arena(m, batch, np.float32)
    x = np.zeros((batch + 1, 4, cfg.input_window))
    message = f"^batch of {batch + 1} windows, but the arena holds {batch}$"
    with pytest.raises(ValueError, match=message):
        forward_with_cache(m, x, SplitMix64(56), arena)
    with pytest.raises(ValueError, match=message):
        backward(m, x, arena, np.zeros((batch + 1, cfg.input_window)))


def test_arena_of_another_dtype_is_refused():
    m = build_model(BLOCK_CASES["identity-skip"][0], seed=55)
    for dtype in (np.float16, np.int64, bool):
        with pytest.raises(ValueError, match=f"^arena dtype must be float32 or float64, "
                                             f"got {np.dtype(dtype)}$"):
            new_arena(m, 4, dtype)


def test_backward_of_another_batch_than_the_last_forward_is_refused():
    # the arena holds 8 windows and the last forward wrote 6: rows 6 and 7 hold
    # an earlier step's maps, which a backward of 7 windows would read
    cfg, _ = BLOCK_CASES["identity-skip"]
    m = build_model(cfg, seed=55)
    arena = new_arena(m, 8, np.float32)
    x = SplitMix64(57).uniform(-1, 1, (8, 4, cfg.input_window))

    def refused(rows, written):
        with pytest.raises(ValueError, match=f"^backward of {rows} windows, but the last "
                                             f"forward wrote {written}$"):
            backward(m, x[:rows], arena, np.ones((rows, cfg.input_window)))

    refused(8, 0)  # a fresh arena has no rows written
    forward_with_cache(m, x, SplitMix64(56), arena)
    forward_with_cache(m, x[:6], SplitMix64(56), arena)
    assert arena.rows == 6
    refused(7, 6)
    refused(5, 6)
    assert np.isfinite(backward(m, x[:6], arena, np.ones((6, cfg.input_window)))).all()


def test_backward_builds_no_gradient_for_the_data(monkeypatch):
    # every conv backward builds one tap matrix per batch slab, the anti-causal
    # taps of its output gradient, and no causal taps; block 0's conv1 and
    # downsample read the window and return no input gradient
    cfg, batch = BLOCK_CASES["train-shape"]
    m = build_model(cfg, seed=36)
    x = SplitMix64(37).uniform(-1, 1, (batch, 4, cfg.input_window))
    arena = new_arena(m, batch, np.float64)
    y = forward_with_cache(m, x, SplitMix64(38), arena)
    grad_y = SplitMix64(39).uniform(-1, 1, y.shape)
    want = backward(m, x, arena, grad_y)
    taps, conv_backward = tcnsoc.kernels._taps, tcnsoc.model.causal_conv_backward
    calls = []  # per conv backward call: [causal taps, anti-causal taps, slabs, no grad_x]

    def counting_taps(x, k, d, causal=True):
        calls[-1][not causal] += 1
        return taps(x, k, d, causal)

    def counting_backward(x, params, *args):
        calls.append([0, 0])
        result = conv_backward(x, params, *args)
        rows = _slab_rows(params.out_channels, params.kernel_size, x.shape[2], x.itemsize)
        calls[-1] += [-(-len(x) // rows), result[0] is None]
        return result

    monkeypatch.setattr(tcnsoc.kernels, "_taps", counting_taps)
    monkeypatch.setattr(tcnsoc.model, "causal_conv_backward", counting_backward)
    got = backward(m, x, arena, grad_y)
    convs = len(m.layers) - 1  # the head is not a conv kernel call
    assert convs == 17 and len(calls) == convs
    assert all(causal == 0 and anti == slabs for causal, anti, slabs, _ in calls)
    assert max(slabs for _, _, slabs, _ in calls) == 4  # k=8 convs: 32 rows in slabs of 10
    # block 0, which backward visits last: conv2, then conv1 and downsample
    assert [no_grad_x for *_, no_grad_x in calls] == [False] * (convs - 2) + [True, True]
    assert got.tobytes() == want.tobytes()


def test_model_leaves_the_window_unchanged_and_takes_a_read_only_one():
    cfg = TcnConfig(stacks=1, input_window=40, blocks_per_stack=2)
    m = build_model(cfg, seed=41)
    assert m.blocks[0].downsample is None  # block 0 adds the window itself
    features = SplitMix64(42).uniform(0, 1, (4, 120))
    # every ninth window of a read-only strided view, and a fresh copy of it
    strided = sliding_window_view(features, 40, axis=1).transpose(1, 0, 2)[::9]
    assert not strided.flags.writeable and not strided.flags.c_contiguous
    cut = np.ascontiguousarray(strided)
    assert cut.flags.writeable and cut.flags.c_contiguous
    frozen = cut.copy()
    frozen.setflags(write=False)
    for x in (cut, cut.astype(np.float32), frozen, strided):
        before = x.tobytes()
        y = forward(m, x)
        assert y.tobytes() == forward(m, np.array(x)).tobytes()
        assert np.array_equal(predict(m, x), y[:, -1])
        arena = new_arena(m, len(x), np.float64)
        out = forward_with_cache(m, x, SplitMix64(44), arena)
        backward(m, x, arena, np.ones_like(out))
        assert x.tobytes() == before
