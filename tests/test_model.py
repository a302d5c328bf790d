"""Tests for the network assembly: blocks, forward/backward, receptive field."""

import numpy as np
import pytest

from helpers import conv_oracle, make_positive, model_forward_oracle
from tcnsoc.model import (
    TcnConfig,
    TcnModel,
    backward,
    build_model,
    forward,
    forward_with_cache,
    parameter_count,
    predict,
    receptive_field,
)
from tcnsoc.modelio import deserialize, serialize
from tcnsoc.rng import SplitMix64


def tiny_config(**kw):
    base = dict(stacks=1, input_window=12, kernel_size=3, filters=3,
                input_features=4, blocks_per_stack=2)
    base.update(kw)
    return TcnConfig(**base)


def rf_oracle(config: TcnConfig) -> int:
    # accumulate per-conv look-back block by block instead of the closed form
    rf = 1
    for _ in range(config.stacks):
        for i in range(config.blocks_per_stack):
            rf += 2 * (config.kernel_size - 1) * config.dilation_base ** i
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
        TcnConfig(stacks=0, input_window=10).validate()
    with pytest.raises(ValueError):
        TcnConfig(stacks=1, input_window=10, p_keep=0.0).validate()
    with pytest.raises(ValueError):
        TcnConfig(stacks=1, input_window=10, p_keep=1.2).validate()
    with pytest.raises(ValueError):
        TcnConfig(stacks=1, input_window=10, dilation_base=3).validate()
    with pytest.raises(ValueError):
        TcnConfig(stacks=1, input_window=10, kernel_size=-2).validate()


# ------------------------------------------------------------ param counts


def test_parameter_count_132_per_conv_at_default_widths():
    # 4 input features, 4 filters, kernel 8: every full conv is 4*4*8+4 = 132
    cfg = TcnConfig(stacks=1, input_window=100)
    m = build_model(cfg, seed=0)
    for block in m.blocks:
        assert block.conv1.n_params == 132
        assert block.conv2.n_params == 132
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


def test_forward_eval_deterministic_and_train_seeded():
    cfg = tiny_config()
    m = build_model(cfg, seed=2)
    x = SplitMix64(3).uniform(-1, 1, (2, 4, cfg.input_window))
    assert np.array_equal(forward(m, x), forward(m, x))
    t1 = forward(m, x, train=True, rng=SplitMix64(11))
    t2 = forward(m, x, train=True, rng=SplitMix64(11))
    t3 = forward(m, x, train=True, rng=SplitMix64(12))
    assert np.array_equal(t1, t2)
    assert not np.array_equal(t1, t3)


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


def test_model_gradients_match_finite_differences():
    cfg = tiny_config(input_window=9, kernel_size=2, filters=2, blocks_per_stack=2)
    m = build_model(cfg, seed=13)
    rng = SplitMix64(14)
    x = rng.uniform(-1, 1, (3, 4, 9))
    target = rng.uniform(0, 1, 3)

    def loss() -> float:
        p = forward(m, x)[:, -1]
        return float(np.mean((p - target) ** 2))

    y, cache = forward_with_cache(m, x, train=False, rng=None)
    diff = y[:, -1] - target
    grad_y = np.zeros_like(y)
    grad_y[:, -1] = 2.0 * diff / diff.size
    grads = backward(m, cache, grad_y)

    params = m.parameters()
    assert len(grads) == len(params)
    step = 1e-5
    checked = 0
    for p, g in zip(params, grads):
        assert g.shape == p.shape
        flat, gflat = p.ravel(), g.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            hi = loss()
            flat[i] = keep - step
            lo = loss()
            flat[i] = keep
            fd = (hi - lo) / (2 * step)
            scale = max(abs(fd), abs(gflat[i]), 1e-8)
            assert abs(fd - gflat[i]) / scale < 1e-4, (p.shape, i, fd, gflat[i])
            checked += 1
    assert checked == parameter_count(cfg)


def test_gradients_with_train_mode_dropout_mask():
    # backward must route through the same masks the forward pass drew
    cfg = tiny_config(input_window=8, kernel_size=2, filters=2,
                      blocks_per_stack=1, p_keep=0.7)
    m = build_model(cfg, seed=21)
    x = SplitMix64(22).uniform(-1, 1, (2, 4, 8))
    target = np.array([0.3, 0.6])

    y, cache = forward_with_cache(m, x, train=True, rng=SplitMix64(23))
    diff = y[:, -1] - target
    grad_y = np.zeros_like(y)
    grad_y[:, -1] = 2.0 * diff / diff.size
    grads = backward(m, cache, grad_y)

    # replaying the identical mask stream reproduces the same loss surface
    def loss() -> float:
        p = forward(m, x, train=True, rng=SplitMix64(23))[:, -1]
        return float(np.mean((p - target) ** 2))

    step = 1e-5
    for p, g in zip(m.parameters(), grads):
        flat, gflat = p.ravel(), g.ravel()
        for i in range(0, flat.size, 7):  # sample coordinates for speed
            keep = flat[i]
            flat[i] = keep + step
            hi = loss()
            flat[i] = keep - step
            lo = loss()
            flat[i] = keep
            fd = (hi - lo) / (2 * step)
            scale = max(abs(fd), abs(gflat[i]), 1e-8)
            assert abs(fd - gflat[i]) / scale < 1e-4


def test_zero_grad_output_gives_zero_param_grads():
    cfg = tiny_config()
    m = build_model(cfg, seed=1)
    x = SplitMix64(2).uniform(-1, 1, (2, 4, cfg.input_window))
    y, cache = forward_with_cache(m, x, train=False, rng=None)
    grads = backward(m, cache, np.zeros_like(y))
    assert all(np.array_equal(g, np.zeros_like(g)) for g in grads)
