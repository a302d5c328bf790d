"""Tests for the convolution/activation/optimizer primitives.

The convolution oracle (``helpers.conv_oracle``) is a deliberately naive
loop over the defining sum; everything vectorized is checked against it.
"""

import math

import numpy as np
import pytest
from helpers import conv_backward_sliced, conv_forward_sliced, conv_oracle, float32_tolerance
from numpy.lib.stride_tricks import sliding_window_view

from tcnsoc.kernels import (
    AdamState,
    ConvParams,
    adam_step,
    causal_conv_backward,
    causal_conv_forward,
    dropout,
    dropout_backward,
    init_conv_params,
    linear_head_backward,
    linear_head_forward,
    mse_loss,
    relu,
    relu_backward,
)
from tcnsoc.rng import SplitMix64


def random_case(rng, batch, in_ch, out_ch, k, d, steps):
    x = rng.uniform(-1.0, 1.0, (batch, in_ch, steps))
    params = init_conv_params(out_ch, in_ch, k, d, rng.spawn())
    return x, params


# ---------------------------------------------------------------- forward


def test_forward_matches_oracle():
    rng = SplitMix64(100)
    shapes = [
        (1, 1, 1, 1, 5),
        (2, 3, 4, 2, 9),
        (3, 2, 2, 3, 7),
        (1, 4, 4, 8, 20),
        (2, 1, 3, 2, 12),
    ]
    for batch, in_ch, out_ch, k, steps in shapes:
        for d in (1, 2, 4):
            x, params = random_case(rng, batch, in_ch, out_ch, k, d, steps)
            got = causal_conv_forward(x, params)
            want = conv_oracle(x, params.weights, params.bias, d)
            assert np.allclose(got, want, rtol=0, atol=1e-12), (batch, k, d)


# shapes the tap slicing handles separately: (batch, in, out, k, d, steps)
EDGE_CASES = [
    pytest.param(2, 2, 3, 4, 5, 5, id="all-but-newest-tap-in-padding"),
    pytest.param(1, 2, 2, 3, 2, 4, id="oldest-tap-shift-equals-steps"),
    pytest.param(1, 1, 1, 1, 1, 1, id="one-step-one-tap"),
    pytest.param(1, 3, 2, 4, 2, 1, id="one-step-many-taps"),
    pytest.param(2, 4, 8, 8, 1, 30, id="first-layer-4-to-8"),
    pytest.param(2, 4, 4, 8, 8, 500, id="benchmark-shape"),
]


@pytest.mark.parametrize("batch, in_ch, out_ch, k, d, steps", EDGE_CASES)
def test_forward_edge_cases_match_oracle(batch, in_ch, out_ch, k, d, steps):
    rng = SplitMix64(101 + k * d + steps)
    x, params = random_case(rng, batch, in_ch, out_ch, k, d, steps)
    got = causal_conv_forward(x, params)
    assert got.shape == (batch, out_ch, steps)
    assert np.allclose(got, conv_oracle(x, params.weights, params.bias, d),
                       rtol=0, atol=1e-12)


def test_forward_identity_kernel():
    # weight 1 on the newest tap reproduces the input regardless of dilation
    for k, d in ((1, 1), (3, 1), (4, 2), (8, 4)):
        w = np.zeros((1, 1, k))
        w[0, 0, k - 1] = 1.0
        params = ConvParams(w, np.zeros(1), dilation=d)
        x = SplitMix64(5).uniform(-2, 2, (2, 1, 30))
        assert np.array_equal(causal_conv_forward(x, params), x)


def test_forward_delay_kernel():
    # weight 1 on the second-newest tap delays the signal by d steps
    for d in (1, 3):
        w = np.zeros((1, 1, 2))
        w[0, 0, 0] = 1.0
        params = ConvParams(w, np.zeros(1), dilation=d)
        x = SplitMix64(6).uniform(-1, 1, (1, 1, 20))
        y = causal_conv_forward(x, params)
        assert np.allclose(y[0, 0, d:], x[0, 0, :-d], atol=0)
        assert np.array_equal(y[0, 0, :d], np.zeros(d))


def test_forward_bias_only():
    params = ConvParams(np.zeros((3, 2, 4)), np.array([1.5, -2.0, 0.25]))
    x = np.ones((2, 2, 6))
    y = causal_conv_forward(x, params)
    for o, b in enumerate([1.5, -2.0, 0.25]):
        assert np.array_equal(y[:, o, :], np.full((2, 6), b))


def test_forward_is_causal():
    rng = SplitMix64(200)
    x, params = random_case(rng, 1, 3, 2, 4, 2, 30)
    base = causal_conv_forward(x, params)
    probe = 17
    x2 = x.copy()
    x2[0, 1, probe] += 5.0
    bumped = causal_conv_forward(x2, params)
    assert np.array_equal(base[:, :, :probe], bumped[:, :, :probe])
    assert not np.array_equal(base[:, :, probe:], bumped[:, :, probe:])


def test_forward_keeps_float32_throughout():
    x, p64 = random_case(SplitMix64(31), batch=2, in_ch=3, out_ch=4, k=3, d=2, steps=17)
    params = ConvParams(p64.weights.astype(np.float32), p64.bias.astype(np.float32), 2)
    assert params.weights.dtype == params.bias.dtype == np.float32
    y = causal_conv_forward(x.astype(np.float32), params)
    assert y.dtype == np.float32
    assert relu(y).dtype == np.float32
    assert linear_head_forward(y, params.bias, 0.5).dtype == np.float32
    want = conv_oracle(x.astype(np.float32).astype(np.float64),
                       params.weights.astype(np.float64), params.bias.astype(np.float64), 2)
    assert np.abs(y - want).max() <= float32_tolerance(want)


def test_conv_params_stores_other_dtypes_as_float64():
    params = ConvParams(np.ones((2, 2, 3), dtype=np.int64), np.zeros(2, dtype=np.float16))
    assert params.weights.dtype == params.bias.dtype == np.float64


def test_forward_rejects_input_of_another_dtype():
    x, params = random_case(SplitMix64(32), batch=1, in_ch=2, out_ch=3, k=2, d=1, steps=5)
    with pytest.raises(ValueError, match="dtype float32 does not match weights dtype float64"):
        causal_conv_forward(x.astype(np.float32), params)
    with pytest.raises(ValueError, match="dtype"):
        linear_head_forward(x.astype(np.float32), np.ones(2), 0.0)


def test_forward_rejects_bad_shapes():
    params = init_conv_params(2, 3, 4, 1, SplitMix64(0))
    with pytest.raises(ValueError):
        causal_conv_forward(np.zeros((3, 10)), params)  # rank 2
    with pytest.raises(ValueError):
        causal_conv_forward(np.zeros((1, 2, 10)), params)  # wrong channels


# ---------------------------------------------------------------- backward


def _fd_grad(f, x, step=1e-6, positions=None):
    """Central finite differences of scalar f at array x; with ``positions``,
    only at those flat indices (the rest of the result stays 0)."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size) if positions is None else positions:
        keep = flat[i]
        flat[i] = keep + step
        hi = f()
        flat[i] = keep - step
        lo = f()
        flat[i] = keep
        gflat[i] = (hi - lo) / (2 * step)
    return g


def test_backward_matches_finite_differences():
    rng = SplitMix64(300)
    for batch, in_ch, out_ch, k, d, steps in [
        (2, 2, 3, 3, 1, 8),
        (1, 3, 2, 2, 2, 10),
        (2, 1, 1, 4, 2, 9),
    ]:
        x, params = random_case(rng, batch, in_ch, out_ch, k, d, steps)
        r = rng.uniform(-1, 1, (batch, out_ch, steps))

        def loss():
            return float(np.sum(causal_conv_forward(x, params) * r))

        gx, gw, gb = causal_conv_backward(x, params, r)
        assert np.allclose(gx, _fd_grad(loss, x), rtol=1e-6, atol=1e-8)
        assert np.allclose(gw, _fd_grad(loss, params.weights), rtol=1e-6, atol=1e-8)
        assert np.allclose(gb, _fd_grad(loss, params.bias), rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("batch, in_ch, out_ch, k, d, steps", EDGE_CASES)
def test_backward_edge_cases_match_finite_differences(batch, in_ch, out_ch, k, d, steps):
    rng = SplitMix64(302 + k * d + steps)
    x, params = random_case(rng, batch, in_ch, out_ch, k, d, steps)
    r = rng.uniform(-1, 1, (batch, out_ch, steps))

    def loss():
        return float(np.sum(causal_conv_forward(x, params) * r))

    grads = causal_conv_backward(x, params, r)
    for grad, arr in zip(grads, (x, params.weights, params.bias)):
        assert grad.shape == arr.shape
        # 48 seeded positions keep the 4000-input benchmark shape fast
        at = np.arange(arr.size) if arr.size <= 48 else rng.permutation(arr.size)[:48]
        want = _fd_grad(loss, arr, positions=at)
        assert np.allclose(grad.ravel()[at], want.ravel()[at], rtol=1e-6, atol=1e-8)


# the earlier sliced kernels (helpers.conv_*_sliced) at the padding edges and
# the three benchmark shapes at every dilation: (batch, in, out, k, d, steps)
SLICED_PARITY_CASES = EDGE_CASES + [
    pytest.param(2, 4, 4, 1, 1, 30, id="k1-no-padding"),
    *(pytest.param(b, c, c, 8, d, t, id=f"bench-{b}x{c}x{t}-d{d}")
      for b, c, t in ((1, 4, 500), (32, 8, 100), (256, 4, 500)) for d in (1, 2, 4, 8)),
]


@pytest.mark.parametrize("batch, in_ch, out_ch, k, d, steps", SLICED_PARITY_CASES)
def test_forward_is_bit_identical_to_sliced_kernel(batch, in_ch, out_ch, k, d, steps):
    x, params = random_case(SplitMix64(400 + k * d + steps), batch, in_ch, out_ch, k, d, steps)
    assert np.array_equal(causal_conv_forward(x, params), conv_forward_sliced(x, params))
    p32 = ConvParams(params.weights.astype(np.float32), params.bias.astype(np.float32), d)
    x32 = x.astype(np.float32)
    got = causal_conv_forward(x32, p32)
    assert got.dtype == np.float32
    assert np.array_equal(got, conv_forward_sliced(x32, p32))


@pytest.mark.parametrize("batch, in_ch, out_ch, k, d, steps", SLICED_PARITY_CASES)
def test_backward_matches_sliced_kernel(batch, in_ch, out_ch, k, d, steps):
    rng = SplitMix64(500 + k * d + steps)
    x, params = random_case(rng, batch, in_ch, out_ch, k, d, steps)
    g = rng.uniform(-1.0, 1.0, (batch, out_ch, steps))
    gx, gw, gb = causal_conv_backward(x, params, g)
    ref_x, ref_w, ref_b = conv_backward_sliced(x, params, g)
    # only the input gradient sums in another order
    assert gx.shape == ref_x.shape and gx.dtype == ref_x.dtype
    assert np.max(np.abs(gx - ref_x)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref_x))))
    assert np.array_equal(gw, ref_w)
    assert np.array_equal(gb, ref_b)


def _layouts(a):
    """Read-only copies of ``a`` in four memory layouts: C order, Fortran
    order, a stride-2 slice of a wider array, a sliding_window_view window."""
    wide = np.zeros(a.shape[:2] + (2 * a.shape[2],))
    wide[:, :, ::2] = a
    padded = np.concatenate([np.zeros(a.shape[:2] + (3,)), a], axis=2)
    views = {
        "c-order": np.ascontiguousarray(a),
        "fortran": np.asfortranarray(a),
        "strided": wide[:, :, ::2],
        "window": sliding_window_view(padded, a.shape[2], axis=2)[:, :, 3],
    }
    for name, v in views.items():
        assert np.array_equal(v, a), name
        v.flags.writeable = False
    return views


@pytest.mark.parametrize("k, d", [(1, 1), (3, 2), (8, 4)])
def test_kernels_give_the_same_bytes_for_every_input_layout(k, d):
    rng = SplitMix64(600 + k * d)
    x, params = random_case(rng, 3, 4, 5, k, d, 23)
    g = rng.uniform(-1.0, 1.0, (3, 5, 23))
    xs, gs = _layouts(x), _layouts(g)
    assert not xs["fortran"].flags.c_contiguous and not xs["strided"].flags.c_contiguous
    want_y = causal_conv_forward(xs["c-order"], params).tobytes()
    want = [a.tobytes() for a in causal_conv_backward(xs["c-order"], params, gs["c-order"])]
    for name in xs:
        # read-only inputs: a kernel that wrote into x or grad_out would raise
        assert causal_conv_forward(xs[name], params).tobytes() == want_y, name
        got = causal_conv_backward(xs[name], params, gs[name])
        assert [a.tobytes() for a in got] == want, name


def test_backward_rejects_bad_grad_shape():
    rng = SplitMix64(301)
    x, params = random_case(rng, 1, 2, 2, 3, 1, 6)
    with pytest.raises(ValueError):
        causal_conv_backward(x, params, np.zeros((1, 2, 7)))


# ---------------------------------------------------------------- init


def test_init_bounds_and_determinism():
    p1 = init_conv_params(4, 3, 8, 2, SplitMix64(9))
    p2 = init_conv_params(4, 3, 8, 2, SplitMix64(9))
    assert np.array_equal(p1.weights, p2.weights)
    assert np.array_equal(p1.bias, p2.bias)
    bound = 1.0 / math.sqrt(3 * 8)
    assert np.abs(p1.weights).max() <= bound
    assert np.abs(p1.bias).max() <= bound
    assert p1.dilation == 2
    assert p1.n_params == 4 * 3 * 8 + 4


def test_conv_params_validation():
    with pytest.raises(ValueError):
        ConvParams(np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        ConvParams(np.zeros((2, 2, 3)), np.zeros(3))
    with pytest.raises(ValueError):
        ConvParams(np.zeros((2, 2, 3)), np.zeros(2), dilation=0)


# ---------------------------------------------------------------- relu


def test_relu_values():
    x = np.array([-2.0, -0.0, 0.0, 0.5, 3.0])
    assert np.array_equal(relu(x), [0.0, 0.0, 0.0, 0.5, 3.0])


def test_relu_backward_subgradient_zero_at_zero():
    x = np.array([-1.0, 0.0, 2.0])
    g = np.array([10.0, 10.0, 10.0])
    assert np.array_equal(relu_backward(x, g), [0.0, 0.0, 10.0])


def test_relu_backward_finite_difference_away_from_zero():
    rng = SplitMix64(8)
    x = rng.uniform(-1, 1, (4, 5))
    x[np.abs(x) < 1e-3] = 0.5  # keep away from the kink
    r = rng.uniform(-1, 1, (4, 5))

    def loss():
        return float(np.sum(relu(x) * r))

    assert np.allclose(relu_backward(x, r), _fd_grad(loss, x), rtol=1e-6, atol=1e-9)


# ---------------------------------------------------------------- dropout


def test_dropout_eval_mode_is_identity():
    x = SplitMix64(1).uniform(size=(3, 4))
    out, mask = dropout(x, 0.5, None, train=False)
    assert out is x
    assert mask is None


def test_dropout_keep_all():
    x = SplitMix64(2).uniform(size=(3, 4))
    out, mask = dropout(x, 1.0, SplitMix64(3), train=True)
    assert np.array_equal(out, x)
    assert mask.all()


def test_dropout_mask_values_and_scaling():
    x = np.ones((200, 50))
    out, mask = dropout(x, 0.8, SplitMix64(4), train=True)
    assert set(np.unique(out)).issubset({0.0, 1.0 / 0.8})
    assert np.array_equal(out != 0, mask)


def test_dropout_preserves_mean():
    x = np.ones(100_000)
    out, _ = dropout(x, 0.7, SplitMix64(5), train=True)
    assert abs(out.mean() - 1.0) < 0.02


def test_dropout_drop_rate():
    x = np.ones(100_000)
    _, mask = dropout(x, 0.9, SplitMix64(6), train=True)
    assert abs(mask.mean() - 0.9) < 0.01


def test_dropout_deterministic_per_stream():
    x = np.ones((10, 10))
    a, _ = dropout(x, 0.5, SplitMix64(7), train=True)
    b, _ = dropout(x, 0.5, SplitMix64(7), train=True)
    assert np.array_equal(a, b)


def test_dropout_mask_is_the_uniform_threshold_of_its_stream():
    # histories depend on this: the mask equals uniform(size) < p_keep
    for p in (0.3, 0.9, 1.0):
        x = np.ones((4, 3, 17))
        rng = SplitMix64(8)
        _, mask = dropout(x, p, rng, train=True)
        ref = SplitMix64(8)
        assert np.array_equal(mask, ref.uniform(size=x.shape) < p)
        assert rng.counter == ref.counter


def test_dropout_rejects_bad_p_keep():
    x = np.ones(3)
    for p in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            dropout(x, p, SplitMix64(0), train=True)


def test_dropout_backward_routes_through_mask():
    x = np.ones((50, 50))
    out, mask = dropout(x, 0.6, SplitMix64(9), train=True)
    g = SplitMix64(10).uniform(size=(50, 50))
    back = dropout_backward(g, mask, 0.6)
    assert np.array_equal(back, g * mask / 0.6)
    assert np.array_equal(dropout_backward(g, None, 0.6), g)


# ---------------------------------------------------------------- head


def test_head_matches_loop():
    rng = SplitMix64(400)
    x = rng.uniform(-1, 1, (3, 5, 7))
    w = rng.uniform(-1, 1, 5)
    got = linear_head_forward(x, w, 0.25)
    want = np.zeros((3, 7))
    for b in range(3):
        for t in range(7):
            want[b, t] = 0.25 + sum(w[c] * x[b, c, t] for c in range(5))
    assert np.allclose(got, want, atol=1e-12)


def test_head_backward_finite_differences():
    rng = SplitMix64(401)
    x = rng.uniform(-1, 1, (2, 4, 6))
    w = rng.uniform(-1, 1, 4)
    bias = np.array([0.1])
    r = rng.uniform(-1, 1, (2, 6))

    def loss():
        return float(np.sum(linear_head_forward(x, w, bias[0]) * r))

    gx, gw, gb = linear_head_backward(x, w, r)
    assert np.allclose(gx, _fd_grad(loss, x), rtol=1e-6, atol=1e-9)
    assert np.allclose(gw, _fd_grad(loss, w), rtol=1e-6, atol=1e-9)
    assert np.allclose(gb, _fd_grad(loss, bias)[0], rtol=1e-6, atol=1e-9)


def test_head_rejects_bad_shapes():
    with pytest.raises(ValueError):
        linear_head_forward(np.zeros((2, 3)), np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        linear_head_forward(np.zeros((2, 3, 4)), np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        linear_head_backward(np.zeros((2, 3, 4)), np.zeros(3), np.zeros((2, 5)))


# ---------------------------------------------------------------- loss


def test_mse_loss_matches_fsum_oracle():
    rng = SplitMix64(500)
    pred = rng.uniform(-1, 1, 999)
    target = rng.uniform(-1, 1, 999)
    loss, grad = mse_loss(pred, target)
    want = math.fsum((float(p) - float(t)) ** 2 for p, t in zip(pred, target)) / 999
    assert abs(loss - want) < 1e-15 * max(1.0, abs(want))
    assert np.allclose(grad, 2.0 * (pred - target) / 999, atol=0)


def test_mse_loss_zero_for_equal_inputs():
    x = np.array([1.0, -2.0, 3.0])
    loss, grad = mse_loss(x, x.copy())
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros(3))


def test_mse_loss_rejects_bad_inputs():
    with pytest.raises(ValueError):
        mse_loss(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        mse_loss(np.zeros(0), np.zeros(0))


def test_mse_grad_finite_differences():
    rng = SplitMix64(501)
    pred = rng.uniform(-1, 1, 25)
    target = rng.uniform(-1, 1, 25)

    def loss():
        return mse_loss(pred, target)[0]

    assert np.allclose(mse_loss(pred, target)[1], _fd_grad(loss, pred),
                       rtol=1e-6, atol=1e-10)


# ---------------------------------------------------------------- adam


def adam_oracle(params, grads_per_step, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook Adam with bias correction, scalar loops only."""
    params = [p.astype(np.float64).copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for step, grads in enumerate(grads_per_step, start=1):
        for p, g, mi, vi in zip(params, grads, m, v):
            mi[...] = b1 * mi + (1 - b1) * g
            vi[...] = b2 * vi + (1 - b2) * g * g
            m_hat = mi / (1 - b1 ** step)
            v_hat = vi / (1 - b2 ** step)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params


def test_adam_first_step_is_signed_learning_rate():
    p = np.array([1.0, -2.0, 0.5])
    g = np.array([0.3, -4.0, 1e-4])
    state = AdamState.for_params([p], lr=1e-3)
    adam_step([p], [g], state)
    expected = np.array([1.0, -2.0, 0.5]) - 1e-3 * np.sign(g)
    # eps shifts the magnitude by O(eps/|g|); generous bound for the tiny grad
    assert np.allclose(p, expected, atol=1e-7)


def test_adam_matches_reference_over_many_steps():
    rng = SplitMix64(600)
    shapes = [(3, 2), (4,), (2, 2, 2)]
    params = [rng.uniform(-1, 1, s) for s in shapes]
    start = [p.copy() for p in params]
    grads_per_step = [
        [rng.uniform(-1, 1, s) for s in shapes] for _ in range(25)
    ]
    state = AdamState.for_params(params, lr=0.01)
    for grads in grads_per_step:
        adam_step(params, grads, state)
    want = adam_oracle(start, grads_per_step, lr=0.01)
    for got, exp in zip(params, want):
        assert np.allclose(got, exp, rtol=1e-12, atol=1e-14)
    assert state.step == 25


def test_adam_flat_vector_matches_per_array_update():
    # one update over the concatenated vector is the per-array update, bit for bit
    rng = SplitMix64(601)
    shapes = [(3, 2), (4,), (2, 2, 2), (1,)]
    params = [rng.uniform(-1, 1, s) for s in shapes]
    flat = np.concatenate([p.ravel() for p in params])
    per_array = AdamState.for_params(params, lr=0.01)
    flat_state = AdamState.for_params([flat], lr=0.01)
    for _ in range(7):
        grads = [rng.uniform(-1, 1, s) for s in shapes]
        adam_step(params, grads, per_array)
        adam_step([flat], [np.concatenate([g.ravel() for g in grads])], flat_state)
        assert np.array_equal(flat, np.concatenate([p.ravel() for p in params]))
    assert flat_state.step == per_array.step == 7


def test_adam_updates_in_place():
    p = np.ones(4)
    ref = p
    state = AdamState.for_params([p])
    adam_step([p], [np.ones(4)], state)
    assert ref is p
    assert not np.array_equal(p, np.ones(4))


def test_adam_zero_grad_keeps_params():
    p = np.array([1.0, 2.0])
    state = AdamState.for_params([p])
    adam_step([p], [np.zeros(2)], state)
    assert np.array_equal(p, [1.0, 2.0])


def test_adam_length_and_shape_mismatch():
    p = np.zeros(3)
    state = AdamState.for_params([p])
    with pytest.raises(ValueError):
        adam_step([p], [], state)
    with pytest.raises(ValueError):
        adam_step([p], [np.zeros(4)], state)


def test_adam_converges_on_quadratic():
    # minimize (p - 3)^2 elementwise
    p = np.zeros(5)
    state = AdamState.for_params([p], lr=0.05)
    for _ in range(600):
        adam_step([p], [2.0 * (p - 3.0)], state)
    assert np.allclose(p, 3.0, atol=1e-3)
