"""Acceptance suite: ten go/no-go checks, one test per criterion.

Run with `pytest -v tests/test_acceptance.py`; the verbose listing gives one
PASS/FAIL line per criterion, and each test also prints a summary line
(visible with -s). Heavier criteria (7 and 8) carry their own wall-clock
budgets and assert against them.
"""

import math
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from helpers import below, make_positive
from tcnsoc.data import (
    DEFAULT_CELL,
    DriveCycle,
    build_hybrid,
    coulomb_count,
    fit_normalization,
)
from tcnsoc.kernels import causal_conv_forward, mse_loss, relu
from tcnsoc.model import (
    TcnConfig,
    backward,
    build_model,
    forward,
    forward_with_cache,
    new_arena,
    parameter_count,
    receptive_field,
)
from tcnsoc.modelio import (
    BadMagicError,
    ChecksumError,
    ModelFormatError,
    TruncatedPayloadError,
    VersionMismatchError,
    deserialize,
    serialize,
)
from tcnsoc.rng import SplitMix64
from tcnsoc.simulate import EcmConfig, generate_profile, simulate_ecm
from tcnsoc.sweep import REPORT_COLUMNS, run_sweep
from tcnsoc.training import TrainConfig, compute_metrics, evaluate, train


def _sim(kind, duration, seed, dt=0.1, initial_soc=0.95):
    profile = generate_profile(kind, duration, dt=dt, seed=seed)
    return simulate_ecm(profile, EcmConfig(), DEFAULT_CELL, initial_soc, dt=dt,
                        name=kind)


# -------------------------------------------------------------- criterion 1


def _activation_margin(model, x) -> float:
    """Distance of the nearest nonzero pre-activation to a ReLU kink.

    Exact zeros are excluded: they only arise when both the branch and the
    skip sit at their ReLU floors, and the gates feeding them are strictly
    closed, so a small parameter step leaves them pinned at zero rather
    than crossing the kink.
    """
    margin, h = math.inf, x
    for block in model.blocks:  # the inference block, dropout the identity
        a1 = causal_conv_forward(h, block.conv1)
        a2 = causal_conv_forward(relu(a1), block.conv2)
        skip = h if block.downsample is None else causal_conv_forward(h, block.downsample)
        pre = relu(a2) + skip
        for arr in (a1, a2, pre):
            nonzero = arr[arr != 0.0]
            if nonzero.size:
                margin = min(margin, float(np.abs(nonzero).min()))
        h = relu(pre)
    return margin


def test_criterion_01_gradients_match_finite_differences():
    """Analytic gradients agree with central differences to 1e-4 relative."""
    t0 = time.perf_counter()
    configs = [
        dict(stacks=1, input_window=10, kernel_size=2, filters=2, blocks_per_stack=2),
        dict(stacks=1, input_window=12, kernel_size=3, filters=3, blocks_per_stack=2),
        dict(stacks=2, input_window=14, kernel_size=2, filters=3, blocks_per_stack=2),
        dict(stacks=1, input_window=12, kernel_size=8, filters=2, blocks_per_stack=1),
        dict(stacks=1, input_window=16, kernel_size=3, filters=4, blocks_per_stack=3),
        dict(stacks=2, input_window=10, kernel_size=2, filters=2, blocks_per_stack=1),
    ]
    step = 1e-5
    checked = total = 0
    worst = 0.0
    for case_no, kw in enumerate(configs):
        # at p_keep 1 the training pass is the inference forward the loss reads
        cfg = TcnConfig(**kw, p_keep=1.0)
        model = build_model(cfg, seed=1000 + case_no)
        rng = SplitMix64(2000 + case_no)
        # keep every live pre-activation clear of the ReLU kink so the
        # finite difference probes a smooth region; the 1e-5 step moves
        # activations by well under 1e-4
        for _ in range(60):
            x = rng.uniform(-1.0, 1.0, (2, 4, cfg.input_window))
            if _activation_margin(model, x) > 5e-4:
                break
        else:
            pytest.fail(f"case {case_no}: no kink-free input found")
        target = rng.uniform(0.0, 1.0, 2)

        arena = new_arena(model, len(x), np.float64)
        y = forward_with_cache(model, x, SplitMix64(0), arena)
        _, grad_pred = mse_loss(y[:, -1], target)
        grad_y = np.zeros_like(y)
        grad_y[:, -1] = grad_pred
        grad = backward(model, x, arena, grad_y)
        theta = model.theta
        assert grad.dtype == np.float64 and grad.shape == theta.shape

        def loss() -> float:
            return mse_loss(forward(model, x)[:, -1], target)[0]

        for i in range(theta.size):
            keep = theta[i]
            theta[i] = keep + step
            hi = loss()
            theta[i] = keep - step
            lo = loss()
            theta[i] = keep
            fd = (hi - lo) / (2 * step)
            rel = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-8)
            assert rel < 1e-4, (case_no, i, fd, grad[i], rel)
            worst = max(worst, rel)
            checked += 1
        total += parameter_count(cfg)
    elapsed = time.perf_counter() - t0
    assert checked == total >= 100
    assert elapsed < 60.0
    print(f"CRITERION 1 PASS: {checked} gradient coordinates, "
          f"worst rel err {worst:.2e}, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 2


def test_criterion_02_causality_50_random_models():
    """Future inputs never change past outputs, bit for bit, on 50 models."""
    rng = SplitMix64(3000)
    changed = 0
    for trial in range(50):
        cfg = TcnConfig(
            stacks=1 + trial % 2,
            input_window=16 + trial % 17,
            kernel_size=2 + trial % 4,
            filters=2 + trial % 3,
            blocks_per_stack=1 + trial % 3,
        )
        model = build_model(cfg, seed=trial)
        w = cfg.input_window
        x = rng.uniform(-1.0, 1.0, (2, 4, w))
        base = forward(model, x)
        t = 1 + below(rng, w - 1)
        x2 = x.copy()
        x2[:, :, t:] = rng.uniform(-1.0, 1.0, (2, 4, w - t))
        bumped = forward(model, x2)
        assert np.array_equal(base[:, :t], bumped[:, :t]), (trial, t)
        if not np.array_equal(base[:, t:], bumped[:, t:]):
            changed += 1
    assert changed >= 45  # the probe itself must have teeth
    print(f"CRITERION 2 PASS: 50 models causal, {changed} probes propagated")


# -------------------------------------------------------------- criterion 3


def test_criterion_03_receptive_field_impulse_oracle():
    """Measured impulse reach equals the closed formula for k x S grid."""
    for k in (2, 3, 8):
        for s in (1, 2, 3):
            cfg = TcnConfig(stacks=s, input_window=8, kernel_size=k, filters=4)
            rf = receptive_field(cfg)
            # independent accumulation: each conv adds (k-1)*dilation look-back
            acc = 1
            for _ in range(cfg.stacks):
                for i in range(cfg.blocks_per_stack):
                    acc += 2 * (k - 1) * 2 ** i
            assert rf == acc

            window = rf + 8
            cfg = TcnConfig(stacks=s, input_window=window, kernel_size=k, filters=4)
            model = build_model(cfg, seed=k * 10 + s)
            # positive weights keep every ReLU open for a positive bump;
            # zero biases make the zero-input response exactly zero, so an
            # in-reach impulse shows up as a strictly positive output and
            # can never be rounded away against a large baseline
            make_positive(model)
            for block in model.blocks:
                block.conv1.bias[:] = 0.0
                block.conv2.bias[:] = 0.0
            model.head_bias[:] = 0.0
            boundary = window - rf
            probes = sorted(
                set(range(0, boundary + 9))
                | set(range(boundary, window, 29))
                | {window - 1}
            )
            x = np.zeros((len(probes) + 1, 4, window))
            for row, pos in enumerate(probes, start=1):
                x[row, pos % 4, pos] += 1.0
            y = forward(model, x)[:, -1]
            assert y[0] == 0.0
            affected = y[1:] != 0.0
            expected = np.array([pos >= boundary for pos in probes])
            assert np.array_equal(affected, expected), (k, s, rf)
    print("CRITERION 3 PASS: impulse reach matches formula for "
          "k in {2,3,8} x stacks in {1,2,3}")


# -------------------------------------------------------------- criterion 4


def test_criterion_04_parameter_count_anchor():
    """At default widths every full convolution holds exactly 132 parameters."""
    for s in (1, 2, 3):
        cfg = TcnConfig(stacks=s, input_window=100)
        model = build_model(cfg, seed=s)
        for block in model.blocks:
            assert block.conv1.weights.size + block.conv1.bias.size == 132
            assert block.conv2.weights.size + block.conv2.bias.size == 132
            assert block.downsample is None
        want = s * cfg.blocks_per_stack * 2 * 132 + cfg.filters + 1
        assert parameter_count(cfg) == want
        assert sum(a.size for a in model.parameters()) == want
    assert parameter_count(TcnConfig(stacks=2, input_window=500)) == 2117
    print("CRITERION 4 PASS: 132 parameters per convolution at default widths")


# -------------------------------------------------------------- criterion 5


def test_criterion_05_serialization_50_models(tmp_path):
    """50 models: serialized form is a bit-exact fixed point and every
    corruption class is detected with its own error."""
    rng = SplitMix64(4000)
    for trial in range(50):
        cfg = TcnConfig(
            stacks=1 + trial % 3,
            input_window=10 + trial % 30,
            kernel_size=2 + trial % 7,
            filters=2 + trial % 4,
            blocks_per_stack=1 + trial % 3,
        )
        model = build_model(cfg, seed=int(rng.next_u64()))
        pa = tmp_path / f"{trial}_a.bin"
        pb = tmp_path / f"{trial}_b.bin"
        serialize(model, pa)
        m2 = deserialize(pa)
        serialize(m2, pb)
        m3 = deserialize(pb)
        blob = pa.read_bytes()
        assert blob == pb.read_bytes(), trial
        for a, b in zip(m2.parameters(), m3.parameters()):
            assert np.array_equal(a, b)
        probe = SplitMix64(trial).uniform(-1, 1, (1, 4, cfg.input_window))
        assert np.array_equal(forward(m2, probe), forward(m3, probe))

        bad = tmp_path / "bad.bin"
        header_len = struct.unpack_from("<I", blob, 8)[0]

        corrupt = bytearray(blob)
        corrupt[1] ^= 0xFF
        bad.write_bytes(bytes(corrupt))
        with pytest.raises(BadMagicError):
            deserialize(bad)

        corrupt = bytearray(blob)
        struct.pack_into("<I", corrupt, 4, 99)
        bad.write_bytes(bytes(corrupt))
        with pytest.raises(VersionMismatchError):
            deserialize(bad)

        bad.write_bytes(blob[:-7])
        with pytest.raises(TruncatedPayloadError):
            deserialize(bad)

        corrupt = bytearray(blob)
        corrupt[12 + header_len + 3] ^= 0x20
        bad.write_bytes(bytes(corrupt))
        with pytest.raises(ChecksumError):
            deserialize(bad)

        bad.write_bytes(blob + b"\x00")
        with pytest.raises(ModelFormatError):
            deserialize(bad)
    print("CRITERION 5 PASS: 50 models round-trip bit-exact, "
          "all corruption classes detected")


# -------------------------------------------------------------- criterion 6


def test_criterion_06_coulomb_full_discharge():
    """Rated current for one hour takes the label from 1.0 to 0.0 +- 1e-9."""
    t = np.arange(0.0, 3601.0)
    n = len(t)
    cycle = DriveCycle(t, np.full(n, 3.6), np.full(n, 2.9), np.full(n, 25.0))
    out = coulomb_count(cycle, DEFAULT_CELL, initial_soc=1.0)
    assert out.soc[0] == 1.0
    assert abs(out.soc[-1] - 0.0) < 1e-9
    back = coulomb_count(
        DriveCycle(t, cycle.voltage_v, -cycle.current_a, cycle.temperature_c),
        DEFAULT_CELL, initial_soc=0.0,
    )
    assert abs(back.soc[-1] - 1.0) < 1e-9
    print(f"CRITERION 6 PASS: full discharge lands at {out.soc[-1]:.2e}")


# -------------------------------------------------------------- criterion 7


def test_criterion_07_end_to_end_holdout_accuracy():
    """Train on three synthetic kinds, score the held-out fourth kind
    teacher-forced: at least 97% accuracy inside a ten-minute budget."""
    t0 = time.perf_counter()
    train_cycles = [
        _sim(kind, 3000.0, seed)
        for kind, seed in (("highway", 100), ("aggressive", 101), ("urban", 102))
    ]
    holdout = _sim("mixed", 3000.0, 200)
    assert all(not c.truncated for c in train_cycles + [holdout])

    norm = fit_normalization(train_cycles)
    dataset = build_hybrid(train_cycles, norm, 100, stride=20, seed=42)
    config = TcnConfig(stacks=2, input_window=100, kernel_size=8, filters=8)
    model = build_model(config, seed=42)
    train(model, dataset, TrainConfig(epochs=15, seed=42))

    metrics, _ = evaluate(model, holdout, mode="teacher")
    elapsed = time.perf_counter() - t0
    assert metrics.accuracy_percent >= 97.0, metrics
    assert elapsed < 600.0
    print(f"CRITERION 7 PASS: held-out accuracy "
          f"{metrics.accuracy_percent:.2f}% (mae {metrics.mae:.4f}) "
          f"in {elapsed:.0f}s")


# -------------------------------------------------------------- criterion 8


def test_criterion_08_sweep_grid_schema_and_latency(tmp_path):
    """Sweep stacks {2,4,8} x windows {100,500}: full report schema and
    latency growing with depth, inside a 45-minute budget."""
    t0 = time.perf_counter()
    cycles = [
        _sim(kind, 500.0, seed, initial_soc=0.9)
        for kind, seed in (("highway", 300), ("urban", 301), ("mixed", 302))
    ]
    report = run_sweep(
        [2, 4, 8], [100, 500], cycles, TrainConfig(epochs=2, seed=7),
        stride=50, out_dir=str(tmp_path),
    )
    elapsed = time.perf_counter() - t0

    assert [(r.stacks, r.window) for r in report.rows] == [
        (2, 100), (4, 100), (8, 100), (2, 500), (4, 500), (8, 500)
    ]
    assert not report.any_failed

    csv_path = tmp_path / "report.csv"
    report.to_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert lines[0].count(",") == 7
    assert len(lines) == 7
    for line, row in zip(lines[1:], report.rows):
        fields = line.split(",")
        assert len(fields) == 8
        assert int(fields[0]) == row.stacks
        assert int(fields[1]) == row.window
        assert int(fields[2]) == parameter_count(
            TcnConfig(stacks=row.stacks, input_window=row.window)
        )
        assert math.isfinite(float(fields[3]))
        assert int(fields[4]) == row.file_size_bytes
        assert (tmp_path / f"tcn_s{row.stacks}_w{row.window}.bin").stat().st_size \
            == row.file_size_bytes

    for window in (100, 500):
        lats = [r.latency_ms_mean for r in report.rows if r.window == window]
        assert lats[0] < lats[1] < lats[2], (window, lats)
    assert elapsed < 2700.0
    lat_all = [f"{r.latency_ms_mean:.2f}" for r in report.rows]
    print(f"CRITERION 8 PASS: 6-cell sweep in {elapsed:.0f}s, "
          f"latencies {lat_all} ms monotone in stacks")


# -------------------------------------------------------------- criterion 9


def test_criterion_09_metric_identity_and_mse_oracle():
    """accuracy + 100*mae reproduces 100 exactly; mse matches a compensated
    summation oracle to 1e-12."""
    rng = SplitMix64(5000)
    for case in range(500):
        n = 1 + below(rng, 200)
        truth = rng.uniform(0.0, 1.0, n)
        pred = truth + rng.uniform(-1.0, 1.0, n) * rng.uniform(0.0, 0.8)
        m = compute_metrics(pred, truth)
        assert m.mae <= 1.0, case
        assert m.accuracy_percent + 100.0 * m.mae == 100.0, case
        oracle = math.fsum((float(a) - float(b)) ** 2
                           for a, b in zip(pred, truth)) / n
        assert abs(m.mse - oracle) <= 1e-12 * max(1.0, oracle), case
    perfect = compute_metrics(np.linspace(0, 1, 99), np.linspace(0, 1, 99))
    assert perfect.accuracy_percent == 100.0
    assert f"{perfect.accuracy_percent:.2f}" == "100.00"
    print("CRITERION 9 PASS: 500 cases, identity exact, mse within 1e-12")


# ------------------------------------------------------------- criterion 10


def _pipeline(workdir) -> dict[str, bytes]:
    run = [sys.executable, "-m", "tcnsoc"]
    h = workdir / "h.csv"
    u = workdir / "u.csv"
    model = workdir / "model.bin"
    hist = workdir / "hist.csv"
    trace = workdir / "trace.csv"

    def step(*args):
        proc = subprocess.run(
            [*run, *args], capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    step("simulate", "--kind", "highway", "--duration", "120", "--seed", "21",
         "--out", str(h))
    step("simulate", "--kind", "urban", "--duration", "120", "--seed", "22",
         "--out", str(u))
    step("train", "--data", str(h), str(u), "--out", str(model),
         "--history", str(hist), "--window", "30", "--stacks", "1",
         "--kernel", "3", "--filters", "3", "--epochs", "2", "--stride", "10",
         "--seed", "9")
    eval_out = step("eval", "--model", str(model), "--data", str(u),
                    "--trace", str(trace))
    bench_out = step("bench", "--model", str(model), "--warmup", "1",
                     "--iterations", "5")
    bench_stable = "\n".join(
        line for line in bench_out.splitlines() if not line.startswith("latency")
    )
    return {
        "h.csv": h.read_bytes(),
        "u.csv": u.read_bytes(),
        "model.bin": model.read_bytes(),
        "hist.csv": hist.read_bytes(),
        "trace.csv": trace.read_bytes(),
        "eval.stdout": eval_out.encode(),
        "bench.stable": bench_stable.encode(),
    }


def test_criterion_10_pipeline_runs_are_byte_identical(tmp_path):
    """The same seeded CLI pipeline twice produces identical bytes for every
    artifact; only measured latency is allowed to differ."""
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    arts_a = _pipeline(dir_a)
    arts_b = _pipeline(dir_b)
    for name in arts_a:
        assert arts_a[name] == arts_b[name], f"{name} differs between runs"
    assert len(arts_a["model.bin"]) > 0
    print(f"CRITERION 10 PASS: {len(arts_a)} artifacts byte-identical "
          "across independent runs")
