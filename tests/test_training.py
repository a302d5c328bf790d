"""Tests for the training loop, evaluation modes, and metrics."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from helpers import float32_tolerance, make_positive

from tcnsoc.data import (
    DEFAULT_CELL,
    DriveCycle,
    WindowedDataset,
    apply_normalization,
    build_hybrid,
    fit_normalization,
    make_windows,
)
from tcnsoc.model import TcnConfig, build_model, predict
from tcnsoc.rng import SplitMix64
from tcnsoc.simulate import EcmConfig, generate_profile, simulate_ecm
from tcnsoc.training import (
    EVAL_BATCH,
    TrainConfig,
    compute_metrics,
    evaluate,
    train,
)


def sim_cycle(kind="urban", seed=0, duration=120.0, dt=0.5, name=None):
    profile = generate_profile(kind, duration, dt=dt, seed=seed)
    return simulate_ecm(profile, EcmConfig(), DEFAULT_CELL, 0.9, dt=dt,
                        name=name or f"{kind}{seed}")


def tiny_setup(window=20, stride=5, seeds=(0, 1)):
    cycles = [sim_cycle(seed=s) for s in seeds]
    norm = fit_normalization(cycles)
    dataset = build_hybrid(cycles, norm, window, stride=stride, seed=7)
    cfg = TcnConfig(stacks=1, input_window=window, kernel_size=3, filters=3,
                    blocks_per_stack=2)
    return cycles, norm, dataset, cfg


# ---------------------------------------------------------------- train


def test_zero_epochs_returns_untrained_model():
    _, norm, dataset, cfg = tiny_setup()
    model = build_model(cfg, seed=3)
    before = [p.copy() for p in model.parameters()]
    out, history = train(model, dataset, TrainConfig(epochs=0))
    assert out is model
    assert history == []
    assert model.norm == norm
    for p, b in zip(model.parameters(), before):
        assert np.array_equal(p, b)


def test_training_is_deterministic():
    _, _, dataset, cfg = tiny_setup()
    results = []
    for _ in range(2):
        model = build_model(cfg, seed=5)
        _, history = train(model, dataset, TrainConfig(epochs=3, seed=11))
        results.append(([p.copy() for p in model.parameters()],
                        [(h.train_mse, h.val_mse) for h in history]))
    for a, b in zip(results[0][0], results[1][0]):
        assert np.array_equal(a, b)
    assert results[0][1] == results[1][1]


def test_training_seed_changes_result():
    _, _, dataset, cfg = tiny_setup()
    m1 = build_model(cfg, seed=5)
    m2 = build_model(cfg, seed=5)
    train(m1, dataset, TrainConfig(epochs=2, seed=1))
    train(m2, dataset, TrainConfig(epochs=2, seed=2))
    assert any(
        not np.array_equal(a, b) for a, b in zip(m1.parameters(), m2.parameters())
    )


def test_training_fits_constant_target():
    _, _, dataset, cfg = tiny_setup()
    flat = WindowedDataset(
        x=dataset.x, y=np.full(len(dataset), 0.5), source=dataset.source,
        start=dataset.start, cycle_names=dataset.cycle_names, norm=dataset.norm,
    )
    model = build_model(cfg, seed=1)
    _, history = train(
        model,
        flat,
        TrainConfig(learning_rate=0.01, epochs=60, validation_fraction=0.0,
                    seed=0),
    )
    assert history[-1].train_mse < 1e-4
    preds = predict(model, dataset.x[:16])
    assert np.allclose(preds, 0.5, atol=0.05)


def test_training_loss_mostly_decreases_without_dropout():
    _, _, dataset, _ = tiny_setup()
    cfg = TcnConfig(stacks=1, input_window=20, kernel_size=3, filters=3,
                    blocks_per_stack=2, p_keep=1.0)
    model = build_model(cfg, seed=4)
    _, history = train(
        model,
        dataset,
        TrainConfig(learning_rate=2e-3, epochs=20, validation_fraction=0.0, seed=2),
    )
    losses = [h.train_mse for h in history]
    decreases = sum(b <= a for a, b in zip(losses, losses[1:]))
    assert decreases / (len(losses) - 1) >= 0.9, losses
    assert losses[-1] < losses[0] / 3


def test_history_epoch_numbering_and_val_nan():
    _, _, dataset, cfg = tiny_setup()
    model = build_model(cfg, seed=0)
    _, history = train(model, dataset,
                       TrainConfig(epochs=3, validation_fraction=0.0))
    assert [h.epoch for h in history] == [0, 1, 2]
    assert all(math.isnan(h.val_mse) for h in history)
    assert all(h.train_mse >= 0 for h in history)


def test_early_stop_restores_best_validation_weights():
    _, _, dataset, cfg = tiny_setup()
    model = build_model(cfg, seed=9)
    config = TrainConfig(epochs=12, validation_fraction=0.25, seed=3,
                         early_stop_patience=3)
    _, history = train(model, dataset, config)
    assert 1 <= len(history) <= 12
    best = min(h.val_mse for h in history)

    # recompute validation loss on the returned weights: must equal the best
    rng = SplitMix64(config.seed)
    n = len(dataset)
    n_val = int(round(n * config.validation_fraction))
    val_idx = rng.permutation(n)[:n_val]
    recomputed = float(
        np.mean((predict(model, dataset.x[val_idx]) - dataset.y[val_idx]) ** 2)
    )
    assert recomputed == best


def test_train_rejects_window_mismatch():
    _, _, dataset, _ = tiny_setup(window=20)
    wrong = TcnConfig(stacks=1, input_window=30, kernel_size=3, filters=3)
    model = build_model(wrong, seed=0)
    with pytest.raises(ValueError, match="window"):
        train(model, dataset, TrainConfig(epochs=1))


def test_train_rejects_empty_dataset():
    _, norm, dataset, cfg = tiny_setup()
    empty = WindowedDataset(
        x=dataset.x[:0], y=dataset.y[:0], source=dataset.source[:0],
        start=dataset.start[:0], cycle_names=[], norm=norm,
    )
    with pytest.raises(ValueError, match="empty"):
        train(build_model(cfg, seed=0), empty, TrainConfig(epochs=1))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1).validate()
    with pytest.raises(ValueError):
        TrainConfig(validation_fraction=0.6).validate()


# ---------------------------------------------------------------- metrics


def test_accuracy_identity_is_exact():
    rng = SplitMix64(10)
    for _ in range(200):
        n = 1 + rng.below(50)
        truth = rng.uniform(0.0, 1.0, n)
        pred = truth + rng.uniform(-0.9, 0.9, n) * rng.uniform()
        m = compute_metrics(pred, truth)
        if m.mae <= 1.0:
            assert m.accuracy_percent + 100.0 * m.mae == 100.0


def test_metrics_match_fsum_oracle():
    rng = SplitMix64(11)
    truth = rng.uniform(0, 1, 777)
    pred = truth + rng.uniform(-0.2, 0.2, 777)
    m = compute_metrics(pred, truth)
    mse = math.fsum((float(a) - float(b)) ** 2 for a, b in zip(pred, truth)) / 777
    mae = math.fsum(abs(float(a) - float(b)) for a, b in zip(pred, truth)) / 777
    assert abs(m.mse - mse) < 1e-12
    assert abs(m.mae - mae) < 1e-12
    assert m.max_error == np.abs(pred - truth).max()
    assert m.n == 777


def test_metrics_perfect_prediction():
    x = np.linspace(0.2, 0.8, 50)
    m = compute_metrics(x, x.copy())
    assert m.mse == 0.0
    assert m.mae == 0.0
    assert m.accuracy_percent == 100.0
    assert m.out_of_range == 0


def test_metrics_constant_half_predictor():
    # predicting 0.5 against uniform targets gives mae 0.25: accuracy 75%
    truth = np.linspace(0.0, 1.0, 10_001)
    m = compute_metrics(np.full_like(truth, 0.5), truth)
    assert m.accuracy_percent == pytest.approx(75.0, abs=0.01)


def test_metrics_out_of_range_counts_predictions():
    truth = np.array([0.5, 0.5, 0.5, 0.5])
    pred = np.array([-0.1, 0.5, 1.2, 1.0])
    assert compute_metrics(pred, truth).out_of_range == 2


def test_metrics_squared_error_beyond_float64_is_inf():
    # runs under the suite's RuntimeWarning-as-error filter: no overflow warning
    m = compute_metrics(np.array([1e200, 0.5]), np.array([0.0, 0.5]))
    assert m.mse == math.inf
    assert m.mae == 5e199
    assert m.max_error == 1e200


# ---------------------------------------------------------------- evaluate


def trained_model(cycles, window=20, epochs=8):
    norm = fit_normalization(cycles)
    dataset = build_hybrid(cycles, norm, window, stride=2, seed=1)
    cfg = TcnConfig(stacks=1, input_window=window, kernel_size=3, filters=3,
                    blocks_per_stack=2)
    model = build_model(cfg, seed=2)
    train(model, dataset, TrainConfig(epochs=epochs, learning_rate=3e-3, seed=5))
    return model


def test_evaluate_teacher_matches_manual_windows():
    cycles = [sim_cycle(seed=0), sim_cycle(seed=1)]
    model = trained_model(cycles)
    probe = sim_cycle(seed=2)
    metrics, trace = evaluate(model, probe, mode="teacher")

    windows = make_windows(probe, model.norm, 20, stride=1).x.astype(np.float32)
    manual = np.concatenate(
        [predict(model, windows[i:i + 64]) for i in range(0, len(windows), 64)]
    )
    assert np.array_equal(trace.soc_pred, manual)
    assert metrics.n == len(probe) - 20 + 1
    assert np.array_equal(trace.soc_true, probe.soc[19:])
    assert np.array_equal(trace.time_s, probe.time_s[19:])
    want_mse = float(np.mean((trace.soc_pred - trace.soc_true) ** 2))
    assert metrics.mse == pytest.approx(want_mse, rel=1e-12)


def untrained_model(cycles, window=20):
    cfg = TcnConfig(stacks=1, input_window=window, kernel_size=3, filters=3,
                    blocks_per_stack=2)
    return build_model(cfg, seed=2, norm=fit_normalization(cycles))


def test_evaluate_teacher_across_batch_boundaries_matches_predict():
    model = untrained_model([sim_cycle(seed=0), sim_cycle(seed=1)])
    probe = sim_cycle(seed=2, duration=320.0)  # 640 samples: 621 windows
    _, trace = evaluate(model, probe, mode="teacher")
    windows = make_windows(probe, model.norm, 20, stride=1).x.astype(np.float32)
    assert len(windows) > 2 * EVAL_BATCH
    assert np.array_equal(trace.soc_pred, predict(model, windows))


def test_evaluate_closed_loop_matches_a_step_by_step_loop():
    model = untrained_model([sim_cycle(seed=0), sim_cycle(seed=1)])
    probe = sim_cycle(seed=3)
    window = model.config.input_window
    _, trace = evaluate(model, probe, mode="closed-loop")

    feats = apply_normalization(probe, model.norm)
    lo, hi = model.norm.soc_min, model.norm.soc_max
    past = list(feats[3])
    want = []
    for s in range(len(probe) - window + 1):
        x = np.empty((1, 4, window))
        x[0, :3] = feats[:3, s:s + window]
        x[0, 3] = [past[s]] + past[s:s + window - 1]
        want.append(predict(model, x)[0])
        past[s + window - 1] = (want[-1] - lo) / (hi - lo)
    assert np.array_equal(trace.soc_pred, want)


def test_evaluate_teacher_memory_grows_with_the_batch_not_the_cycle():
    model = untrained_model([sim_cycle(seed=0), sim_cycle(seed=1)], window=200)
    n, window = 16000, 200
    t = np.arange(n, dtype=np.float64)
    probe = DriveCycle(t, 3.7 + 0.1 * np.sin(t / 50), 2.0 * np.cos(t / 70),
                       25.0 + 0.001 * t, np.linspace(0.9, 0.3, n), "long")
    tracemalloc.start()
    try:
        evaluate(model, probe, mode="teacher")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole (n, 4, W) window tensor would be 4x this
    assert peak < n * window * 8


def test_evaluate_closed_loop_never_reads_later_truth():
    cycles = [sim_cycle(seed=0), sim_cycle(seed=1)]
    model = trained_model(cycles)
    probe = sim_cycle(seed=3)
    window = model.config.input_window

    _, clean = evaluate(model, probe, mode="closed-loop")

    corrupted = sim_cycle(seed=3)
    noise = SplitMix64(99).uniform(-5.0, 5.0, len(corrupted) - (window - 1))
    corrupted.soc[window - 1:] = noise  # everything at or past the first output
    _, dirty = evaluate(model, corrupted, mode="closed-loop")
    assert np.array_equal(clean.soc_pred, dirty.soc_pred)

    # the probe has teeth: teacher-forced output does change
    _, teacher_dirty = evaluate(model, corrupted, mode="teacher")
    _, teacher_clean = evaluate(model, probe, mode="teacher")
    assert not np.array_equal(teacher_clean.soc_pred, teacher_dirty.soc_pred)


def test_evaluate_closed_loop_matches_teacher_on_first_step():
    # both modes see identical inputs for the very first window
    cycles = [sim_cycle(seed=0), sim_cycle(seed=1)]
    model = trained_model(cycles)
    probe = sim_cycle(seed=4)
    _, teacher = evaluate(model, probe, mode="teacher")
    _, closed = evaluate(model, probe, mode="closed-loop")
    first = make_windows(probe, model.norm, 20, stride=1).x[:1]
    # each mode in its own precision: teacher float32, closed loop float64
    assert teacher.soc_pred[0] == predict(model, first.astype(np.float32))[0]
    assert closed.soc_pred[0] == predict(model, first)[0]
    assert teacher.soc_pred[0] == pytest.approx(
        closed.soc_pred[0], abs=float32_tolerance(closed.soc_pred[0]))
    assert len(teacher.soc_pred) == len(closed.soc_pred)


def test_evaluate_teacher_float32_within_tolerance_on_criterion_7_model():
    cycles = [sim_cycle(kind, seed=s, duration=300.0)
              for s, kind in enumerate(("highway", "aggressive", "urban"))]
    dataset = build_hybrid(cycles, fit_normalization(cycles), 100, stride=10, seed=42)
    model = build_model(TcnConfig(stacks=2, input_window=100, kernel_size=8, filters=8),
                        seed=42)
    train(model, dataset, TrainConfig(epochs=3, seed=42))
    probe = sim_cycle("mixed", seed=9, duration=300.0)
    metrics, trace = evaluate(model, probe, mode="teacher")
    want = predict(model, make_windows(probe, model.norm, 100, stride=1).x)
    tol = float32_tolerance(want)
    assert np.abs(trace.soc_pred - want).max() <= tol
    assert abs(metrics.mae - compute_metrics(want, trace.soc_true).mae) <= tol


def test_evaluate_closed_loop_divergence_raises_at_first_non_finite_step():
    cycles = [sim_cycle(seed=0), sim_cycle(seed=1)]
    cfg = TcnConfig(stacks=1, input_window=20, kernel_size=3, filters=3,
                    blocks_per_stack=2)
    model = build_model(cfg, seed=2, norm=fit_normalization(cycles))
    make_positive(model)
    model.head_weights *= 10.0  # every fed-back estimate grows the next one
    probe = sim_cycle(seed=3)
    # the overflow on the way to inf is expected; the error is what is tested
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="diverged") as info:
            evaluate(model, probe, mode="closed-loop")
    step = int(re.search(r"step (\d+)", str(info.value)).group(1))
    assert f"t={probe.time_s[step + 19]:g} s" in str(info.value)
    assert "urban3" in str(info.value)

    # every earlier step is finite: the cycle cut just before it runs through
    cut = type(probe)(*(a[:step + 19] for a in (
        probe.time_s, probe.voltage_v, probe.current_a, probe.temperature_c,
        probe.soc)), probe.name)
    with np.errstate(over="ignore"):  # squaring the huge errors in the metrics
        _, trace = evaluate(model, cut, mode="closed-loop")
    assert len(trace.soc_pred) == step
    assert np.isfinite(trace.soc_pred).all()


def test_evaluate_errors():
    cycles = [sim_cycle(seed=0), sim_cycle(seed=1)]
    model = trained_model(cycles)
    probe = sim_cycle(seed=5)
    with pytest.raises(ValueError, match="mode"):
        evaluate(model, probe, mode="open-loop")
    unlabeled = sim_cycle(seed=5)
    unlabeled = type(unlabeled)(
        unlabeled.time_s, unlabeled.voltage_v, unlabeled.current_a,
        unlabeled.temperature_c, None, unlabeled.name,
    )
    with pytest.raises(ValueError, match="SOC"):
        evaluate(model, unlabeled)
    short = sim_cycle(seed=6, duration=5.0)  # 10 samples < window 20
    with pytest.raises(ValueError, match="short"):
        evaluate(model, short)
    model.norm = None
    with pytest.raises(ValueError, match="normalization"):
        evaluate(model, probe)


def test_trained_model_beats_untrained_on_held_out():
    cycles = [sim_cycle(seed=0), sim_cycle(seed=1)]
    model = trained_model(cycles, epochs=12)
    probe = sim_cycle(seed=7)
    trained_metrics, _ = evaluate(model, probe)

    fresh = build_model(model.config, seed=2, norm=model.norm)
    fresh_metrics, _ = evaluate(fresh, probe)
    assert trained_metrics.mse < fresh_metrics.mse
