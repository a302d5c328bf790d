"""Tests for the grid sweep and latency benchmark."""

import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from helpers import written_rows

import tcnsoc.sweep as sweep_module
from tcnsoc.data import DEFAULT_CELL, fit_normalization
from tcnsoc.model import TcnConfig, build_model, parameter_count, predict
from tcnsoc.simulate import EcmConfig, generate_profile, simulate_ecm
from tcnsoc.sweep import REPORT_COLUMNS, measure_latency, run_sweep
from tcnsoc.training import TrainConfig


def sim_cycle(kind="urban", seed=0, duration=120.0, dt=0.5):
    profile = generate_profile(kind, duration, dt=dt, seed=seed)
    return simulate_ecm(profile, EcmConfig(), DEFAULT_CELL, 0.9, dt=dt,
                        name=f"{kind}{seed}")


def small_train_cfg(epochs=1, **kw):
    return TrainConfig(epochs=epochs, batch_size=16, seed=5, **kw)


def small_sweep(tmp_path, train_config=None, stack_counts=(1,), window_lengths=(20,),
                cycles=None, **kw):
    if cycles is None:
        cycles = [sim_cycle(seed=0), sim_cycle(seed=1), sim_cycle(seed=2)]
    defaults = dict(kernel_size=3, filters=3, stride=10, out_dir=str(tmp_path))
    defaults.update(kw)
    return run_sweep(list(stack_counts), list(window_lengths), cycles,
                     train_config or small_train_cfg(), **defaults)


# ---------------------------------------------------------------- latency


def test_measure_latency_basic(monkeypatch):
    model = build_model(TcnConfig(stacks=1, input_window=20, kernel_size=3,
                                  filters=3), seed=0)
    windows = []
    monkeypatch.setattr(sweep_module, "predict",
                        lambda model, window: windows.append(window) or predict(model, window))
    stats = measure_latency(model, warmup=2, iterations=30)
    # one all-zero float64 window of the model's shape, the same for every pass
    assert len(windows) == 32 and all(w is windows[0] for w in windows)
    assert windows[0].dtype == np.float64 and windows[0].shape == (1, 4, 20)
    assert not windows[0].any()
    assert stats.mean_s > 0
    assert stats.std_s >= 0
    assert stats.mean_s < 1.0  # a tiny model predicts in well under a second


def test_measure_latency_validation():
    model = build_model(TcnConfig(stacks=1, input_window=10, kernel_size=2,
                                  filters=2), seed=0)
    for name, value, low in [("iterations", 0, 1), ("warmup", -1, 0)]:
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= {low}, got "):
            measure_latency(model, **{name: value})
    # True ran as 1, a float raised a bare TypeError, and np.int64 was timed
    for name in ("warmup", "iterations"):
        for value in (True, 1.5, np.int64(3)):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                measure_latency(model, **{name: value})


# ---------------------------------------------------------------- sweep


def test_sweep_held_out_report(tmp_path):
    report = small_sweep(tmp_path)
    assert report.protocol == "held-out"
    assert report.train_cycles == ["urban0", "urban1"]
    assert report.eval_cycles == ["urban2"]
    assert len(report.rows) == 1
    row = report.rows[0]
    assert not row.failed
    assert (row.stacks, row.window) == (1, 20)
    assert row.parameters == parameter_count(
        TcnConfig(stacks=1, input_window=20, kernel_size=3, filters=3)
    )
    assert np.isfinite(row.mse) and row.mse >= 0
    assert np.isfinite(row.accuracy_pct)
    assert row.latency_ms_mean > 0
    assert row.model_path.endswith("tcn_s1_w20.bin")
    assert os.path.getsize(row.model_path) == row.file_size_bytes


def test_sweep_rows_sorted_by_window_then_stacks(tmp_path):
    cycles = [sim_cycle(seed=0), sim_cycle(seed=1)]
    report = run_sweep(
        [2, 1], [30, 20], cycles, small_train_cfg(),
        kernel_size=2, filters=2, stride=10, out_dir=str(tmp_path),
    )
    keys = [(r.window, r.stacks) for r in report.rows]
    assert keys == [(20, 1), (20, 2), (30, 1), (30, 2)]
    for r in report.rows:
        assert os.path.basename(r.model_path) == f"tcn_s{r.stacks}_w{r.window}.bin"


def test_sweep_csv_schema(tmp_path):
    report = small_sweep(tmp_path)
    out = tmp_path / "report.csv"
    report.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "stacks,window,parameters,mse,file_size_bytes," \
                       "latency_ms_mean,latency_ms_std,accuracy_pct"
    assert lines[0].split(",") == REPORT_COLUMNS
    fields = written_rows(out, ["mse", "accuracy_pct"])[1]
    assert len(fields) == 8
    row = report.rows[0]
    assert int(fields[0]) == row.stacks
    assert int(fields[2]) == row.parameters
    assert float(fields[3]) == row.mse
    assert int(fields[4]) == row.file_size_bytes
    assert float(fields[7]) == row.accuracy_pct


def test_sweep_numbers_unnamed_cycles_over_the_whole_list(tmp_path):
    # numbered per list, the held-out cycle took the first training cycle's name
    cycles = [replace(sim_cycle(seed=s), name="") for s in range(3)]
    report = run_sweep([1], [20], cycles, small_train_cfg(), kernel_size=2, filters=2,
                       stride=10, out_dir=str(tmp_path))
    assert report.train_cycles == ["cycle0", "cycle1"]
    assert report.eval_cycles == ["cycle2"]


def test_sweep_text_table(tmp_path):
    report = small_sweep(tmp_path)
    text = report.to_text()
    assert "held-out" in text
    assert "stacks" in text and "acc_%" in text
    assert len(text.splitlines()) == 2 + len(report.rows)


def test_sweep_train_on_all_protocol(tmp_path):
    report = small_sweep(tmp_path, protocol="train-on-all")
    assert report.protocol == "train-on-all"
    assert report.train_cycles == report.eval_cycles == ["urban0", "urban1", "urban2"]
    assert not report.rows[0].failed


def test_sweep_training_metrics_deterministic(tmp_path):
    r1 = small_sweep(tmp_path / "a")
    r2 = small_sweep(tmp_path / "b")
    assert r1.rows[0].mse == r2.rows[0].mse
    assert r1.rows[0].accuracy_pct == r2.rows[0].accuracy_pct
    assert r1.rows[0].file_size_bytes == r2.rows[0].file_size_bytes


def test_sweep_captures_cell_failures_and_continues(tmp_path):
    cycles = [sim_cycle(seed=0), sim_cycle(seed=1)]
    report = run_sweep(
        [1], [20, 100_000], cycles, small_train_cfg(),
        kernel_size=2, filters=2, stride=10, out_dir=str(tmp_path),
    )
    ok = [r for r in report.rows if not r.failed]
    bad = [r for r in report.rows if r.failed]
    assert len(ok) == 1 and len(bad) == 1
    assert bad[0].window == 100_000
    assert "shorter than window" in bad[0].error
    assert report.any_failed
    assert "FAILED" in report.to_text()


def test_sweep_parallel_matches_serial(tmp_path):
    serial = small_sweep(tmp_path / "s", jobs=1)
    parallel = small_sweep(tmp_path / "p", jobs=2)
    assert serial.rows[0].mse == parallel.rows[0].mse
    assert serial.rows[0].accuracy_pct == parallel.rows[0].accuracy_pct


def test_sweep_validation():
    cycles = [sim_cycle(seed=0), sim_cycle(seed=1)]
    with pytest.raises(ValueError):
        run_sweep([], [20], cycles, small_train_cfg(), stride=10)
    with pytest.raises(ValueError):
        run_sweep([1], [], cycles, small_train_cfg(), stride=10)
    with pytest.raises(ValueError):
        run_sweep([1], [20], cycles, small_train_cfg(), stride=10, protocol="bogus")
    with pytest.raises(ValueError):
        run_sweep([1], [20], [cycles[0]], small_train_cfg(), stride=10, protocol="held-out")


def test_sweep_default_out_dir_is_temporary():
    cycles = [sim_cycle(seed=0), sim_cycle(seed=1)]
    report = run_sweep(
        [1], [20], cycles, small_train_cfg(),
        kernel_size=2, filters=2, stride=20,
    )
    assert not report.rows[0].failed
    assert report.rows[0].model_path == ""  # its file went with the directory
    assert report.rows[0].file_size_bytes > 0 and report.rows[0].latency_ms_mean > 0


@pytest.mark.parametrize("bad, message", [
    (dict(jobs=0), "jobs must be an integer >= 1"),
    (dict(protocol="bogus"), "protocol must be 'held-out' or 'train-on-all'"),
    (dict(window_lengths=[]), "must be non-empty"),
    (dict(train=dict(learning_rate=float("nan"))), "learning_rate"),
    (dict(kernel_size=0), "kernel_size"),
    (dict(filters=0), "filters"),
    (dict(p_keep=1.5), "p_keep"),
    (dict(stride=0), "stride"),
    (dict(stack_counts=[1, 0]), "stacks"),
    (dict(window_lengths=[20, 0]), "input_window"),
    (dict(stack_counts=[1, 2, 1]), "stacks=1 window=20 is listed twice"),
    (dict(stack_counts=[2], window_lengths=[20, 20]), "stacks=2 window=20 is listed twice"),
    # jobs=True ran one worker; jobs=1.5 read every cycle, then raised a TypeError
    (dict(jobs=True), "jobs must be an integer >= 1, got True"),
    (dict(jobs=1.5), "jobs must be an integer >= 1, got 1.5"),
])
def test_sweep_rejects_bad_arguments_before_training_a_cell(tmp_path, monkeypatch,
                                                            bad, message):
    trained = []
    train_cell = sweep_module._train_cell
    monkeypatch.setattr(sweep_module, "_train_cell",
                        lambda *args, **kw: trained.append(args) or train_cell(*args, **kw))
    kw = dict(bad)
    read = []
    cycles = (read.append(c) or c for c in [sim_cycle(seed=0), sim_cycle(seed=1)])
    with pytest.raises(ValueError, match=message):
        small_sweep(tmp_path, small_train_cfg(**kw.pop("train", {})), cycles=cycles, **kw)
    assert trained == [] and read == []


def test_sweep_fits_normalization_once_before_training_a_cell(tmp_path, monkeypatch):
    # every cell shares the training cycles, so ranges that cannot be fitted
    # fail the sweep once, not each cell
    trained = []
    train_cell = sweep_module._train_cell
    monkeypatch.setattr(sweep_module, "_train_cell",
                        lambda *args, **kw: trained.append(args) or train_cell(*args, **kw))
    cycles = [sim_cycle(seed=s) for s in range(3)]
    cycles[:2] = [replace(c, temperature_c=np.full_like(c.temperature_c, 25.0))
                  for c in cycles[:2]]
    with pytest.raises(ValueError, match="normalization bound temperature_max=25.0 is not above"):
        run_sweep([1, 2], [20], cycles, small_train_cfg(), kernel_size=2, filters=2,
                  stride=10, out_dir=str(tmp_path))
    assert trained == []


def test_sweep_removes_its_temporary_directory_on_error(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("latency failed")

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(sweep_module, "measure_latency", fail)
    with pytest.raises(RuntimeError, match="latency failed") as raised:
        small_sweep(tmp_path, out_dir=None)
    # gone while the caller still holds the error and so the sweep's frame
    assert raised.traceback and os.listdir(tmp_path) == []
