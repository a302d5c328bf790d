"""Tests for the command-line interface (in-process where possible)."""

import argparse
import inspect
import re
import subprocess
import sys

import numpy as np
import pytest
from helpers import written_rows

import tcnsoc.cli
import tcnsoc.sweep
import tcnsoc.training
from tcnsoc.cli import _train_config, build_parser, main
from tcnsoc.data import DriveCycle, NormalizationParams, load_csv, save_csv
from tcnsoc.model import TcnConfig, build_model
from tcnsoc.modelio import deserialize, serialize
from tcnsoc.sweep import measure_latency
from tcnsoc.training import TrainConfig


def run_cli(*argv):
    return main(list(argv))


def make_labeled_csv(path, n=240, soc_value=None, seed=0):
    rng = np.random.default_rng(seed)  # test fixture data, not product code
    t = np.arange(n) * 0.5
    soc = (np.full(n, soc_value) if soc_value is not None
           else np.linspace(0.9, 0.5, n))
    cycle = DriveCycle(
        time_s=t,
        voltage_v=3.5 + 0.2 * np.sin(t / 7) + 0.01 * rng.standard_normal(n),
        current_a=2.0 + np.cos(t / 5),
        temperature_c=25.0 + t / 100,
        soc=soc,
        name="fixture",
    )
    save_csv(cycle, path)
    return cycle


# ---------------------------------------------------------------- simulate


def test_simulate_row_count_and_schema(tmp_path, capsys):
    out = tmp_path / "u.csv"
    assert run_cli("simulate", "--kind", "urban", "--duration", "600",
                   "--seed", "7", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "time_s,voltage_v,current_a,temperature_c,soc"
    assert len(lines) == 1 + 6000
    cycle = load_csv(out)
    assert len(cycle) == 6000
    assert cycle.soc is not None
    err = capsys.readouterr().err
    assert "wrote 6000 samples" in err


def test_simulate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("simulate", "--kind", "mixed", "--duration", "120", "--seed", "3",
            "--out", str(a))
    run_cli("simulate", "--kind", "mixed", "--duration", "120", "--seed", "3",
            "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    run_cli("simulate", "--kind", "mixed", "--duration", "120", "--seed", "4",
            "--out", str(c))
    assert a.read_bytes() != c.read_bytes()


def test_simulate_rejects_unknown_kind(tmp_path):
    with pytest.raises(SystemExit):
        run_cli("simulate", "--kind", "lunar", "--out", str(tmp_path / "x.csv"))


def test_simulate_bad_duration_is_error_exit(tmp_path, capsys):
    code = run_cli("simulate", "--kind", "urban", "--duration", "-5",
                   "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------- train


def test_train_writes_model_and_history(tmp_path, capsys):
    data = tmp_path / "d.csv"
    make_labeled_csv(data)
    model_path = tmp_path / "m.bin"
    hist_path = tmp_path / "h.csv"
    code = run_cli(
        "train", "--data", str(data), "--out", str(model_path),
        "--history", str(hist_path), "--window", "20", "--stacks", "1",
        "--kernel", "3", "--filters", "3", "--epochs", "2", "--stride", "10",
    )
    assert code == 0
    model = deserialize(model_path)
    assert model.config.input_window == 20
    assert model.config.stacks == 1
    assert model.norm is not None
    rows = written_rows(hist_path, ["train_mse", "val_mse"])
    assert rows[0] == ["epoch", "train_mse", "val_mse"]
    assert [row[0] for row in rows[1:]] == ["0", "1"]
    err = capsys.readouterr().err
    assert "parameters" in err and "epoch" in err


def test_train_zero_epochs_warns_but_writes(tmp_path, capsys):
    data = tmp_path / "d.csv"
    make_labeled_csv(data)
    model_path = tmp_path / "m.bin"
    code = run_cli(
        "train", "--data", str(data), "--out", str(model_path),
        "--window", "20", "--stacks", "1", "--kernel", "3", "--filters", "3",
        "--epochs", "0", "--stride", "10", "--seed", "4",
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "warning" in err and "epochs is 0" in err
    stored = deserialize(model_path)
    # the stored weights are the float32 image of the untouched initialization
    fresh = build_model(stored.config, seed=4)
    for a, b in zip(stored.parameters(), fresh.parameters()):
        assert np.array_equal(a, b.astype(np.float32).astype(np.float64))


def test_train_accepts_unlabeled_csv_via_coulomb_count(tmp_path, capsys):
    data = tmp_path / "d.csv"
    cycle = make_labeled_csv(data)
    save_csv(
        DriveCycle(cycle.time_s, cycle.voltage_v, cycle.current_a,
                   cycle.temperature_c, None, "unlabeled"),
        data,
    )
    code = run_cli(
        "train", "--data", str(data), "--out", str(tmp_path / "m.bin"),
        "--window", "20", "--stacks", "1", "--kernel", "3", "--filters", "3",
        "--epochs", "1", "--stride", "10", "--initial-soc", "0.8",
        "--capacity-ah", "2.9",
    )
    assert code == 0
    assert "coulomb counting" in capsys.readouterr().err


def test_train_missing_file_fails_cleanly(tmp_path, capsys):
    code = run_cli("train", "--data", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "m.bin"))
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_train_warns_when_receptive_field_short(tmp_path, capsys):
    data = tmp_path / "d.csv"
    make_labeled_csv(data, n=300)
    code = run_cli(
        "train", "--data", str(data), "--out", str(tmp_path / "m.bin"),
        "--window", "250", "--stacks", "1", "--kernel", "2", "--filters", "2",
        "--epochs", "0", "--stride", "50",
    )
    assert code == 0  # receptive field 31 < window 250: warn, not fail
    assert "receptive field" in capsys.readouterr().err


def test_train_that_diverges_fails_with_no_model_and_no_numpy_warning(tmp_path):
    # at lr 1e3 the float32 gradients overflow in epoch 0; float64 ones stayed
    # finite, and the run printed train_mse 1.76e66, wrote the model and exited 0
    data, model_path = tmp_path / "u.csv", tmp_path / "m.bin"
    assert run_cli("simulate", "--kind", "urban", "--duration", "120", "--dt", "0.5",
                   "--seed", "1", "--out", str(data)) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "tcnsoc", "train", "--data", str(data), "--out", str(model_path),
         "--stacks", "1", "--window", "20", "--stride", "2", "--epochs", "3", "--lr", "1e3",
         "--seed", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert re.search(r"^error: training diverged in epoch 0 at batch 1 "
                     r"\(overflow encountered in \w+\)$", proc.stderr, re.M), proc.stderr
    assert "Warning" not in proc.stderr and "epoch   0" not in proc.stderr
    assert not model_path.exists()


# ---------------------------------------------------------------- eval


def perfect_model_files(tmp_path):
    """A zeroed model with head bias 0.5 plus a cycle whose SOC is 0.5."""
    cfg = TcnConfig(stacks=1, input_window=20, kernel_size=3, filters=3)
    unit = NormalizationParams(0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
    model = build_model(cfg, seed=0)
    model.norm = unit
    for p in model.parameters():
        p[...] = 0.0
    model.head_bias[0] = 0.5
    model_path = tmp_path / "perfect.bin"
    serialize(model, model_path)
    data_path = tmp_path / "flat.csv"
    make_labeled_csv(data_path, soc_value=0.5)
    return model_path, data_path


def test_eval_prints_metrics(tmp_path, capsys):
    model_path, data_path = perfect_model_files(tmp_path)
    trace_path = tmp_path / "trace.csv"
    code = run_cli("eval", "--model", str(model_path), "--data", str(data_path),
                   "--trace", str(trace_path))
    assert code == 0
    out = capsys.readouterr().out
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert lines["mode"] == "teacher"
    assert lines["accuracy_pct"] == "100.00"
    assert float(lines["mse"]) == 0.0
    assert float(lines["mae"]) == 0.0
    assert int(lines["n"]) == 240 - 20 + 1
    trace_rows = written_rows(trace_path, ["time_s", "soc_true", "soc_pred"])
    assert trace_rows[0] == ["time_s", "soc_true", "soc_pred"]
    assert len(trace_rows) == 1 + 221
    assert trace_rows[1][1:] == ["0.5", "0.5"]


def test_eval_closed_loop_mode(tmp_path, capsys):
    model_path, data_path = perfect_model_files(tmp_path)
    code = run_cli("eval", "--model", str(model_path), "--data", str(data_path),
                   "--mode", "closed-loop")
    assert code == 0
    out = capsys.readouterr().out
    assert "mode=closed-loop" in out
    assert "accuracy_pct=100.00" in out


@pytest.mark.parametrize("accuracy,printed", [
    (-4.2e266, "-4.2e+266"),  # a closed loop that diverged without overflowing
    (-123456789012345.67, "-123456789012345.67"),  # 17 digits: still fixed-point
    (-1234567890123456.8, "-1234567890123456.8"),
    (99.999, "100.00"),
])
def test_eval_prints_no_more_accuracy_digits_than_a_float_has(tmp_path, capsys, monkeypatch,
                                                              accuracy, printed):
    model_path, data_path = perfect_model_files(tmp_path)
    metrics = tcnsoc.training.EvalMetrics(mse=float("inf"), mae=4.2e264,
                                          accuracy_percent=accuracy, max_error=4.2e264,
                                          out_of_range=221, n=221)
    monkeypatch.setattr(tcnsoc.cli, "evaluate", lambda *args, **kwargs: (metrics, None))
    code = run_cli("eval", "--model", str(model_path), "--data", str(data_path),
                   "--mode", "closed-loop")
    assert code == 0
    lines = dict(line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines())
    assert lines["accuracy_pct"] == printed
    assert float(lines["accuracy_pct"]) == pytest.approx(accuracy, rel=1e-16, abs=0.005)


def test_eval_corrupt_model_fails(tmp_path, capsys):
    model_path, data_path = perfect_model_files(tmp_path)
    blob = bytearray(model_path.read_bytes())
    blob[-2] ^= 0xFF
    model_path.write_bytes(bytes(blob))
    code = run_cli("eval", "--model", str(model_path), "--data", str(data_path))
    assert code == 1
    assert "checksum" in capsys.readouterr().err


# ---------------------------------------------------------------- bench


def test_bench_reports_figures(tmp_path, capsys):
    model_path, _ = perfect_model_files(tmp_path)
    code = run_cli("bench", "--model", str(model_path),
                   "--warmup", "2", "--iterations", "20")
    assert code == 0
    out = dict(line.split("=", 1)
               for line in capsys.readouterr().out.strip().splitlines())
    assert int(out["file_size_bytes"]) == model_path.stat().st_size
    assert float(out["latency_ms_mean"]) > 0
    assert float(out["latency_ms_std"]) >= 0
    # block 0: 39+30+15, blocks 1-3: 30+30 each, head: 4
    assert int(out["parameters"]) == 84 + 3 * 60 + 4


# ---------------------------------------------------------------- sweep


def test_sweep_cli_end_to_end(tmp_path, capsys):
    d1, d2 = tmp_path / "a.csv", tmp_path / "b.csv"
    make_labeled_csv(d1, seed=1)
    make_labeled_csv(d2, seed=2)
    csv_out = tmp_path / "report.csv"
    code = run_cli(
        "sweep", "--data", str(d1), str(d2), "--stacks", "1", "--windows", "20",
        "--kernel", "3", "--filters", "3", "--epochs", "1", "--stride", "10",
        "--out-dir", str(tmp_path / "models"), "--csv", str(csv_out),
        "--jobs", "1", "--seed", "0",
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "held-out" in captured.out
    lines = csv_out.read_text().splitlines()
    assert lines[0].startswith("stacks,window,parameters")
    assert len(lines) == 2
    assert (tmp_path / "models" / "tcn_s1_w20.bin").exists()


def test_sweep_cli_reports_cell_failure(tmp_path, capsys):
    d1, d2 = tmp_path / "a.csv", tmp_path / "b.csv"
    make_labeled_csv(d1, seed=1)
    make_labeled_csv(d2, seed=2)
    code = run_cli(
        "sweep", "--data", str(d1), str(d2), "--stacks", "1",
        "--windows", "100000", "--kernel", "2", "--filters", "2",
        "--epochs", "1", "--out-dir", str(tmp_path / "models"),
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "FAILED" in captured.out
    assert "failed" in captured.err


def test_sweep_cli_passes_every_setting_of_run_sweep(tmp_path, monkeypatch):
    # a run_sweep setting the CLI never passes is one only tests can set
    calls = []

    def spy(*args, **kwargs):
        calls.append(inspect.signature(tcnsoc.sweep.run_sweep).bind(*args, **kwargs))
        raise ValueError("spied")

    monkeypatch.setattr(tcnsoc.cli, "run_sweep", spy)
    assert run_cli("sweep", "--data", str(tmp_path / "d.csv")) == 1
    (bound,) = calls
    assert list(bound.arguments) == list(inspect.signature(tcnsoc.sweep.run_sweep).parameters)


def test_bench_flags_default_to_measure_latency():
    # a sweep cell is timed as bench times a model by default
    args = build_parser().parse_args(["bench", "--model", "m.bin"])
    defaults = inspect.signature(measure_latency).parameters
    assert (args.warmup, args.iterations) == \
        (defaults["warmup"].default, defaults["iterations"].default)


# ---------------------------------------------------------------- flags


# every numeric flag: (subcommands, flag, whether argparse reads it as an int, the
# setting its error names, its out-of-range values); any integer is a seed
NUMERIC_FLAGS = [
    (("simulate", "train", "sweep"), "--seed", True, "seed", ()),
    (("simulate",), "--duration", False, "duration", ("0",)),
    (("simulate",), "--dt", False, "dt", ("0", "1000")),
    (("simulate", "train", "eval", "sweep"), "--initial-soc", False, "initial_soc",
     ("-0.1", "1.5")),
    (("train", "eval", "sweep"), "--capacity-ah", False, "rated_capacity_ah", ("0",)),
    (("train",), "--window", True, "input_window", ("0",)),
    (("train",), "--stacks", True, "stacks", ("0",)),
    (("sweep",), "--windows", True, "input_window", ("20 0",)),
    (("sweep",), "--stacks", True, "stacks", ("1 0",)),
    (("sweep",), "--jobs", True, "jobs", ("0",)),
    (("train", "sweep"), "--kernel", True, "kernel_size", ("0",)),
    (("train", "sweep"), "--filters", True, "filters", ("0",)),
    (("train", "sweep"), "--epochs", True, "epochs", ("-1",)),
    (("train", "sweep"), "--batch-size", True, "batch_size", ("0",)),
    (("train", "sweep"), "--stride", True, "stride", ("0",)),
    (("train", "sweep"), "--p-keep", False, "p_keep", ("0",)),
    (("train", "sweep"), "--lr", False, "learning_rate", ("-inf",)),
    (("train", "sweep"), "--val-fraction", False, "validation_fraction", ("0.9",)),
    (("bench",), "--warmup", True, "warmup", ("-1",)),
    (("bench",), "--iterations", True, "iterations", ("0",)),
]


def _case(command, flag, value, message, id, code=1):
    return pytest.param(command, flag, value, code, message, id=id)


# the cases that earlier tests ran, kept under their names and ids;
# nan failed with "cannot convert float NaN to integer", naming no flag
SIMULATE_NON_FINITE = [
    _case("simulate", f"--{flag}", value,
          f"error: {flag} must be a finite number > 0, got {value}", f"{flag}-{value}")
    for flag in ("duration", "dt") for value in ("nan", "inf")
]
TRAIN_LR = [_case("train", "--lr", lr, "learning_rate", lr) for lr in ("nan", "inf", "-inf")]
TRAIN_SETTINGS = [
    _case("train", flag, value, setting, f"{flag}-{value}-{setting}")
    for flag, value, setting in [
        ("--kernel", "0", "kernel_size"),
        ("--filters", "0", "filters"),
        ("--stacks", "0", "stacks"),
        ("--p-keep", "0", "p_keep"),
        ("--batch-size", "0", "batch_size"),
        ("--val-fraction", "0.9", "validation_fraction"),
        ("--stride", "0", "stride"),
    ]
]
# nan blamed the labels, inf labelled every step initial_soc and trained on
CAPACITY = [_case(command, "--capacity-ah", value, "rated_capacity_ah", f"{command}-{value}")
            for command in ("train", "eval", "sweep") for value in ("nan", "inf", "0")]
# it was refused only after a CSV had been read and its coulomb count announced
INITIAL_SOC = [_case(command, "--initial-soc", value,
                     f"initial_soc must be in [0, 1], got {value}", f"{command}-{value}")
               for command in ("train", "eval", "sweep") for value in ("nan", "-0.1", "1.5")]
SWEEP_SETTINGS = [
    _case("sweep", flag, value, setting, f"{flag}-values{i}-{setting}")
    for i, (flag, value, setting) in enumerate([
        ("--kernel", "0", "kernel_size"),
        ("--filters", "0", "filters"),
        ("--p-keep", "0", "p_keep"),
        ("--stacks", "1 0", "stacks"),
        ("--windows", "20 0", "input_window"),
        ("--batch-size", "0", "batch_size"),
        ("--val-fraction", "0.9", "validation_fraction"),
        ("--stride", "0", "stride"),
        ("--jobs", "0", "jobs"),
        ("--stacks", "1 1", "stacks=1 window=20 is listed twice"),
    ])
]
_EARLIER = {case.values[:3] for cases in (SIMULATE_NON_FINITE, TRAIN_LR, TRAIN_SETTINGS,
                                          CAPACITY, INITIAL_SOC, SWEEP_SETTINGS)
            for case in cases}


def _bad_flag_cases():
    """nan, inf and every out-of-range value of every numeric flag that no earlier
    test runs; argparse refuses an int flag's nan and inf, naming the flag."""
    for commands, flag, is_int, setting, bad in NUMERIC_FLAGS:
        for command in commands:
            for value in ("nan", "inf", *bad):
                case_id = f"{command}{flag}={value}"
                if (command, flag, value) in _EARLIER:
                    continue
                if is_int and value in ("nan", "inf"):
                    yield _case(command, flag, value,
                                f"argument {flag}: invalid int value: '{value}'", case_id, code=2)
                else:
                    yield _case(command, flag, value, setting, case_id)


def test_the_bad_flag_table_names_every_numeric_flag():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    numeric = {(command, action.option_strings[0]) for command, parser in sub.choices.items()
               for action in parser._actions if action.type in (int, float)}
    assert numeric == {(command, flag) for commands, flag, *_ in NUMERIC_FLAGS
                       for command in commands}


def _refusal_test(cases):
    """A test that runs each case's ``command`` with a bad ``flag`` ``value``
    (space-separated values for a list flag) and checks that it exits with
    ``code`` naming ``message`` before it reads a CSV or a model, takes a training
    step, or writes a file. The CSV has no label column, so reading it would
    announce a coulomb count."""

    @pytest.mark.parametrize("command, flag, value, code, message", cases)
    def test(tmp_path, capsys, monkeypatch, command, flag, value, code, message):
        data = tmp_path / "d.csv"
        cycle = make_labeled_csv(data)
        save_csv(DriveCycle(cycle.time_s, cycle.voltage_v, cycle.current_a,
                            cycle.temperature_c, None, "unlabeled"), data)
        serialize(build_model(TcnConfig(stacks=1, input_window=20), seed=1), tmp_path / "m.bin")
        files = sorted(p.name for p in tmp_path.iterdir())
        reads = []
        for module, name in ((tcnsoc.cli, "load_csv"), (tcnsoc.cli, "deserialize"),
                             (tcnsoc.training, "forward_with_cache")):
            monkeypatch.setattr(module, name, lambda *args, name=name: reads.append(name))
        argv = {
            "simulate": ("--kind", "urban", "--out", str(tmp_path / "u.csv")),
            "train": ("--data", str(data), "--out", str(tmp_path / "new.bin"),
                      "--history", str(tmp_path / "h.csv"), "--window", "20"),
            "eval": ("--model", str(tmp_path / "m.bin"), "--data", str(data),
                     "--trace", str(tmp_path / "t.csv")),
            "bench": ("--model", str(tmp_path / "m.bin")),
            "sweep": ("--data", str(data), str(data), "--windows", "20",
                      "--out-dir", str(tmp_path / "models"), "--csv", str(tmp_path / "r.csv")),
        }[command]
        # one value as --flag=value, so that -inf is not read as a flag
        argv += (flag, *value.split()) if " " in value else (f"{flag}={value}",)
        if code == 2:
            with pytest.raises(SystemExit) as exc:
                run_cli(command, *argv)
            assert exc.value.code == 2
        else:
            assert run_cli(command, *argv) == 1
        err = capsys.readouterr().err
        assert message in err and "model:" not in err and "coulomb counting" not in err
        assert reads == [] and sorted(p.name for p in tmp_path.iterdir()) == files

    return test


test_every_numeric_flag_is_refused_before_any_file_is_read = _refusal_test(list(_bad_flag_cases()))
test_simulate_refuses_a_non_finite_duration_or_step = _refusal_test(SIMULATE_NON_FINITE)
test_train_rejects_a_non_finite_learning_rate_before_training = _refusal_test(TRAIN_LR)
test_train_rejects_a_bad_setting_before_reading_data = _refusal_test(TRAIN_SETTINGS)
test_a_bad_capacity_is_refused_before_reading_data = _refusal_test(CAPACITY)
test_a_bad_initial_soc_is_refused_before_reading_data = _refusal_test(INITIAL_SOC)
test_sweep_rejects_a_bad_setting_before_reading_data = _refusal_test(SWEEP_SETTINGS)


@pytest.mark.parametrize("argv", [
    ("eval", "--model", "m.bin", "--data", "d.csv", "--jobs", "2"),
    ("eval", "--model", "m.bin", "--data", "d.csv", "--seed", "1"),
    ("bench", "--model", "m.bin", "--seed", "1"),
    ("bench", "--model", "m.bin", "--jobs", "2"),
    ("train", "--data", "d.csv", "--out", "m.bin", "--jobs", "2"),
    ("simulate", "--kind", "urban", "--out", "u.csv", "--jobs", "2"),
])
def test_subcommand_rejects_flags_it_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("train", "--data", "d.csv", "--out", "m.bin"),
    ("sweep", "--data", "d.csv"),
])
def test_width_and_training_flags_default_to_the_configs(argv):
    args = build_parser().parse_args(argv)
    widths = TcnConfig(stacks=1, input_window=1)
    assert (args.kernel, args.filters, args.p_keep) == \
        (widths.kernel_size, widths.filters, widths.p_keep)
    assert _train_config(args) == TrainConfig(seed=args.seed)


# ---------------------------------------------------------------- module


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "tcnsoc", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout
    assert "sweep" in proc.stdout


def test_import_loads_no_scipy():
    # every tcn-soc command, sweep worker and library user pays for what the
    # package imports; scipy is not one of its dependencies
    code = ("import sys, tcnsoc, tcnsoc.cli, tcnsoc.sweep, tcnsoc.simulate; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_process_pool():
    # only a sweep with jobs > 1 needs the pool, and it imports it there
    code = ("import sys, tcnsoc, tcnsoc.cli; print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] in ('concurrent', 'multiprocessing', 'socket')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_script_matches_module(tmp_path):
    a = subprocess.run(
        [sys.executable, "-m", "tcnsoc", "simulate", "--kind", "urban",
         "--duration", "30", "--seed", "1", "--out", str(tmp_path / "m.csv")],
        capture_output=True, text=True, timeout=120,
    )
    assert a.returncode == 0
    assert (tmp_path / "m.csv").exists()
