"""Tests of the benchmark itself: the correctness gate, the tracer and BENCHMARK.json.

    python3 -m pytest -q perfbench/test_gate.py
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (pins BLAS threads before numpy loads)

run._import_package()

import numpy as np  # noqa: E402
import tcnsoc.kernels as tk  # noqa: E402
import tcnsoc.model as tm  # noqa: E402

from tracer import LAYERS, Layer, Tracer  # noqa: E402
from workloads import Train  # noqa: E402


def one_round(tmp_path, reference):
    """The gate of a single measured round of the train workload, seed 0."""
    return run.measure(Train, 0, tmp_path, 0.0, reference)["gate"]


def test_gate_accepts_the_stored_reference(tmp_path):
    gate = one_round(tmp_path, run.load_references()["train"]["0"])
    assert gate.attempted == 1 + Train.predicts_per_round
    assert gate.failed == 0, gate.messages


@pytest.mark.parametrize("field", ["val_mse", "history"])
def test_gate_rejects_a_perturbed_reference(tmp_path, field):
    reference = copy.deepcopy(run.load_references()["train"]["0"])
    if field == "val_mse":
        reference["val_mse"] *= 1.0 + 1e-3
    else:
        reference["history"][0][0] *= 1.0 + 1e-3
    gate = one_round(tmp_path, reference)
    assert gate.failed == 1
    assert any(field in m for m in gate.messages), gate.messages


def test_oracle_rejects_a_wrong_kernel_without_a_reference(tmp_path, monkeypatch):
    def shifted(x, params):
        return tk.causal_conv_forward(x, params) + 1e-3

    monkeypatch.setattr(tm, "causal_conv_forward", shifted)
    gate = one_round(tmp_path, None)
    assert gate.failed == Train.predicts_per_round
    assert any("oracle" in m for m in gate.messages), gate.messages


def test_tracer_reports_absent_layers_and_keeps_outputs(tmp_path):
    workload = Train(0, tmp_path)
    model = workload.model
    window = workload.windows[:1]
    plain = tm.predict(model, window)
    original = tm.predict
    tracer = Tracer()
    tracer.install(LAYERS + [Layer("model.no_such_function"), Layer("kernels.Missing.method")])
    try:
        root = tracer.open("round")
        traced = tm.predict(model, window)
        tracer.close(root)
    finally:
        tracer.restore()
    assert tm.predict is original
    assert tracer.absent == ["model.no_such_function", "kernels.Missing.method"]
    assert np.array_equal(plain, traced)
    stats = tracer.layer_stats(root)
    assert stats["model.predict"]["calls"] == 1
    conv = stats["kernels.causal_conv_forward"]
    # S=2 stacks of 4 blocks, two convs each, plus one 1x1 downsample
    assert conv["calls"] == 17
    assert sum(stats[f"kernels.causal_conv_forward.d{d}"]["calls"] for d in (1, 2, 4, 8)) == 17
    # 2*B*O*C*k*T summed over conv1 of block 0, the 15 other 8x8 convs and the downsample
    expected = 2 * 100 * (8 * 4 * 8 + 15 * 8 * 8 * 8 + 8 * 4 * 1) / 1e9
    assert conv["computed_gflop"] == pytest.approx(expected)


def test_benchmark_json_matches_the_code():
    committed = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert committed == run.describe()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
