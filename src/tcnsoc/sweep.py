"""Hyperparameter sweep over (stacks, window) grids and the latency/file-size
benchmark harness.

Each grid cell trains one model on the hybrid training set, evaluates it
teacher-forced on the held-out cycle(s), and serializes it to measure the
on-disk footprint. Latency is measured afterwards, sequentially, so timing
is never skewed by concurrent training.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import time
from collections.abc import Iterable
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .data import DriveCycle, build_hybrid, check_int, cycle_names, fit_normalization, write_csv
from .model import TcnConfig, TcnModel, build_model, parameter_count, predict
from .modelio import deserialize, serialize
from .rng import SplitMix64
from .training import TrainConfig, evaluate, train

REPORT_COLUMNS = [
    "stacks", "window", "parameters", "mse", "file_size_bytes",
    "latency_ms_mean", "latency_ms_std", "accuracy_pct",
]


@dataclass
class LatencyStats:
    mean_s: float
    std_s: float


def _check_latency_args(warmup: int, iterations: int) -> None:
    check_int("iterations", iterations, 1)
    check_int("warmup", warmup, 0)


def measure_latency(model: TcnModel, warmup: int = 100, iterations: int = 1000) -> LatencyStats:
    """Wall-clock time of eval-mode ``predict`` on one all-zero float64
    window of the model's shape, the input ``bench`` and every sweep cell time.

    Warm-up passes are run first and excluded; mean and standard deviation
    are over the per-pass timings.
    """
    _check_latency_args(warmup, iterations)
    window = np.zeros((1, model.config.input_features, model.config.input_window))
    for _ in range(warmup):
        predict(model, window)
    samples = np.empty(iterations)
    for i in range(iterations):
        t0 = time.perf_counter()
        predict(model, window)
        samples[i] = time.perf_counter() - t0
    return LatencyStats(float(samples.mean()), float(samples.std()))


@dataclass
class SweepRow:
    stacks: int
    window: int
    parameters: int = 0
    mse: float = float("nan")
    file_size_bytes: int = 0
    latency_ms_mean: float = float("nan")
    latency_ms_std: float = float("nan")
    accuracy_pct: float = float("nan")
    model_path: str = ""
    error: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.error)


@dataclass
class SweepReport:
    rows: list[SweepRow]
    protocol: str
    train_cycles: list[str]
    eval_cycles: list[str]

    def to_csv(self, path) -> None:
        write_csv(path, REPORT_COLUMNS, [
            (r.stacks, r.window, r.parameters, r.mse, r.file_size_bytes,
             f"{r.latency_ms_mean:.6f}", f"{r.latency_ms_std:.6f}", r.accuracy_pct)
            for r in self.rows])

    def to_text(self) -> str:
        lines = [
            f"protocol: {self.protocol}  "
            f"(train: {', '.join(self.train_cycles)}; eval: {', '.join(self.eval_cycles)})",
            f"{'stacks':>6} {'window':>6} {'params':>8} {'mse':>12} "
            f"{'size_B':>9} {'lat_ms':>8} {'lat_sd':>8} {'acc_%':>8}",
        ]
        for r in self.rows:
            if r.failed:
                lines.append(f"{r.stacks:>6} {r.window:>6} FAILED: {r.error}")
            else:
                lines.append(
                    f"{r.stacks:>6} {r.window:>6} {r.parameters:>8} {r.mse:>12.6e} "
                    f"{r.file_size_bytes:>9} {r.latency_ms_mean:>8.3f} "
                    f"{r.latency_ms_std:>8.3f} {r.accuracy_pct:>8.2f}"
                )
        return "\n".join(lines) + "\n"

    @property
    def any_failed(self) -> bool:
        return any(r.failed for r in self.rows)


def _train_cell(config: TcnConfig, cell_seed: int, train_cycles, eval_cycles, norm,
                train_cfg: TrainConfig, stride: int, out_dir: str) -> SweepRow:
    row = SweepRow(stacks=config.stacks, window=config.input_window)
    try:
        row.parameters = parameter_count(config)
        dataset = build_hybrid(train_cycles, norm, config.input_window, stride=stride, seed=cell_seed)
        model = build_model(config, seed=cell_seed)
        model, _ = train(model, dataset, replace(train_cfg, seed=cell_seed))

        scores = [evaluate(model, cycle, mode="teacher")[0] for cycle in eval_cycles]
        row.mse = float(np.mean([m.mse for m in scores]))
        row.accuracy_pct = float(np.mean([m.accuracy_percent for m in scores]))

        row.model_path = os.path.join(out_dir, f"tcn_s{row.stacks}_w{row.window}.bin")
        row.file_size_bytes = serialize(model, row.model_path)
    except Exception as exc:  # keep sweeping; the row records the diagnostic
        row.error = f"{type(exc).__name__}: {exc}"
    return row


def run_sweep(
    stack_counts: list[int],
    window_lengths: list[int],
    cycles: Iterable[DriveCycle],
    train_cfg: TrainConfig,
    *,
    stride: int,
    kernel_size: int = TcnConfig.kernel_size,
    filters: int = TcnConfig.filters,
    p_keep: float = TcnConfig.p_keep,
    protocol: str = "held-out",
    out_dir: str | None = None,
    jobs: int = 1,
) -> SweepReport:
    """Train and score one model per (stacks, window) grid cell.

    protocol 'held-out' trains on all cycles but the last and evaluates on
    the last; protocol 'train-on-all' trains on the hybrid of all cycles
    and averages metrics over evaluations on each of them. Rows are ordered
    by (window, stacks) ascending. Cells that fail are reported in place
    and the sweep continues. Bad settings, a repeated grid value among them,
    raise before ``cycles`` (any iterable) is read, and too few cycles or
    unfittable normalization ranges (one fit serves every cell) before any
    cell trains. After training, each cell's model file is read back and
    timed by ``measure_latency`` at its defaults, one cell after another.
    Model files go to out_dir; without one they go to a temporary directory
    removed on return, and every row's ``model_path`` is "".
    """
    if not stack_counts or not window_lengths:
        raise ValueError("stack_counts and window_lengths must be non-empty")
    if protocol not in ("held-out", "train-on-all"):
        raise ValueError(f"protocol must be 'held-out' or 'train-on-all', got {protocol!r}")
    check_int("jobs", jobs, 1)
    check_int("stride", stride, 1)
    configs = [TcnConfig(stacks=s, input_window=w, kernel_size=kernel_size,
                         filters=filters, p_keep=p_keep)
               for w in sorted(window_lengths) for s in sorted(stack_counts)]
    for a, b in zip(configs, configs[1:]):
        if a == b:  # two cells would write one model file
            raise ValueError(f"grid cell stacks={a.stacks} window={a.input_window} is listed twice")

    cycles = list(cycles)  # read only now that every setting has passed
    if protocol == "held-out":
        if len(cycles) < 2:
            raise ValueError("held-out protocol needs at least two cycles")
        train_cycles, eval_cycles = cycles[:-1], [cycles[-1]]
    else:
        train_cycles = eval_cycles = cycles
    norm = fit_normalization(train_cycles)

    seed_rng = SplitMix64(train_cfg.seed)
    cell_seeds = [int(seed_rng.next_u64()) for _ in configs]
    with (tempfile.TemporaryDirectory(prefix="tcn_sweep_") if out_dir is None
          else contextlib.nullcontext(out_dir)) as directory:
        os.makedirs(directory, exist_ok=True)
        cell = partial(_train_cell, train_cycles=train_cycles, eval_cycles=eval_cycles,
                       norm=norm, train_cfg=train_cfg, stride=stride, out_dir=directory)
        if jobs > 1:
            # imported here: multiprocessing costs every other run memory at import
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=jobs) as pool:
                rows = list(pool.map(cell, configs, cell_seeds))
        else:
            rows = list(map(cell, configs, cell_seeds))

        # latency phase: exclusive, sequential, on the serialized artifacts
        for row in rows:
            if not row.failed:
                stats = measure_latency(deserialize(row.model_path))
                row.latency_ms_mean = stats.mean_s * 1e3
                row.latency_ms_std = stats.std_s * 1e3
    if out_dir is None:  # the files went with the temporary directory
        rows = [replace(row, model_path="") for row in rows]

    names = cycle_names(cycles)  # numbered over all cycles: held-out eval is the last
    return SweepReport(rows, protocol, names[:len(train_cycles)], names[-len(eval_cycles):])
