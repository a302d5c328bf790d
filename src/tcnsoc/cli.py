"""Command-line interface.

Subcommands:
  simulate   generate a synthetic drive cycle CSV from the circuit simulator
  train      fit a network on one or more labeled cycle CSVs
  eval       score a saved model against a labeled cycle
  bench      latency and file-size figures for a saved model
  sweep      train a (stacks, window) grid and emit the comparison table

All diagnostics go to stderr; machine-readable output (CSV, key=value
metric lines) goes to the requested files or stdout. Exit status is 0
only when every requested action succeeded.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .data import (
    DEFAULT_CELL,
    BatterySpec,
    build_hybrid,
    check_initial_soc,
    check_int,
    coulomb_count,
    fit_normalization,
    load_csv,
    save_csv,
    write_csv,
)
from .model import TcnConfig, build_model, parameter_count, receptive_field
from .modelio import deserialize, serialize
from .simulate import PROFILE_KINDS, EcmConfig, generate_profile, simulate_ecm
from .sweep import _check_latency_args, measure_latency, run_sweep
from .training import TrainConfig, evaluate, train


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _load_labeled(args, paths):
    """Yield each cycle CSV in ``paths``, coulomb counting the label column if
    it is absent, from a cell and a start checked before the first file is read."""
    spec = BatterySpec(rated_capacity_ah=args.capacity_ah)
    check_initial_soc(args.initial_soc)
    for path in paths:
        cycle = load_csv(path)
        if cycle.soc is None:
            _info(f"{path}: no soc column, coulomb counting from "
                  f"initial_soc={args.initial_soc} capacity_ah={args.capacity_ah}")
            cycle = coulomb_count(cycle, spec, initial_soc=args.initial_soc)
        yield cycle


def _add_train_args(p: argparse.ArgumentParser) -> None:
    """The width and training flags of ``train`` and ``sweep``; their
    defaults are those of ``TcnConfig`` and ``TrainConfig``."""
    p.add_argument("--kernel", type=int, default=TcnConfig.kernel_size,
                   help="convolution kernel size (default %(default)s)")
    p.add_argument("--filters", type=int, default=TcnConfig.filters,
                   help="channels per hidden layer (default %(default)s)")
    p.add_argument("--p-keep", type=float, default=TcnConfig.p_keep,
                   help="dropout keep probability during training (default %(default)s)")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs,
                   help="training epochs (default %(default)s)")
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size,
                   help="mini-batch size (default %(default)s)")
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate,
                   help="Adam learning rate (default %(default)s)")
    p.add_argument("--stride", type=int, default=10,
                   help="training window stride in samples (default 10)")
    p.add_argument("--val-fraction", type=float, default=TrainConfig.validation_fraction,
                   help="fraction of windows held for validation (default %(default)s)")


def _train_config(args) -> TrainConfig:
    return TrainConfig(learning_rate=args.lr, batch_size=args.batch_size,
                       epochs=args.epochs, validation_fraction=args.val_fraction,
                       seed=args.seed)


def _add_label_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--capacity-ah", type=float, default=DEFAULT_CELL.rated_capacity_ah,
                   help="rated capacity for coulomb counting unlabeled CSVs")
    p.add_argument("--initial-soc", type=float, default=0.95,
                   help="starting charge fraction for coulomb counting unlabeled CSVs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcn-soc",
        description="Temporal convolution charge estimator for battery drive cycles.",
    )
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="master random seed (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[seeded],
                           help="write a synthetic drive cycle CSV")
    p_sim.add_argument("--kind", required=True, choices=PROFILE_KINDS,
                       help="drive profile family")
    p_sim.add_argument("--duration", type=float, default=3600.0,
                       help="cycle length in seconds (default 3600)")
    p_sim.add_argument("--dt", type=float, default=0.1,
                       help="sample period in seconds (default 0.1)")
    p_sim.add_argument("--initial-soc", type=float, default=0.95,
                       help="starting charge fraction (default 0.95)")
    p_sim.add_argument("--out", required=True, help="destination CSV path")

    p_train = sub.add_parser("train", parents=[seeded],
                             help="train a model on labeled cycle CSVs")
    p_train.add_argument("--data", required=True, nargs="+",
                         help="one or more drive cycle CSVs")
    p_train.add_argument("--out", required=True, help="destination model path")
    p_train.add_argument("--history", default=None,
                         help="optional CSV of per-epoch losses")
    p_train.add_argument("--window", type=int, default=500,
                         help="input window length in samples (default 500)")
    p_train.add_argument("--stacks", type=int, default=20,
                         help="stacked dilation pyramids (default 20)")
    _add_train_args(p_train)
    _add_label_args(p_train)

    p_eval = sub.add_parser("eval", help="score a saved model on a labeled cycle")
    p_eval.add_argument("--model", required=True, help="saved model path")
    p_eval.add_argument("--data", required=True, help="drive cycle CSV")
    p_eval.add_argument("--mode", choices=["teacher", "closed-loop"], default="teacher",
                        help="feed true or predicted charge back into the input window")
    p_eval.add_argument("--trace", default=None,
                        help="optional CSV of per-step true and predicted charge")
    _add_label_args(p_eval)

    p_bench = sub.add_parser("bench", help="latency and size of a saved model")
    p_bench.add_argument("--model", required=True, help="saved model path")
    p_bench.add_argument("--warmup", type=int, default=100,
                         help="untimed warm-up predictions (default 100)")
    p_bench.add_argument("--iterations", type=int, default=1000,
                         help="timed predictions (default 1000)")

    p_sweep = sub.add_parser("sweep", parents=[seeded],
                             help="train a grid of models and tabulate them")
    p_sweep.add_argument("--data", required=True, nargs="+",
                         help="labeled drive cycle CSVs")
    p_sweep.add_argument("--stacks", type=int, nargs="+", default=[2, 4, 8],
                         help="stack counts to sweep (default 2 4 8)")
    p_sweep.add_argument("--windows", type=int, nargs="+", default=[100, 500],
                         help="window lengths to sweep (default 100 500)")
    p_sweep.add_argument("--protocol", choices=["held-out", "train-on-all"],
                         default="held-out",
                         help="held-out: last cycle is eval only; "
                              "train-on-all: train and eval on all cycles")
    p_sweep.add_argument("--out-dir", default=None,
                         help="directory for the trained model files")
    p_sweep.add_argument("--csv", default=None, help="destination for the report CSV")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="worker processes for grid training (default 1)")
    _add_train_args(p_sweep)
    _add_label_args(p_sweep)

    return parser


def _cmd_simulate(args) -> int:
    profile = generate_profile(args.kind, args.duration, dt=args.dt, seed=args.seed)
    cycle = simulate_ecm(profile, EcmConfig(), DEFAULT_CELL,
                         initial_soc=args.initial_soc, dt=args.dt,
                         name=f"{args.kind}-{args.seed}")
    if cycle.truncated:
        _warn(f"cycle truncated at {len(cycle)} samples: charge left [0, 1]")
    save_csv(cycle, args.out)
    _info(f"wrote {len(cycle)} samples to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = TcnConfig(stacks=args.stacks, input_window=args.window,
                       kernel_size=args.kernel, filters=args.filters,
                       p_keep=args.p_keep)
    train_config = _train_config(args)  # both configs check themselves when built
    check_int("stride", args.stride, 1)  # before any file is read or a model fact printed
    cycles = list(_load_labeled(args, args.data))
    _info(f"model: {parameter_count(config)} parameters, "
          f"receptive field {receptive_field(config)} samples, "
          f"window {config.input_window}")
    if receptive_field(config) < config.input_window:
        _warn(f"receptive field {receptive_field(config)} is shorter than the "
              f"window {config.input_window}; early samples cannot reach the output")
    norm = fit_normalization(cycles)
    dataset = build_hybrid(cycles, norm, args.window, stride=args.stride, seed=args.seed)
    _info(f"training on {len(dataset.y)} windows from {len(cycles)} cycle(s)")
    model = build_model(config, seed=args.seed)
    if args.epochs == 0:
        _warn("epochs is 0: writing the untrained model")
    _, history = train(model, dataset, train_config)
    for st in history:
        _info(f"epoch {st.epoch:3d}  train_mse {st.train_mse:.6e}  "
              f"val_mse {st.val_mse:.6e}")
    n = serialize(model, args.out)
    _info(f"wrote {n} bytes to {args.out}")
    if args.history is not None:
        write_csv(args.history, ["epoch", "train_mse", "val_mse"],
                  [(st.epoch, st.train_mse, st.val_mse) for st in history])
    return 0


def _cmd_eval(args) -> int:
    (cycle,) = _load_labeled(args, [args.data])  # its flags are checked before any read
    model = deserialize(args.model)
    metrics, trace = evaluate(model, cycle, mode=args.mode)
    print(f"mode={args.mode}")
    print(f"n={metrics.n}")
    print(f"mse={metrics.mse!r}")
    print(f"mae={metrics.mae!r}")
    print(f"max_error={metrics.max_error!r}")
    print(f"out_of_range={metrics.out_of_range}")
    accuracy = metrics.accuracy_percent  # below 1e15, .2f shows at most a float's 17 digits
    print(f"accuracy_pct={accuracy:.2f}" if abs(accuracy) < 1e15 else f"accuracy_pct={accuracy!r}")
    if args.trace is not None:
        write_csv(args.trace, ["time_s", "soc_true", "soc_pred"],
                  np.column_stack([trace.time_s, trace.soc_true, trace.soc_pred]).tolist())
        _info(f"wrote trace to {args.trace}")
    return 0


def _cmd_bench(args) -> int:
    import os

    _check_latency_args(args.warmup, args.iterations)  # before the model is read
    model = deserialize(args.model)
    stats = measure_latency(model, args.warmup, args.iterations)
    print(f"parameters={parameter_count(model.config)}")
    print(f"file_size_bytes={os.path.getsize(args.model)}")
    print(f"latency_ms_mean={stats.mean_s * 1e3:.6f}")
    print(f"latency_ms_std={stats.std_s * 1e3:.6f}")
    return 0


def _cmd_sweep(args) -> int:
    # read lazily: run_sweep checks every setting before the first file
    cycles = _load_labeled(args, args.data)
    report = run_sweep(
        args.stacks, args.windows, cycles, _train_config(args),
        kernel_size=args.kernel, filters=args.filters, p_keep=args.p_keep,
        protocol=args.protocol, stride=args.stride, out_dir=args.out_dir,
        jobs=args.jobs,
    )
    print(report.to_text(), end="")
    if args.csv is not None:
        report.to_csv(args.csv)
        _info(f"wrote report to {args.csv}")
    for row in report.rows:
        if row.failed:
            _info(f"cell stacks={row.stacks} window={row.window} failed: {row.error}")
    return int(report.any_failed)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
