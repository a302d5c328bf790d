"""Mini-batch training on windowed datasets and sliding-window evaluation.

Training is shuffled mini-batch Adam on the MSE of the final-step
prediction, deterministic for a given seed under single-threaded execution.
Evaluation slides the model across a labeled cycle at stride 1, either
teacher-forced (true past SOC in the input, computed in float32) or
closed-loop (predictions fed back after the first window, in float64).
Validation and teacher-forced evaluation predict in batches, the closed loop one
window per step; all cut their windows through ``WindowedDataset.windows``.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .data import DriveCycle, WindowedDataset, check_int, is_real, make_windows
from .kernels import AdamState, _slab_rows, adam_step, mse_loss
from .model import TcnModel, backward, forward, forward_with_cache, new_arena
from .rng import SplitMix64


@dataclass(frozen=True)
class TrainConfig:
    """Training settings; like ``TcnConfig``, checked when built and frozen."""

    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 30
    validation_fraction: float = 0.1
    seed: int = 0
    early_stop_patience: int = 10  # 0 disables early stopping

    def __post_init__(self):
        if not is_real(self.learning_rate) or self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be a finite number > 0, "
                             f"got {self.learning_rate!r}")
        for name, low in (("batch_size", 1), ("epochs", 0), ("early_stop_patience", 0),
                          ("seed", None)):
            check_int(name, getattr(self, name), low)
        if not is_real(self.validation_fraction) or not 0.0 <= self.validation_fraction <= 0.5:
            raise ValueError(f"validation_fraction must be a number in [0, 0.5], "
                             f"got {self.validation_fraction!r}")


@dataclass
class EpochStats:
    epoch: int
    train_mse: float
    val_mse: float  # NaN when there is no validation split


def _predictions(model: TcnModel, dataset: WindowedDataset, rows: np.ndarray, dtype) -> np.ndarray:
    """Final-step predictions for the windows of ``dataset``'s index array
    ``rows``, each cut run in ``dtype``, in batches whose widest activation map,
    in that dtype, fits one tap slab (README, "Batch slabs")."""
    preds = np.empty(len(rows))
    cfg = model.config
    batch = _slab_rows(max(cfg.input_features, cfg.filters), 1, cfg.input_window,
                       np.dtype(dtype).itemsize)
    for i in range(0, len(rows), batch):
        x = dataset.windows(rows[i:i + batch]).astype(dtype, copy=False)
        preds[i:i + batch] = forward(model, x)[:, -1]
    return preds


def train(
    model: TcnModel, dataset: WindowedDataset, config: TrainConfig
) -> tuple[TcnModel, list[EpochStats]]:
    """Train in place; returns the model and per-epoch loss history.

    The dataset is split once (seeded) into train/validation parts. With
    early stopping enabled and a validation split present, the weights of
    the best validation epoch are restored at the end.

    Each step's forward pass and the validation pass run in float64, its
    backward pass in float32 (a float32 arena), and ``theta`` and Adam's
    moments stay float64 (README, "Precision"). A step that overflows or makes
    a nan raises a ``ValueError`` naming its epoch and batch, and leaves
    ``theta`` as the last finite step made it.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    if dataset.window != model.config.input_window:
        raise ValueError(
            f"dataset window {dataset.window} does not match model input_window "
            f"{model.config.input_window}"
        )
    model.norm = dataset.norm

    rng = SplitMix64(config.seed)
    n = len(dataset)
    n_val = int(round(n * config.validation_fraction))
    split = rng.permutation(n)
    val_idx, train_idx = split[:n_val], split[n_val:]
    if len(train_idx) == 0:
        raise ValueError(f"no training samples left after validation split ({n_val}/{n})")
    y_val = dataset.y[val_idx]

    state = AdamState(np.zeros_like(model.theta), np.zeros_like(model.theta),
                      lr=config.learning_rate)
    dropout_rng = rng.spawn()
    arena = new_arena(model, min(config.batch_size, len(train_idx)), np.float32)

    history: list[EpochStats] = []
    best_val = math.inf
    best_theta = None
    stale = 0

    for epoch in range(config.epochs):
        order = rng.permutation(len(train_idx))
        sq_sum = 0.0
        for i in range(0, len(order), config.batch_size):
            batch = train_idx[order[i:i + config.batch_size]]
            xb, yb = dataset.windows(batch), dataset.y[batch]
            # an overflow or nan anywhere in the step is divergence; theta keeps the last
            # finite step, as adam_step writes it last, from an update already computed
            try:
                with np.errstate(over="raise", invalid="raise"):
                    y_full = forward_with_cache(model, xb, dropout_rng, arena)
                    loss, grad_pred = mse_loss(y_full[:, -1], yb)
                    grad_y = np.zeros_like(y_full)
                    grad_y[:, -1] = grad_pred
                    adam_step(model.theta, backward(model, xb, arena, grad_y), state)
            except FloatingPointError as exc:
                raise ValueError(f"training diverged in epoch {epoch} at batch "
                                 f"{i // config.batch_size} ({exc})") from None
            sq_sum += loss * len(batch)
        train_mse = sq_sum / len(train_idx)

        val_mse = math.nan
        if n_val:
            val_pred = _predictions(model, dataset, val_idx, np.float64)
            val_mse = float(np.mean((val_pred - y_val) ** 2))
        history.append(EpochStats(epoch, train_mse, val_mse))

        if config.early_stop_patience and n_val:
            if val_mse < best_val:
                best_val = val_mse
                best_theta = model.theta.copy()
                stale = 0
            else:
                stale += 1
                if stale >= config.early_stop_patience:
                    break

    if best_theta is not None:
        model.theta[...] = best_theta
    return model, history


@dataclass
class EvalMetrics:
    """mse/mae are in SOC-fraction units; accuracy_percent = 100 - 100*mae."""

    mse: float
    mae: float
    accuracy_percent: float
    max_error: float
    out_of_range: int
    n: int


@dataclass
class PredictionTrace:
    time_s: np.ndarray
    soc_true: np.ndarray
    soc_pred: np.ndarray


def evaluate(
    model: TcnModel, cycle: DriveCycle, mode: str = "teacher"
) -> tuple[EvalMetrics, PredictionTrace]:
    """Slide the model over a labeled cycle at stride 1 and score it: teacher-forced
    in float32 batches, or closed-loop one window per step in float64, each estimate
    written over the label the next window reads as past SOC. The caller's cycle is
    only read: the closed loop writes into a private copy of the labels."""
    if mode not in ("teacher", "closed-loop"):
        raise ValueError(f"mode must be 'teacher' or 'closed-loop', got {mode!r}")
    if model.norm is None:
        raise ValueError("model has no normalization parameters; train it first")
    window = model.config.input_window
    own = cycle
    if mode == "closed-loop" and cycle.soc is not None:
        # copied, not replaced, so the labels are not checked again: past the
        # first window the loop reads only the estimates it writes over them
        own = copy.copy(cycle)
        own.soc = cycle.soc.copy()
    dataset = make_windows(own, model.norm, window)  # refuses a short or unlabeled cycle
    rows = np.arange(len(dataset))
    if mode == "teacher":
        # float32 windows run the model in float32, the precision it is stored in
        preds = _predictions(model, dataset, rows, np.float32)
    else:
        # float64: a float32 rounding error would compound through the feedback;
        # an overflow or nan in the cut or the network is divergence at that step
        preds = np.empty(len(rows))
        how = None
        try:
            with np.errstate(over="raise", invalid="raise"):
                for step in rows:
                    preds[step] = forward(model, dataset.windows(rows[step:step + 1]))[0, -1]
                    if not math.isfinite(preds[step]):
                        how = f"to {preds[step]}"
                        break
                    own.soc[step + window - 1] = preds[step]  # scaled when the next window is cut
        except FloatingPointError as exc:
            how = f"({exc})"
        if how is not None:
            raise ValueError(
                f"closed-loop prediction diverged {how} at step {step} "
                f"(t={cycle.time_s[step + window - 1]:g} s) of cycle {cycle.name!r}")

    trace = PredictionTrace(cycle.time_s[window - 1:].copy(), dataset.y, preds)
    return compute_metrics(preds, dataset.y), trace


def compute_metrics(pred: np.ndarray, truth: np.ndarray) -> EvalMetrics:
    """Score predictions against labels. A sum or square beyond the float64
    range reads as inf (finite but huge closed-loop estimates give mse=inf),
    without a numpy warning."""
    with np.errstate(over="ignore"):
        err = pred - truth
        mae = float(np.mean(np.abs(err)))
        mse = float(np.mean(err * err))
    return EvalMetrics(
        mse=mse,
        mae=mae,
        accuracy_percent=100.0 - 100.0 * mae,
        max_error=float(np.max(np.abs(err))),
        out_of_range=int(np.count_nonzero((pred < 0.0) | (pred > 1.0))),
        n=len(pred),
    )
