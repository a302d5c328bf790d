"""Mini-batch training on windowed datasets and sliding-window evaluation.

Training is shuffled mini-batch Adam on the MSE of the final-step
prediction, deterministic for a given seed under single-threaded execution.
Evaluation slides the model across a labeled cycle at stride 1, either
teacher-forced (true past SOC in the input, computed in float32) or
closed-loop (predictions fed back after the first window, in float64).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DriveCycle, WindowedDataset, _window_cutter, apply_normalization
from .kernels import AdamState, adam_step, mse_loss
from .model import TcnModel, backward, forward, forward_with_cache
from .rng import SplitMix64

EVAL_BATCH = 256


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 30
    validation_fraction: float = 0.1
    seed: int = 0
    early_stop_patience: int = 10  # 0 disables early stopping

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 <= self.validation_fraction <= 0.5:
            raise ValueError(
                f"validation_fraction must be in [0, 0.5], got {self.validation_fraction}"
            )
        if self.early_stop_patience < 0:
            raise ValueError(
                f"early_stop_patience must be >= 0, got {self.early_stop_patience}"
            )


@dataclass
class EpochStats:
    epoch: int
    train_mse: float
    val_mse: float  # NaN when there is no validation split


def _predictions(model: TcnModel, n: int, cut, feed_back=None) -> np.ndarray:
    """Final-step predictions for n windows; ``cut(rows)`` returns the windows
    of the slice ``rows``. They go EVAL_BATCH at a time into one preallocated
    array, or one at a time when ``feed_back(step, prediction)`` must run
    before the next window is cut."""
    preds = np.empty(n)
    batch = EVAL_BATCH if feed_back is None else 1
    for i in range(0, n, batch):
        rows = slice(i, i + batch)
        preds[rows] = forward(model, cut(rows))[:, -1]
        if feed_back is not None:
            feed_back(i, float(preds[i]))
    return preds


def train(
    model: TcnModel, dataset: WindowedDataset, config: TrainConfig
) -> tuple[TcnModel, list[EpochStats]]:
    """Train in place; returns the model and per-epoch loss history.

    The dataset is split once (seeded) into train/validation parts. With
    early stopping enabled and a validation split present, the weights of
    the best validation epoch are restored at the end.
    """
    config.validate()
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

    state = AdamState.for_params([model.theta], lr=config.learning_rate)
    dropout_rng = rng.spawn()

    history: list[EpochStats] = []
    best_val = math.inf
    best_theta = None
    stale = 0

    for epoch in range(config.epochs):
        order = rng.permutation(len(train_idx))
        sq_sum = 0.0
        for i in range(0, len(order), config.batch_size):
            batch = train_idx[order[i:i + config.batch_size]]
            xb, yb = dataset.x[batch], dataset.y[batch]
            y_full, cache = forward_with_cache(model, xb, train=True, rng=dropout_rng)
            loss, grad_pred = mse_loss(y_full[:, -1], yb)
            grad_y = np.zeros_like(y_full)
            grad_y[:, -1] = grad_pred
            grads = backward(model, cache, grad_y)
            adam_step([model.theta], [np.concatenate([g.ravel() for g in grads])], state)
            sq_sum += loss * len(batch)
        train_mse = sq_sum / len(train_idx)

        val_mse = math.nan
        if n_val:
            val_pred = _predictions(model, n_val, lambda rows: dataset.x[val_idx[rows]])
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
    """Slide the model over a labeled cycle at stride 1 and score it."""
    if mode not in ("teacher", "closed-loop"):
        raise ValueError(f"mode must be 'teacher' or 'closed-loop', got {mode!r}")
    if model.norm is None:
        raise ValueError("model has no normalization parameters; train it first")
    if cycle.soc is None:
        raise ValueError(f"cycle {cycle.name!r} has no SOC labels")
    window = model.config.input_window
    if len(cycle) < window:
        raise ValueError(
            f"cycle {cycle.name!r} has {len(cycle)} samples, shorter than the "
            f"model window {window}"
        )

    features = apply_normalization(cycle, model.norm)
    n = len(cycle) - window + 1
    if mode == "teacher":
        # float32 windows run the model in float32, the precision it is stored in
        preds = _predictions(model, n, _window_cutter(features.astype(np.float32), window))
    else:
        lo, hi = model.norm.bounds("soc")

        def feed_back(step: int, pred: float) -> None:
            # past SOC after the first window is the fed-back prediction, never the label
            if not math.isfinite(pred):
                raise ValueError(
                    f"closed-loop prediction diverged to {pred} at step {step} "
                    f"(t={cycle.time_s[step + window - 1]:g} s) of cycle {cycle.name!r}")
            features[3, step + window - 1] = (pred - lo) / (hi - lo)

        # float64: a float32 rounding error would compound through the feedback
        preds = _predictions(model, n, _window_cutter(features, window), feed_back)

    truth = cycle.soc[window - 1:]
    trace = PredictionTrace(cycle.time_s[window - 1:].copy(), truth.copy(), preds)
    return compute_metrics(preds, truth), trace


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
