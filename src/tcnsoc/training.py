"""Mini-batch training on windowed datasets and sliding-window evaluation.

Training is shuffled mini-batch Adam on the MSE of the final-step
prediction, deterministic for a given seed under single-threaded execution.
Evaluation slides the model across a labeled cycle at stride 1, either
teacher-forced (true past SOC in the input) or closed-loop (predictions fed
back after the first window).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DriveCycle, WindowedDataset, apply_normalization
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


def _batched_predictions(model: TcnModel, x: np.ndarray) -> np.ndarray:
    preds = []
    for i in range(0, x.shape[0], EVAL_BATCH):
        preds.append(forward(model, x[i:i + EVAL_BATCH])[:, -1])
    return np.concatenate(preds)


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
    x_train, y_train = dataset.x[train_idx], dataset.y[train_idx]
    x_val, y_val = dataset.x[val_idx], dataset.y[val_idx]

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
            batch = order[i:i + config.batch_size]
            xb, yb = x_train[batch], y_train[batch]
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
            val_mse = float(np.mean((_batched_predictions(model, x_val) - y_val) ** 2))
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


def _teacher_forced_predictions(model: TcnModel, cycle: DriveCycle) -> np.ndarray:
    from .data import make_windows

    windows = make_windows(cycle, model.norm, model.config.input_window, stride=1)
    return _batched_predictions(model, windows.x)


def _closed_loop_predictions(model: TcnModel, cycle: DriveCycle) -> np.ndarray:
    """Sequential prediction feeding estimates back into the past-SOC channel.

    Ground-truth SOC is read only inside the first window; every later
    past-SOC value is a normalized fed-back prediction. A non-finite
    prediction raises ValueError before it is fed back.
    """
    norm = model.norm
    window = model.config.input_window
    features = apply_normalization(cycle, norm)
    n = features.shape[1]
    lo, hi = norm.bounds("soc")

    soc_feedback = features[3].copy()  # overwritten with predictions from index L-1 on
    preds = np.empty(n - window + 1)
    buf = np.empty((1, 4, window))
    for w, s in enumerate(range(0, n - window + 1)):
        e = s + window
        buf[0, :3, :] = features[:3, s:e]
        buf[0, 3, 0] = soc_feedback[s]
        buf[0, 3, 1:] = soc_feedback[s:e - 1]
        pred = float(forward(model, buf)[0, -1])
        if not math.isfinite(pred):
            raise ValueError(f"closed-loop prediction diverged to {pred} at step {w} "
                             f"(t={cycle.time_s[e - 1]:g} s) of cycle {cycle.name!r}")
        preds[w] = pred
        soc_feedback[e - 1] = (pred - lo) / (hi - lo)
    return preds


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

    if mode == "teacher":
        preds = _teacher_forced_predictions(model, cycle)
    else:
        preds = _closed_loop_predictions(model, cycle)

    truth = cycle.soc[window - 1:]
    trace = PredictionTrace(cycle.time_s[window - 1:].copy(), truth.copy(), preds)
    return compute_metrics(preds, truth), trace


def compute_metrics(pred: np.ndarray, truth: np.ndarray) -> EvalMetrics:
    err = pred - truth
    mae = float(np.mean(np.abs(err)))
    return EvalMetrics(
        mse=float(np.mean(err * err)),
        mae=mae,
        accuracy_percent=100.0 - 100.0 * mae,
        max_error=float(np.max(np.abs(err))),
        out_of_range=int(np.count_nonzero((pred < 0.0) | (pred > 1.0))),
        n=len(pred),
    )
