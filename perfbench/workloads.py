"""The three workloads: their set-up, the timed operation, and its checks.

Each workload class builds everything from the workload seed in its
constructor (that is the set-up the benchmark times), then offers:

- ``run()``: one timed operation, returning (windows processed, output)
- ``fingerprint(output)``: the scalars compared with the stored references
- ``check(output)``: oracle checks that hold for any seed
- ``model`` and ``windows``: the model and the telemetry windows that the
  single-window ``predict`` calls of every round use

Every call into the package goes through a module attribute (``tm.predict``,
not a name imported here), so the tracer's rebinding reaches it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import tcnsoc.data as td
import tcnsoc.model as tm
import tcnsoc.modelio as tio
import tcnsoc.simulate as ts
import tcnsoc.training as tt

import oracle

DT = 0.1
FLEET_KINDS = ("highway", "aggressive", "urban")


def _sub_seed(seed: int, index: int) -> int:
    return seed * 16 + index


def _cycle(kind: str, samples: int, seed: int, initial_soc: float = 0.95):
    profile = ts.generate_profile(kind, samples * DT, DT, seed)
    return ts.simulate_ecm(profile, ts.EcmConfig(), td.DEFAULT_CELL, initial_soc, DT,
                           name=f"{kind}-{seed}")


def _finite(*arrays) -> list[str]:
    return [] if all(np.all(np.isfinite(a)) for a in arrays) else ["non-finite output"]


def _calibrated_model(seed: int, stacks: int, window: int, workdir: Path):
    """A seeded model whose output scale is fitted, then loaded from its TCN1 file.

    The weights are the seeded initialization. Only the head is rescaled:
    one least-squares line maps its raw output onto the SOC of windows
    from three full-discharge fleet cycles, whose ranges also give the
    normalization. Without it the untrained output sits far outside
    [0, 1] and a closed loop diverges.
    """
    fleet = [_cycle(kind, 36000, _sub_seed(seed, 8 + i)) for i, kind in enumerate(FLEET_KINDS)]
    norm = td.fit_normalization(fleet)
    model = tm.build_model(tm.TcnConfig(stacks=stacks, input_window=window), seed=seed)
    model.norm = norm
    parts = [td.make_windows(c, norm, window, stride=(len(c) - window) // 5) for c in fleet]
    x = np.concatenate([p.x for p in parts])
    y = np.concatenate([p.y for p in parts])
    raw = tm.forward(model, x)[:, -1]
    var = float(np.var(raw))
    scale = float(np.mean((raw - raw.mean()) * (y - y.mean()))) / var if var > 0 else 0.0
    model.head_weights *= scale
    model.head_bias *= scale
    model.head_bias += float(y.mean()) - scale * float(raw.mean())
    path = workdir / f"s{stacks}-w{window}-seed{seed}.tcn"
    tio.serialize(model, path)
    return tio.deserialize(path)


class Train:
    """Mini-batch Adam at the criterion-7 shape: S=2, W=100, F=8, k=8, batch 32."""

    name = "train"
    why = ("criterion-7 training (S=2 W=100 F=8, batch 32, dropout on): the only "
           "workload with conv backward, dropout masks, RNG draws and Adam")
    throughput = "train_windows_per_s"
    quality = "val_mse"
    predicts_per_round = 16
    epochs = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        cycles = [_cycle(kind, 2150, _sub_seed(seed, i)) for i, kind in enumerate(FLEET_KINDS)]
        norm = td.fit_normalization(cycles)
        self.dataset = td.build_hybrid(cycles, norm, 100, stride=20, seed=seed)
        self.config = tm.TcnConfig(stacks=2, input_window=100, kernel_size=8, filters=8)
        self.train_config = tt.TrainConfig(learning_rate=1e-3, batch_size=32,
                                           epochs=self.epochs, validation_fraction=0.1,
                                           seed=seed, early_stop_patience=0)
        n = len(self.dataset)
        self.train_windows = self.epochs * (n - int(round(n * 0.1)))
        self.windows = self.dataset.x[:self.predicts_per_round]
        self.model = tm.build_model(self.config, seed=seed)

    def run(self):
        self.model = tm.build_model(self.config, seed=self.seed)
        _, history = tt.train(self.model, self.dataset, self.train_config)
        return self.train_windows, history

    def fingerprint(self, history) -> dict:
        return {"val_mse": history[-1].val_mse,
                "history": [[h.train_mse, h.val_mse] for h in history]}

    def check(self, history) -> list[str]:
        problems = _finite([[h.train_mse, h.val_mse] for h in history])
        if [h.epoch for h in history] != list(range(self.epochs)):
            problems.append(f"history has epochs {[h.epoch for h in history]}")
        return problems


class _Evaluating:
    """Shared checks for the workloads whose operation is ``evaluate``."""

    mode = "teacher"

    def run(self):
        metrics, trace = tt.evaluate(self.model, self.cycle, mode=self.mode)
        return metrics.n, (metrics, trace)

    def fingerprint(self, output) -> dict:
        return {self.quality: output[0].mae}

    def check(self, output) -> list[str]:
        metrics, trace = output
        problems = _finite(trace.soc_pred, metrics.mae)
        window = self.model.config.input_window
        if not np.array_equal(trace.soc_true, self.cycle.soc[window - 1:]):
            problems.append("trace truth is not the cycle's SOC from the first full window on")
        if not oracle.close(metrics.mae, oracle.mae(trace.soc_pred, trace.soc_true)):
            problems.append(f"mae {metrics.mae!r} does not match its trace")
        features = oracle.normalized(self.cycle, self.model.norm)
        past_soc = features[3].copy()
        lo, hi = self.model.norm.soc_min, self.model.norm.soc_max
        if self.mode == "closed-loop":
            past_soc[window - 1:-1] = (trace.soc_pred[:-1] - lo) / (hi - lo)
        steps = sorted({0, metrics.n // 2, metrics.n - 1})
        x = np.concatenate([oracle.window_at(features, past_soc, s, window) for s in steps])
        expected = oracle.forward_last(self.model, x)
        for step, want in zip(steps, expected):
            if not abs(trace.soc_pred[step] - want) <= oracle.ABS_TOL:
                problems.append(f"{self.mode} prediction at step {step}: "
                                f"{trace.soc_pred[step]!r} != oracle {want!r}")
        return problems


class EvalDeep(_Evaluating):
    """Teacher-forced bulk evaluation of a seeded S=8, W=500 model."""

    name = "eval-deep"
    why = ("teacher-forced evaluate of a loaded S=8 W=500 model over 256 windows: "
           "conv forward at batch 256x500 plus make_windows; no backward, Adam or dropout")
    throughput = "eval_windows_per_s"
    quality = "eval_mae"
    predicts_per_round = 16

    def __init__(self, seed: int, workdir: Path):
        self.model = _calibrated_model(seed, 8, 500, workdir)
        self.cycle = _cycle("mixed", 499 + 256, _sub_seed(seed, 4), initial_soc=0.9)
        self.windows = td.make_windows(self.cycle, self.model.norm, 500, stride=16).x


class Stream(_Evaluating):
    """Single-window calls at the paper's S=20, W=500, then a short closed loop."""

    name = "stream"
    why = ("one caller in a closed loop at the paper's S=20 W=500: predict on one "
           "window per call, then closed-loop evaluate; per-call overhead dominates")
    throughput = "closed_loop_steps_per_s"
    quality = "closed_loop_mae"
    mode = "closed-loop"
    predicts_per_round = 32

    def __init__(self, seed: int, workdir: Path):
        self.model = _calibrated_model(seed, 20, 500, workdir)
        self.cycle = _cycle("mixed", 499 + 32, _sub_seed(seed, 4), initial_soc=0.9)
        self.windows = td.make_windows(self.cycle, self.model.norm, 500, stride=1).x


WORKLOADS = {w.name: w for w in (Train, EvalDeep, Stream)}
