"""In-memory span tracer that wraps tcnsoc's public functions from outside.

Nothing under ``src/`` knows about it. ``install`` looks each layer up by
name and rebinds every reference to it in the loaded ``tcnsoc`` modules,
so calls made through names that ``tcnsoc.model`` or ``tcnsoc.training``
imported are traced too. Methods are patched on their class. A layer that
no longer exists is reported as absent and the run goes on. ``restore``
undoes every rebinding.

A span is ``[name, variant, start_ns, end_ns, parent, counters]``. The
variant splits one layer's figures (the conv dilation, dropout's
train/eval mode, the evaluate mode). Counters are computed from argument
shapes or results, never measured.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


def _conv_forward(x, params, *args, **kwargs):
    b, c, t = x.shape
    o, _, k = params.weights.shape
    return f"d{params.dilation}", {
        "computed_gflop": 2 * b * o * c * k * t / 1e9,
        "computed_tap_mb": 8 * b * c * k * t / 1e6,
    }


def _conv_backward(x, params, *args, **kwargs):
    b, c, t = x.shape
    o, _, k = params.weights.shape
    # weight-gradient and input-gradient contractions, 2*B*O*C*k*T each
    return f"d{params.dilation}", {"computed_gflop": 4 * b * o * c * k * t / 1e9}


def _uniform(self, low=0.0, high=1.0, size=None):
    return None, {"draws": 1 if size is None else int(np.prod(size))}


def _dropout(x, p_keep, rng, train):
    return ("train" if train else "eval"), None


def _evaluate(model, cycle, mode="teacher"):
    return mode, None


def _deserialize(source):
    return None, {"file_bytes": Path(source).stat().st_size}


@dataclass(frozen=True)
class Layer:
    """A traced function: ``module.function`` or ``module.Class.method``."""

    path: str
    describe: Callable | None = None  # (*args, **kwargs) -> (variant, counters)
    on_result: Callable | None = None  # result -> counters


LAYERS = [
    Layer("rng.SplitMix64.uniform", _uniform),
    Layer("rng.SplitMix64.permutation"),
    Layer("simulate.generate_profile"),
    Layer("simulate.simulate_ecm"),
    Layer("data.fit_normalization"),
    Layer("data.apply_normalization"),
    Layer("data.make_windows", on_result=lambda ds: {"computed_mb": ds.x.nbytes / 1e6}),
    Layer("data.build_hybrid"),
    Layer("kernels.causal_conv_forward", _conv_forward),
    Layer("kernels.causal_conv_backward", _conv_backward),
    Layer("kernels.relu"),
    Layer("kernels.relu_backward"),
    Layer("kernels.dropout", _dropout),
    Layer("kernels.dropout_backward"),
    Layer("kernels.linear_head_forward"),
    Layer("kernels.linear_head_backward"),
    Layer("kernels.mse_loss"),
    Layer("kernels.adam_step"),
    Layer("model.build_model"),
    Layer("model.forward"),
    Layer("model.forward_with_cache"),
    Layer("model.backward"),
    Layer("model.predict"),
    Layer("training.train"),
    Layer("training.evaluate", _evaluate),
    Layer("modelio.serialize", on_result=lambda n: {"file_bytes": n}),
    Layer("modelio.deserialize", _deserialize),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def open(self, name: str, variant=None, counters=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, variant, time.perf_counter_ns(), 0, parent, counters])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, layer: Layer, fn):
        def traced(*args, **kwargs):
            variant, counters = layer.describe(*args, **kwargs) if layer.describe else (None, None)
            index = self.open(layer.path, variant, counters)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if layer.on_result is not None:
                self.spans[index][5] = layer.on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, layers=LAYERS) -> None:
        """Rebind every layer by name; record the ones that are missing."""
        self.absent = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "tcnsoc" or n.startswith("tcnsoc."))]
        for layer in layers:
            module_name, _, attr = layer.path.partition(".")
            module = sys.modules.get(f"tcnsoc.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(method) if isinstance(owner, type) else None
                if not callable(original):
                    self.absent.append(layer.path)
                    continue
                setattr(owner, method, self._wrap(layer, original))
                self._restore.append((owner, method, original))
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(layer.path)
                continue
            traced = self._wrap(layer, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        self._restore.append((mod, key, original))

    def restore(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    def layer_stats(self, root: int) -> dict[str, dict[str, float]]:
        """Per-layer calls, inclusive and self seconds and counters under one span.

        Keys are the layer path and, for a layer with variants, also
        ``path.variant``. Self time is a span's duration minus that of its
        direct children.
        """
        duration = {}
        child = {}
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            name, variant, start, end, parent, counters = self.spans[i]
            if parent not in inside:
                if start > self.spans[root][3]:
                    break
                continue
            inside.add(i)
            duration[i] = (end - start) / 1e9
            child[parent] = child.get(parent, 0.0) + duration[i]
        stats: dict[str, dict[str, float]] = {}
        for i, dur in duration.items():
            name, variant, _, _, _, counters = self.spans[i]
            keys = [name] if variant is None else [name, f"{name}.{variant}"]
            for key in keys:
                entry = stats.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
                entry["calls"] += 1
                entry["s"] += dur
                entry["self_s"] += dur - child.get(i, 0.0)
                for counter, value in (counters or {}).items():
                    entry[counter] = entry.get(counter, 0) + value
        wall = (self.spans[root][3] - self.spans[root][2]) / 1e9
        top = sum(duration[i] for i in duration if self.spans[i][4] == root)
        stats["trace"] = {
            "wall_s": wall,
            "coverage_pct": 100.0 * top / wall,
            "spans": len(duration),
        }
        return stats

    def dump(self, path: Path) -> None:
        """Write every span: a name table plus one row per span."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0
        rows = [[ids[n], v, (a - t0) / 1e9, (b - t0) / 1e9, p, c]
                for n, v, a, b, p, c in self.spans]
        path.write_text(json.dumps({
            "columns": ["name", "variant", "start_s", "end_s", "parent", "counters"],
            "names": names,
            "spans": rows,
        }, separators=(",", ":")) + "\n")


def median_stats(per_unit: list[dict[str, dict[str, float]]]) -> dict[str, dict[str, float]]:
    """Median over traced units of every layer statistic (absent counts as 0)."""
    keys = sorted({k for unit in per_unit for k in unit})
    out = {}
    for key in keys:
        fields = sorted({f for unit in per_unit for f in unit.get(key, {})})
        out[key] = {f: statistics.median(unit.get(key, {}).get(f, 0) for unit in per_unit)
                    for f in fields}
    return out
