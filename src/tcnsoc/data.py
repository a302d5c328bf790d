"""Drive-cycle records, CSV ingestion, SOC labeling by coulomb counting,
min-max normalization, and sliding-window dataset assembly.

CSV schema: header ``time_s,voltage_v,current_a,temperature_c,soc`` with the
``soc`` column optional, decimal point ``.``, UTF-8, newline-delimited.
Sign convention: positive current discharges the cell.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .rng import SplitMix64

CSV_COLUMNS = ["time_s", "voltage_v", "current_a", "temperature_c", "soc"]

# Input channel order used everywhere: voltage, current, temperature, past SOC.
CHANNEL_NAMES = ["voltage", "current", "temperature", "soc"]

# Accepted range of SOC labels: [0, 1] plus a margin for integration and
# sensor drift, both in loaded CSVs and in coulomb-counted labels.
SOC_LABEL_BAND = (-0.01, 1.01)


class DriveCycleRecord(NamedTuple):
    time_s: float
    voltage_v: float
    current_a: float
    temperature_c: float
    soc: float | None


@dataclass
class BatterySpec:
    """Cell ratings; defaults describe a 2.9 Ah NCA-type 18650 cell."""

    rated_capacity_ah: float = 2.9
    nominal_voltage: float = 3.6
    min_voltage: float = 2.5
    max_voltage: float = 4.2

    def __post_init__(self):
        if self.rated_capacity_ah <= 0:
            raise ValueError(f"rated_capacity_ah must be > 0, got {self.rated_capacity_ah}")
        if not self.min_voltage < self.nominal_voltage < self.max_voltage:
            raise ValueError(
                f"need min < nominal < max voltage, got "
                f"{self.min_voltage}/{self.nominal_voltage}/{self.max_voltage}"
            )

    @property
    def capacity_as(self) -> float:
        """Rated capacity in ampere-seconds."""
        return self.rated_capacity_ah * 3600.0


DEFAULT_CELL = BatterySpec()


@dataclass
class DriveCycle:
    """One telemetry cycle as parallel column arrays."""

    time_s: np.ndarray
    voltage_v: np.ndarray
    current_a: np.ndarray
    temperature_c: np.ndarray
    soc: np.ndarray | None = None
    name: str = ""
    truncated: bool = False

    def __post_init__(self):
        n = len(self.time_s)
        for label in ("voltage_v", "current_a", "temperature_c"):
            if len(getattr(self, label)) != n:
                raise ValueError(f"{label} length {len(getattr(self, label))} != {n}")
        if self.soc is not None and len(self.soc) != n:
            raise ValueError(f"soc length {len(self.soc)} != {n}")

    def __len__(self) -> int:
        return len(self.time_s)

    def records(self) -> Iterator[DriveCycleRecord]:
        for i in range(len(self)):
            yield DriveCycleRecord(
                float(self.time_s[i]),
                float(self.voltage_v[i]),
                float(self.current_a[i]),
                float(self.temperature_c[i]),
                None if self.soc is None else float(self.soc[i]),
            )


def load_csv(path) -> DriveCycle:
    """Parse one drive cycle, validating the header, finite fields, the SOC
    label band and monotone timestamps."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if header == CSV_COLUMNS:
            has_soc = True
        elif header == CSV_COLUMNS[:4]:
            has_soc = False
        else:
            raise ValueError(
                f"{path}: header {header} does not match required columns "
                f"{CSV_COLUMNS} (soc optional)"
            )
        n_cols = 5 if has_soc else 4
        rows, linenos = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n_cols:
                raise ValueError(
                    f"{path}: line {lineno}: expected {n_cols} fields, got {len(row)}"
                )
            try:
                values = [float(v) for v in row]
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: unparsable row {row!r}") from None
            for name, value in zip(CSV_COLUMNS, values):
                if not math.isfinite(value):
                    raise ValueError(f"{path}: line {lineno}: {name} is not finite ({value})")
            if has_soc and not SOC_LABEL_BAND[0] <= values[4] <= SOC_LABEL_BAND[1]:
                raise ValueError(
                    f"{path}: line {lineno}: soc {values[4]!r} outside "
                    f"[{SOC_LABEL_BAND[0]}, {SOC_LABEL_BAND[1]}]"
                )
            rows.append(values)
            linenos.append(lineno)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    cols = np.asarray(rows, dtype=np.float64).T
    time_s = cols[0]
    bad = np.nonzero(np.diff(time_s) <= 0.0)[0]
    if bad.size:
        raise ValueError(
            f"{path}: line {linenos[bad[0] + 1]}: time_s not strictly increasing"
        )
    return DriveCycle(
        time_s=time_s,
        voltage_v=cols[1],
        current_a=cols[2],
        temperature_c=cols[3],
        soc=cols[4] if has_soc else None,
        name=path.stem,
    )


def save_csv(cycle: DriveCycle, path) -> None:
    """Write a cycle in the documented schema. Floats use their shortest
    round-trip representation, so re-reading reproduces values exactly."""
    path = Path(path)
    has_soc = cycle.soc is not None
    columns = CSV_COLUMNS if has_soc else CSV_COLUMNS[:4]
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for i in range(len(cycle)):
            fields = [
                repr(float(cycle.time_s[i])),
                repr(float(cycle.voltage_v[i])),
                repr(float(cycle.current_a[i])),
                repr(float(cycle.temperature_c[i])),
            ]
            if has_soc:
                fields.append(repr(float(cycle.soc[i])))
            fh.write(",".join(fields) + "\n")


def coulomb_count(
    cycle: DriveCycle, spec: BatterySpec, initial_soc: float
) -> DriveCycle:
    """Label SOC by trapezoidal integration of current against rated capacity.

    soc(t) = initial_soc - (1/Q_rated) * integral of I dt; positive current
    (discharge) decreases SOC.
    """
    if not 0.0 <= initial_soc <= 1.0:
        raise ValueError(f"initial_soc must be in [0, 1], got {initial_soc}")
    current = cycle.current_a
    charge = np.concatenate(
        [[0.0], np.cumsum(0.5 * (current[1:] + current[:-1]) * np.diff(cycle.time_s))]
    )
    soc = initial_soc - charge / spec.capacity_as
    lo, hi = float(soc.min()), float(soc.max())
    if lo < SOC_LABEL_BAND[0] or hi > SOC_LABEL_BAND[1]:
        raise ValueError(
            f"coulomb counting left [{SOC_LABEL_BAND[0]}, {SOC_LABEL_BAND[1]}] "
            f"(range [{lo:.4f}, {hi:.4f}]): "
            f"inconsistent capacity or initial SOC"
        )
    return replace(cycle, soc=soc)


@dataclass
class NormalizationParams:
    """Per-feature min-max ranges fitted on training data only."""

    voltage_min: float
    voltage_max: float
    current_min: float
    current_max: float
    temperature_min: float
    temperature_max: float
    soc_min: float
    soc_max: float

    @classmethod
    def identity(cls) -> "NormalizationParams":
        return cls(0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0)

    def bounds(self, feature: str) -> tuple[float, float]:
        return getattr(self, f"{feature}_min"), getattr(self, f"{feature}_max")

    def as_dict(self) -> dict[str, float]:
        return {
            f"{name}_{end}": getattr(self, f"{name}_{end}")
            for name in CHANNEL_NAMES
            for end in ("min", "max")
        }


def fit_normalization(cycles: list[DriveCycle]) -> NormalizationParams:
    """Global per-feature extremes across the given (training) cycles."""
    if not cycles:
        raise ValueError("fit_normalization needs at least one cycle")
    values: dict[str, float] = {}
    columns = {
        "voltage": "voltage_v",
        "current": "current_a",
        "temperature": "temperature_c",
    }
    for feature in CHANNEL_NAMES:
        parts = []
        for cycle in cycles:
            col = cycle.soc if feature == "soc" else getattr(cycle, columns[feature])
            if col is None:
                raise ValueError(
                    f"cycle {cycle.name!r} has no SOC labels; run coulomb_count first"
                )
            parts.append(col)
        stacked = np.concatenate(parts)
        lo, hi = float(stacked.min()), float(stacked.max())
        if hi == lo:
            raise ValueError(f"feature {feature!r} is constant ({lo}); cannot normalize")
        values[f"{feature}_min"] = lo
        values[f"{feature}_max"] = hi
    return NormalizationParams(**values)


def apply_normalization(cycle: DriveCycle, params: NormalizationParams) -> np.ndarray:
    """Feature matrix (4, n) of (x - min)/(max - min) per channel.

    Values outside the fitted range map outside [0, 1] and are not clipped.
    """
    if cycle.soc is None:
        raise ValueError(f"cycle {cycle.name!r} has no SOC labels")
    rows = []
    for feature, col in zip(
        CHANNEL_NAMES,
        (cycle.voltage_v, cycle.current_a, cycle.temperature_c, cycle.soc),
    ):
        lo, hi = params.bounds(feature)
        rows.append((col - lo) / (hi - lo))
    return np.stack(rows)


@dataclass
class WindowedDataset:
    """Normalized sliding windows with raw-SOC targets at each window's end.

    x: (n, 4, window) with channels (voltage, current, temperature, past SOC);
    the past-SOC channel is the label shifted one step (teacher forcing).
    y: (n,) raw SOC fraction at the final step. source/start record each
    window's origin cycle and start index for provenance audits.
    """

    x: np.ndarray
    y: np.ndarray
    source: np.ndarray
    start: np.ndarray
    cycle_names: list[str]
    norm: NormalizationParams

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def window(self) -> int:
        return self.x.shape[2]


def make_windows(
    cycle: DriveCycle,
    params: NormalizationParams,
    window: int,
    stride: int = 1,
    source_tag: int = 0,
) -> WindowedDataset:
    """Slice one cycle into normalized windows starting at 0, stride, 2*stride...

    The past-SOC channel inside each window is the normalized label shifted
    one step; its first element is padded with the window's own first value.
    """
    if window < 1 or stride < 1:
        raise ValueError(f"window and stride must be >= 1, got {window}/{stride}")
    n = len(cycle)
    if n < window:
        raise ValueError(
            f"cycle {cycle.name!r} has {n} samples, shorter than window {window}"
        )
    features = apply_normalization(cycle, params)
    starts = np.arange(0, n - window + 1, stride)
    idx = starts[:, None] + np.arange(window)[None, :]

    x = np.empty((len(starts), 4, window))
    x[:, :3, :] = features[:3][:, idx].transpose(1, 0, 2)
    soc_norm = features[3]
    past_idx = idx - 1
    past_idx[:, 0] = starts  # pad first element with the window's first value
    x[:, 3, :] = soc_norm[past_idx]

    y = cycle.soc[starts + window - 1].copy()
    return WindowedDataset(
        x=x,
        y=y,
        source=np.full(len(starts), source_tag, dtype=np.int64),
        start=starts.astype(np.int64),
        cycle_names=[cycle.name or "cycle0"],
        norm=params,
    )


def build_hybrid(
    cycles: list[DriveCycle],
    params: NormalizationParams,
    window: int,
    stride: int = 1,
    seed: int = 0,
) -> WindowedDataset:
    """Concatenate per-cycle windows and shuffle deterministically.

    Windows never span cycle boundaries; each sample keeps its source tag
    and start index.
    """
    if not cycles:
        raise ValueError("build_hybrid needs at least one cycle")
    parts = [
        make_windows(c, params, window, stride, source_tag=i)
        for i, c in enumerate(cycles)
    ]
    x = np.concatenate([p.x for p in parts])
    y = np.concatenate([p.y for p in parts])
    source = np.concatenate([p.source for p in parts])
    start = np.concatenate([p.start for p in parts])
    names = [c.name or f"cycle{i}" for i, c in enumerate(cycles)]

    perm = SplitMix64(seed).permutation(len(y))
    return WindowedDataset(
        x=x[perm],
        y=y[perm],
        source=source[perm],
        start=start[perm],
        cycle_names=names,
        norm=params,
    )
