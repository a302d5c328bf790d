"""Drive cycles, CSV ingestion, SOC labeling by coulomb counting,
min-max normalization, and sliding-window dataset assembly.

CSV schema: header ``time_s,voltage_v,current_a,temperature_c,soc`` with the
``soc`` column optional, decimal point ``.``, UTF-8, newline-delimited.
Sign convention: positive current discharges the cell.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .rng import SplitMix64

CSV_COLUMNS = ["time_s", "voltage_v", "current_a", "temperature_c", "soc"]

# Input channel order used everywhere: voltage, current, temperature, past
# SOC, each with the DriveCycle column it is read from.
_CHANNEL_COLUMNS = {"voltage": "voltage_v", "current": "current_a",
                    "temperature": "temperature_c", "soc": "soc"}
CHANNEL_NAMES = list(_CHANNEL_COLUMNS)

# Accepted range of SOC labels: [0, 1] plus a margin for integration and
# sensor drift, both in loaded CSVs and in coulomb-counted labels.
SOC_LABEL_BAND = (-0.01, 1.01)
_FLOAT_MAX = sys.float_info.max  # every finite float lies within +-_FLOAT_MAX


def check_int(name: str, value, low: int | None = None) -> None:
    """The rule of every integer setting: an ``int`` (a bool is one, but not a
    count; a numpy integer is not one), and at least ``low`` when given."""
    if isinstance(value, bool) or not isinstance(value, int) or (low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def is_real(value) -> bool:
    """The rule of real settings: a finite int or float, but not a bool, nor
    a numpy scalar, whose repr (``np.float64(0.9)``) no TCN1 reader parses."""
    return type(value) in (int, float) and math.isfinite(value)


def check_initial_soc(initial_soc: float) -> None:
    """Refuses a starting charge fraction outside [0, 1], NaN and bools
    included, and a value that is no number (a str, shown quoted, or None)."""
    try:
        if not isinstance(initial_soc, (bool, np.bool_)) and 0.0 <= initial_soc <= 1.0:
            return
    except TypeError:  # it does not compare with a number
        initial_soc = repr(initial_soc)
    raise ValueError(f"initial_soc must be in [0, 1], got {initial_soc}")


def check_labeled(cycle: DriveCycle) -> None:
    """Refuses a cycle without SOC labels."""
    if cycle.soc is None:
        raise ValueError(f"cycle {cycle.name!r} has no SOC labels; run coulomb_count first")


@dataclass
class BatterySpec:
    """Cell rating; the default describes a 2.9 Ah NCA-type 18650 cell."""

    rated_capacity_ah: float = 2.9

    def __post_init__(self):
        if not is_real(self.rated_capacity_ah) or self.rated_capacity_ah <= 0:
            raise ValueError(f"rated_capacity_ah must be a finite number > 0, "
                             f"got {self.rated_capacity_ah!r}")

    @property
    def capacity_as(self) -> float:
        """Rated capacity in ampere-seconds."""
        return self.rated_capacity_ah * 3600.0


DEFAULT_CELL = BatterySpec()


class _SampleError(ValueError):
    """DriveCycle's refusal of the sample at ``index``, for a caller to say where it is."""

    index: int


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
        """Rejects unequal column lengths, then names the earliest sample with a value
        not finite, a SOC label outside SOC_LABEL_BAND or a time_s not above the one
        before; at one sample, its first bad column in CSV order, then its time order."""
        faults = []  # (sample, column, why) where each rule first breaks
        for label in CSV_COLUMNS:
            values = getattr(self, label)
            if values is None:
                continue
            if len(values) != len(self.time_s):
                raise ValueError(f"{label} length {len(values)} != {len(self.time_s)}")
            lo, hi = SOC_LABEL_BAND if label == "soc" else (-_FLOAT_MAX, _FLOAT_MAX)
            if len(values) and not lo <= values.min() <= values.max() <= hi:  # NaN fails too
                i = int(np.flatnonzero(~((values >= lo) & (values <= hi)))[0])
                faults.append((i, label, "not finite" if not math.isfinite(values[i])
                               else f"outside [{lo}, {hi}]"))
        back = np.flatnonzero(np.diff(self.time_s) <= 0.0)  # a NaN time is in no order
        if back.size:
            i = int(back[0])  # the sample before the first step back
            faults.append((i + 1, "time_s", f"not after time_s[{i}] = {float(self.time_s[i])!r}"))
        if faults:  # the earliest sample; at a tie, the rule checked first
            i, label, why = min(faults, key=lambda fault: fault[0])
            error = _SampleError(
                f"cycle {self.name!r}: {label}[{i}] = {float(getattr(self, label)[i])!r} "
                f"at time_s {float(self.time_s[i])!r} is {why}")
            error.index = i
            raise error

    def __len__(self) -> int:
        return len(self.time_s)


def load_csv(path) -> DriveCycle:
    """Parse one drive cycle, checking the header, each row's field count and
    numbers; a sample that DriveCycle refuses is named by its file line."""
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
                rows.append([float(v) for v in row])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: unparsable row {row!r}") from None
            linenos.append(lineno)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    cols = np.asarray(rows, dtype=np.float64).T
    try:
        return DriveCycle(*cols[:4], soc=cols[4] if has_soc else None, name=path.stem)
    except _SampleError as exc:
        raise ValueError(f"{path}: line {linenos[exc.index]}: {exc}") from None


def write_csv(path, columns, rows) -> None:
    """Write a header and rows as UTF-8 CSV with ``\\n`` line ends: the one format
    of every table the package writes. A Python float prints as its shortest
    round-trip repr; numpy values must come as Python scalars (``.tolist()``)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def save_csv(cycle: DriveCycle, path) -> None:
    """Write a cycle in the documented schema, exactly re-readable."""
    columns = CSV_COLUMNS if cycle.soc is not None else CSV_COLUMNS[:4]
    write_csv(path, columns,
              np.column_stack([getattr(cycle, c) for c in columns]).astype(float).tolist())


def coulomb_count(
    cycle: DriveCycle, spec: BatterySpec, initial_soc: float
) -> DriveCycle:
    """Label SOC by trapezoidal integration of current against rated capacity.

    soc(t) = initial_soc - (1/Q_rated) * integral of I dt; positive current
    (discharge) decreases SOC.
    """
    check_initial_soc(initial_soc)
    current = cycle.current_a
    charge = np.concatenate(
        [[0.0], np.cumsum(0.5 * (current[1:] + current[:-1]) * np.diff(cycle.time_s))]
    )
    try:
        return replace(cycle, soc=initial_soc - charge / spec.capacity_as)
    except _SampleError as exc:
        raise ValueError(f"coulomb counting: {exc}: inconsistent capacity or initial SOC") from None


@dataclass(frozen=True)
class NormalizationParams:
    """Per-feature min-max ranges fitted on training data only. Checked when
    built, however built, and frozen: every bound a finite int or float (not a
    bool, a string or a numpy scalar), SOC ones in SOC_LABEL_BAND, max > min."""

    voltage_min: float
    voltage_max: float
    current_min: float
    current_max: float
    temperature_min: float
    temperature_max: float
    soc_min: float
    soc_max: float

    def __post_init__(self):
        for key, value in self.as_dict().items():
            if not is_real(value):  # only a float can be a non-finite real
                why = "is not finite" if type(value) is float else "is not an int or float"
                raise ValueError(f"normalization bound {key}={value!r} {why}")
        for key in ("soc_min", "soc_max"):  # fitted bounds always are: labels are band-checked
            if not SOC_LABEL_BAND[0] <= getattr(self, key) <= SOC_LABEL_BAND[1]:
                raise ValueError(f"normalization bound {key}={getattr(self, key)!r} is "
                                 f"outside the SOC label band {list(SOC_LABEL_BAND)}")
        for name in CHANNEL_NAMES:
            lo, hi = self.bounds(name)
            if not lo < hi:
                raise ValueError(f"normalization bound {name}_max={hi!r} "
                                 f"is not above {name}_min={lo!r}")

    def bounds(self, feature: str) -> tuple[float, float]:
        return getattr(self, f"{feature}_min"), getattr(self, f"{feature}_max")

    def scale(self, feature: str, values):
        """(values - min) / (max - min) for a float or an array, the same IEEE
        operations on either, so a scaled float equals its array element."""
        lo, hi = self.bounds(feature)
        return (values - lo) / (hi - lo)

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def fit_normalization(cycles: list[DriveCycle]) -> NormalizationParams:
    """Global per-feature extremes across the given (training) cycles."""
    if not cycles:
        raise ValueError("fit_normalization needs at least one cycle")
    for cycle in cycles:
        check_labeled(cycle)
    values: dict[str, float] = {}
    for feature, column in _CHANNEL_COLUMNS.items():
        values[f"{feature}_min"] = float(np.min([getattr(c, column).min() for c in cycles]))
        values[f"{feature}_max"] = float(np.max([getattr(c, column).max() for c in cycles]))
    return NormalizationParams(**values)


def apply_normalization(cycle: DriveCycle, params: NormalizationParams) -> np.ndarray:
    """Feature matrix (4, n) of (x - min)/(max - min) per channel.

    Values outside the fitted range map outside [0, 1] and are not clipped.
    """
    check_labeled(cycle)
    features = np.empty((len(CHANNEL_NAMES), len(cycle)))
    for row, (feature, column) in zip(features, _CHANNEL_COLUMNS.items()):
        row[:] = params.scale(feature, getattr(cycle, column))
    return features


def _window_starts(cycle: DriveCycle, window: int, stride: int) -> np.ndarray:
    """Start index of every window ``make_windows`` indexes in the cycle."""
    check_int("window", window, 1)
    check_int("stride", stride, 1)
    n = len(cycle)
    if n < window:
        raise ValueError(
            f"cycle {cycle.name!r} has {n} samples, shorter than window {window}"
        )
    return np.arange(0, n - window + 1, stride, dtype=np.int64)


def cycle_names(cycles: list[DriveCycle]) -> list[str]:
    """Each cycle's name, or ``cycle<i>`` by its place in ``cycles``."""
    return [c.name or f"cycle{i}" for i, c in enumerate(cycles)]


@dataclass
class WindowedDataset:
    """Sliding windows over labeled cycles, cut and normalized when read.

    Row i is the window of ``window`` samples from ``start[i]`` of
    ``cycles[source[i]]``, and ``y[i]`` the raw SOC fraction at its final
    step. The cycles are the caller's, held by reference and not copied: a
    cycle must not change while a dataset built from it is in use.
    """

    cycles: list[DriveCycle]
    norm: NormalizationParams
    window: int
    y: np.ndarray
    source: np.ndarray
    start: np.ndarray

    def __len__(self) -> int:
        return len(self.y)

    def windows(self, rows) -> np.ndarray:
        """The windows of the index array ``rows``, in its order, as a fresh
        (len(rows), 4, window) float64 array: each channel ``norm.scale``d from
        its column, past SOC the label shifted one step, its first element
        padded with the window's own first label. The cycles are read when the
        rows are cut, so a label written before a cut shows in it."""
        source, start = self.source[rows], self.start[rows]
        x = np.empty((len(start), len(CHANNEL_NAMES), self.window))
        taps = np.arange(self.window)
        past = np.maximum(taps - 1, 0)
        for i, cycle in enumerate(self.cycles):
            mine = np.flatnonzero(source == i)
            at, before = start[mine, None] + taps, start[mine, None] + past
            for channel, (feature, column) in enumerate(_CHANNEL_COLUMNS.items()):
                samples = before if feature == "soc" else at
                x[mine, channel] = self.norm.scale(feature, getattr(cycle, column)[samples])
        return x

    @property
    def x(self) -> np.ndarray:
        """Every window, cut afresh on each read: 32 * window bytes a row."""
        return self.windows(np.arange(len(self)))


def make_windows(
    cycle: DriveCycle,
    params: NormalizationParams,
    window: int,
    stride: int = 1,
) -> WindowedDataset:
    """Index one cycle's windows, starting at 0, stride, 2*stride..."""
    starts = _window_starts(cycle, window, stride)
    check_labeled(cycle)
    return WindowedDataset([cycle], params, window, y=cycle.soc[starts + window - 1],
                           source=np.zeros(len(starts), dtype=np.int64), start=starts)


def build_hybrid(
    cycles: list[DriveCycle],
    params: NormalizationParams,
    window: int,
    stride: int = 1,
    seed: int = 0,
) -> WindowedDataset:
    """Index every cycle's windows and shuffle them deterministically.

    Windows never span cycle boundaries; each keeps its source tag and
    start index.
    """
    if not cycles:
        raise ValueError("build_hybrid needs at least one cycle")
    parts = [make_windows(cycle, params, window, stride) for cycle in cycles]
    counts = [len(part) for part in parts]
    perm = SplitMix64(seed).permutation(sum(counts))
    return WindowedDataset(list(cycles), params, window,
                           y=np.concatenate([part.y for part in parts])[perm],
                           source=np.repeat(np.arange(len(parts)), counts)[perm],
                           start=np.concatenate([part.start for part in parts])[perm])
