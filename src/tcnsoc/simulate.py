"""Synthetic drive-cycle data: a first-order equivalent-circuit battery model
and four seeded current-profile families.

The cell model is an OCV source behind a series resistance R0 and one RC
relaxation pair (R1, C1). The current profile is treated as zero-order hold:
sample i is the current applied from t_i onward, so the state (SOC, RC
voltage, temperature) at t_i has responded only to currents before t_i while
the ohmic drop at t_i uses the present current. That makes the rectangle SOC
integral exact for the held signal and keeps the terminal-voltage jump at a
current step exactly I*R0.

Per step (a = exp(-dt/(R1*C1)), aT = exp(-dt/cooling_tau)):

    soc[i]  = soc[i-1] - I[i-1]*dt / Q_rated
    v1[i]   = a*v1[i-1] + (1-a)*R1*I[i-1]
    T[i]    = ambient + aT*(T[i-1]-ambient) + heat_coeff*R0*I[i-1]^2*dt
    volt[i] = OCV(soc[i]) - I[i]*R0 - v1[i]

v1 and T - ambient run as a doubling scan (ceil(log2 n) array passes), within
rounding of the sequential loop: below 1e-13 of their largest magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import BatterySpec, DriveCycle, check_initial_soc
from .rng import SplitMix64

PROFILE_KINDS = ["highway", "aggressive", "urban", "mixed"]

# 2C for the default 2.9 Ah cell
PEAK_CURRENT_A = 5.8

# Discharge-rate targets; highway cruises hardest, urban idles most.
_TARGET_MEAN_A = {
    "highway": 2.45,
    "mixed": 2.30,
    "aggressive": 2.15,
    "urban": 1.95,
}

# (lo, hi) draw ranges of the stop-go kinds' segment lengths (s) and currents
# (A), and the gain of each cruise's wobble
_STOP_GO = {
    "urban": dict(idle_s=(8.0, 25.0), accel_s=(6.0, 12.0), peak_a=(3.2, 5.0),
                  cruise_s=(15.0, 45.0), cruise_a=(1.4, 2.4), regen_s=(4.0, 9.0),
                  regen_a=(-3.2, -1.8), wobble=0.5),
    "aggressive": dict(idle_s=(2.0, 8.0), accel_s=(4.0, 9.0), peak_a=(4.6, 5.7),
                       cruise_s=(8.0, 25.0), cruise_a=(2.0, 3.4), regen_s=(4.0, 8.0),
                       regen_a=(-4.5, -2.5), wobble=0.9),
}
# (lo, hi) of a highway exit-ramp dip and of the gap after it, in s
_DIP_S, _GAP_S = (10.0, 18.0), (220.0, 420.0)

# each kind's longest minimum segment (s): at a dt up to it every loop iteration
# of its builder advances, so the profile ends
_MAX_DT = {kind: max(p[name][0] for name in ("idle_s", "accel_s", "cruise_s", "regen_s"))
           for kind, p in _STOP_GO.items()}
_MAX_DT["highway"] = max(_DIP_S[0], _GAP_S[0])
_MAX_DT["mixed"] = min(_MAX_DT.values())


@dataclass
class EcmConfig:
    """Equivalent-circuit constants and the OCV-SOC table."""

    r0: float = 0.030
    r1: float = 0.015
    c1: float = 2400.0
    ocv_soc: np.ndarray = field(default_factory=lambda: np.linspace(0.0, 1.0, 11))
    # NCA-shaped: steep knees at both ends, flat-ish middle around 3.6 V
    ocv_volts: np.ndarray = field(default_factory=lambda: np.array(
        [3.00, 3.30, 3.43, 3.49, 3.53, 3.59, 3.65, 3.74, 3.84, 3.98, 4.20]))
    ambient_c: float = 25.0
    heat_coeff: float = 0.12  # kelvin per joule of I^2*R0 heat
    cooling_tau_s: float = 200.0

    def __post_init__(self):
        self.ocv_soc = np.asarray(self.ocv_soc, dtype=np.float64)
        self.ocv_volts = np.asarray(self.ocv_volts, dtype=np.float64)
        for name in ("r0", "r1", "c1", "cooling_tau_s"):
            _check_positive(name, getattr(self, name))
        for name in ("ambient_c", "heat_coeff", "ocv_soc", "ocv_volts"):
            try:
                finite = np.isfinite(getattr(self, name)).all()
            except TypeError:  # a str or None is no number
                finite = False
            if not finite:
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.ocv_soc.shape != self.ocv_volts.shape or self.ocv_soc.ndim != 1:
            raise ValueError("ocv_soc and ocv_volts must be 1-D and equal length")
        if np.any(np.diff(self.ocv_soc) <= 0) or np.any(np.diff(self.ocv_volts) <= 0):
            raise ValueError("OCV table must be strictly increasing in SOC and volts")

    def ocv(self, soc) -> np.ndarray:
        return np.interp(soc, self.ocv_soc, self.ocv_volts)


def _check_positive(name: str, value: float) -> None:
    """Refuses a time span or circuit constant that is not a finite number > 0."""
    try:
        if not isinstance(value, (bool, np.bool_)) and 0 < value < math.inf:  # refuses NaN too
            return
    except TypeError:  # a str or None does not compare with a number
        pass
    raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


def simulate_ecm(
    profile: np.ndarray,
    ecm: EcmConfig,
    spec: BatterySpec,
    initial_soc: float,
    dt: float,
    name: str = "",
) -> DriveCycle:
    """Run the cell model over a current profile (positive = discharge).

    If the SOC trajectory would leave [0, 1] the simulation stops at the
    boundary step and the returned cycle is marked truncated.
    """
    _check_positive("dt", dt)
    check_initial_soc(initial_soc)
    current = np.asarray(profile, dtype=np.float64)
    if current.ndim != 1 or current.size == 0:
        raise ValueError(f"profile must be a non-empty 1-D array, got shape {current.shape}")
    if not np.all(np.isfinite(current)):
        raise ValueError("profile contains non-finite values")

    soc = initial_soc - np.concatenate([[0.0], np.cumsum(current[:-1])]) * dt / spec.capacity_as

    # soc[0] is the checked initial_soc, so a truncated cycle keeps n >= 1 steps
    out_of_range = np.flatnonzero((soc < 0.0) | (soc > 1.0))
    truncated = out_of_range.size > 0
    n = int(out_of_range[0]) if truncated else len(current)
    current, soc = current[:n], soc[:n]

    a = np.exp(-dt / (ecm.r1 * ecm.c1))
    v1 = _lag(a, ((1.0 - a) * ecm.r1) * current)
    a_t = np.exp(-dt / ecm.cooling_tau_s)
    heat = _lag(a_t, (ecm.heat_coeff * ecm.r0 * dt) * (current * current))

    return DriveCycle(
        time_s=np.arange(n) * dt,
        voltage_v=ecm.ocv(soc) - current * ecm.r0 - v1,
        current_a=current,
        temperature_c=ecm.ambient_c + heat,
        soc=soc,
        name=name,
        truncated=truncated,
    )


def _lag(a: float, u: np.ndarray) -> np.ndarray:
    """y[0] = 0, y[k] = a*y[k-1] + u[k-1]; pass s adds a**s (taken fresh) times y shifted by s."""
    y = np.zeros_like(u)
    y[1:] = u[:-1]
    s = 1
    while s < len(y):
        y[s:] += a ** s * y[:-s]
        s *= 2
    return y


def _sinusoid_mix(t: np.ndarray, periods, amps, phases) -> np.ndarray:
    """Sum of amp * sin(2 pi t / period + phase); a phase may be one per sample."""
    return sum(amp * np.sin(2.0 * np.pi * t / period + phase)
               for period, amp, phase in zip(periods, amps, phases))


def _interleave(*columns) -> np.ndarray:
    """Row-major flattening of equal-length columns; a scalar fills its column."""
    return np.stack(np.broadcast_arrays(*columns), 1).ravel()


def _offsets(lengths) -> np.ndarray:
    """Each sample's index within its segment, for segments of these lengths
    laid end to end."""
    local = np.arange(lengths.sum())
    local -= np.repeat(np.cumsum(lengths) - lengths, lengths)
    return local


def _ramps(lengths, from_a, to_a) -> np.ndarray:
    """np.linspace(a, b, l) of every segment, concatenated, in whole-array passes
    with linspace's arithmetic: arange * step + a, and the last sample b;
    arange / div * delta where the step is 0; arange * delta for one sample."""
    div = np.maximum(lengths - 1, 1)
    step = (to_a - from_a) / div
    flat = step == 0
    ramp = _offsets(lengths) / np.repeat(np.where(flat, div, 1), lengths)
    ramp *= np.repeat(np.where(flat, to_a - from_a, step), lengths)
    ramp += np.repeat(from_a, lengths)
    ramp[np.cumsum(lengths)[lengths > 1] - 1] = to_a[lengths > 1]
    return ramp


def _highway(n: int, dt: float, rng: SplitMix64) -> np.ndarray:
    """Sustained cruise with slow load swell and occasional exit-ramp regen. After the
    swell's four phases, each dip draws its length, its depth and the gap after it."""
    out = 2.45 + _sinusoid_mix(np.arange(n) * dt, (251.0, 89.0, 31.0, 7.3),
                               (0.45, 0.30, 0.18, 0.08), rng.uniform(0.0, 2.0 * np.pi, 4))
    first = int(120.0 / dt)  # each iteration advances at least its minimum dip and gap
    rows = max(0, -(-(n - first) // (int(_DIP_S[0] / dt) + int(_GAP_S[0] / dt))))
    dip, depth, gap = rng.uniform(*np.transpose([_DIP_S, (-2.4, -1.4), _GAP_S]), (rows, 3)).T
    dip, gap = (dip / dt).astype(np.int64), (gap / dt).astype(np.int64)
    i = first + np.cumsum(dip + gap) - dip - gap
    live = i < n
    i, dip, depth = i[live], dip[live], depth[live]
    # down from the swell over half the dip (at least one sample), up to 2.3 A over the rest
    mid = np.minimum(i + np.maximum(dip // 2, 1), n)
    end = np.maximum(np.minimum(i + dip, n), mid)
    starts = _interleave(i, mid)
    lengths = _interleave(mid, end) - starts
    out[np.repeat(starts, lengths) + _offsets(lengths)] = _ramps(
        lengths, _interleave(out[i], depth), _interleave(depth, 2.3))
    return out


def _stop_go(n: int, dt: float, rng: SplitMix64, *, idle_s, accel_s, peak_a,
             cruise_s, cruise_a, regen_s, regen_a, wobble) -> np.ndarray:
    """Idle / accelerate / cruise / regen-brake cycle with seeded durations.
    Each iteration draws its idle length, peak current, accel length, cruise
    current, cruise length, two wobble phases, brake current and regen length."""
    # each iteration advances at least its four minimum lengths
    rows = -(-n // sum(int(lo / dt) for lo, _ in (idle_s, accel_s, cruise_s, regen_s)))
    phase = (0.0, 2.0 * np.pi)
    idle, peak, accel, cruise, cruise_len, phase1, phase2, brake, regen = rng.uniform(*np.transpose(
        [idle_s, peak_a, accel_s, cruise_a, cruise_s, phase, phase, regen_a, regen_s]), (rows, 9)).T
    ends = np.minimum(np.cumsum((_interleave(idle, accel, cruise_len, regen) / dt)
                                .astype(np.int64)), n)
    lengths = np.diff(ends, prepend=0)
    # the segments tile the profile, so the ramps are the profile
    out = _ramps(lengths, _interleave(0.08, 0.3, peak, brake), _interleave(0.08, peak, cruise, -0.2))
    cruise_n = lengths[2::4]  # each row's cruise length
    wobble_a = wobble * _sinusoid_mix(_offsets(cruise_n) * dt, (11.0, 3.7), (0.6, 0.4),
                                      (np.repeat(phase1, cruise_n), np.repeat(phase2, cruise_n)))
    out[np.repeat(np.arange(lengths.size) % 4 == 2, lengths)] += wobble_a
    return out


def _mixed(n: int, dt: float, rng: SplitMix64) -> np.ndarray:
    bounds = [0, n // 3, 2 * n // 3, n]
    kinds = ("urban", "highway", "aggressive")
    return np.concatenate([_BUILDERS[kinds[k]](bounds[i + 1] - bounds[i], dt, rng.spawn())
                           for i, k in enumerate(rng.permutation(3))])


_BUILDERS = {
    "highway": _highway,
    "urban": partial(_stop_go, **_STOP_GO["urban"]),
    "aggressive": partial(_stop_go, **_STOP_GO["aggressive"]),
    "mixed": _mixed,
}


def generate_profile(kind: str, duration: float, dt: float = 0.1, seed: int = 0) -> np.ndarray:
    """Seeded synthetic current demand for one drive-cycle family.

    Every kind draws regenerative (negative-current) segments; each gets a
    sample while dt <= 4 s (urban, aggressive, mixed: the shortest regen
    segment) or 5 s (highway: half its shortest dip), and highway has none
    from dt 9 s. Highway's first dip starts at 120 s; mixed needs each third
    long enough to draw one. The profile is rescaled to the kind's target mean
    discharge rate and clipped to +-PEAK_CURRENT_A. At the default targets a
    full sweep from SOC 0.95 down to roughly 0.1 takes about 3600 s.
    """
    if kind not in _BUILDERS:
        raise ValueError(f"unknown profile kind {kind!r}; valid kinds: {PROFILE_KINDS}")
    _check_positive("duration", duration)
    _check_positive("dt", dt)
    if dt > _MAX_DT[kind]:
        raise ValueError(f"dt must be at most {_MAX_DT[kind]} s for kind {kind!r}, its "
                         f"longest minimum segment, got {dt!r}")
    n = int(round(duration / dt))
    if n < 1:
        raise ValueError(f"duration {duration} shorter than one step dt={dt}")
    raw = _BUILDERS[kind](n, dt, SplitMix64(seed))
    raw = np.clip(raw, -PEAK_CURRENT_A, PEAK_CURRENT_A)
    mean = raw.mean()
    if mean > 0.05:
        raw = raw * (_TARGET_MEAN_A[kind] / mean)
    return np.clip(raw, -PEAK_CURRENT_A, PEAK_CURRENT_A)
