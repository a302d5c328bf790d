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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.ocv_soc.shape != self.ocv_volts.shape or self.ocv_soc.ndim != 1:
            raise ValueError("ocv_soc and ocv_volts must be 1-D and equal length")
        if np.any(np.diff(self.ocv_soc) <= 0) or np.any(np.diff(self.ocv_volts) <= 0):
            raise ValueError("OCV table must be strictly increasing in SOC and volts")

    def ocv(self, soc) -> np.ndarray:
        return np.interp(soc, self.ocv_soc, self.ocv_volts)


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
    if not 0 < dt < math.inf:  # refuses NaN too
        raise ValueError(f"dt must be a finite number > 0, got {dt!r}")
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


def _sinusoid_mix(n: int, dt: float, rng: SplitMix64, periods, amps) -> np.ndarray:
    t = np.arange(n) * dt
    out = np.zeros(n)
    for period, amp in zip(periods, amps):
        out += amp * np.sin(2.0 * np.pi * t / period + rng.uniform(0.0, 2.0 * np.pi))
    return out


def _ramp_into(out: np.ndarray, start: int, length: int, from_a: float, to_a: float) -> int:
    """Write a linear ramp segment, clipped to the array end; returns next index."""
    end = min(start + length, len(out))
    if end > start:
        out[start:end] = np.linspace(from_a, to_a, end - start)
    return end

def _highway(n: int, dt: float, rng: SplitMix64) -> np.ndarray:
    """Sustained cruise with slow load swell and occasional exit-ramp regen."""
    out = 2.45 + _sinusoid_mix(n, dt, rng, (251.0, 89.0, 31.0, 7.3),
                               (0.45, 0.30, 0.18, 0.08))
    i = int(120.0 / dt)
    while i < n:
        dip_len = int(rng.uniform(10.0, 18.0) / dt)
        depth = rng.uniform(-2.4, -1.4)
        half = max(dip_len // 2, 1)
        j = _ramp_into(out, i, half, out[i], depth)
        j = _ramp_into(out, j, dip_len - half, depth, 2.3)
        i = j + int(rng.uniform(220.0, 420.0) / dt)
    return out


def _stop_go(n: int, dt: float, rng: SplitMix64, *, idle_s, accel_s, peak_a,
             cruise_s, cruise_a, regen_s, regen_a, wobble) -> np.ndarray:
    """Idle / accelerate / cruise / regen-brake cycle with seeded durations."""
    out = np.zeros(n)
    i = 0
    while i < n:
        i = _ramp_into(out, i, int(rng.uniform(*idle_s) / dt), 0.08, 0.08)
        peak = rng.uniform(*peak_a)
        i = _ramp_into(out, i, int(rng.uniform(*accel_s) / dt), 0.3, peak)
        cruise = rng.uniform(*cruise_a)
        j = _ramp_into(out, i, int(rng.uniform(*cruise_s) / dt), peak, cruise)
        if j > i:
            out[i:j] += wobble * _sinusoid_mix(j - i, dt, rng, (11.0, 3.7), (0.6, 0.4))
        i = j
        brake = rng.uniform(*regen_a)
        i = _ramp_into(out, i, int(rng.uniform(*regen_s) / dt), brake, -0.2)
    return out


def _urban(n: int, dt: float, rng: SplitMix64) -> np.ndarray:
    return _stop_go(
        n, dt, rng,
        idle_s=(8.0, 25.0), accel_s=(6.0, 12.0), peak_a=(3.2, 5.0),
        cruise_s=(15.0, 45.0), cruise_a=(1.4, 2.4), regen_s=(4.0, 9.0),
        regen_a=(-3.2, -1.8), wobble=0.5,
    )


def _aggressive(n: int, dt: float, rng: SplitMix64) -> np.ndarray:
    return _stop_go(
        n, dt, rng,
        idle_s=(2.0, 8.0), accel_s=(4.0, 9.0), peak_a=(4.6, 5.7),
        cruise_s=(8.0, 25.0), cruise_a=(2.0, 3.4), regen_s=(4.0, 8.0),
        regen_a=(-4.5, -2.5), wobble=0.9,
    )


def _mixed(n: int, dt: float, rng: SplitMix64) -> np.ndarray:
    builders = [_urban, _highway, _aggressive]
    order = rng.permutation(3)
    bounds = [0, n // 3, 2 * n // 3, n]
    parts = []
    for k in range(3):
        length = bounds[k + 1] - bounds[k]
        parts.append(builders[order[k]](length, dt, rng.spawn()))
    return np.concatenate(parts)


_BUILDERS = {
    "highway": _highway,
    "urban": _urban,
    "aggressive": _aggressive,
    "mixed": _mixed,
}


def generate_profile(kind: str, duration: float, dt: float = 0.1, seed: int = 0) -> np.ndarray:
    """Seeded synthetic current demand for one drive-cycle family.

    All kinds include regenerative (negative-current) segments; the profile
    is rescaled to the kind's target mean discharge rate and clipped to
    +-PEAK_CURRENT_A. At the default targets a full sweep from SOC 0.95 down
    to roughly 0.1 takes about 3600 s.
    """
    if kind not in _BUILDERS:
        raise ValueError(f"unknown profile kind {kind!r}; valid kinds: {PROFILE_KINDS}")
    if not 0 < duration < math.inf:  # refuses NaN too
        raise ValueError(f"duration must be a finite number > 0, got {duration!r}")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be a finite number > 0, got {dt!r}")
    n = int(round(duration / dt))
    if n < 1:
        raise ValueError(f"duration {duration} shorter than one step dt={dt}")
    raw = _BUILDERS[kind](n, dt, SplitMix64(seed))
    raw = np.clip(raw, -PEAK_CURRENT_A, PEAK_CURRENT_A)
    mean = raw.mean()
    if mean > 0.05:
        raw = raw * (_TARGET_MEAN_A[kind] / mean)
    return np.clip(raw, -PEAK_CURRENT_A, PEAK_CURRENT_A)
