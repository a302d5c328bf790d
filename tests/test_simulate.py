"""Tests for the equivalent-circuit cell simulator and profile generators."""

import hashlib
import re
import subprocess
import sys

import numpy as np
import pytest
from helpers import lag_oracle

from tcnsoc.data import DEFAULT_CELL
from tcnsoc.simulate import (
    PEAK_CURRENT_A,
    PROFILE_KINDS,
    EcmConfig,
    generate_profile,
    simulate_ecm,
)

Q_AS = DEFAULT_CELL.capacity_as


# ---------------------------------------------------------------- circuit


def test_rest_equilibrium():
    ecm = EcmConfig()
    cycle = simulate_ecm(np.zeros(500), ecm, DEFAULT_CELL, initial_soc=0.7, dt=0.1)
    assert np.all(cycle.soc == 0.7)
    assert np.allclose(cycle.voltage_v, ecm.ocv(0.7), atol=0)
    assert np.all(cycle.temperature_c == 25.0)
    assert not cycle.truncated
    assert np.array_equal(cycle.time_s, np.arange(500) * 0.1)


def test_step_load_drops_exactly_ir0():
    # held state means the instantaneous jump at a current step is I*R0 only
    ecm = EcmConfig()
    profile = np.concatenate([np.zeros(100), np.full(100, 2.0)])
    cycle = simulate_ecm(profile, ecm, DEFAULT_CELL, initial_soc=0.8, dt=0.1)
    drop = cycle.voltage_v[99] - cycle.voltage_v[100]
    assert drop == pytest.approx(2.0 * ecm.r0, abs=1e-15)
    # one step later the RC branch and the charge deficit start to show
    assert cycle.voltage_v[101] < cycle.voltage_v[100]


def test_rc_branch_settles_to_ir1():
    ecm = EcmConfig()
    tau = ecm.r1 * ecm.c1  # 36 s
    dt = 0.1
    n = int(6 * tau / dt)
    current = np.full(n, 2.0)
    cycle = simulate_ecm(current, ecm, DEFAULT_CELL, initial_soc=0.9, dt=dt)
    # subtract the modeled OCV and ohmic terms to isolate the RC voltage
    v1 = ecm.ocv(cycle.soc) - current * ecm.r0 - cycle.voltage_v
    settled = 2.0 * ecm.r1
    assert v1[0] == 0.0
    k5 = int(5 * tau / dt)
    assert abs(v1[k5] - settled) < 0.01 * settled
    assert np.all(np.diff(v1) > -1e-12)  # monotone rise to the plateau


def _square_wave(n):
    # 150 s discharge / 150 s charge at dt = 1: v1 swings through zero
    return np.where(np.arange(n) // 150 % 2 == 0, 3.0, -3.0)


@pytest.mark.parametrize("current, initial_soc, dt", [
    pytest.param(1.5 + np.sin(np.linspace(0, 4, 200) * 3.0), 0.9, 0.5, id="sine-200"),
    pytest.param(generate_profile("urban", 3600.0, seed=2), 0.95, 0.1, id="urban-3600s"),
    pytest.param(_square_wave(1200), 0.5, 1.0, id="charge-discharge"),
    pytest.param(np.array([2.0]), 0.5, 0.1, id="n1"),
    pytest.param(np.array([2.0, -1.0]), 0.5, 0.1, id="n2"),
])
def test_lags_match_recurrence_oracle(current, initial_soc, dt):
    # both first-order lags, the RC voltage and the temperature rise, agree
    # with the sequential loop to 1e-12 of their largest magnitude; reading
    # a lag back out of the voltage or temperature adds up to one ulp of it
    ecm = EcmConfig()
    cycle = simulate_ecm(current, ecm, DEFAULT_CELL, initial_soc=initial_soc, dt=dt)
    assert len(cycle) == len(current)
    v1 = ecm.ocv(cycle.soc) - current * ecm.r0 - cycle.voltage_v
    a = np.exp(-dt / (ecm.r1 * ecm.c1))
    a_t = np.exp(-dt / ecm.cooling_tau_s)
    for got, want, read_from in [
        (v1, lag_oracle(a, (1 - a) * ecm.r1, current), cycle.voltage_v),
        (cycle.temperature_c - ecm.ambient_c,
         lag_oracle(a_t, ecm.heat_coeff * ecm.r0 * dt, current * current), cycle.temperature_c),
    ]:
        tol = 1e-12 * np.abs(want).max() + np.spacing(np.abs(read_from)).max()
        assert np.abs(got - want).max() <= tol


def test_rc_voltage_changes_sign_under_charge_discharge():
    # the charge-discharge oracle case covers a lag whose sign changes
    ecm = EcmConfig()
    current = _square_wave(1200)
    cycle = simulate_ecm(current, ecm, DEFAULT_CELL, initial_soc=0.5, dt=1.0)
    v1 = ecm.ocv(cycle.soc) - current * ecm.r0 - cycle.voltage_v
    assert v1.min() < -0.02 and v1.max() > 0.02


def test_soc_rectangle_integration_exact():
    # held current makes the per-step charge sum exact
    dt = 1.0
    current = np.full(1000, 2.9)
    cycle = simulate_ecm(current, EcmConfig(), DEFAULT_CELL, initial_soc=1.0, dt=dt)
    k = np.arange(1000)
    want = 1.0 - 2.9 * k * dt / Q_AS
    assert np.allclose(cycle.soc, want, atol=1e-12)


def test_discharge_decreases_charge_increases():
    ecm = EcmConfig()
    down = simulate_ecm(np.full(200, 1.0), ecm, DEFAULT_CELL, 0.5, dt=1.0)
    up = simulate_ecm(np.full(200, -1.0), ecm, DEFAULT_CELL, 0.5, dt=1.0)
    assert np.all(np.diff(down.soc) < 0)
    assert np.all(np.diff(up.soc) > 0)


def test_terminal_voltage_brackets_ocv():
    ecm = EcmConfig()
    discharge = simulate_ecm(np.full(300, 2.0), ecm, DEFAULT_CELL, 0.9, dt=1.0)
    assert np.all(discharge.voltage_v[1:] < ecm.ocv(discharge.soc[1:]))
    charge = simulate_ecm(np.full(300, -2.0), ecm, DEFAULT_CELL, 0.2, dt=1.0)
    assert np.all(charge.voltage_v[1:] > ecm.ocv(charge.soc[1:]))


def test_heating_under_load_and_cooling_limit():
    ecm = EcmConfig()
    cycle = simulate_ecm(np.full(3000, 4.0), ecm, DEFAULT_CELL, 1.0, dt=1.0)
    temp = cycle.temperature_c
    assert temp[0] == ecm.ambient_c
    assert temp[-1] > ecm.ambient_c + 0.5
    # steady state of the discrete filter: coeff*R0*I^2*dt / (1 - exp(-dt/tau))
    a = np.exp(-1.0 / ecm.cooling_tau_s)
    plateau = ecm.heat_coeff * ecm.r0 * 16.0 * 1.0 / (1.0 - a)
    assert np.all(temp <= ecm.ambient_c + plateau + 1e-9)
    assert temp[-1] == pytest.approx(ecm.ambient_c + plateau, rel=0.01)


def test_truncation_at_empty():
    # 2x rated current exhausts the cell in ~1800 s; the run stops there
    n = 3600
    cycle = simulate_ecm(np.full(n, 5.8), EcmConfig(), DEFAULT_CELL, 1.0, dt=1.0)
    assert cycle.truncated
    assert len(cycle) < n
    assert cycle.soc.min() >= 0.0
    expected_len = int(np.ceil(Q_AS / 5.8))
    assert abs(len(cycle) - expected_len) <= 1


def test_truncation_at_full():
    cycle = simulate_ecm(np.full(1000, -5.8), EcmConfig(), DEFAULT_CELL, 0.99, dt=1.0)
    assert cycle.truncated
    assert cycle.soc.max() <= 1.0


def test_no_truncation_inside_range():
    cycle = simulate_ecm(np.full(100, 1.0), EcmConfig(), DEFAULT_CELL, 0.5, dt=1.0)
    assert not cycle.truncated
    assert len(cycle) == 100


def test_simulate_input_validation():
    ecm = EcmConfig()
    with pytest.raises(ValueError):
        simulate_ecm(np.ones(10), ecm, DEFAULT_CELL, 0.5, dt=0.0)
    with pytest.raises(ValueError, match="dt must be a finite number > 0, got nan"):
        simulate_ecm(np.ones(10), ecm, DEFAULT_CELL, 0.5, dt=float("nan"))
    # a numpy float step, as np.diff of a time column gives, is a finite number
    assert len(simulate_ecm(np.ones(10), ecm, DEFAULT_CELL, 0.5, dt=np.float64(0.1))) == 10
    assert generate_profile("urban", np.float64(6.0), dt=np.float64(0.1)).size == 60
    with pytest.raises(ValueError):
        simulate_ecm(np.ones(10), ecm, DEFAULT_CELL, 1.5, dt=0.1)
    with pytest.raises(ValueError):
        simulate_ecm(np.ones(0), ecm, DEFAULT_CELL, 0.5, dt=0.1)
    with pytest.raises(ValueError):
        simulate_ecm(np.array([1.0, np.nan]), ecm, DEFAULT_CELL, 0.5, dt=0.1)
    with pytest.raises(ValueError):
        simulate_ecm(np.ones((2, 5)), ecm, DEFAULT_CELL, 0.5, dt=0.1)
    # a non-finite circuit constant is refused by name, not later as bad telemetry
    nan, inf = float("nan"), float("inf")
    for name in ("r0", "r1", "c1", "cooling_tau_s"):
        for value in (nan, inf):
            with pytest.raises(ValueError, match=f"{name} must be a finite number > 0, "
                                                 f"got {value}"):
                EcmConfig(**{name: value})
    # a str or None failed inside np.isfinite with a bare TypeError
    for name, value in (("ambient_c", nan), ("ambient_c", -inf), ("ambient_c", "25"),
                        ("heat_coeff", inf), ("heat_coeff", nan), ("heat_coeff", None)):
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value!r}"):
            EcmConfig(**{name: value})
    for name in ("ocv_soc", "ocv_volts"):
        table = getattr(ecm, name).copy()
        table[5] = nan
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            EcmConfig(**{name: table})
    top = ecm.ocv_soc.copy()
    top[-1] = inf  # still strictly increasing
    with pytest.raises(ValueError, match="ocv_soc must be finite"):
        EcmConfig(ocv_soc=top)


# a bool is not a number: dt=True ran at 1 s steps, initial_soc=True at 1.0;
# a str or None raised a bare TypeError from a comparison
@pytest.mark.parametrize("value", [True, np.True_, "0.9", None], ids=repr)
def test_a_value_that_is_no_number_is_refused_by_name(value):
    ecm = EcmConfig()
    with pytest.raises(ValueError, match=rf"^dt must be a finite number > 0, got {value!r}$"):
        simulate_ecm(np.ones(10), ecm, DEFAULT_CELL, 0.5, dt=value)
    shown = repr(value) if isinstance(value, str) else value
    with pytest.raises(ValueError, match=rf"^initial_soc must be in \[0, 1\], got {shown}$"):
        simulate_ecm(np.ones(10), ecm, DEFAULT_CELL, value, dt=0.1)
    for name in ("duration", "dt"):
        message = rf"^{name} must be a finite number > 0, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            generate_profile("urban", **{"duration": 30.0, "dt": 1.0, name: value})
    for name in ("r0", "r1", "c1", "cooling_tau_s"):
        message = rf"^{name} must be a finite number > 0, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            EcmConfig(**{name: value})


def test_ocv_table_shape_and_interp():
    ecm = EcmConfig()
    assert ecm.ocv(0.0) == 3.00
    assert ecm.ocv(1.0) == 4.20
    grid = np.linspace(0, 1, 101)
    v = ecm.ocv(grid)
    assert np.all(np.diff(v) > 0)
    assert ecm.ocv(0.55) == pytest.approx((3.59 + 3.65) / 2, abs=1e-12)


def test_ecm_config_validation():
    with pytest.raises(ValueError):
        EcmConfig(r0=0.0)
    with pytest.raises(ValueError):
        EcmConfig(ocv_volts=np.linspace(4.2, 3.0, 11))  # decreasing
    with pytest.raises(ValueError):
        EcmConfig(ocv_soc=np.linspace(0, 1, 5))  # length mismatch


# ---------------------------------------------------------------- profiles


def test_profile_determinism():
    for kind in PROFILE_KINDS:
        a = generate_profile(kind, 300.0, seed=5)
        b = generate_profile(kind, 300.0, seed=5)
        c = generate_profile(kind, 300.0, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def test_profile_length():
    assert len(generate_profile("urban", 600.0, dt=0.1)) == 6000
    assert len(generate_profile("urban", 12.5, dt=0.5)) == 25
    assert len(generate_profile("highway", 1.0, dt=1.0)) == 1


def test_profile_peak_current_capped():
    for kind in PROFILE_KINDS:
        for seed in (0, 1, 2):
            p = generate_profile(kind, 900.0, seed=seed)
            assert np.abs(p).max() <= PEAK_CURRENT_A + 1e-12


# the largest dt at which generate_profile promises every drawn regen segment a sample
REGEN_DT = {"urban": 4.0, "aggressive": 4.0, "mixed": 4.0, "highway": 5.0}


def test_profile_has_regen_segments():
    for kind in PROFILE_KINDS:
        p = generate_profile(kind, 900.0, seed=3)
        assert p.min() < -0.5, kind
        for seed in range(10):
            p = generate_profile(kind, 3600.0, dt=REGEN_DT[kind], seed=seed)
            assert np.count_nonzero(p < 0.0) > 0, (kind, seed)


def test_profile_mean_discharge_targets():
    # kinds are separated by mean demand: highway > mixed > aggressive > urban
    targets = {"highway": 2.45, "mixed": 2.30, "aggressive": 2.15, "urban": 1.95}
    means = {}
    for kind, want in targets.items():
        p = generate_profile(kind, 1800.0, seed=9)
        means[kind] = p.mean()
        assert means[kind] == pytest.approx(want, rel=0.03), kind
    assert means["highway"] > means["mixed"] > means["aggressive"] > means["urban"]


# each kind's largest dt: its longest minimum segment (urban and aggressive
# cruise, the highway gap, and the smallest of the three for mixed)
DT_BOUND = {"urban": 15.0, "aggressive": 8.0, "highway": 220.0, "mixed": 8.0}


@pytest.mark.parametrize("kind", PROFILE_KINDS)
def test_profile_dt_bound_is_each_kinds_longest_minimum_segment(kind):
    bound = DT_BOUND[kind]
    above = float(np.nextafter(bound, np.inf))
    message = f"dt must be at most {bound} s for kind '{kind}', its longest minimum segment, got {above}"
    with pytest.raises(ValueError, match=re.escape(message)):
        generate_profile(kind, 3600.0, dt=above)
    # at the bound every loop iteration advances; a separate process makes a
    # regression fail on the timeout instead of hanging the suite
    code = ("from tcnsoc.simulate import generate_profile; "
            f"print([generate_profile({kind!r}, 3600.0, dt={bound}, seed=s).size for s in range(20)])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str([round(3600.0 / bound)] * 20)


# sha256 of the float64 profile bytes; highway at dt 12 and 15 draws dips
# shorter than one step, which write their first sample over itself
PROFILE_SHA256 = [
    ("highway", 3600.0, 0.1, 1, "35857e3a234fdb0ef7bc47e2ed44edae291745b7f6fa8e4e0f25ce65be206f5d"),
    ("highway", 300.0, 1.0, 5, "09fd9fa18b6b7bccbe9215ec48e282d12b14fdc7fa51efba6a34abc98ce6335c"),
    ("highway", 3600.0, 220.0, 1, "c6832c15ea87f849191a08faf0988d20201e7f8763def30c2db38da4dc8eaca4"),
    ("highway", 3600.0, 15.0, 1, "3f130636b0db8b6e4eac767339790f2f8954237450a18ddaa9e3d1038d5776a3"),
    ("highway", 3600.0, 12.0, 3, "6502d6697eabd96007cfd5dfe31bce0045845881850e3170d3b7613cd969366e"),
    ("aggressive", 3600.0, 0.1, 1, "cb8d14bd916434a1ab9244306facb5dd6f103091d42dbf1e65eea5b81d33dafd"),
    ("aggressive", 300.0, 1.0, 5, "f71b93fe2813bec3a43ccc061de7d330c54dc894b67fb2d3080a75977ae6d62f"),
    ("aggressive", 3600.0, 8.0, 1, "a6db34b0deca0e09c2808b48a51b183f91a4d53b1d1429cc3f0b161ee1d4ce48"),
    ("urban", 3600.0, 0.1, 1, "67058dcea76922247d681116a3f0d9cc9d3f87cd0a6ac3bb5a0802b13a41cad2"),
    ("urban", 300.0, 1.0, 5, "7bebb1674518f089a48d1126c5f1fbaa217f0980b0c39a4e617e56a7fc6f6383"),
    ("urban", 3600.0, 15.0, 1, "2dc3e2e51b8d2c10a9a50c0b225444de0f5681a4ee1cb10709a1f970cae2adac"),
    ("mixed", 3600.0, 0.1, 1, "5eeae3d74521d3ca93ca9a9a9e9a6d217f9861178b8297d1b1a47c20a1d47347"),
    ("mixed", 300.0, 1.0, 5, "366d948fe07f895a0ac70e3794e185a05aa8a7a73ac5e29359e8149f24d9e14d"),
    ("mixed", 3600.0, 8.0, 1, "e17d50f1fb5f96f656cacb2ab99691be8498cdb43bbb97d81736cb91769f707d"),
]


@pytest.mark.parametrize("kind, duration, dt, seed, digest", PROFILE_SHA256,
                         ids=[f"{c[0]}-{c[1]:g}s-dt{c[2]:g}-seed{c[3]}" for c in PROFILE_SHA256])
def test_profile_bytes_are_pinned(kind, duration, dt, seed, digest):
    profile = generate_profile(kind, duration, dt=dt, seed=seed)
    assert hashlib.sha256(profile.astype("<f8").tobytes()).hexdigest() == digest


def test_profile_kind_errors():
    with pytest.raises(ValueError, match="urban"):
        generate_profile("suburban", 100.0)
    with pytest.raises(ValueError):
        generate_profile("urban", -5.0)
    with pytest.raises(ValueError):
        generate_profile("urban", 100.0, dt=0.0)


def test_full_hour_sweep_depletes_most_of_the_cell():
    # the default targets walk SOC from 0.95 down to low charge in an hour
    for kind in PROFILE_KINDS:
        p = generate_profile(kind, 3600.0, seed=1)
        cycle = simulate_ecm(p, EcmConfig(), DEFAULT_CELL, 0.95, dt=0.1)
        assert not cycle.truncated, kind
        assert cycle.soc[-1] < 0.35, (kind, cycle.soc[-1])
        assert cycle.soc[-1] > 0.0


def test_simulated_telemetry_ranges():
    p = generate_profile("mixed", 1200.0, seed=4)
    cycle = simulate_ecm(p, EcmConfig(), DEFAULT_CELL, 0.9, dt=0.1)
    assert cycle.voltage_v.min() > 2.5  # stays above the cutoff in normal runs
    assert cycle.voltage_v.max() < 4.2
    assert cycle.temperature_c.min() >= 25.0 - 1e-9
    assert cycle.temperature_c.max() < 60.0
