"""Tests for CSV I/O, coulomb counting, normalization, and windowing."""

import math

import numpy as np
import pytest

from tcnsoc.data import (
    DEFAULT_CELL,
    BatterySpec,
    DriveCycle,
    NormalizationParams,
    apply_normalization,
    build_hybrid,
    coulomb_count,
    fit_normalization,
    load_csv,
    make_windows,
    save_csv,
)
from tcnsoc.rng import SplitMix64


def toy_cycle(n=20, soc=True, name="toy") -> DriveCycle:
    t = np.arange(n, dtype=np.float64)
    return DriveCycle(
        time_s=t,
        voltage_v=3.0 + 0.05 * np.sin(t),
        current_a=1.0 + 0.5 * np.cos(t / 3),
        temperature_c=25.0 + 0.1 * t,
        soc=np.linspace(0.9, 0.4, n) if soc else None,
        name=name,
    )


# ---------------------------------------------------------------- CSV


def test_csv_round_trip_exact(tmp_path):
    cycle = toy_cycle()
    path = tmp_path / "c.csv"
    save_csv(cycle, path)
    back = load_csv(path)
    assert np.array_equal(back.time_s, cycle.time_s)
    assert np.array_equal(back.voltage_v, cycle.voltage_v)
    assert np.array_equal(back.current_a, cycle.current_a)
    assert np.array_equal(back.temperature_c, cycle.temperature_c)
    assert np.array_equal(back.soc, cycle.soc)
    assert back.name == "c"


def test_csv_round_trip_without_soc(tmp_path):
    path = tmp_path / "nosoc.csv"
    save_csv(toy_cycle(soc=False), path)
    first = path.read_text().splitlines()[0]
    assert first == "time_s,voltage_v,current_a,temperature_c"
    assert load_csv(path).soc is None


def test_csv_round_trip_awkward_floats(tmp_path):
    # values with no short decimal representation survive exactly
    t = np.array([0.1, 0.2, 0.30000000000000004, 1.0 / 3.0 + 0.3])
    cycle = DriveCycle(t, t * math.pi, t * math.e, t + 0.1, soc=t / 10)
    path = tmp_path / "f.csv"
    save_csv(cycle, path)
    back = load_csv(path)
    assert np.array_equal(back.time_s, t)
    assert np.array_equal(back.voltage_v, t * math.pi)
    assert np.array_equal(back.soc, t / 10)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_s,volts,current_a,temperature_c,soc\n0,3,1,25,0.5\n")
    with pytest.raises(ValueError, match="header"):
        load_csv(path)


def test_load_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_csv(path)
    path.write_text("time_s,voltage_v,current_a,temperature_c\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(path)


def test_load_reports_line_number_for_bad_value(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "time_s,voltage_v,current_a,temperature_c\n"
        "0.0,3.0,1.0,25.0\n"
        "1.0,3.0,oops,25.0\n"
    )
    with pytest.raises(ValueError, match="line 3"):
        load_csv(path)


def test_load_reports_wrong_field_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "time_s,voltage_v,current_a,temperature_c\n0.0,3.0,1.0\n"
    )
    with pytest.raises(ValueError, match="line 2"):
        load_csv(path)


def test_load_rejects_non_increasing_time(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "time_s,voltage_v,current_a,temperature_c\n"
        "0.0,3.0,1.0,25.0\n"
        "1.0,3.0,1.0,25.0\n"
        "1.0,3.0,1.0,25.0\n"
    )
    with pytest.raises(ValueError, match="strictly increasing"):
        load_csv(path)


# ---------------------------------------------------------------- coulomb


@pytest.mark.parametrize("row, message", [
    ("nan,3.0,1.0,25.0,0.5", "time_s is not finite"),
    ("1.0,nan,1.0,25.0,0.5", "voltage_v is not finite"),
    ("1.0,3.0,inf,25.0,0.5", "current_a is not finite"),
    ("1.0,3.0,1.0,-inf,0.5", "temperature_c is not finite"),
    ("1.0,3.0,1.0,25.0,nan", "soc is not finite"),
    ("1.0,3.0,1.0,25.0,1.7", "soc 1.7 outside"),
    ("1.0,3.0,1.0,25.0,-0.02", "soc -0.02 outside"),
])
def test_load_rejects_non_finite_and_out_of_band_values(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(
        "time_s,voltage_v,current_a,temperature_c,soc\n"
        "0.0,3.0,1.0,25.0,0.5\n"
        f"{row}\n"
        "2.0,3.0,1.0,25.0,0.5\n"
    )
    with pytest.raises(ValueError, match=f"line 3: {message}"):
        load_csv(path)


def test_load_counts_blank_lines_in_time_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "time_s,voltage_v,current_a,temperature_c\n"
        "0.0,3.0,1.0,25.0\n"
        "\n"
        "1.0,3.0,1.0,25.0\n"
        "1.0,3.0,1.0,25.0\n"
    )
    with pytest.raises(ValueError, match="line 5: time_s not strictly increasing"):
        load_csv(path)


def test_load_accepts_soc_band_edges(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text(
        "time_s,voltage_v,current_a,temperature_c,soc\n"
        "0.0,3.0,1.0,25.0,-0.01\n"
        "1.0,3.0,1.0,25.0,1.01\n"
    )
    assert load_csv(path).soc.tolist() == [-0.01, 1.01]


def test_coulomb_full_discharge_anchor():
    # rated current for one hour drains exactly one full charge
    t = np.arange(0.0, 3600.0 + 1.0)
    n = len(t)
    cycle = DriveCycle(t, np.full(n, 3.6), np.full(n, 2.9), np.full(n, 25.0))
    out = coulomb_count(cycle, DEFAULT_CELL, initial_soc=1.0)
    assert out.soc[0] == 1.0
    assert abs(out.soc[-1]) < 1e-9
    assert np.all(np.diff(out.soc) < 0)


def test_coulomb_charge_discharge_symmetry():
    t = np.arange(0.0, 600.0, 0.5)
    current = 2.0 * np.sin(2 * np.pi * t / 600.0)  # net zero charge
    n = len(t)
    cycle = DriveCycle(t, np.full(n, 3.6), current, np.full(n, 25.0))
    out = coulomb_count(cycle, DEFAULT_CELL, initial_soc=0.5)
    # reversing the sign mirrors the trajectory around the start value
    flipped = coulomb_count(replace_current(cycle, -current), DEFAULT_CELL, 0.5)
    assert np.allclose(out.soc - 0.5, -(flipped.soc - 0.5), atol=1e-12)


def replace_current(cycle: DriveCycle, current: np.ndarray) -> DriveCycle:
    return DriveCycle(cycle.time_s, cycle.voltage_v, current,
                      cycle.temperature_c, cycle.soc, cycle.name)


def test_coulomb_matches_trapz_oracle():
    rng = SplitMix64(5)
    t = np.cumsum(rng.uniform(0.05, 0.3, 400))  # irregular sampling
    current = rng.uniform(-1.0, 3.0, 400)
    n = len(t)
    cycle = DriveCycle(t, np.full(n, 3.6), current, np.full(n, 25.0))
    out = coulomb_count(cycle, DEFAULT_CELL, initial_soc=0.8)
    q = DEFAULT_CELL.capacity_as
    for i in (1, 57, 200, 399):
        want = 0.8 - np.trapezoid(current[: i + 1], t[: i + 1]) / q
        assert abs(out.soc[i] - want) < 1e-12


def test_coulomb_converges_to_fine_grid_integral():
    # trapezoid on a coarse grid approaches the near-exact fine-grid value
    def run(dt):
        t = np.arange(0.0, 100.0 + dt / 2, dt)
        current = 2.0 * np.sin(2 * np.pi * t / 40.0) + 0.5
        n = len(t)
        cycle = DriveCycle(t, np.full(n, 3.6), current, np.full(n, 25.0))
        return coulomb_count(cycle, DEFAULT_CELL, initial_soc=0.6).soc[-1]

    coarse, fine, finest = run(1.0), run(0.1), run(0.001)
    assert abs(fine - finest) < abs(coarse - finest) / 50  # second-order rule
    assert abs(fine - finest) < 1e-7


def test_coulomb_rejects_out_of_range():
    t = np.arange(0.0, 7200.0, 1.0)  # two hours at rated current: soc -1
    n = len(t)
    cycle = DriveCycle(t, np.full(n, 3.6), np.full(n, 2.9), np.full(n, 25.0))
    with pytest.raises(ValueError, match="-0.01"):
        coulomb_count(cycle, DEFAULT_CELL, initial_soc=1.0)
    with pytest.raises(ValueError):
        coulomb_count(cycle, DEFAULT_CELL, initial_soc=1.5)


def test_coulomb_keeps_input_untouched():
    cycle = toy_cycle(soc=False)
    before = cycle.current_a.copy()
    out = coulomb_count(cycle, DEFAULT_CELL, initial_soc=0.9)
    assert cycle.soc is None
    assert out.soc is not None and len(out.soc) == len(cycle)
    assert np.array_equal(cycle.current_a, before)
    assert out.soc[0] == 0.9


def test_battery_spec_validation():
    assert DEFAULT_CELL.capacity_as == 2.9 * 3600.0
    with pytest.raises(ValueError):
        BatterySpec(rated_capacity_ah=0.0)
    with pytest.raises(ValueError):
        BatterySpec(min_voltage=3.7)


# ---------------------------------------------------------------- normalize


def test_fit_normalization_extremes():
    a = toy_cycle(name="a")
    b = toy_cycle(name="b")
    b.voltage_v[:] = b.voltage_v + 1.0
    p = fit_normalization([a, b])
    assert p.voltage_min == float(a.voltage_v.min())
    assert p.voltage_max == float(b.voltage_v.max())
    assert p.soc_min == 0.4
    assert p.soc_max == 0.9


def test_fit_normalization_rejects_constant_feature():
    c = toy_cycle()
    c.temperature_c[:] = 25.0
    with pytest.raises(ValueError, match="temperature"):
        fit_normalization([c])


def test_fit_normalization_requires_labels():
    with pytest.raises(ValueError, match="SOC"):
        fit_normalization([toy_cycle(soc=False)])
    with pytest.raises(ValueError):
        fit_normalization([])


def test_apply_normalization_maps_to_unit_range():
    c = toy_cycle()
    p = fit_normalization([c])
    f = apply_normalization(c, p)
    assert f.shape == (4, len(c))
    assert np.isclose(f.min(), 0.0) and np.isclose(f.max(), 1.0)
    for row in f:
        assert row.min() >= -1e-12 and row.max() <= 1.0 + 1e-12


def test_apply_normalization_does_not_clip():
    train = toy_cycle()
    p = fit_normalization([train])
    hot = toy_cycle()
    hot.temperature_c[:] = hot.temperature_c + 100.0
    f = apply_normalization(hot, p)
    assert f[2].min() > 1.0  # far outside the fitted range, left unclipped


def test_normalization_identity_and_dict():
    p = NormalizationParams.identity()
    assert p.bounds("voltage") == (0.0, 1.0)
    d = p.as_dict()
    assert len(d) == 8
    assert d["soc_min"] == 0.0 and d["soc_max"] == 1.0


# ---------------------------------------------------------------- windows


def test_make_windows_slicing_oracle():
    n, window, stride = 10, 4, 3
    c = toy_cycle(n=n)
    p = fit_normalization([c])
    ds = make_windows(c, p, window, stride, source_tag=7)
    assert len(ds) == 3  # starts 0, 3, 6
    assert ds.x.shape == (3, 4, window)
    feats = apply_normalization(c, p)
    for w, start in enumerate([0, 3, 6]):
        for ch in range(3):
            assert np.array_equal(ds.x[w, ch], feats[ch, start:start + window])
        # past-SOC channel: shifted one step, first element padded
        assert ds.x[w, 3, 0] == feats[3, start]
        assert np.array_equal(ds.x[w, 3, 1:], feats[3, start:start + window - 1])
        assert ds.y[w] == c.soc[start + window - 1]
    assert np.all(ds.source == 7)
    assert np.array_equal(ds.start, [0, 3, 6])


def test_make_windows_targets_are_raw_soc():
    c = toy_cycle(n=12)
    p = fit_normalization([c])
    ds = make_windows(c, p, window=5, stride=1)
    # raw fractions, not normalized: toy soc spans [0.4, 0.9]
    assert ds.y.min() >= 0.4 - 1e-12
    assert ds.y.max() <= 0.9 + 1e-12
    assert np.array_equal(ds.y, c.soc[4:])


def test_make_windows_count_formula():
    c = toy_cycle(n=50)
    p = fit_normalization([c])
    for window, stride in [(5, 1), (5, 4), (10, 10), (50, 1)]:
        ds = make_windows(c, p, window, stride)
        assert len(ds) == (50 - window) // stride + 1


def test_make_windows_errors():
    c = toy_cycle(n=10)
    p = fit_normalization([c])
    with pytest.raises(ValueError):
        make_windows(c, p, window=11)
    with pytest.raises(ValueError):
        make_windows(c, p, window=0)
    with pytest.raises(ValueError):
        make_windows(c, p, window=5, stride=0)


def test_build_hybrid_preserves_all_windows():
    cycles = [toy_cycle(n=30, name="a"), toy_cycle(n=24, name="b"),
              toy_cycle(n=40, name="c")]
    p = fit_normalization(cycles)
    ds = build_hybrid(cycles, p, window=8, stride=4, seed=9)
    per = [(30 - 8) // 4 + 1, (24 - 8) // 4 + 1, (40 - 8) // 4 + 1]
    assert len(ds) == sum(per)
    pairs = sorted(zip(ds.source.tolist(), ds.start.tolist()))
    want = [(i, s * 4) for i, n in enumerate(per) for s in range(n)]
    assert pairs == want
    assert ds.cycle_names == ["a", "b", "c"]


def test_build_hybrid_windows_match_their_source():
    cycles = [toy_cycle(n=25, name="a"), toy_cycle(n=25, name="b")]
    cycles[1].current_a[:] = cycles[1].current_a * 1.7
    p = fit_normalization(cycles)
    ds = build_hybrid(cycles, p, window=6, stride=5, seed=1)
    feats = [apply_normalization(c, p) for c in cycles]
    for w in range(len(ds)):
        src, start = int(ds.source[w]), int(ds.start[w])
        assert np.array_equal(ds.x[w, :3], feats[src][:3, start:start + 6])
        assert ds.y[w] == cycles[src].soc[start + 5]


def test_build_hybrid_shuffle_is_seeded():
    cycles = [toy_cycle(n=40, name="a"), toy_cycle(n=40, name="b")]
    p = fit_normalization(cycles)
    d1 = build_hybrid(cycles, p, 5, 2, seed=3)
    d2 = build_hybrid(cycles, p, 5, 2, seed=3)
    d3 = build_hybrid(cycles, p, 5, 2, seed=4)
    assert np.array_equal(d1.start, d2.start) and np.array_equal(d1.source, d2.source)
    assert not (np.array_equal(d1.start, d3.start)
                and np.array_equal(d1.source, d3.source))
    # shuffled, not in source-major order
    assert not np.array_equal(d1.source, np.sort(d1.source))


def test_build_hybrid_needs_cycles():
    with pytest.raises(ValueError):
        build_hybrid([], NormalizationParams.identity(), 5)


# ---------------------------------------------------------------- cycles


def test_drive_cycle_length_validation():
    t = np.arange(5.0)
    with pytest.raises(ValueError):
        DriveCycle(t, t[:4], t, t)
    with pytest.raises(ValueError):
        DriveCycle(t, t, t, t, soc=t[:3])


def test_drive_cycle_records():
    c = toy_cycle(n=3)
    recs = list(c.records())
    assert len(recs) == 3
    assert recs[1].time_s == 1.0
    assert recs[1].soc == c.soc[1]
    no_soc = toy_cycle(n=2, soc=False)
    assert list(no_soc.records())[0].soc is None
