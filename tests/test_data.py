"""Tests for CSV I/O, coulomb counting, normalization, and windowing."""

import inspect
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from helpers import below

from tcnsoc.data import (
    DEFAULT_CELL,
    SOC_LABEL_BAND,
    BatterySpec,
    DriveCycle,
    NormalizationParams,
    apply_normalization,
    build_hybrid,
    check_int,
    coulomb_count,
    fit_normalization,
    load_csv,
    make_windows,
    save_csv,
    write_csv,
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


def test_write_csv_bytes(tmp_path):
    path = tmp_path / "t.csv"
    f32 = np.array([0.1, 2.5], dtype=np.float32).astype(float).tolist()
    write_csv(path, ["a", "b", "c", "d"], [
        (0.1, 7, math.nan, "1.500000"),
        (1 / 3, -2, f32[0], f32[1]),
    ])
    assert path.read_bytes() == (b"a,b,c,d\n0.1,7,nan,1.500000\n"
                                 b"0.3333333333333333,-2,0.10000000149011612,2.5\n")


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
    with pytest.raises(ValueError, match=r"line 4: cycle 'bad': time_s\[2\] = 1.0 at time_s 1.0 "
                                         r"is not after time_s\[1\] = 1.0"):
        load_csv(path)


# ---------------------------------------------------------------- coulomb


def _bad_row(row, message, why):
    return pytest.param(row, message, id=f"{row}-{why}")


@pytest.mark.parametrize("row, message", [
    _bad_row("nan,3.0,1.0,25.0,0.5", r"time_s\[1\] = nan at time_s nan is not finite",
             "time_s is not finite"),
    _bad_row("1.0,nan,1.0,25.0,0.5", r"voltage_v\[1\] = nan at time_s 1.0 is not finite",
             "voltage_v is not finite"),
    _bad_row("1.0,3.0,inf,25.0,0.5", r"current_a\[1\] = inf at time_s 1.0 is not finite",
             "current_a is not finite"),
    _bad_row("1.0,3.0,1.0,-inf,0.5", r"temperature_c\[1\] = -inf at time_s 1.0 is not finite",
             "temperature_c is not finite"),
    _bad_row("1.0,3.0,1.0,25.0,nan", r"soc\[1\] = nan at time_s 1.0 is not finite",
             "soc is not finite"),
    _bad_row("1.0,3.0,1.0,25.0,1.7", r"soc\[1\] = 1.7 at time_s 1.0 is outside \[-0.01, 1.01\]",
             "soc 1.7 outside"),
    _bad_row("1.0,3.0,1.0,25.0,-0.02",
             r"soc\[1\] = -0.02 at time_s 1.0 is outside \[-0.01, 1.01\]", "soc -0.02 outside"),
    # two bad lines, the later one in an earlier column: the earliest line is named
    pytest.param("1.0,3.0,1.0,25.0,1.7\n1.2,3.0,1.0,25.0,0.5\n1.5,nan,1.0,25.0,0.5",
                 r"soc\[1\] = 1.7 at time_s 1.0 is outside \[-0.01, 1.01\]",
                 id="soc-on-line-3-and-voltage-on-line-5"),
])
def test_load_rejects_non_finite_and_out_of_band_values(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(
        "time_s,voltage_v,current_a,temperature_c,soc\n"
        "0.0,3.0,1.0,25.0,0.5\n"
        f"{row}\n"
        "2.0,3.0,1.0,25.0,0.5\n"
    )
    with pytest.raises(ValueError, match=f"line 3: cycle 'bad': {message}$"):
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
    with pytest.raises(ValueError, match=r"line 5: cycle 'bad': time_s\[2\] = 1.0 at time_s 1.0 "
                                         r"is not after time_s\[1\] = 1.0"):
        load_csv(path)


def test_load_accepts_soc_band_edges(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text(
        "time_s,voltage_v,current_a,temperature_c,soc\n"
        "0.0,3.0,1.0,25.0,-0.01\n"
        "1.0,3.0,1.0,25.0,1.01\n"
    )
    assert load_csv(path).soc.tolist() == [-0.01, 1.01]


def test_fuzzed_csv_loads_valid_or_raises_value_error(tmp_path):
    """Seeded one-character replacements, insertions and deletions: the file
    either raises ValueError or loads as a cycle that keeps every guarantee
    of load_csv (many digit edits give a valid file)."""
    path = tmp_path / "c.csv"
    save_csv(toy_cycle(n=12), path)
    text = path.read_bytes()
    alphabet = b"0123456789.,-+eE\n\r \"'x_nai\x00\xff;"
    rng = SplitMix64(77)
    for case in range(300):
        data = bytearray(text)
        at = below(rng, len(data))
        char = alphabet[below(rng, len(alphabet))]
        if case % 3 == 0:
            data[at] = char
        elif case % 3 == 1:
            data.insert(at, char)
        else:
            del data[at]
        path.write_bytes(bytes(data))
        try:
            cycle = load_csv(path)
        except ValueError:
            continue
        columns = [cycle.time_s, cycle.voltage_v, cycle.current_a, cycle.temperature_c]
        assert all(np.isfinite(c).all() for c in columns), case
        assert (np.diff(cycle.time_s) > 0).all(), case
        if cycle.soc is not None:
            assert SOC_LABEL_BAND[0] <= cycle.soc.min() <= cycle.soc.max() <= SOC_LABEL_BAND[1]


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
    with pytest.raises(ValueError, match=r"^coulomb counting: cycle '': soc\[36\d\d\] = -0\.01\d* "
                                         r"at time_s 36\d\d\.0 is outside \[-0\.01, 1\.01\]: "
                                         r"inconsistent capacity or initial SOC$"):
        coulomb_count(cycle, DEFAULT_CELL, initial_soc=1.0)


# True counted from 1.0; "0.9" and None raised a bare TypeError
@pytest.mark.parametrize("value, shown", [(1.5, "1.5"), (True, "True"), ("0.9", "'0.9'"),
                                          (None, "None")])
def test_coulomb_refuses_an_initial_soc_outside_the_range(value, shown):
    cycle = toy_cycle(soc=False)
    with pytest.raises(ValueError, match=rf"^initial_soc must be in \[0, 1\], got {shown}$"):
        coulomb_count(cycle, DEFAULT_CELL, initial_soc=value)


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


def test_battery_spec_refuses_a_capacity_that_is_not_a_finite_positive_number():
    # inf made every coulomb-counted label initial_soc; nan made them all nan
    for value in (math.nan, math.inf, -math.inf, 0, -2.9, True, "2.9", np.float64(2.9)):
        with pytest.raises(ValueError, match="rated_capacity_ah must be a finite number > 0"):
            BatterySpec(rated_capacity_ah=value)
    assert BatterySpec(rated_capacity_ah=3).capacity_as == 3 * 3600.0


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


UNIT_RANGES = dict(voltage_min=0.0, voltage_max=1.0, current_min=0.0, current_max=1.0,
                   temperature_min=0.0, temperature_max=1.0, soc_min=0.0, soc_max=1.0)


@pytest.mark.parametrize("key, value, message", [
    ("voltage_min", math.nan, "voltage_min=nan is not finite"),
    ("current_max", math.inf, "current_max=inf is not finite"),
    ("soc_min", -math.inf, "soc_min=-inf is not finite"),
    ("temperature_max", 0.0, "temperature_max=0.0 is not above temperature_min=0.0"),
    ("voltage_min", 2.0, "voltage_max=1.0 is not above voltage_min=2.0"),
    ("voltage_min", False, "voltage_min=False is not an int or float"),
    ("soc_max", True, "soc_max=True is not an int or float"),
    ("current_max", "1.0", "current_max='1.0' is not an int or float"),
    ("soc_min", -0.5, r"soc_min=-0.5 is outside the SOC label band \[-0.01, 1.01\]"),
    ("soc_max", 2.95, r"soc_max=2.95 is outside the SOC label band \[-0.01, 1.01\]"),
])
def test_hand_built_normalization_range_is_checked(key, value, message):
    with pytest.raises(ValueError, match=f"normalization bound {message}"):
        NormalizationParams(**{**UNIT_RANGES, key: value})


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
    # each row is its channel's scale; a float scales to its array element
    for row, (name, column) in zip(f, [("voltage", "voltage_v"), ("current", "current_a"),
                                       ("temperature", "temperature_c"), ("soc", "soc")]):
        assert row.tobytes() == p.scale(name, getattr(c, column)).tobytes()
        assert all(p.scale(name, float(x)) == y for x, y in zip(getattr(c, column), row))


def test_apply_normalization_does_not_clip():
    train = toy_cycle()
    p = fit_normalization([train])
    hot = toy_cycle()
    hot.temperature_c[:] = hot.temperature_c + 100.0
    f = apply_normalization(hot, p)
    assert f[2].min() > 1.0  # far outside the fitted range, left unclipped


def test_normalization_identity_and_dict():
    p = NormalizationParams(0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
    assert p.bounds("voltage") == (0.0, 1.0)
    d = p.as_dict()
    assert len(d) == 8
    assert d["soc_min"] == 0.0 and d["soc_max"] == 1.0


# ---------------------------------------------------------------- windows


def test_make_windows_slicing_oracle():
    n, window, stride = 10, 4, 3
    c = toy_cycle(n=n)
    p = fit_normalization([c])
    ds = make_windows(c, p, window, stride)
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
    assert np.all(ds.source == 0) and len(ds.cycles) == 1 and ds.cycles[0] is c
    assert np.array_equal(ds.start, [0, 3, 6])


@pytest.mark.parametrize("stride", [1, 3, 40])
def test_make_windows_matches_index_gather(stride):
    # reference: gather every window through explicit index arrays
    n, window = 50, 12
    c = toy_cycle(n=n)
    p = fit_normalization([c])
    ds = make_windows(c, p, window, stride)
    feats = apply_normalization(c, p)
    starts = np.arange(0, n - window + 1, stride)
    idx = starts[:, None] + np.arange(window)[None, :]
    past_idx = idx - 1
    past_idx[:, 0] = starts
    want = np.concatenate([feats[:3][:, idx].transpose(1, 0, 2),
                           feats[3][past_idx][:, None, :]], axis=1)
    assert np.array_equal(ds.x, want)
    assert np.array_equal(ds.y, c.soc[starts + window - 1])
    assert np.array_equal(ds.start, starts)
    assert ds.x.base is None and ds.x.flags.writeable  # a fresh array, not the view


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


@pytest.mark.parametrize("window, stride, named", [
    (5, True, "stride"), (5, 2.5, "stride"), (5, 2.0, "stride"), (5, "2", "stride"),
    (2.5, 1, "window"), (True, 1, "window"), (5.0, 1, "window"),
])
def test_window_and_stride_must_be_integers(window, stride, named):
    # stride=True ran as stride 1, and a float window or stride was a numpy TypeError
    c = toy_cycle(n=10)
    p = fit_normalization([c])
    for build in (lambda: make_windows(c, p, window, stride),
                  lambda: build_hybrid([c], p, window, stride)):
        with pytest.raises(ValueError, match=f"^{named} must be an integer >= 1, got "):
            build()


def test_the_integer_rule_is_spelled_out_once():
    # it was written by hand in data, model, training and sweep, and skipped
    # by jobs, warmup and iterations
    words = "must be an integer"
    package = Path(inspect.getfile(check_int)).parent
    found = {path.name: path.read_text().count(words) for path in package.glob("*.py")}
    assert {name: n for name, n in found.items() if n} == {"data.py": 1}
    assert words in inspect.getsource(check_int)


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
    assert [c.name for c in ds.cycles] == ["a", "b", "c"]


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


def test_build_hybrid_equals_concatenate_then_permute():
    cycles = [toy_cycle(n=30, name="a"), toy_cycle(n=24, name="b"),
              toy_cycle(n=41, name="c")]
    p = fit_normalization(cycles)
    ds = build_hybrid(cycles, p, window=7, stride=2, seed=5)
    parts = [make_windows(c, p, 7, 2) for c in cycles]
    windows = [part.x for part in parts]  # before retagging: a part holds its cycle as 0
    for i, part in enumerate(parts):
        part.source[:] = i  # the tag build_hybrid gives each cycle's windows
    perm = SplitMix64(5).permutation(len(ds))
    for field in ("x", "y", "source", "start"):
        want = np.concatenate(windows if field == "x" else
                              [getattr(part, field) for part in parts])[perm]
        got = getattr(ds, field)
        assert got.dtype == want.dtype and np.array_equal(got, want), field


@pytest.mark.parametrize("rows", [[5, 0, 17, 3], [4, 4, 9, 4], [], [11]],
                         ids=["out-of-order", "repeated", "empty", "single"])
def test_windows_of_rows_equal_those_rows_of_x(rows):
    cycles = [toy_cycle(n=30, name="a"), toy_cycle(n=24, name="b"),
              toy_cycle(n=41, name="c")]
    cycles[1].current_a[:] = cycles[1].current_a * 1.7
    ds = build_hybrid(cycles, fit_normalization(cycles), window=7, stride=2, seed=5)
    rows = np.array(rows, dtype=np.int64)
    assert len(set(ds.source.tolist())) == 3  # rows come from several cycles
    got = ds.windows(rows)
    assert got.shape == (len(rows), 4, 7) and got.dtype == np.float64
    assert got.tobytes() == ds.x[rows].tobytes()


def test_dataset_holds_the_cycles_not_their_windows():
    cycles = [toy_cycle(n=30, name="a"), toy_cycle(n=24, name="b")]
    p = fit_normalization(cycles)
    ds = build_hybrid(cycles, p, window=7, stride=1, seed=5)
    assert all(held is given for held, given in zip(ds.cycles, cycles))
    assert "x" not in vars(ds)
    with pytest.raises(AttributeError):
        ds.x = np.zeros((len(ds), 4, 7))  # x is cut on each read, not stored
    assert ds.x is not ds.x and np.array_equal(ds.x, ds.x)


def test_build_hybrid_needs_cycles():
    with pytest.raises(ValueError):
        build_hybrid([], NormalizationParams(0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0), 5)


# ---------------------------------------------------------------- cycles


def test_drive_cycle_length_validation():
    t = np.arange(5.0)
    with pytest.raises(ValueError):
        DriveCycle(t, t[:4], t, t)
    with pytest.raises(ValueError):
        DriveCycle(t, t, t, t, soc=t[:3])


@pytest.mark.parametrize("column, index, value, why", [
    ("voltage_v", 10, math.nan, "not finite"),
    ("current_a", 3, math.inf, "not finite"),
    ("temperature_c", 0, -math.inf, "not finite"),
    ("time_s", 7, math.nan, "not finite"),
    ("soc", 5, math.nan, "not finite"),
    ("soc", 5, 1.7, r"outside \[-0.01, 1.01\]"),
    ("soc", 19, -0.5, r"outside \[-0.01, 1.01\]"),
    ("time_s", 7, 5.5, r"not after time_s\[6\] = 6.0"),  # a step back in time
])
def test_drive_cycle_rejects_bad_telemetry_naming_the_sample(column, index, value, why):
    # an in-memory cycle gets load_csv's checks: before this, a NaN voltage
    # gave a NaN normalization and a silently non-finite trained model
    good = toy_cycle()
    values = getattr(good, column).copy()
    values[index] = value
    time = float(good.time_s[index]) if column != "time_s" else value
    message = rf"cycle 'toy': {column}\[{index}\] = {value!r} at time_s {time!r} is {why}"
    with pytest.raises(ValueError, match=message):
        replace(good, **{column: values})
    with pytest.raises(ValueError, match=message):
        DriveCycle(**{**vars(good), column: values})


@pytest.mark.parametrize("bad, named", [
    pytest.param({"time_s": (7, 5.5), "voltage_v": (10, math.nan)},
                 r"time_s\[7\] = 5.5 at time_s 5.5 is not after time_s\[6\] = 6.0",
                 id="earlier-sample"),
    pytest.param({"soc": (12, 1.7), "voltage_v": (12, math.nan)},
                 r"voltage_v\[12\] = nan at time_s 12.0 is not finite", id="earlier-column"),
    pytest.param({"time_s": (7, 5.5), "soc": (7, 1.7)},
                 r"soc\[7\] = 1.7 at time_s 5.5 is outside \[-0.01, 1.01\]",
                 id="value-before-time-order"),
])
def test_drive_cycle_names_the_earliest_bad_sample(bad, named):
    # the earliest bad sample; at one sample, its first bad column in CSV
    # order, then its time order
    columns = {k: v.copy() if isinstance(v, np.ndarray) else v
               for k, v in vars(toy_cycle()).items()}
    for column, (index, value) in bad.items():
        columns[column][index] = value
    with pytest.raises(ValueError, match=rf"^cycle 'toy': {named}$"):
        DriveCycle(**columns)


def test_drive_cycle_accepts_soc_band_edges():
    cycle = toy_cycle(n=2)
    assert replace(cycle, soc=np.array([-0.01, 1.01])).soc.tolist() == [-0.01, 1.01]
