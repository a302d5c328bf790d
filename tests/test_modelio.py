"""Tests for the binary model file format."""

import struct
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from tcnsoc.data import DriveCycle, NormalizationParams
from tcnsoc.model import TcnConfig, TcnModel, build_model, forward, parameter_count
from tcnsoc.modelio import (
    MAGIC,
    BadMagicError,
    ChecksumError,
    ModelFormatError,
    TruncatedPayloadError,
    VersionMismatchError,
    deserialize,
    serialize,
)
from tcnsoc.rng import SplitMix64
from tcnsoc.training import evaluate


def small_model(seed=0, **cfg_kw):
    base = dict(stacks=1, input_window=20, kernel_size=3, filters=3)
    base.update(cfg_kw)
    norm = NormalizationParams(3.0, 4.2, -2.0, 5.0, 20.0, 45.0, 0.0, 1.0)
    return build_model(TcnConfig(**base), seed=seed, norm=norm)


def test_round_trip_second_generation_bit_exact(tmp_path):
    # first write quantizes float64 to float32; after that the bytes and
    # the weights are a fixed point
    m1 = small_model(seed=5)
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    serialize(m1, p1)
    m2 = deserialize(p1)
    serialize(m2, p2)
    m3 = deserialize(p2)
    assert p1.read_bytes() == p2.read_bytes()
    for a, b in zip(m2.parameters(), m3.parameters()):
        assert np.array_equal(a, b)


def test_round_trip_predictions_match(tmp_path):
    m1 = small_model(seed=9)
    path = tmp_path / "m.bin"
    serialize(m1, path)
    m2 = deserialize(path)
    x = SplitMix64(3).uniform(-1, 1, (2, 4, 20))
    y1 = forward(m1, x)
    y2 = forward(m2, x)
    # float32 storage perturbs weights by at most 2**-24 relative
    assert np.allclose(y1, y2, rtol=1e-5, atol=1e-6)
    serialize(m2, path)
    assert np.array_equal(forward(deserialize(path), x), y2)


def test_round_trip_preserves_metadata(tmp_path):
    m = small_model(seed=123, stacks=2, kernel_size=4, filters=5)
    path = tmp_path / "m.bin"
    serialize(m, path)
    m2 = deserialize(path)
    assert m2.config == m.config
    assert m2.seed == 123
    assert m2.norm == m.norm


def test_none_norm_round_trips_as_untrained(tmp_path):
    m = build_model(TcnConfig(stacks=1, input_window=10, kernel_size=2), seed=0)
    assert m.norm is None
    path = tmp_path / "m.bin"
    serialize(m, path)
    assert b"norm_" not in path.read_bytes()
    loaded = deserialize(path)
    assert loaded.norm is None
    t = np.arange(20, dtype=np.float64)
    cycle = DriveCycle(t, 3.5 + 0.01 * t, np.ones(20), 25.0 + t, np.linspace(0.9, 0.8, 20))
    with pytest.raises(ValueError, match="train it first"):
        evaluate(loaded, cycle)


def test_serialize_is_deterministic(tmp_path):
    m = small_model(seed=77)
    pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
    assert serialize(m, pa) == serialize(m, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_file_size_formula(tmp_path):
    for seed, kw in ((0, {}), (1, dict(stacks=3)), (2, dict(filters=4, input_features=4))):
        m = small_model(seed=seed, **kw)
        path = tmp_path / f"m{seed}.bin"
        written = serialize(m, path)
        size = path.stat().st_size
        assert written == size
        n = parameter_count(m.config)
        header_len = struct.unpack_from("<I", path.read_bytes(), 8)[0]
        assert size == 12 + header_len + 4 * n + 4
        assert size >= 4 * n


def test_payload_is_float32_little_endian(tmp_path):
    m = small_model(seed=4)
    path = tmp_path / "m.bin"
    serialize(m, path)
    blob = path.read_bytes()
    header_len = struct.unpack_from("<I", blob, 8)[0]
    start = 12 + header_len
    n = parameter_count(m.config)
    stored = np.frombuffer(blob[start:start + 4 * n], dtype="<f4")
    expected = np.concatenate([a.ravel() for a in m.parameters()]).astype("<f4")
    assert np.array_equal(stored, expected)


def test_bad_magic(tmp_path):
    path = tmp_path / "m.bin"
    serialize(small_model(), path)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagicError):
        deserialize(path)


def test_not_a_model_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"hello world, definitely not a model")
    with pytest.raises(BadMagicError):
        deserialize(path)
    path.write_bytes(b"\x00")
    with pytest.raises(BadMagicError):
        deserialize(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "m.bin"
    serialize(small_model(), path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 4, 2)
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatchError):
        deserialize(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "m.bin"
    serialize(small_model(), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(TruncatedPayloadError):
        deserialize(path)


def test_header_with_a_billion_stacks_rejected_at_once(tmp_path):
    path = tmp_path / "m.bin"
    serialize(small_model(), path)
    blob = path.read_bytes()
    header_len = struct.unpack_from("<I", blob, 8)[0]
    header = blob[12:12 + header_len].replace(b"stacks=1\n", b"stacks=1000000000\n")
    path.write_bytes(blob[:8] + struct.pack("<I", len(header)) + header
                     + blob[12 + header_len:])
    t0 = time.perf_counter()
    with pytest.raises(TruncatedPayloadError, match="header describes more"):
        deserialize(path)
    assert time.perf_counter() - t0 < 0.25


def test_fuzzed_files_raise_format_errors(tmp_path):
    """Seeded byte flips, truncations and overwrites: a file either loads or
    raises ModelFormatError. Only an edit inside the header text may load
    (a changed seed or norm digit is a valid file), and then the weights are
    the original ones, which the checksum guards."""
    path = tmp_path / "m.bin"
    original = small_model(seed=3)
    serialize(original, path)
    blob = path.read_bytes()
    header_end = 12 + struct.unpack_from("<I", blob, 8)[0]
    rng = SplitMix64(2024)
    for case in range(450):
        data = bytearray(blob)
        at = rng.below(len(blob))
        if case % 3 == 0:
            data[at] ^= 1 + rng.below(255)
        elif case % 3 == 1:
            data = data[:at]
        else:
            size = min(1 + rng.below(8), len(blob) - at)
            data[at:at + size] = bytes(rng.below(256) for _ in range(size))
        if data == blob:
            continue
        path.write_bytes(bytes(data))
        try:
            model = deserialize(path)
        except ModelFormatError:
            continue
        assert case % 3 != 1 and 12 <= at < header_end, (case, at)
        assert isinstance(model, TcnModel)
        assert np.array_equal(model.theta, original.theta.astype(np.float32))


def test_truncated_header(tmp_path):
    path = tmp_path / "m.bin"
    serialize(small_model(), path)
    path.write_bytes(path.read_bytes()[:20])
    with pytest.raises(TruncatedPayloadError):
        deserialize(path)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "m.bin"
    serialize(small_model(), path)
    path.write_bytes(path.read_bytes() + b"\x00\x01")
    with pytest.raises(ModelFormatError):
        deserialize(path)


def test_payload_corruption_detected(tmp_path):
    path = tmp_path / "m.bin"
    serialize(small_model(seed=8), path)
    blob = bytearray(path.read_bytes())
    header_len = struct.unpack_from("<I", blob, 8)[0]
    blob[12 + header_len + 5] ^= 0x10  # flip one bit inside the weights
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        deserialize(path)


def test_crc_field_corruption_detected(tmp_path):
    path = tmp_path / "m.bin"
    serialize(small_model(seed=8), path)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        deserialize(path)


def test_header_value_corruption(tmp_path):
    path = tmp_path / "m.bin"
    serialize(small_model(), path)
    blob = path.read_bytes()
    header_len = struct.unpack_from("<I", blob, 8)[0]
    header = blob[12:12 + header_len].decode()
    bad = header.replace("stacks=1", "stacks=x", 1).encode()
    path.write_bytes(blob[:12] + bad + blob[12 + header_len:])
    with pytest.raises(ModelFormatError):
        deserialize(path)


def test_all_format_errors_are_value_errors():
    for exc in (BadMagicError, VersionMismatchError, TruncatedPayloadError,
                ChecksumError):
        assert issubclass(exc, ModelFormatError)
        assert issubclass(exc, ValueError)


def test_error_message_names_file(tmp_path):
    path = tmp_path / "distinctive_name.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(BadMagicError, match="distinctive_name"):
        deserialize(path)


def test_magic_constant():
    assert MAGIC == b"TCN1"


def test_accepts_str_and_path(tmp_path):
    m = small_model(seed=2)
    as_str = str(tmp_path / "s.bin")
    serialize(m, as_str)
    m2 = deserialize(as_str)
    serialize(m2, Path(tmp_path / "p.bin"))
    m3 = deserialize(Path(tmp_path / "p.bin"))
    for a, b in zip(m2.parameters(), m3.parameters()):
        assert np.array_equal(a, b)


def test_many_random_models_round_trip(tmp_path):
    rng = SplitMix64(42)
    for trial in range(20):
        cfg = TcnConfig(
            stacks=1 + trial % 3,
            input_window=10 + trial,
            kernel_size=2 + trial % 4,
            filters=2 + trial % 3,
            blocks_per_stack=1 + trial % 2,
        )
        m1 = build_model(cfg, seed=int(rng.next_u64()))
        pa, pb = tmp_path / f"{trial}a.bin", tmp_path / f"{trial}b.bin"
        serialize(m1, pa)
        m2 = deserialize(pa)
        serialize(m2, pb)
        m3 = deserialize(pb)
        assert pa.read_bytes() == pb.read_bytes()
        for a, b in zip(m2.parameters(), m3.parameters()):
            assert np.array_equal(a, b)
        assert m2.config == cfg


@pytest.mark.parametrize("cfg, crc", [
    (dict(stacks=2, input_window=100), 0xEC814F28),
    (dict(stacks=2, input_window=100, filters=8), 0x788A3C7F),
    (dict(stacks=1, input_window=12, kernel_size=3, filters=3, blocks_per_stack=2),
     0x3FBAFF1E),
])
def test_payload_crc_is_pinned(tmp_path, cfg, crc):
    # fixed init draws in the fixed parameter order; the last two have downsamples
    path = tmp_path / "m.bin"
    serialize(build_model(TcnConfig(**cfg), seed=7), path)
    assert struct.unpack("<I", path.read_bytes()[-4:])[0] == crc


def rewrite_payload_value(path, index, value):
    """Store one payload float and recompute the CRC, so only the value is wrong."""
    blob = bytearray(path.read_bytes())
    header_len = struct.unpack_from("<I", blob, 8)[0]
    start = 12 + header_len
    struct.pack_into("<f", blob, start + 4 * index, value)
    struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(blob[start:-4]) & 0xFFFFFFFF)
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_weight_rejected(tmp_path, value):
    path = tmp_path / "m.bin"
    serialize(small_model(seed=4), path)
    rewrite_payload_value(path, 17, value)
    with pytest.raises(ModelFormatError, match=r"m\.bin: parameter 17 is not finite"):
        deserialize(path)


def test_serialize_refuses_weights_not_finite_in_float32(tmp_path):
    model = small_model(seed=4)
    model.theta[5] = 1e39  # finite in float64, inf in float32
    with pytest.warns(RuntimeWarning), \
            pytest.raises(ModelFormatError, match="parameter 5 is not finite"):
        serialize(model, tmp_path / "m.bin")
    assert not (tmp_path / "m.bin").exists()


@pytest.mark.parametrize("old, new, message", [
    ("norm_soc_max=1.0", "norm_soc_max=nan", "header norm_soc_max=nan is not finite"),
    ("norm_voltage_min=3.0", "norm_voltage_min=inf", "header norm_voltage_min=inf is not finite"),
    ("norm_voltage_min=3.0", "norm_voltage_min=4.2", "header norm_voltage_max=4.2 is not above"),
    ("norm_voltage_min=3.0", "norm_voltage_min=5.0", "header norm_voltage_max=4.2 is not above"),
    ("norm_soc_max=1.0\n", "", "header is missing key 'norm_soc_max'"),
    ("p_keep=0.9", "p_keep=nan", r"bad header value \(config field p_keep"),
    ("stacks=1", "stacks=0", r"bad header value \(config field stacks"),
])
def test_bad_header_value_rejected(tmp_path, old, new, message):
    path = tmp_path / "m.bin"
    serialize(small_model(), path)
    blob = path.read_bytes()
    header_len = struct.unpack_from("<I", blob, 8)[0]
    header = blob[12:12 + header_len].decode()
    assert old in header
    bad = header.replace(old, new, 1).encode()
    path.write_bytes(blob[:8] + struct.pack("<I", len(bad)) + bad + blob[12 + header_len:])
    with pytest.raises(ModelFormatError, match=f"m\\.bin: {message}"):
        deserialize(path)
