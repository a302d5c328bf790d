"""Versioned binary model format.

Layout (all integers little-endian):

    bytes 0-3    magic ``TCN1``
    bytes 4-7    u32 format version (currently 1)
    bytes 8-11   u32 header length H
    H bytes      UTF-8 ``key=value`` lines: config fields, creation seed,
                 normalization ranges (only if trained), writer tag
    4*P bytes    weight payload: the model's parameter vector ``theta`` as
                 float32, in the parameter order of ``model._layout``
    4 bytes      u32 CRC32 of the payload

Floats in the header use Python's shortest round-trip repr, so a
serialize/deserialize/serialize cycle is byte-identical. The header carries
no timestamps: identical models produce identical files. Non-finite weights
and non-finite or empty normalization ranges are rejected.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .data import CHANNEL_NAMES, NormalizationParams
from .model import TcnConfig, TcnModel, _conv_sizes

MAGIC = b"TCN1"
FORMAT_VERSION = 1
_WRITER = "tcn-soc 0.1.0"

_CONFIG_INT_FIELDS = ["stacks", "input_window", "kernel_size", "filters",
                      "input_features", "blocks_per_stack", "dilation_base"]


class ModelFormatError(ValueError):
    """Base class for malformed model files."""


class BadMagicError(ModelFormatError):
    pass


class VersionMismatchError(ModelFormatError):
    pass


class TruncatedPayloadError(ModelFormatError):
    pass


class ChecksumError(ModelFormatError):
    pass


def _header_text(model: TcnModel) -> str:
    cfg = model.config
    lines = [f"{name}={getattr(cfg, name)}" for name in _CONFIG_INT_FIELDS]
    lines.append(f"p_keep={cfg.p_keep!r}")
    lines.append(f"seed={model.seed}")
    if model.norm is not None:  # an untrained model has no norm_* lines
        lines += [f"norm_{key}={value!r}" for key, value in model.norm.as_dict().items()]
    lines.append(f"writer={_WRITER}")
    return "\n".join(lines) + "\n"


def _parse_header(text: str, path: Path) -> tuple[TcnConfig, NormalizationParams | None, int]:
    fields: dict[str, str] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ModelFormatError(f"{path}: malformed header line {line!r}")
        fields[key] = value
    try:
        cfg = TcnConfig(
            **{name: int(fields[name]) for name in _CONFIG_INT_FIELDS},
            p_keep=float(fields["p_keep"]),
        )
        cfg.validate()
        seed = int(fields["seed"])
        norm_keys = [f"{name}_{end}" for name in CHANNEL_NAMES for end in ("min", "max")]
        if not any(f"norm_{key}" in fields for key in norm_keys):
            return cfg, None, seed
        norm = NormalizationParams(**{key: float(fields[f"norm_{key}"]) for key in norm_keys})
    except KeyError as exc:
        raise ModelFormatError(f"{path}: header is missing key {exc}") from None
    except ValueError as exc:
        raise ModelFormatError(f"{path}: bad header value ({exc})") from None
    for key, value in norm.as_dict().items():
        if not math.isfinite(value):
            raise ModelFormatError(f"{path}: header norm_{key}={value!r} is not finite")
    for name in CHANNEL_NAMES:
        lo, hi = norm.bounds(name)
        if not lo < hi:
            raise ModelFormatError(
                f"{path}: header norm_{name}_max={hi!r} is not above norm_{name}_min={lo!r}"
            )
    return cfg, norm, seed


def _check_finite(values: np.ndarray, path) -> None:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ModelFormatError(f"{path}: parameter {bad[0]} is not finite ({values[bad[0]]})")


def serialize(model: TcnModel, destination) -> int:
    """Write the model; returns the number of bytes written."""
    header = _header_text(model).encode("utf-8")
    values = model.theta.astype("<f4")
    _check_finite(values, destination)
    payload = values.tobytes()
    blob = b"".join([
        MAGIC,
        struct.pack("<I", FORMAT_VERSION),
        struct.pack("<I", len(header)),
        header,
        payload,
        struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF),
    ])
    Path(destination).write_bytes(blob)
    return len(blob)


def deserialize(source) -> TcnModel:
    """Read a model back; weights are the stored float32 values upcast to float64."""
    path = Path(source)
    blob = path.read_bytes()
    if len(blob) < 12 or blob[:4] != MAGIC:
        raise BadMagicError(f"{path}: not a TCN1 model file (bad magic)")
    version = struct.unpack_from("<I", blob, 4)[0]
    if version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"{path}: format version {version}, expected {FORMAT_VERSION}"
        )
    header_len = struct.unpack_from("<I", blob, 8)[0]
    body_start = 12 + header_len
    if len(blob) < body_start:
        raise TruncatedPayloadError(f"{path}: header truncated")
    try:
        header = blob[12:body_start].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: header is not UTF-8 ({exc})") from None
    cfg, norm, seed = _parse_header(header, path)

    # summed lazily, so a header describing 10**9 stacks is rejected at once
    room = (len(blob) - body_start - 4) // 4
    n_params = 0
    for size in _conv_sizes(cfg):
        n_params += size
        if n_params > room:
            raise TruncatedPayloadError(
                f"{path}: file has {len(blob)} bytes, room for {max(room, 0)} "
                f"parameters, but its header describes more"
            )
    expected = body_start + 4 * n_params + 4
    if len(blob) > expected:
        raise ModelFormatError(f"{path}: {len(blob) - expected} trailing bytes")
    payload = blob[body_start:body_start + 4 * n_params]
    stored_crc = struct.unpack_from("<I", blob, expected - 4)[0]
    actual_crc = zlib.crc32(payload) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise ChecksumError(
            f"{path}: payload checksum mismatch "
            f"(stored {stored_crc:#010x}, computed {actual_crc:#010x})"
        )

    theta = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    _check_finite(theta, path)
    return TcnModel(cfg, theta, norm=norm, seed=seed)
