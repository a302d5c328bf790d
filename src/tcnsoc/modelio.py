"""Versioned binary model format.

Layout (all integers little-endian):

    bytes 0-3    magic ``TCN1``
    bytes 4-7    u32 format version (currently 1)
    bytes 8-11   u32 header length H
    H bytes      UTF-8 ``key=value`` lines: the integer config fields, a
                 fixed ``dilation_base=2`` line, p_keep, creation seed,
                 normalization ranges (only if trained), writer tag
    4*P bytes    weight payload: the model's parameter vector ``theta`` as
                 float32, in the parameter order of ``model._layout``
    4 bytes      u32 CRC32 of the payload

Floats in the header use Python's shortest round-trip repr, so a
serialize/deserialize/serialize cycle is byte-identical. The header carries
no timestamps: identical models produce identical files. Non-finite weights
are rejected here; the config and the normalization ranges check themselves
when built, so a bad header value is a ``ModelFormatError`` naming it.
"""

from __future__ import annotations

import dataclasses
import struct
import zlib
from pathlib import Path

import numpy as np

from .data import NormalizationParams
from .model import CONFIG_INT_FIELDS, TcnConfig, TcnModel, _conv_sizes

MAGIC = b"TCN1"
FORMAT_VERSION = 1
_WRITER = "tcn-soc 0.1.0"


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
    lines = [f"{name}={getattr(cfg, name)}" for name in CONFIG_INT_FIELDS]
    lines.append("dilation_base=2")  # fixed: the model doubles the dilation per block
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
        if key in fields:  # the CRC does not cover the header: no later line overrides
            raise ModelFormatError(f"{path}: header key {key!r} appears twice")
        fields[key] = value
    try:
        ints = {name: int(fields[name]) for name in CONFIG_INT_FIELDS}
        dilation_base = int(fields["dilation_base"])
        cfg = TcnConfig(**ints, p_keep=float(fields["p_keep"]))
        if dilation_base != 2:
            raise ValueError(f"config field dilation_base is fixed at 2, got {dilation_base}")
        seed = int(fields["seed"])
        norm_keys = [f.name for f in dataclasses.fields(NormalizationParams)]
        if not any(f"norm_{key}" in fields for key in norm_keys):
            return cfg, None, seed
        norm = NormalizationParams(**{key: float(fields[f"norm_{key}"]) for key in norm_keys})
    except KeyError as exc:
        raise ModelFormatError(f"{path}: header is missing key {exc}") from None
    except ValueError as exc:
        raise ModelFormatError(f"{path}: bad header value ({exc})") from None
    return cfg, norm, seed


def _check_finite(values: np.ndarray, path) -> None:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ModelFormatError(f"{path}: parameter {bad[0]} is not finite ({values[bad[0]]})")


def serialize(model: TcnModel, destination) -> int:
    """Write the model; returns the number of bytes written."""
    header = _header_text(model).encode("utf-8")
    with np.errstate(over="ignore"):  # a weight beyond float32 range is refused below
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
