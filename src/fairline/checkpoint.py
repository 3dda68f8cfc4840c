"""Binary checkpoint container shared by subspace and fixed models.

Layout (all integers little-endian u32, floats little-endian f64):

    magic "YODO" | version | kind | n_dims | dims... |
    per array: length, values... | metadata | crc32

kind 0 stores two arrays (the endpoint pair), kind 1 stores one (a fixed
model). dims is the full layer-size chain, input width first, output width
(always 1) last. The metadata block is UTF-8 "key=value" lines sorted by key
and runs from the end of the arrays to the trailing CRC-32, which covers all
preceding bytes.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import CheckpointError, ParameterError
from .model import MlpArchitecture

MAGIC = b"YODO"
VERSION = 1
KIND_PAIR = 0
KIND_SINGLE = 1

_U32 = struct.Struct("<I")


def _encode_meta(meta: dict[str, str]) -> bytes:
    lines = []
    for key in sorted(meta):
        value = meta[key]
        if "=" in key or "\n" in key or "\n" in value:
            raise ParameterError(f"metadata key/value not encodable: {key!r}")
        try:
            lines.append(f"{key}={value}\n".encode("utf-8"))
        except UnicodeEncodeError:
            raise ParameterError(f"metadata key/value not UTF-8 encodable: {key!r}") from None
    return b"".join(lines)


def _decode_meta(blob: bytes) -> dict[str, str]:
    meta: dict[str, str] = {}
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"metadata block is not UTF-8: {exc}") from None
    for line in text.split("\n"):
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CheckpointError(f"malformed metadata line: {line!r}")
        meta[key] = value
    return meta


def write_checkpoint(path, kind: int, arch: MlpArchitecture,
                     arrays: list[np.ndarray], meta: dict[str, str]) -> None:
    parts = [MAGIC, _U32.pack(VERSION), _U32.pack(kind)]
    dims = arch.layer_dims
    parts.append(_U32.pack(len(dims)))
    for d in dims:
        parts.append(_U32.pack(d))
    for arr in arrays:
        if arr.shape != (arch.param_count,):
            raise ParameterError("array length does not match the architecture")
        parts.append(_U32.pack(arr.shape[0]))
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    parts.append(_encode_meta(meta))
    body = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(body + _U32.pack(zlib.crc32(body)))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def u32(self) -> int:
        if self.pos + 4 > len(self.blob):
            raise CheckpointError("truncated checkpoint")
        (v,) = _U32.unpack_from(self.blob, self.pos)
        self.pos += 4
        return v

    def f64_array(self, count: int) -> np.ndarray:
        nbytes = count * 8
        if self.pos + nbytes > len(self.blob):
            raise CheckpointError("truncated checkpoint")
        arr = np.frombuffer(self.blob, dtype="<f8", count=count, offset=self.pos)
        self.pos += nbytes
        return arr.astype(np.float64)


def read_checkpoint(path, expected_kind: int
                    ) -> tuple[MlpArchitecture, list[np.ndarray], dict[str, str]]:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MAGIC) + 12:
        raise CheckpointError("truncated checkpoint")
    if data[:4] != MAGIC:
        raise CheckpointError(f"bad magic bytes {data[:4]!r}")
    stored_crc = _U32.unpack_from(data, len(data) - 4)[0]
    if zlib.crc32(data[:-4]) != stored_crc:
        raise CheckpointError("checksum mismatch")

    r = _Reader(data[4:-4])
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"unsupported format version {version}")
    kind = r.u32()
    if kind != expected_kind:
        raise CheckpointError(f"checkpoint kind {kind}, expected {expected_kind}")
    n_dims = r.u32()
    if n_dims < 2:
        raise CheckpointError(f"invalid layer count {n_dims}")
    dims = [r.u32() for _ in range(n_dims)]
    if dims[-1] != 1 or any(d < 1 for d in dims):
        raise CheckpointError(f"invalid layer sizes {dims}")
    arch = MlpArchitecture(dims[0], tuple(dims[1:-1]))

    n_arrays = 2 if kind == KIND_PAIR else 1
    arrays = []
    for _ in range(n_arrays):
        length = r.u32()
        if length != arch.param_count:
            raise CheckpointError(
                f"array length {length} disagrees with architecture "
                f"({arch.param_count} parameters)"
            )
        arrays.append(r.f64_array(length))
    meta = _decode_meta(r.blob[r.pos:])
    return arch, arrays, meta
