"""Binary field snapshots and CSV monitor series.

Snapshot layout (little endian):

    bytes 0..3    magic "SMCF"
    bytes 4..     header struct '<HIdQQ': version u16, n u32, t f64,
                  seed u64, step u64
    payload       n*n float64, row-major
    trailer       CRC32 of the payload, u32

CSV series use the fixed 10-column header and 17-significant-digit floats,
so a written file reparses to bit-identical values.
"""
from __future__ import annotations

import struct
import zlib
from typing import Sequence

import numpy as np

from .grid import GridSpec, ScalarField
from .monitors import RECORD_FIELDS, EnergyRecord

__all__ = [
    "SnapshotError",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "pack_snapshot",
    "unpack_snapshot",
    "write_snapshot",
    "read_snapshot",
    "snapshot_payload_crc",
    "CSV_HEADER",
    "format_series",
    "parse_series",
    "write_series",
    "read_series",
]

SNAPSHOT_MAGIC = b"SMCF"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<HIdQQ")
_CRC = struct.Struct("<I")

CSV_HEADER = ",".join(RECORD_FIELDS)


class SnapshotError(IOError):
    pass


def pack_snapshot(field: ScalarField, t: float, seed: int, step: int) -> bytes:
    if not 0 <= seed < 2**64:
        raise SnapshotError(f"seed {seed} does not fit in u64")
    if not 0 <= step < 2**64:
        raise SnapshotError(f"step {step} does not fit in u64")
    payload = np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    return (
        SNAPSHOT_MAGIC
        + _HEADER.pack(SNAPSHOT_VERSION, field.grid.n, t, seed, step)
        + payload
        + _CRC.pack(zlib.crc32(payload))
    )


def unpack_snapshot(blob: bytes) -> tuple[ScalarField, float, int, int]:
    head = len(SNAPSHOT_MAGIC) + _HEADER.size
    if len(blob) < head + _CRC.size:
        raise SnapshotError("snapshot truncated")
    if blob[:4] != SNAPSHOT_MAGIC:
        raise SnapshotError(f"bad magic {blob[:4]!r}")
    version, n, t, seed, step = _HEADER.unpack_from(blob, 4)
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {version}")
    try:
        grid = GridSpec(n)
    except ValueError as e:
        raise SnapshotError(f"bad header field n: {e}") from None
    expected = head + n * n * 8 + _CRC.size
    if len(blob) != expected:
        raise SnapshotError(f"snapshot length {len(blob)} != expected {expected}")
    payload = blob[head:-_CRC.size]
    (crc,) = _CRC.unpack(blob[-_CRC.size:])
    if zlib.crc32(payload) != crc:
        raise SnapshotError("snapshot payload CRC mismatch")
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(n, n)
    return ScalarField(grid, values), t, seed, step


def write_snapshot(path, field: ScalarField, t: float, seed: int, step: int):
    blob = pack_snapshot(field, t, seed, step)
    with open(path, "wb") as f:
        f.write(blob)


def read_snapshot(path) -> tuple[ScalarField, float, int, int]:
    with open(path, "rb") as f:
        blob = f.read()
    return unpack_snapshot(blob)


def snapshot_payload_crc(path) -> int:
    """CRC32 of the payload of an existing snapshot (validates on read)."""
    field, _, _, _ = read_snapshot(path)
    payload = np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    return zlib.crc32(payload)


# ---------------------------------------------------------------------------
# CSV series

def format_series(records: Sequence[EnergyRecord]) -> str:
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(",".join("%.17g" % v for v in rec.as_row()))
    return "\n".join(lines) + "\n"


def parse_series(text: str) -> list[EnergyRecord]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise SnapshotError("series header missing or unrecognized")
    out = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(RECORD_FIELDS):
            raise SnapshotError(f"series row has {len(parts)} columns, expected {len(RECORD_FIELDS)}")
        vals = [float(p) for p in parts]
        out.append(EnergyRecord(*vals))
    return out


def write_series(path, records: Sequence[EnergyRecord]):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(format_series(records))


def read_series(path) -> list[EnergyRecord]:
    with open(path, "r", encoding="utf-8") as f:
        return parse_series(f.read())
