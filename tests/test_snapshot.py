"""Tests for binary snapshots and CSV monitor series."""
import math
import struct
import zlib

import numpy as np
import pytest

from smcflow.grid import GridSpec, ScalarField
from smcflow.monitors import record_path_sample
from smcflow.snapshot import (
    CSV_HEADER,
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    SnapshotError,
    format_series,
    pack_snapshot,
    parse_series,
    read_series,
    read_snapshot,
    snapshot_payload_crc,
    unpack_snapshot,
    write_series,
    write_snapshot,
)

TWO_PI = 2.0 * math.pi


def sample_field(n=8, seed=3):
    rng = np.random.default_rng(seed)
    grid = GridSpec(n)
    return ScalarField(grid, rng.normal(size=(n, n)))


class TestSnapshotRoundTrip:
    def test_pack_unpack_bitwise(self):
        u = sample_field()
        blob = pack_snapshot(u, t=0.125, seed=42, step=17)
        v, t, seed, step = unpack_snapshot(blob)
        np.testing.assert_array_equal(v.values, u.values)
        assert v.grid == u.grid
        assert (t, seed, step) == (0.125, 42, 17)

    def test_awkward_floats_survive(self):
        grid = GridSpec(8)
        vals = np.zeros((8, 8))
        vals[0, 0] = -0.0
        vals[1, 2] = 5e-324          # smallest denormal
        vals[3, 4] = 1.7976931348623157e308
        vals[5, 6] = 1.0 + 2**-52
        blob = pack_snapshot(ScalarField(grid, vals), 0.0, 0, 0)
        v, _, _, _ = unpack_snapshot(blob)
        assert np.array_equal(v.values, vals)
        assert np.signbit(v.values[0, 0])

    def test_layout(self):
        u = sample_field(n=8)
        blob = pack_snapshot(u, 1.0, 7, 9)
        assert blob[:4] == SNAPSHOT_MAGIC == b"SMCF"
        header = struct.Struct("<HIdQQ")
        assert len(blob) == 4 + header.size + 8 * 8 * 8 + 4
        version, n, t, seed, step = header.unpack_from(blob, 4)
        assert (version, n, t, seed, step) == (SNAPSHOT_VERSION, 8, 1.0, 7, 9)
        payload = blob[4 + header.size:-4]
        (crc,) = struct.unpack("<I", blob[-4:])
        assert crc == zlib.crc32(payload)

    def test_file_round_trip(self, tmp_path):
        u = sample_field(n=16, seed=11)
        p = tmp_path / "state.snap"
        write_snapshot(p, u, 0.5, 123, 50)
        v, t, seed, step = read_snapshot(p)
        np.testing.assert_array_equal(v.values, u.values)
        assert (t, seed, step) == (0.5, 123, 50)
        assert snapshot_payload_crc(p) == zlib.crc32(
            np.ascontiguousarray(u.values, dtype="<f8").tobytes()
        )


class TestSnapshotErrors:
    def test_seed_and_step_must_fit_u64(self):
        u = sample_field()
        with pytest.raises(SnapshotError, match="seed"):
            pack_snapshot(u, 0.0, -1, 0)
        with pytest.raises(SnapshotError, match="step"):
            pack_snapshot(u, 0.0, 0, 2**64)

    def test_truncated(self):
        with pytest.raises(SnapshotError, match="truncated"):
            unpack_snapshot(b"SMCF")

    def test_bad_magic(self):
        blob = pack_snapshot(sample_field(), 0.0, 0, 0)
        with pytest.raises(SnapshotError, match="bad magic"):
            unpack_snapshot(b"XXXX" + blob[4:])

    def test_bad_version(self):
        blob = bytearray(pack_snapshot(sample_field(), 0.0, 0, 0))
        struct.pack_into("<H", blob, 4, 99)
        with pytest.raises(SnapshotError, match="version 99"):
            unpack_snapshot(bytes(blob))

    def test_length_mismatch(self):
        blob = pack_snapshot(sample_field(), 0.0, 0, 0)
        with pytest.raises(SnapshotError, match="length"):
            unpack_snapshot(blob + b"\x00")

    @pytest.mark.parametrize("n", [0, 6, 7])
    def test_bad_grid_size_in_header(self, n):
        # length and CRC agree with the header, only n itself is invalid
        payload = np.zeros(n * n, dtype="<f8").tobytes()
        blob = (
            SNAPSHOT_MAGIC
            + struct.pack("<HIdQQ", SNAPSHOT_VERSION, n, 0.0, 0, 0)
            + payload
            + struct.pack("<I", zlib.crc32(payload))
        )
        with pytest.raises(SnapshotError, match=f"header field n: grid size n={n}"):
            unpack_snapshot(blob)

    def test_crc_mismatch(self):
        blob = bytearray(pack_snapshot(sample_field(), 0.0, 0, 0))
        blob[40] ^= 0xFF    # flip one payload byte
        with pytest.raises(SnapshotError, match="CRC mismatch"):
            unpack_snapshot(bytes(blob))


class TestSeries:
    def real_records(self):
        grid = GridSpec(16)
        x1, x2 = grid.nodes()
        out = []
        for k, t in enumerate((0.0, 1e-3, 2e-3)):
            u = ScalarField(
                grid,
                (0.3 + 0.01 * k) * np.sin(TWO_PI * x1) + 1e-7 * np.cos(TWO_PI * x2),
            )
            out.append(record_path_sample(u, t)[0])
        return out

    def test_header_is_fixed(self):
        assert CSV_HEADER == (
            "t,grad_energy,area,mc_dissipation,laplace_dissipation,"
            "mass,gauss_bonnet,hess_linf,u_min,u_max"
        )

    def test_format_parse_round_trip_is_exact(self):
        recs = self.real_records()
        text = format_series(recs)
        assert text.splitlines()[0] == CSV_HEADER
        again = parse_series(text)
        assert again == recs    # float equality: 17 significant digits

    def test_file_round_trip(self, tmp_path):
        recs = self.real_records()
        p = tmp_path / "series.csv"
        write_series(p, recs)
        assert read_series(p) == recs

    def test_rewrite_is_byte_identical(self, tmp_path):
        recs = self.real_records()
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_series(a, recs)
        write_series(b, parse_series(format_series(recs)))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_header(self):
        with pytest.raises(SnapshotError, match="header"):
            parse_series("1,2,3\n")

    def test_ragged_row(self):
        text = CSV_HEADER + "\n0.0,1.0\n"
        with pytest.raises(SnapshotError, match="columns"):
            parse_series(text)

    def test_blank_lines_tolerated(self):
        recs = self.real_records()
        text = format_series(recs) + "\n\n"
        assert parse_series(text) == recs


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
