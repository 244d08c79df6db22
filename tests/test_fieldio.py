"""Binary checkpoint and CSV export round-trips."""

import csv
import io
import json
import math
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lanslab import (
    FieldFormatError,
    SpectralField,
    TorusGrid,
    field_to_csv,
    forward_transform,
    inverse_transform,
    l2_norm,
    random_solenoidal,
    read_field,
    write_field,
)
from lanslab import fieldio
from lanslab.fieldio import MAGIC


@pytest.fixture()
def sample(grid16, rng):
    return random_solenoidal(grid16, rng)


class TestBinaryRoundTrip:
    def test_bitwise_roundtrip(self, tmp_path, sample):
        path = tmp_path / "u.field"
        write_field(path, sample)
        back = read_field(path)
        assert np.array_equal(back.coeffs, sample.coeffs)
        assert back.grid == sample.grid

    def test_extra_header_survives(self, tmp_path, sample):
        path = tmp_path / "u.field"
        write_field(path, sample, extra={"seed": 7, "label": "ic"})
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[len(MAGIC) : len(MAGIC) + 4], "little")
        header = json.loads(raw[len(MAGIC) + 4 : len(MAGIC) + 4 + hlen])
        assert header["extra"] == {"seed": 7, "label": "ic"}

    def test_scalar_field_roundtrip(self, tmp_path, grid16, rng):
        from lanslab import forward_transform

        f = forward_transform(rng.standard_normal(grid16.shape), grid16)
        path = tmp_path / "s.field"
        write_field(path, f)
        assert np.array_equal(read_field(path).coeffs, f.coeffs)

    def test_bad_magic_rejected(self, tmp_path, sample):
        path = tmp_path / "u.field"
        write_field(path, sample)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FieldFormatError, match="magic"):
            read_field(path)

    def test_truncated_payload_rejected(self, tmp_path, sample):
        path = tmp_path / "u.field"
        write_field(path, sample)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(FieldFormatError, match="truncated"):
            read_field(path)


def copying_checkpoint(field, extra=None) -> bytes:
    """The checkpoint as the writer once built it, through two copies of
    the coefficients (astype, then tobytes): the byte reference."""
    g = field.grid
    header = {"dim": g.dim, "points_per_axis": g.points_per_axis, "box_length": g.box_length,
              "dealias_fraction": g.dealias_fraction, "shape": list(field.coeffs.shape)}
    if extra:
        header["extra"] = extra
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = np.ascontiguousarray(field.coeffs.astype("<c16")).tobytes()
    return MAGIC + struct.pack("<I", len(blob)) + blob + payload


class TestCheckpointWriter:
    @pytest.mark.parametrize("n, rank", [(n, rank) for n in (8, 16) for rank in (0, 1, 2)])
    def test_bytes_match_copying_writer(self, tmp_path, n, rank):
        grid = TorusGrid(dim=3, points_per_axis=n)
        field = forward_transform(np.random.default_rng(n + rank).standard_normal((3,) * rank + grid.shape), grid)
        path = tmp_path / "f.field"
        write_field(path, field, extra={"t": 0.5})
        assert path.read_bytes() == copying_checkpoint(field, extra={"t": 0.5})

    def test_traced_peak_below_one_copy(self, tmp_path, grid32):
        # 1.5 MB of coefficients are written from the array's own buffer
        field = forward_transform(np.random.default_rng(8).standard_normal((3,) + grid32.shape), grid32)
        tracemalloc.start()
        try:
            write_field(tmp_path / "u.field", field)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert field.coeffs.nbytes > 1_000_000 > peak


CSV_CASES = [(dim, n, rank) for dim in (2, 3) for n in (8, 16) for rank in (0, 1, 2)]
# rows cross the writer's blocks of 4,096: 8 blocks at 32^3 and 4 at 128^2
CSV_BLOCK_CASES = [(3, 32, 1), (2, 128, 0)]


def row_by_row_csv(grid, samples, manifest) -> bytes:
    """The CSV export written one row at a time by csv.writer: the reference."""
    points = grid.points_per_axis**grid.dim
    values = samples.reshape(-1, points)
    coords = grid.mesh.reshape(grid.dim, -1)
    buf = io.StringIO(newline="")
    if manifest:
        buf.write(f"# manifest={manifest}\n")
    writer = csv.writer(buf)
    writer.writerow([f"x{i+1}" for i in range(grid.dim)] + [f"f{i+1}" for i in range(len(values))])
    for row in range(points):
        writer.writerow([f"{x:.17g}" for x in (*coords[:, row], *values[:, row])])
    return buf.getvalue().encode()


def with_specials(samples):
    samples.reshape(-1)[[0, 9, 30, 50, -1]] = [np.nan, np.inf, -np.inf, -0.0, np.nan]
    return samples


def mixed_scales(samples):
    """Every kind of sample below side by side: each sample gets one of the scales in turn."""
    scales = np.array([1.0, 0.0, 1e-202, 1e20, -0.0, 1e-10, 1e15])
    return with_specials(samples * scales[np.arange(samples.size) % len(scales)].reshape(samples.shape))


# sample sets by the path they take through the formatter: nan, +-inf and
# -0.0 among ordinary values; all zeros (solve --data-norm 0); samples near
# 1e-202 (solve --data-norm 1e-200), which almost all fall back; samples
# near 1e20, past the certified range; and all of these mixed
SAMPLE_SETS = {
    "specials": with_specials,
    "zeros": lambda samples: samples * 0.0,
    "tiny": lambda samples: samples * 1e-202,
    "huge": lambda samples: samples * 1e20,
    "mixed": mixed_scales,
}


def printf17(values) -> list:
    """The formatter's cells as bytes, NUL padding dropped."""
    return [cell[cell != 0].tobytes() for cell in fieldio._format17(np.asarray(values, dtype=float))]


def float_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def exact_ties() -> np.ndarray:
    """Doubles whose 18th significant digit is their last and a 5: odd j
    times 2^(X - 17) in decade X, 100 in each decade that has them."""
    values = []
    for x in range(-7, 16):
        first = math.ceil(Fraction(10) ** x * 2 ** (17 - x)) | 1
        values.append(np.ldexp(np.arange(first, first + 200, 2, dtype=float), x - 17))
    return np.concatenate(values)


_POWERS = np.array([float(f"1e{k}") for k in range(-16, 18)])
# fixed cases at the formatter's boundaries: the double nearest 1e-12, for
# one, is 9.9999999999999998e-13, below its decade, though log10 gives -12
FIXED_VALUES = {
    "decades and their neighbours": np.concatenate(
        [_POWERS, np.nextafter(_POWERS, 0), np.nextafter(_POWERS, np.inf)]),
    "integers up to 2^53": np.concatenate([
        np.arange(-1000, 100_001), 2.0 ** np.arange(54), 2.0 ** np.arange(1, 54) - 1,
        10.0 ** np.arange(1, 16) - 1, np.random.default_rng(11).integers(0, 2**53, 10_000, endpoint=True)]),
    "multiples of 2^-30": np.arange(-(2**16), 2**16 + 1) * 2.0**-30,
    "six decimals": np.round(np.random.default_rng(12).uniform(-1000, 1000, 20_000), 6),
    "exact ties": exact_ties(),
}


class TestFormatter:
    @given(values=st.lists(st.one_of(st.floats(), st.integers(0, 2**64 - 1).map(float_from_bits)),
                           min_size=1, max_size=40))
    def test_matches_printf(self, values):
        # st.floats() brings nan, +-inf, +-0.0 and subnormals; uniform bit
        # patterns reach every exponent
        assert printf17(values) == [("%.17g" % v).encode() for v in values]

    @pytest.mark.parametrize("kind", FIXED_VALUES)
    def test_matches_printf_on_fixed_values(self, kind):
        values = np.concatenate([FIXED_VALUES[kind], -FIXED_VALUES[kind]])
        got = printf17(values)
        wrong = [(v, cell) for v, cell in zip(values.tolist(), got) if cell != ("%.17g" % v).encode()]
        assert not wrong


class TestCsvExport:
    def test_manifest_line_and_shape(self, tmp_path, sample):
        path = tmp_path / "u.csv"
        field_to_csv(path, sample, manifest_hash="abc123def456")
        lines = path.read_text().splitlines()
        assert lines[0] == "# manifest=abc123def456"
        assert lines[1] == "x1,x2,x3,f1,f2,f3"
        assert len(lines) == 2 + 16**3

    def test_values_match_samples(self, tmp_path, sample):
        from lanslab import inverse_transform

        path = tmp_path / "u.csv"
        field_to_csv(path, sample)
        head, first_row = path.read_text().splitlines()[:2]
        assert head == "x1,x2,x3,f1,f2,f3"
        vals = [float(v) for v in first_row.split(",")]
        phys = inverse_transform(sample)
        assert vals[:3] == [0.0, 0.0, 0.0]
        assert vals[3] == pytest.approx(phys[0, 0, 0, 0], rel=1e-15)

    @pytest.mark.parametrize("manifest", [None, "abc123def456"])
    @pytest.mark.parametrize("dim, n, rank", CSV_CASES + CSV_BLOCK_CASES)
    def test_bytes_match_row_by_row_writer(self, tmp_path, dim, n, rank, manifest):
        grid = TorusGrid(dim=dim, points_per_axis=n)
        field = forward_transform(np.random.default_rng(5).standard_normal((dim,) * rank + grid.shape), grid)
        path = tmp_path / "f.csv"
        field_to_csv(path, field, manifest_hash=manifest)
        assert path.read_bytes() == row_by_row_csv(grid, inverse_transform(field), manifest)

    @pytest.mark.parametrize("block_rows", [64, 1000])
    def test_bytes_match_with_blocks_that_split_coordinate_runs(self, tmp_path, monkeypatch, block_rows):
        # at 16^3, 64-row blocks repeat x3 only and 1000-row blocks repeat no
        # coordinate, so x1 and x2 (and x3) are written block by block
        grid = TorusGrid(dim=3, points_per_axis=16)
        field = forward_transform(np.random.default_rng(9).standard_normal(grid.shape), grid)
        monkeypatch.setattr(fieldio, "_BLOCK_ROWS", block_rows)
        path = tmp_path / "f.csv"
        field_to_csv(path, field)
        assert path.read_bytes() == row_by_row_csv(grid, inverse_transform(field), None)

    @pytest.mark.parametrize("manifest", [None, "abc123def456"])
    @pytest.mark.parametrize("dim, rank", [(2, 0), (3, 1)])
    @pytest.mark.parametrize("kind", SAMPLE_SETS)
    def test_special_values_match_row_by_row_writer(self, tmp_path, monkeypatch, dim, rank, manifest, kind):
        # nan, +-inf and -0.0 cannot come out of a transform of finite data,
        # so the writer is handed them as samples
        grid = TorusGrid(dim=dim, points_per_axis=8)
        samples = SAMPLE_SETS[kind](np.random.default_rng(6).standard_normal((dim,) * rank + grid.shape))
        monkeypatch.setattr(fieldio, "inverse_transform", lambda field: samples)
        path = tmp_path / "f.csv"
        field_to_csv(path, SpectralField(grid, np.zeros(samples.shape, complex)), manifest_hash=manifest)
        assert path.read_bytes() == row_by_row_csv(grid, samples, manifest)

    def test_traced_peak_below_file_size(self, tmp_path, grid32):
        # the writer holds one slab at a time, never the whole file as a string
        field = forward_transform(np.random.default_rng(7).standard_normal((3,) + grid32.shape), grid32)
        path = tmp_path / "u.csv"
        tracemalloc.start()
        try:
            field_to_csv(path, field)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size

    def test_roundtrip_norm_preserved(self, tmp_path, sample):
        # serialization must not perturb the data it was given
        path = tmp_path / "u.field"
        write_field(path, sample)
        assert l2_norm(read_field(path)) == l2_norm(sample)


@pytest.fixture(scope="module")
def scalar8(grid8):
    return forward_transform(np.random.default_rng(3).standard_normal(grid8.shape), grid8)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, scalar8):
    """Bytes of a valid 8^3 scalar checkpoint."""
    path = tmp_path_factory.mktemp("ckpt") / "s.field"
    write_field(path, scalar8, extra={"seed": 3})
    return path.read_bytes()


def split_checkpoint(raw: bytes) -> tuple:
    """(header dict, payload bytes) of a checkpoint."""
    (hlen,) = struct.unpack("<I", raw[len(MAGIC) : len(MAGIC) + 4])
    start = len(MAGIC) + 4
    return json.loads(raw[start : start + hlen]), raw[start + hlen :]


def rebuild(header, payload: bytes) -> bytes:
    blob = header if isinstance(header, bytes) else json.dumps(header).encode()
    return MAGIC + struct.pack("<I", len(blob)) + blob + payload


def with_header(**changes):
    """Mutation that rewrites header keys (None deletes one) over the same payload."""

    def mutate(raw):
        header, payload = split_checkpoint(raw)
        for key, value in changes.items():
            if value is None:
                del header[key]
            else:
                header[key] = value
        return rebuild(header, payload)

    return mutate


def with_blob(blob: bytes):
    return lambda raw: rebuild(blob, split_checkpoint(raw)[1])


MALFORMED = {
    "short length prefix": lambda raw: MAGIC + b"\x05\x00",
    "truncated header": lambda raw: raw[: len(MAGIC) + 12],
    "header not JSON": with_blob(b"{not json"),
    "header not UTF-8": with_blob(b"\xff\xfe"),
    "header not an object": with_blob(b"[8, 8, 8]"),
    "missing shape": with_header(shape=None),
    "missing dim": with_header(dim=None),
    "string dim": with_header(dim="3"),
    "boolean grid size": with_header(points_per_axis=True),
    "string box length": with_header(box_length="6.28"),
    "shape not a list": with_header(shape=512),
    "shape off the grid": with_header(shape=[16, 16, 16]),
    "fractional shape": with_header(shape=[8.0, 8, 8]),
    "rank-3 shape": with_header(shape=[3, 3, 3, 8, 8, 8]),
    "grid size not a power of two": with_header(points_per_axis=12),
    "nonpositive box length": with_header(box_length=0.0),
    "dealias fraction above one": with_header(dealias_fraction=1.5),
    "trailing bytes": lambda raw: raw + b"\x00",
}


class TestMalformedFiles:
    @pytest.mark.parametrize("mutate", MALFORMED.values(), ids=MALFORMED.keys())
    def test_typed_error(self, tmp_path, checkpoint, mutate):
        path = tmp_path / "bad.field"
        path.write_bytes(mutate(checkpoint))
        with pytest.raises(FieldFormatError):
            read_field(path)

    def test_legacy_header_key_is_ignored(self, tmp_path, checkpoint, scalar8):
        # files from writers that stored a conjugate-symmetry flag still load
        path = tmp_path / "old.field"
        path.write_bytes(with_header(real_valued=True)(checkpoint))
        back = read_field(path)
        assert back.grid == scalar8.grid
        assert np.array_equal(back.coeffs, scalar8.coeffs)

    @given(data=st.data())
    def test_truncation_always_rejected(self, tmp_path_factory, checkpoint, data):
        cut = data.draw(st.integers(0, len(checkpoint) - 1))
        path = tmp_path_factory.mktemp("cut") / "bad.field"
        path.write_bytes(checkpoint[:cut])
        with pytest.raises(FieldFormatError):
            read_field(path)

    @given(data=st.data())
    def test_flipped_byte_rejected_or_read_as_written(self, tmp_path_factory, checkpoint, scalar8, data):
        # the format carries no checksum, so a flip can leave a valid file;
        # the reader must then decode exactly the bytes on disk, never shift
        # or reshape the payload
        payload_start = len(checkpoint) - 16 * scalar8.coeffs.size
        pos = data.draw(st.one_of(st.integers(0, payload_start - 1),
                                  st.integers(payload_start, len(checkpoint) - 1)))
        bad = bytearray(checkpoint)
        bad[pos] ^= data.draw(st.integers(1, 255))
        path = tmp_path_factory.mktemp("flip") / "bad.field"
        path.write_bytes(bytes(bad))
        try:
            back = read_field(path)
        except FieldFormatError:
            return
        assert back.coeffs.shape == scalar8.coeffs.shape
        assert back.grid.points_per_axis == scalar8.grid.points_per_axis
        assert back.coeffs.astype("<c16").tobytes() == bytes(bad[payload_start:])
        if pos < payload_start:
            assert np.array_equal(back.coeffs, scalar8.coeffs)
