"""Self-describing binary checkpoints and CSV export for spectral fields.

The binary container is a magic string, a length-prefixed JSON header with
the grid parameters and array shape, then the raw coefficients as
little-endian IEEE-754 complex doubles.  Files round-trip bit-exactly.

The CSV export writes every sample as Python's '%.17g' would, byte for
byte, through a numpy formatter.  It certifies finite samples with
1e-15 <= |v| < 1e16, and +-0: their 17 digits come from an exact
double-double product with a power of ten.  Every other sample (nan,
+-inf, subnormals, values out of that range, and the few in range whose
digits it cannot certify: near-ties and a decade misjudged by log10) goes
through '%.17g' itself.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .spectral import SpectralField, TorusGrid, inverse_transform

MAGIC = b"LANSLAB-FIELD-1\n"

__all__ = ["MAGIC", "write_field", "read_field", "field_to_csv", "FieldFormatError"]


class FieldFormatError(ValueError):
    """Raised when a checkpoint file does not parse."""


def write_field(path, field: SpectralField, extra: dict | None = None):
    """Serialize a field; `extra` lands verbatim in the JSON header."""
    header = {
        "dim": field.grid.dim,
        "points_per_axis": field.grid.points_per_axis,
        "box_length": field.grid.box_length,
        "dealias_fraction": field.grid.dealias_fraction,
        "shape": list(field.coeffs.shape),
    }
    if extra:
        header["extra"] = extra
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(field.coeffs, dtype="<c16"))  # the array's own buffer


def _typed(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _parse_header(path, blob: bytes):
    """Grid and coefficient shape from a header.  Unknown keys are ignored,
    among them the conjugate-symmetry flag that older writers stored."""
    try:
        header = json.loads(blob.decode("utf-8"))
        dim, n, length, fraction, shape = (header[key] for key in (
            "dim", "points_per_axis", "box_length", "dealias_fraction", "shape"))
    except (ValueError, TypeError, KeyError) as err:  # not UTF-8, not JSON, not an object, key missing
        raise FieldFormatError(f"{path}: unreadable header ({type(err).__name__}: {err})") from None
    if not (_typed(dim, int) and _typed(n, int) and _typed(length, (int, float)) and _typed(fraction, (int, float))):
        raise FieldFormatError(f"{path}: ill-typed grid parameters")
    try:
        grid = TorusGrid(dim, n, length, fraction)
    except ValueError as err:
        raise FieldFormatError(f"{path}: invalid grid: {err}") from None
    rank = len(shape) - dim if isinstance(shape, list) else -1
    if not (0 <= rank <= 2 and all(_typed(m, int) for m in shape) and tuple(shape) == (dim,) * rank + grid.shape):
        raise FieldFormatError(f"{path}: shape {shape!r} does not fit the grid {grid.shape}")
    return grid, tuple(shape)


def read_field(path) -> SpectralField:
    """Parse a checkpoint; every malformed file raises FieldFormatError."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise FieldFormatError(f"{path}: bad magic {magic!r}")
        prefix = fh.read(4)
        if len(prefix) != 4:
            raise FieldFormatError(f"{path}: truncated header length")
        (hlen,) = struct.unpack("<I", prefix)
        blob = fh.read(hlen)
        if len(blob) != hlen:
            raise FieldFormatError(f"{path}: truncated header")
        grid, shape = _parse_header(path, blob)
        raw = fh.read()
    size = 16 * math.prod(shape)
    if len(raw) < size:
        raise FieldFormatError(f"{path}: truncated payload")
    if len(raw) > size:
        raise FieldFormatError(f"{path}: trailing bytes after the payload")
    coeffs = np.frombuffer(raw, dtype="<c16").reshape(shape).astype(np.complex128)
    return SpectralField(grid, coeffs)


# ------------------------------------------------------------ CSV export
#
# A cell is one sample's '%.17g' text in a fixed _CELL-byte slot, NUL-padded:
# sign | "0.000" prefix | digits, with room for a point among them | "e-XX"
# suffix.  Rows are assembled from cells in a NUL-padded byte matrix, and the
# NULs are dropped in one pass, so no cell has to be shifted into place.

_CELL = 31
_BODY = slice(6, 27)  # the digits: 3 NULs, the 17 digits, a byte for the point's shift
_BLOCK_ROWS = 1 << 12  # rows assembled at a time: 0.66 MB of matrix for a 3-D vector field
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter
_TEN = [10**k for k in range(32)]
_TEN_HI = np.array([float(t) for t in _TEN])  # 10^k = _TEN_HI + _TEN_LO exactly
_TEN_LO = np.array([float(t - int(h)) for t, h in zip(_TEN, _TEN_HI.tolist())])


def _split(a):
    """Dekker's split of a into two halves of 26 bits whose sum is a."""
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


_TEN_HH, _TEN_HL = _split(_TEN_HI)
# k < 10^4 -> its 4 ASCII digits, and 10^4 + d -> 3 NULs and the digit d, as one uint32
_WORDS = np.zeros((10_010, 4), np.uint8)
_WORDS[:10_000] = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
_WORDS[10_000:, 3] = np.arange(10) + ord("0")
_WORDS = _WORDS.view(np.uint32).ravel()
_TRAILING = sum(np.arange(10_000) % 10**i == 0 for i in range(1, 5))  # k -> trailing zeros of 4 digits
# row X + 15: the cell holding only the prefix "0.0..." (-4 <= X < 0) or the
# suffix "e-XX" (X < -4) of exponent X
_X = np.arange(-15, 16)[:, None]
_AFFIXES = np.zeros((31, _CELL), np.uint8)
_AFFIXES[:, 1:6] = np.where((-4 <= _X) & (_X < 0) & (np.arange(5) < 1 - _X), np.frombuffer(b"0.000", np.uint8), 0)
_AFFIXES[:, -4:] = np.where(_X < -4, np.c_[np.full((31, 2), np.frombuffer(b"e-", np.uint8)),
                                           ord("0") + -_X // 10, ord("0") + -_X % 10], 0)
# byte j of the body holds digit j - 3; rows are indexed by the number of
# digits shown (_SHOWN) or by the digit the point follows, 17 for none
_AT = np.arange(18)[:, None] + 3
_BYTE = np.arange(_BODY.stop - _BODY.start)
_SHOWN = np.where(_BYTE[:-1] < _AT, 255, 0).astype(np.uint8)
_BEFORE = np.where(_BYTE <= _AT, 255, 0).astype(np.uint8)
_AFTER = np.where(_BYTE > _AT + 1, 255, 0).astype(np.uint8)
_POINT = np.where(_BYTE == _AT + 1, ord("."), 0).astype(np.uint8)


def _format17(v):
    """The bytes of '%.17g' % v[i] in row i of a NUL-padded (len(v), _CELL) array.

    Finite samples with 1e-15 <= |v| < 1e16 and +-0 are converted here:
    with X = floor(log10|v|), the 17 significant digits are the integer D
    nearest y = |v| 10^(16 - X), which a double-double product with an
    exact table of 10^k gives to about 1e-14.  A sample is certified when
    10^16 <= floor(y), D < 10^17 and y is not within 1e-9 of a half-integer;
    that rejects log10 off by one and near-ties.  Every other sample (nan,
    +-inf, subnormals, values out of range, the rejected ones) is formatted
    by Python's '%.17g', so the bytes are '%.17g''s by construction.
    """
    a = np.abs(v)
    zero = a == 0
    fast = zero | ((a >= 1e-15) & (a < 1e16))
    a = np.where(fast & ~zero, a, 1.0)  # keeps the arithmetic below finite
    x = np.clip(np.floor(np.log10(a)), -15, 15).astype(np.intp)  # a clipped X fails the check
    k = 16 - x
    ah, al = _split(a)
    p = a * _TEN_HI[k]
    c = ((ah * _TEN_HH[k] - p) + ah * _TEN_HL[k] + al * _TEN_HH[k]) + al * _TEN_HL[k] + a * _TEN_LO[k]
    base = p.astype(np.int64)  # y = p + c, and p is an integer above 2^53
    below = np.floor(c)
    d = base + np.rint(c).astype(np.int64)
    fast &= (np.abs(c - below - 0.5) > 1e-9) & (base + below.astype(np.int64) >= 10**16) & (d < 10**17)
    # D as its leading digit (a 0 for +-0) and four groups of four digits
    lead, rest = np.divmod(d, 10**16)
    high, low = np.divmod(rest, 10**8)
    words = np.stack([10_000 + lead * ~zero, *np.divmod(high, 10**4), *np.divmod(low, 10**4)], axis=1)
    tail = _TRAILING[words[:, 4]]  # trailing zeros of D: a group counts while the later ones are 0000
    for i in (3, 2, 1):
        tail += (tail == 16 - 4 * i) * _TRAILING[words[:, i]]
    # fixed notation shows every digit before its point
    fixed = x >= 0
    shown = np.where(fixed, np.maximum(17 - tail, x + 1), 17 - tail)
    point = np.where(fixed & (shown > x + 1), x, np.where((x < -4) & (shown > 1), 0, 17))
    body = np.zeros((len(v), len(_BYTE)), np.uint8)
    body[:, :-1] = _WORDS[words].view(np.uint8) & np.take(_SHOWN, shown, axis=0)
    moved = np.zeros_like(body)
    moved[:, 1:] = body[:, :-1]
    cell = np.take(_AFFIXES, x + 15, axis=0)
    cell[:, 0] = np.signbit(v) * np.uint8(ord("-"))
    cell[:, _BODY] = ((body & np.take(_BEFORE, point, axis=0)) | (moved & np.take(_AFTER, point, axis=0))
                      | np.take(_POINT, point, axis=0))
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array(["%.17g" % s for s in v[slow].tolist()], dtype=f"S{_CELL}")
        cell[slow] = text.view(np.uint8).reshape(-1, _CELL)
    return cell


def field_to_csv(path, field: SpectralField, manifest_hash: str | None = None):
    """Physical-space samples, one grid point per row, for plotting.

    The rows are x1, ..., x_dim, f1, ... in %.17g, comma-separated and
    CRLF-terminated, x1 slowest; the header ends with CRLF too.  The axis
    coordinates are formatted once by Python's '%.17g'; the samples by
    _format17, a numpy formatter that writes the same bytes: it certifies
    finite samples with 1e-15 <= |v| < 1e16 and +-0, and hands every other
    one to '%.17g'.  Rows are built _BLOCK_ROWS at a time, so memory stays
    at one block, and each block's NULs are dropped by bytes.translate.
    """
    g = field.grid
    n = g.points_per_axis
    samples = inverse_transform(field)
    components = samples.size // n**g.dim
    columns = [f"x{i+1}" for i in range(g.dim)] + [f"f{i+1}" for i in range(components)]
    header = ",".join(columns)
    if manifest_hash:
        header = f"# manifest={manifest_hash}\n{header}"
    coords = np.array(["%.17g" % x for x in g.axis_coordinates.tolist()], dtype="S")
    width = coords.itemsize
    coords = coords.view(np.uint8).reshape(n, width)
    values = samples.reshape(components, -1)
    # one row: x1 | ,x2 ... | ,f1 ... | CRLF, each field NUL-padded
    starts = np.r_[np.arange(g.dim) * (width + 1), g.dim * (width + 1) + np.arange(components) * (_CELL + 1)]
    block = np.zeros((min(_BLOCK_ROWS, n**g.dim), starts[-1] + _CELL + 2), np.uint8)
    block[:, starts[1:] - 1] = ord(",")
    block[:, -2:] = np.frombuffer(b"\r\n", np.uint8)
    # coordinate i of point p is coords[p // n^(dim-1-i) % n], whose bytes repeat from block
    # to block when their period n^(dim-i) divides the block: those are filled once
    strides = [n ** (g.dim - 1 - i) for i in range(g.dim)]
    offsets = np.arange(len(block))
    changing = []
    for start, stride in zip(starts, strides):
        if len(block) % (stride * n):
            changing.append((start, stride))
        else:
            block[:, start : start + width] = coords[offsets // stride % n]
    with open(path, "wb") as fh:
        fh.write(f"{header}\r\n".encode())
        for first in range(0, n**g.dim, len(block)):
            rows = block[: min(len(block), n**g.dim - first)]
            for start, stride in changing:
                rows[:, start : start + width] = coords[(first + offsets[: len(rows)]) // stride % n]
            for start, component in zip(starts[g.dim :], values):
                rows[:, start : start + _CELL] = _format17(component[first : first + len(rows)])
            fh.write(rows.tobytes().translate(None, b"\0"))
