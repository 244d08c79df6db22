"""Self-describing binary checkpoints and CSV export for spectral fields.

The binary container is a magic string, a length-prefixed JSON header with
the grid parameters and array shape, then the raw coefficients as
little-endian IEEE-754 complex doubles.  Files round-trip bit-exactly.
"""

from __future__ import annotations

import itertools
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


def field_to_csv(path, field: SpectralField, manifest_hash: str | None = None):
    """Physical-space samples, one grid point per row, for plotting.

    The rows are x1, ..., x_dim, f1, ... in %.17g, comma-separated and
    CRLF-terminated, x1 slowest; the header ends with CRLF too.  Each
    axis coordinate is formatted once: a slab x1 = const is written with one
    % over a template in which the coordinates are literal text, so memory
    stays at one slab.
    """
    g = field.grid
    n = g.points_per_axis
    samples = inverse_transform(field)
    components = samples.size // n**g.dim
    columns = [f"x{i+1}" for i in range(g.dim)] + [f"f{i+1}" for i in range(components)]
    header = ",".join(columns)
    if manifest_hash:
        header = f"# manifest={manifest_hash}\n{header}"
    coords = ["%.17g" % x for x in g.axis_coordinates.tolist()]
    values = ",%.17g" * components + "\r\n"
    tails = ["".join("," + x for x in rest) + values for rest in itertools.product(coords, repeat=g.dim - 1)]
    slabs = np.moveaxis(samples.reshape(components, n, -1), 0, -1)  # (x1 index, row in slab, component)
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for x1, slab in zip(coords, slabs):
            fh.write((x1 + x1.join(tails)) % tuple(slab.ravel().tolist()))
