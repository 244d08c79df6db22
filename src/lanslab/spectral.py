"""Periodic-torus spectral fields and exact Fourier-multiplier calculus.

Fields live on [0, L)^n with n in {2, 3} and are stored as complex Fourier
coefficients on the integer frequency lattice scaled by 2*pi/L.  With this
normalization a field f(x) = sum_k fhat(k) exp(i k.x) satisfies
fhat(+-(1,0,0)) = 1/2 for f = cos(x1), and Parseval reads
integral |f|^2 dx = L^n * sum_k |fhat(k)|^2.

Coefficient contract: every coefficient array is the Hermitian spectrum of
a real field, c(-k) == conj c(k) bit for bit, and every operator here and
in the nonlinearity kernel keeps that symmetry exactly.  Readers read the
rfftn half lattice (last axis 0..N/2): forward_transform is an rfftn
followed by Hermitian completion, inverse_transform one irfftn of the half
lattice.  The private helpers _rfft, _irfft and _full are the package's
only FFT call sites.

Band mode: a band K < N/2 limits an array to the half cube |m_i| <= K,
m_last >= 0 (FFT order, side 2K + 1 and K + 1 on the last axis), the one
layout of band-limited arrays.  _cut_half cuts it from lattice
coefficients or a wider band, or zero-fills a narrower band to it, and
_complete turns it back into lattice coefficients; _rfft makes and
_irfft reads only it, skipping the FFT lines that are zero on input or
thrown away on output (FFT pruning; Markel 1971, Sorensen & Burrus 1993),
and equal truncate-then-transform bit for bit.  _forward_band(x, grid,
grid.dealias_keep) is dealias(forward_transform(x, grid)) made that way.
The dyadic partition's profiles, the Besov block norms, the verifiers'
products, the field ensembles, heat_propagate and the nonlinearity kernel
use the band mode; the kernel's, heat_propagate's and the ensembles'
multipliers act on arrays built once per band (_HalfCube), and
_half_k_squared gives |k|^2 there afresh.  _half_parseval sums |c|^2 over a
half cube or half lattice for the Besov p = 2 blocks and monitor._energy_pair.

Nyquist policy: on the full lattice the index N/2 of an axis is the
frequency -N/2, whose mirror image is itself, so the odd multiplier i k
cannot keep Hermitian symmetry there.  TorusGrid.wavenumbers, the one list
that feeds every odd multiplier (gradient, divergence, the Leray
projection and the kernel), is therefore 0 at each axis's Nyquist index;
k_squared keeps the true |k|^2.

Linear differential operators are diagonal multipliers and therefore exact
on band-limited data.  Products are not formed here: the nonlinearity
kernel in dynamics takes them in physical space and keeps only the
dealias cube of their transforms, as the dealias mask does, which zeroes
every coefficient whose max-norm frequency exceeds dealias_fraction * N/2.

Lattice arrays (mesh, k_squared, k_magnitude, dealias_mask and the Leray
projection's |k|^2) are built once per grid value, read-only, and shared
by equal TorusGrid objects through a small module cache; so are the
half-cube arrays of each grid value and band, each built on first use.
"""

from __future__ import annotations

import itertools
import math
import mmap
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "TorusGrid",
    "SpectralField",
    "GridMismatchError",
    "SingularModeError",
    "SolenoidalityError",
    "forward_transform",
    "inverse_transform",
    "dealias",
    "gradient",
    "divergence",
    "laplacian_power",
    "helmholtz_inverse",
    "heat_propagate",
    "leray_project",
    "lp_norm",
    "l2_norm",
    "l2_inner",
    "sobolev_norm",
    "relative_divergence",
    "require_solenoidal",
]


class GridMismatchError(ValueError):
    """Fields defined on different grids were combined."""


class SingularModeError(ValueError):
    """An operator that inverts |k| met a nonzero mean mode."""


class SolenoidalityError(ValueError):
    """An operation required a divergence-free input and did not get one."""


@dataclass(frozen=True)
class TorusGrid:
    """Uniform collocation grid on the periodic box [0, L)^dim.

    points_per_axis must be a power of two >= 8 so that dyadic frequency
    shells line up with the resolved lattice.  dealias_fraction fixes the
    2/3-rule cutoff K_max = dealias_fraction * N/2 used after products.
    """

    dim: int = 3
    points_per_axis: int = 32
    box_length: float = 2.0 * np.pi
    dealias_fraction: float = 2.0 / 3.0

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        n = self.points_per_axis
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"points_per_axis must be a power of two >= 8, got {n}")
        if not (0.0 < self.box_length < np.inf):
            raise ValueError("box_length must be positive and finite")
        if not (0.0 < self.dealias_fraction <= 1.0):
            raise ValueError("dealias_fraction must lie in (0, 1]")

    @cached_property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @cached_property
    def spacing(self) -> float:
        return self.box_length / self.points_per_axis

    @cached_property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @cached_property
    def axis_coordinates(self) -> np.ndarray:
        return np.arange(self.points_per_axis) * self.spacing

    @property
    def mesh(self) -> np.ndarray:
        """Physical coordinates, shape (dim,) + shape."""
        return _lattice(self).mesh

    @cached_property
    def mode_numbers(self) -> list:
        """Integer frequency indices per axis, broadcastable (sparse mesh)."""
        n = self.points_per_axis
        idx = np.fft.fftfreq(n, d=1.0 / n)  # 0, 1, ..., N/2-1, -N/2, ..., -1
        grids = np.meshgrid(*([idx] * self.dim), indexing="ij", sparse=True)
        return grids

    @cached_property
    def wavenumber_scale(self) -> float:
        return 2.0 * np.pi / self.box_length

    @cached_property
    def wavenumbers(self) -> list:
        """The odd multipliers' physical wavenumbers k_i per axis,
        broadcastable; 0 at each axis's Nyquist index."""
        nyquist = self.points_per_axis // 2
        return [np.where(np.abs(m) == nyquist, 0.0, m * self.wavenumber_scale) for m in self.mode_numbers]

    @property
    def k_squared(self) -> np.ndarray:
        return _lattice(self).k_squared

    @property
    def k_magnitude(self) -> np.ndarray:
        return _lattice(self).k_magnitude

    @cached_property
    def dealias_keep(self) -> int:
        """Largest integer mode index kept by the 2/3-rule mask."""
        return int(np.floor(self.dealias_fraction * self.points_per_axis / 2.0))

    @cached_property
    def k_max(self) -> float:
        """Dealias cutoff in physical wavenumber units."""
        return self.dealias_fraction * (self.points_per_axis / 2.0) * self.wavenumber_scale

    @property
    def dealias_mask(self) -> np.ndarray:
        return _lattice(self).dealias_mask


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Lattice:
    """Read-only full-lattice arrays of one grid value, each built on first use."""

    def __init__(self, grid: TorusGrid):
        self.grid = grid

    @cached_property
    def mesh(self) -> np.ndarray:
        g = self.grid
        return _frozen(np.stack(np.meshgrid(*([g.axis_coordinates] * g.dim), indexing="ij")))

    @cached_property
    def k_squared(self) -> np.ndarray:
        g = self.grid
        return _frozen(sum((m * g.wavenumber_scale) ** 2 for m in g.mode_numbers))

    @cached_property
    def k_magnitude(self) -> np.ndarray:
        return _frozen(np.sqrt(self.k_squared))

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        g = self.grid
        mask = np.ones(g.shape, dtype=bool)
        for m in g.mode_numbers:
            mask &= np.abs(m) <= g.dealias_keep
        return _frozen(mask)

    @cached_property
    def leray_k_squared(self) -> np.ndarray:
        """|k|^2 of the odd-multiplier wavenumbers, 1 where that is 0."""
        ksq = sum(k**2 for k in self.grid.wavenumbers)
        ksq[ksq == 0.0] = 1.0  # k.c is 0 there too: the projector is the identity
        return _frozen(ksq)


@lru_cache(maxsize=4)
def _lattice(grid: TorusGrid) -> _Lattice:
    """The shared lattice arrays of a grid value; one command uses at most 3 grids."""
    return _Lattice(grid)


def _half_indices(grid: TorusGrid, band: int) -> list:
    """Lattice indices along each axis of the half cube of band (the half
    lattice when band >= N/2)."""
    n = grid.points_per_axis
    lead = np.arange(n) if band >= n // 2 else _band_axis(n, band)
    return [lead] * (grid.dim - 1) + [lead[: min(band, n // 2) + 1]]


def _half_axes(per_axis: list, grid: TorusGrid, band: int) -> list:
    """Broadcastable per-axis arrays of the lattice cut to the half cube of
    band (the half lattice when band >= N/2)."""
    return [np.take(a, index, axis=i) for i, (a, index) in enumerate(zip(per_axis, _half_indices(grid, band)))]


def _half_k_squared(grid: TorusGrid, band: int) -> np.ndarray:
    """|k|^2 on the half cube of band, formed by _Lattice's formula so that
    it equals the lattice array cut there bit for bit; built on each call."""
    return sum((m * grid.wavenumber_scale) ** 2 for m in _half_axes(grid.mode_numbers, grid, band))


class _HalfCube:
    """Read-only multiplier arrays on the half cube |m_i| <= band, m_last >= 0
    of one grid value (the rfftn half lattice when band >= N/2), each built
    on first use from the grid's per-axis modes by _Lattice's formulas, so
    they equal the lattice arrays cut to the cube bit for bit.  The
    ensembles and heat_propagate read only k_squared."""

    def __init__(self, grid: TorusGrid, band: int):
        self.grid, self.band = grid, band

    @cached_property
    def wavenumbers(self) -> list:
        """TorusGrid.wavenumbers there, broadcastable."""
        return [_frozen(k) for k in _half_axes(self.grid.wavenumbers, self.grid, self.band)]

    @cached_property
    def k_squared(self) -> np.ndarray:
        return _frozen(_half_k_squared(self.grid, self.band))

    @cached_property
    def leray_k_squared(self) -> np.ndarray:
        ksq = sum(k**2 for k in self.wavenumbers)
        ksq[ksq == 0.0] = 1.0
        return _frozen(ksq)


@lru_cache(maxsize=8)
def _half_cube(grid: TorusGrid, band: int) -> _HalfCube:
    """The shared half-cube arrays of a grid value and band."""
    return _HalfCube(grid, band)


@dataclass
class SpectralField:
    """Fourier coefficients of a scalar (rank 0), vector (rank 1) or
    2-tensor (rank 2) field on a TorusGrid.

    coeffs has shape lead_shape + grid.shape where lead_shape is (),
    (dim,) or (dim, dim), on the full lattice.  Fields are real: coeffs
    is the Hermitian spectrum of a real field, c(-k) == conj c(k), which
    forward_transform and every operator produce exactly; readers such as
    inverse_transform read only the rfftn half lattice.
    """

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        spatial = self.coeffs.shape[-self.grid.dim :]
        if spatial != self.grid.shape:
            raise ValueError(f"trailing coefficient shape {spatial} does not match grid {self.grid.shape}")
        if self.rank > 2:
            raise ValueError(f"rank {self.rank} not supported (scalar, vector, tensor only)")
        for m in self.lead_shape:
            if m != self.grid.dim:
                raise ValueError(f"lead axes must have length dim={self.grid.dim}, got {self.lead_shape}")

    @property
    def rank(self) -> int:
        return self.coeffs.ndim - self.grid.dim

    @property
    def lead_shape(self) -> tuple:
        return self.coeffs.shape[: self.rank]

    @property
    def mean_mode(self) -> np.ndarray:
        return self.coeffs[(...,) + (0,) * self.grid.dim]

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coeffs)


def _check_same_grid(a: SpectralField, b: SpectralField):
    if a.grid != b.grid:
        raise GridMismatchError("fields live on different grids")


def _axes(a: np.ndarray, grid: TorusGrid) -> tuple:
    return tuple(range(a.ndim - grid.dim, a.ndim))


def _half(coeffs: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """The rfftn half lattice (last axis 0..N/2) of full or half coefficients, as a view."""
    return coeffs[..., : grid.points_per_axis // 2 + 1]


@lru_cache(maxsize=64)
def _band_axis(n: int, band: int) -> np.ndarray:
    """Indices of the modes |m| <= band on an FFT-ordered axis of side n."""
    return _frozen(np.r_[0 : band + 1, n - band : n])


@lru_cache(maxsize=64)
def _cube_index(n: int, band: int, dim: int) -> tuple:
    """Open-mesh index of the half cube |m_i| <= band, m_last >= 0 in an
    array whose trailing dim axes hold the modes in FFT order: side n on
    the leading axes, and a last axis that starts at mode 0 (the lattice,
    or the half cube of a larger band, with n = 2 * that band + 1)."""
    axis = _band_axis(n, band)
    return tuple(_frozen(a) for a in np.ix_(*([axis] * (dim - 1)), axis[: band + 1]))


def _ball_band(grid: TorusGrid, radius: float) -> int:
    """Smallest band whose cube holds the lattice ball |k| <= radius: |k|
    is at least each |k_i|, so this is the largest m with m 2 pi / L <= radius."""
    m = np.arange(grid.points_per_axis // 2 + 1) * grid.wavenumber_scale
    return max(int(np.count_nonzero(m <= radius)) - 1, 0)


def _band_runs(n: int, band: int) -> tuple:
    """(lattice, cube) slice pairs of the two runs of an FFT-ordered band
    axis, the modes 0..band and -band..-1."""
    return (slice(0, band + 1), slice(0, band + 1)), (slice(n - band, n), slice(band + 1, 2 * band + 1))


def _cut_half(coeffs: np.ndarray, grid: TorusGrid, band: int) -> np.ndarray:
    """The half cube |m_i| <= band, m_last >= 0 (the half lattice when band >= N/2) of the field whose
    lattice, half lattice or half cube coeffs holds (its band: the last axis' length - 1): a cut (a
    copy) when band is narrower, coeffs zero-filled to it when wider, else a view of coeffs."""
    n = grid.points_per_axis
    have, band = min(coeffs.shape[-1] - 1, n // 2), min(band, n // 2)
    if band <= have:
        return _half(coeffs, grid) if band == have else coeffs[(...,) + _cube_index(coeffs.shape[-2], band, grid.dim)]
    side = n if band == n // 2 else 2 * band + 1
    out = np.zeros(coeffs.shape[: -grid.dim] + (side,) * (grid.dim - 1) + (band + 1,), dtype=np.complex128)
    out[(...,) + _cube_index(side, have, grid.dim)] = coeffs
    return out


def _data_band(grid: TorusGrid, *arrays) -> int:
    """The dealias band K when no coefficient array has a nonzero in the half
    lattice's slabs m_last > K and, per leading axis, |m_axis| > K; else N/2."""
    n, dim, keep = grid.points_per_axis, grid.dim, grid.dealias_keep
    slabs = [(..., slice(keep + 1, n // 2 + 1))]
    for axis in range(dim - 1):
        pick = [slice(None)] * (dim - 1) + [slice(0, keep + 1)]
        pick[axis] = slice(keep + 1, n - keep)
        slabs.append((...,) + tuple(pick))
    return n // 2 if any(np.any(a[s]) for a in arrays for s in slabs) else keep


_WORK = threading.local()  # .slots: the two work arrays of the march or Duhamel map this thread runs


@contextmanager
def _work_arrays():
    """Give this thread's _work calls in the block their two reused slots; leaving it drops them, by a raise too."""
    _WORK.slots = [b"", b""]
    try:
        yield
    finally:
        del _WORK.slots


def _work(slot: int, shape: tuple, dtype=np.complex128) -> np.ndarray:
    """Work array slot (0 or 1) of the pruned transforms: in a march or Duhamel map its slot, grown and reused
    (anonymous mappings, so dropping them leaves malloc's heap and thresholds alone), else a fresh array."""
    slots, size = getattr(_WORK, "slots", None), math.prod(shape) * np.dtype(dtype).itemsize
    if slots is None:
        return np.empty(shape, dtype=dtype)
    if len(slots[slot]) < size:
        slots[slot] = mmap.mmap(-1, size)
    return np.ndarray(shape, dtype=dtype, buffer=slots[slot])


def _rfft(samples: np.ndarray, grid: TorusGrid, band: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Real samples -> half-lattice coefficients (series normalization),
    written to out when it is given.

    With a band K < N/2 only the half cube |m_i| <= K, 0 <= m_last <= K is
    made (FFT order, side 2K + 1 and K + 1 on the last axis): rfft on the
    last axis, then fft on the other axes from the last to the first over
    the lines that survive, numpy's rfftn order.  It equals the rfftn half
    lattice cut to the cube bit for bit.
    """
    axes = _axes(samples, grid)
    n = grid.points_per_axis
    if band is None or band >= n // 2:
        return np.fft.rfftn(samples, axes=axes, norm="forward", out=out)
    full = np.fft.rfft(samples, axis=-1, norm="forward", out=_work(0, samples.shape[:-1] + (n // 2 + 1,)))
    a = _work(1, samples.shape[:-1] + (band + 1,))  # rfft has read samples, which may live in slot 1
    a[...] = full[..., : band + 1]
    for i, axis in enumerate(reversed(axes[:-1])):
        np.fft.fft(a, axis=axis, norm="forward", out=a)
        shape = a.shape[:axis] + (2 * band + 1,) + a.shape[axis + 1 :]
        if axis != axes[0]:
            dest = _work(i % 2, shape)
        else:
            dest = np.empty(shape, dtype=np.complex128) if out is None else out
        a = np.take(a, _band_axis(n, band), axis=axis, out=dest, mode="clip")
    return a


def _irfft(coeffs: np.ndarray, grid: TorusGrid, band: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Real samples of the Hermitian spectrum whose half lattice coeffs holds,
    written to out when it is given.

    With a band K < N/2, coeffs is the half cube of K (as _rfft and
    _cut_half make it): ifft on the leading axes in order, each over the
    lines that are not zero, then one irfft on the last axis, numpy's
    irfftn order.  It equals irfftn of the zero-filled half lattice bit for
    bit.
    """
    n = grid.points_per_axis
    if band is None or band >= n // 2:
        half = _half(coeffs, grid)
        return np.fft.irfftn(half, s=grid.shape, axes=_axes(half, grid), norm="forward", out=out)
    for i, axis in enumerate(_axes(coeffs, grid)[:-1]):
        spread, lead = _work(i % 2, coeffs.shape[:axis] + (n,) + coeffs.shape[axis + 1 :]), (slice(None),) * axis
        spread[lead + (slice(band + 1, n - band),)] = 0
        for lattice, cube in _band_runs(n, band):
            spread[lead + (lattice,)] = coeffs[lead + (cube,)]
        coeffs = np.fft.ifft(spread, axis=axis, norm="forward", out=spread)
    return np.fft.irfft(coeffs, n=n, axis=-1, norm="forward", out=out)


# (destination, source) slices mapping lattice index i to (-i) mod N
_MIRROR = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))


def _conj_mirror(src: np.ndarray, out: np.ndarray, grid: TorusGrid, last: tuple):
    """out[..., k] = conj src[..., -k]: every lattice axis but the last maps
    index i to (-i) mod N, the last one by its (destination, source) pairs."""
    for picks in itertools.product(*([_MIRROR] * (grid.dim - 1)), last):
        np.conjugate(src[(...,) + tuple(p[1] for p in picks)], out=out[(...,) + tuple(p[0] for p in picks)])


def _hermitian_planes(half: np.ndarray, grid: TorusGrid, band: int) -> np.ndarray:
    """Replace the self-mirrored planes of the half cube of band (the half
    lattice when band >= N/2) by their Hermitian part (c(k) + conj c(-k))/2,
    in place, and return half: k_last = 0, and k_last = N/2 on the half
    lattice.  It is idempotent bit for bit: a Hermitian plane stays as it is."""
    n = grid.points_per_axis
    for m in (0, n // 2) if band >= n // 2 else (0,):
        plane = half[..., m : m + 1]
        mirror = np.empty_like(plane)
        _conj_mirror(plane, mirror, grid, ((slice(None), slice(None)),))
        plane += mirror
        plane.real *= 0.5  # a real factor keeps the sign of every zero, so a second pass changes nothing
        plane.imag *= 0.5
    return half


def _full(half: np.ndarray, grid: TorusGrid, n: int | None = None) -> np.ndarray:
    """Hermitian completion of half-lattice coefficients to the full lattice,
    or of a half cube to the full cube of odd side n.

    The self-mirrored planes k_last = 0 and N/2 keep their Hermitian part
    (c(k) + conj c(-k))/2, the rest is the conjugate mirror image, so the
    output satisfies c(-k) == conj c(k) bit for bit.
    """
    n = grid.points_per_axis if n is None else n
    out = np.empty(half.shape[:-1] + (n,), dtype=np.complex128)
    out[..., : n // 2 + 1] = half
    _hermitian_planes(out[..., : n // 2 + 1], grid, n // 2)
    _conj_mirror(half, out[..., n // 2 + 1 :], grid, ((slice(None), slice((n - 1) // 2, 0, -1)),))
    return out


def _complete(half: np.ndarray, grid: TorusGrid, band: int) -> np.ndarray:
    """The Hermitian lattice coefficients whose half cube of band (half
    lattice when band >= N/2) is half: _full completes the cube, which is
    then copied corner by corner into a zero lattice with basic slices."""
    if band >= grid.points_per_axis // 2:
        return _full(half, grid)
    cube = _full(half, grid, 2 * band + 1)
    out = np.zeros(cube.shape[: -grid.dim] + grid.shape, dtype=np.complex128)
    for runs in itertools.product(_band_runs(grid.points_per_axis, band), repeat=grid.dim):
        out[(...,) + tuple(r[0] for r in runs)] = cube[(...,) + tuple(r[1] for r in runs)]
    return out


def _forward_band(samples: np.ndarray, grid: TorusGrid, band: int) -> SpectralField:
    """forward_transform with every mode outside the cube |m_i| <= band
    zeroed, transforming and completing only the cube; band = dealias_keep
    gives dealias(forward_transform(samples, grid))."""
    return SpectralField(grid, _complete(_rfft(samples, grid, band), grid, band))


def forward_transform(samples: np.ndarray, grid: TorusGrid) -> SpectralField:
    """Real physical samples -> Hermitian Fourier coefficients (series normalization)."""
    return SpectralField(grid, _full(_rfft(np.asarray(samples), grid), grid))


def inverse_transform(field: SpectralField) -> np.ndarray:
    """Hermitian Fourier coefficients -> real physical samples."""
    return _irfft(field.coeffs, field.grid)


def dealias(field: SpectralField) -> SpectralField:
    """Zero every coefficient with max-norm frequency above K_max."""
    return SpectralField(field.grid, field.coeffs * field.grid.dealias_mask)


def _apply_multiplier(field: SpectralField, multiplier: np.ndarray) -> SpectralField:
    return SpectralField(field.grid, field.coeffs * multiplier)


def gradient(field: SpectralField) -> SpectralField:
    """Append a derivative axis: out[..., j] = d/dx_j field[...].

    For a vector u the result is the Jacobian tensor G[i, j] = d_j u_i.
    """
    if field.rank >= 2:
        raise ValueError("gradient of a 2-tensor is not needed and not supported")
    g = field.grid
    parts = [field.coeffs * (1j * k) for k in g.wavenumbers]
    coeffs = np.stack(parts, axis=field.rank)
    return SpectralField(g, coeffs)


def divergence(field: SpectralField) -> SpectralField:
    """Contract the last lead axis with d/dx_j (vector -> scalar,
    tensor -> vector with (div T)_i = sum_j d_j T[i, j])."""
    if field.rank < 1:
        raise ValueError("divergence needs a vector or tensor field")
    columns = np.moveaxis(field.coeffs, field.rank - 1, 0)  # columns[j] = field[..., j]
    return SpectralField(field.grid, _contract(columns, field.grid.wavenumbers))


def _contract(columns, wavenumbers: list) -> np.ndarray:
    """sum_j i k_j columns[j]: the divergence contraction, on the lattice
    of the given (full or half) wavenumbers."""
    return sum(c * (1j * k) for c, k in zip(columns, wavenumbers))


def laplacian_power(field: SpectralField, beta: float) -> SpectralField:
    """Apply A^(beta/2) = |k|^beta where A = -Laplacian.

    beta < 0 requires a zero mean mode; the mean stays zero afterwards.
    """
    g = field.grid
    if beta == 0:
        return field.copy()
    if beta < 0:
        mean = field.mean_mode
        scale = np.max(np.abs(field.coeffs)) or 1.0
        if np.max(np.abs(mean)) > 1e-13 * scale:
            raise SingularModeError("negative power of |k| requires a mean-zero field")
        ksq = g.k_squared.copy()
        zero = (0,) * g.dim
        ksq[zero] = 1.0  # mean mode is zero anyway, avoid 0**negative
        mult = ksq ** (beta / 2.0)
        mult[zero] = 0.0
    else:
        mult = g.k_squared ** (beta / 2.0)
    return _apply_multiplier(field, mult)


def helmholtz_inverse(field: SpectralField, alpha: float) -> SpectralField:
    """Apply (1 - alpha^2 * Laplacian)^(-1), identity for alpha = 0."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if alpha == 0:
        return field.copy()
    mult = 1.0 / (1.0 + alpha**2 * field.grid.k_squared)
    return _apply_multiplier(field, mult)


def heat_propagate(f: SpectralField, t: float, nu: float = 1.0) -> SpectralField:
    """Exact heat semigroup exp(nu t Lap) as a diagonal multiplier; finite t >= 0 and nu >= 0.

    The multiplier is formed and applied on the dealias half cube when f
    lies in it (_data_band), else on the half lattice, and the result is
    completed from there: for Hermitian f it equals the lattice multiply.
    """
    if not (np.isfinite(t) and np.isfinite(nu) and nu >= 0):
        raise ValueError(f"heat propagation needs a finite t and a finite nu >= 0, got t={t}, nu={nu}")
    if t < 0:
        raise ValueError(f"heat propagation needs t >= 0, got {t}")
    grid = f.grid
    band = _data_band(grid, f.coeffs)
    half = _cut_half(f.coeffs, grid, band) * np.exp(-nu * t * _half_cube(grid, band).k_squared)
    return SpectralField(grid, _complete(half, grid, band))


def leray_project(field: SpectralField) -> SpectralField:
    """Per-mode projection onto divergence-free fields, identity at k = 0
    and at the pure-Nyquist modes, where every odd multiplier is 0."""
    if field.rank != 1:
        raise ValueError("Leray projection acts on vector fields")
    return SpectralField(field.grid, _leray(field.coeffs, field.grid))


def _leray(coeffs: np.ndarray, grid: TorusGrid, band: int | None = None) -> np.ndarray:
    """c - k (k.c)/|k|^2 mode by mode on the full lattice, or on the half
    cube of a band (_HalfCube), identity wherever that |k|^2 is 0."""
    if band is None:
        wavenumbers, ksq = grid.wavenumbers, _lattice(grid).leray_k_squared
    else:
        half = _half_cube(grid, band)
        wavenumbers, ksq = half.wavenumbers, half.leray_k_squared
    kdotu = None
    for j, k in enumerate(wavenumbers):
        term = k * coeffs[j]
        kdotu = term if kdotu is None else kdotu + term
    kdotu = kdotu / ksq
    out = np.empty_like(coeffs)
    for j, k in enumerate(wavenumbers):
        out[j] = coeffs[j] - k * kdotu
    return out


def lp_norm(field: SpectralField, p: float) -> float:
    """Physical-space L^p norm by equal-weight quadrature; p = inf -> max.

    Vector and tensor fields use the pointwise Euclidean (Frobenius)
    magnitude before the quadrature; integer p takes it as a product of
    squared magnitudes (_lp_quadrature).
    """
    if not p >= 1:  # NaN too
        raise ValueError(f"p must satisfy 1 <= p <= inf, got {p}")
    return _lp_quadrature(inverse_transform(field), field.rank, field.grid, p)


def _lp_quadrature(samples: np.ndarray, rank: int, grid: TorusGrid, p: float) -> float:
    """L^p norm of physical samples of a rank-`rank` field by equal-weight quadrature.

    Integer p sums products of the squared magnitude |f|^2 (a square for
    rank 0, a sum of squares over the lead axes otherwise), raised to p // 2
    by repeated squaring, with one |f| factor for odd p: no sqrt for even p
    and no pow.  Other p use |f|**p, and p = inf the max of |f|.
    """
    flat = samples.reshape((-1,) + samples.shape[rank:])
    if p == np.inf or p != int(p):
        mag = np.sqrt(np.sum(np.abs(flat) ** 2, axis=0)) if rank else np.abs(samples)
        if p == np.inf:
            return float(np.max(mag))
        return float((np.sum(mag**p) * grid.cell_volume) ** (1.0 / p))
    sq = flat[0] * flat[0]
    for c in flat[1:]:
        sq += c * c
    k, odd = divmod(int(p), 2)
    power = _integer_power(sq, k) if k else 1.0
    if odd:
        power = power * (np.sqrt(sq) if rank else np.abs(samples))
    return float((np.sum(power) * grid.cell_volume) ** (1.0 / p))


def _integer_power(base: np.ndarray, k: int) -> np.ndarray:
    """base**k for an integer k >= 1 by repeated squaring (base itself for k = 1)."""
    if k == 1:
        return base
    power = _integer_power(base * base, k // 2)
    return power * base if k % 2 else power


def l2_norm(field: SpectralField) -> float:
    """L^2 norm through Parseval; equals lp_norm(field, 2) to roundoff."""
    total = np.sum(np.abs(field.coeffs) ** 2)
    return float(np.sqrt(total * field.grid.box_length**field.grid.dim))


def _half_parseval(half: np.ndarray, grid: TorusGrid, weight=1.0):
    """L^n sum of weight |c|^2 (summed over lead axes) over the lattice of the field whose half cube or half lattice
    half holds, weight even and given there: m_last = 0 and the half lattice's N/2 count once, other planes twice."""
    mags = weight * (np.abs(half) ** 2).reshape((-1,) + half.shape[-grid.dim :]).sum(axis=0)
    stop = -1 if half.shape[-1] == grid.points_per_axis // 2 + 1 else None
    return grid.box_length**grid.dim * (mags.sum() + mags[..., 1:stop].sum())


def l2_inner(a: SpectralField, b: SpectralField) -> float:
    """Real L^2 pairing integral a . b via Parseval."""
    _check_same_grid(a, b)
    if a.coeffs.shape != b.coeffs.shape:
        raise ValueError("inner product needs fields of equal rank")
    total = np.sum(a.coeffs * np.conj(b.coeffs))
    return float(np.real(total) * a.grid.box_length**a.grid.dim)


def sobolev_norm(field: SpectralField, s: float, p: float = 2, homogeneous: bool = True) -> float:
    """Multiplier Sobolev norm: |k|^s (homogeneous) or (1+|k|^2)^(s/2), then L^p.

    The homogeneous version ignores the mean mode, so it is a norm only on
    mean-zero fields.
    """
    g = field.grid
    if homogeneous:
        ksq = g.k_squared.copy()
        zero = (0,) * g.dim
        ksq[zero] = 1.0
        mult = ksq ** (s / 2.0)
        mult[zero] = 0.0
    else:
        mult = (1.0 + g.k_squared) ** (s / 2.0)
    weighted = _apply_multiplier(field, mult)
    if p == 2:
        return l2_norm(weighted)
    return lp_norm(weighted, p)


def relative_divergence(u: SpectralField) -> float:
    """||div u||_2 / ||u||_2 with the convention 0 for the zero field."""
    nu = l2_norm(u)
    if nu == 0.0:
        return 0.0
    return l2_norm(divergence(u)) / nu


def require_solenoidal(u: SpectralField):
    """Raise SolenoidalityError when relative_divergence(u) exceeds 1e-8."""
    rel = relative_divergence(u)
    if rel > 1e-8:
        raise SolenoidalityError(f"field has relative divergence {rel:.3e} > 1.0e-08")
