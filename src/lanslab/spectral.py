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

Nyquist policy: on the full lattice the index N/2 of an axis is the
frequency -N/2, whose mirror image is itself, so the odd multiplier i k
cannot keep Hermitian symmetry there.  TorusGrid.wavenumbers, the one list
that feeds every odd multiplier (gradient, divergence, the Leray
projection and the kernel), is therefore 0 at each axis's Nyquist index;
k_squared keeps the true |k|^2.

Linear differential operators are diagonal multipliers and therefore exact
on band-limited data.  Products are not formed here: the nonlinearity
kernel in dynamics takes them in physical space on the half lattice and
follows them with the dealias mask, which zeroes every coefficient whose
max-norm frequency exceeds dealias_fraction * N/2.

Lattice arrays (mesh, k_squared, k_magnitude, dealias_mask) are built once
per grid value, read-only, and shared by equal TorusGrid objects through a
small module cache.
"""

from __future__ import annotations

import itertools
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
    "zero_field",
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


@lru_cache(maxsize=4)
def _lattice(grid: TorusGrid) -> _Lattice:
    """The shared lattice arrays of a grid value; one command uses at most 3 grids."""
    return _Lattice(grid)


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


def zero_field(grid: TorusGrid, rank: int = 1) -> SpectralField:
    lead = (grid.dim,) * rank
    return SpectralField(grid, np.zeros(lead + grid.shape, dtype=np.complex128))


def _axes(a: np.ndarray, grid: TorusGrid) -> tuple:
    return tuple(range(a.ndim - grid.dim, a.ndim))


def _half(coeffs: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """The rfftn half lattice (last axis 0..N/2) of full or half coefficients, as a view."""
    return coeffs[..., : grid.points_per_axis // 2 + 1]


def _rfft(samples: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Real samples -> half-lattice coefficients (series normalization)."""
    return np.fft.rfftn(samples, axes=_axes(samples, grid), norm="forward")


def _irfft(coeffs: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Real samples of the Hermitian spectrum whose half lattice coeffs holds."""
    half = _half(coeffs, grid)
    return np.fft.irfftn(half, s=grid.shape, axes=_axes(half, grid), norm="forward")


# (destination, source) slices mapping lattice index i to (-i) mod N
_MIRROR = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))


def _conj_mirror(src: np.ndarray, out: np.ndarray, grid: TorusGrid, last: tuple):
    """out[..., k] = conj src[..., -k]: every lattice axis but the last maps
    index i to (-i) mod N, the last one by its (destination, source) pairs."""
    for picks in itertools.product(*([_MIRROR] * (grid.dim - 1)), last):
        np.conjugate(src[(...,) + tuple(p[1] for p in picks)], out=out[(...,) + tuple(p[0] for p in picks)])


def _full(half: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Hermitian completion of half-lattice coefficients to the full lattice.

    The self-mirrored planes k_last = 0 and N/2 keep their Hermitian part
    (c(k) + conj c(-k))/2, the rest is the conjugate mirror image, so the
    output satisfies c(-k) == conj c(k) bit for bit.
    """
    n = grid.points_per_axis
    out = np.empty(half.shape[:-1] + (n,), dtype=np.complex128)
    out[..., : n // 2 + 1] = half
    for m in (0, n // 2):
        plane = out[..., m : m + 1]
        mirror = np.empty_like(plane)
        _conj_mirror(half, mirror, grid, ((slice(None), slice(m, m + 1)),))
        plane += mirror
        plane *= 0.5
    _conj_mirror(half, out[..., n // 2 + 1 :], grid, ((slice(None), slice(n // 2 - 1, 0, -1)),))
    return out


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
    """Exact heat semigroup exp(nu t Lap) as a diagonal multiplier; t >= 0."""
    if t < 0:
        raise ValueError(f"heat propagation needs t >= 0, got {t}")
    return _apply_multiplier(f, np.exp(-nu * t * f.grid.k_squared))


def leray_project(field: SpectralField) -> SpectralField:
    """Per-mode projection onto divergence-free fields, identity at k = 0
    and at the pure-Nyquist modes, where every odd multiplier is 0."""
    if field.rank != 1:
        raise ValueError("Leray projection acts on vector fields")
    return SpectralField(field.grid, _leray(field.coeffs, field.grid.wavenumbers))


def _leray(coeffs: np.ndarray, wavenumbers: list) -> np.ndarray:
    """c - k (k.c)/|k|^2 mode by mode on the lattice of the given (full or
    half) wavenumbers, identity wherever their |k|^2 is 0."""
    ksq = sum(k**2 for k in wavenumbers)
    ksq[ksq == 0.0] = 1.0  # k.c is 0 there too: the projector is the identity
    kdotu = None
    for j, k in enumerate(wavenumbers):
        term = k * coeffs[j]
        kdotu = term if kdotu is None else kdotu + term
    kdotu = kdotu / ksq
    out = np.empty_like(coeffs)
    for j, k in enumerate(wavenumbers):
        out[j] = coeffs[j] - k * kdotu
    return out


def _pointwise_magnitude(samples: np.ndarray, rank: int) -> np.ndarray:
    if rank == 0:
        return np.abs(samples)
    flat = samples.reshape((-1,) + samples.shape[rank:])
    return np.sqrt(np.sum(np.abs(flat) ** 2, axis=0))


def lp_norm(field: SpectralField, p: float) -> float:
    """Physical-space L^p norm by equal-weight quadrature; p = inf -> max.

    Vector and tensor fields use the pointwise Euclidean (Frobenius)
    magnitude before the quadrature.
    """
    if p != np.inf and p < 1:
        raise ValueError(f"p must satisfy 1 <= p <= inf, got {p}")
    mag = _pointwise_magnitude(inverse_transform(field), field.rank)
    if p == np.inf:
        return float(np.max(mag))
    return float((np.sum(mag**p) * field.grid.cell_volume) ** (1.0 / p))


def l2_norm(field: SpectralField) -> float:
    """L^2 norm through Parseval; equals lp_norm(field, 2) to roundoff."""
    total = np.sum(np.abs(field.coeffs) ** 2)
    return float(np.sqrt(total * field.grid.box_length**field.grid.dim))


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


def require_solenoidal(u: SpectralField, tol: float = 1e-8):
    rel = relative_divergence(u)
    if rel > tol:
        raise SolenoidalityError(f"field has relative divergence {rel:.3e} > {tol:.1e}")
