"""Periodic-torus spectral fields and exact Fourier-multiplier calculus.

Fields live on [0, L)^n with n in {2, 3} and are stored as complex Fourier
coefficients on the integer frequency lattice scaled by 2*pi/L.  With this
normalization a field f(x) = sum_k fhat(k) exp(i k.x) satisfies
fhat(+-(1,0,0)) = 1/2 for f = cos(x1), and Parseval reads
integral |f|^2 dx = L^n * sum_k |fhat(k)|^2.

Linear differential operators are diagonal multipliers and therefore exact
on band-limited data.  Products are not formed here: the nonlinearity
kernel in dynamics takes them in physical space and follows them with the
dealias mask, which zeroes every coefficient whose max-norm frequency
exceeds dealias_fraction * N/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def mesh(self) -> np.ndarray:
        """Physical coordinates, shape (dim,) + shape."""
        axes = np.meshgrid(*([self.axis_coordinates] * self.dim), indexing="ij")
        return np.stack(axes)

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
        """Physical wavenumbers k_i per axis, broadcastable."""
        return [m * self.wavenumber_scale for m in self.mode_numbers]

    @cached_property
    def k_squared(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for k in self.wavenumbers:
            out = out + k**2
        return out

    @cached_property
    def k_magnitude(self) -> np.ndarray:
        return np.sqrt(self.k_squared)

    @cached_property
    def dealias_keep(self) -> int:
        """Largest integer mode index kept by the 2/3-rule mask."""
        return int(np.floor(self.dealias_fraction * self.points_per_axis / 2.0))

    @cached_property
    def k_max(self) -> float:
        """Dealias cutoff in physical wavenumber units."""
        return self.dealias_fraction * (self.points_per_axis / 2.0) * self.wavenumber_scale

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        keep = self.dealias_keep
        mask = np.ones(self.shape, dtype=bool)
        for m in self.mode_numbers:
            mask &= np.abs(m) <= keep
        return mask


@dataclass
class SpectralField:
    """Fourier coefficients of a scalar (rank 0), vector (rank 1) or
    2-tensor (rank 2) field on a TorusGrid.

    coeffs has shape lead_shape + grid.shape where lead_shape is (),
    (dim,) or (dim, dim).  Fields are real: inverse_transform keeps the
    real part, which loses content wherever the coefficients are not
    conjugate symmetric, e.g. after the odd multiplier i k at k = -N/2.
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


def forward_transform(samples: np.ndarray, grid: TorusGrid) -> SpectralField:
    """Physical samples -> Fourier coefficients (series normalization)."""
    samples = np.asarray(samples)
    axes = tuple(range(samples.ndim - grid.dim, samples.ndim))
    coeffs = np.fft.fftn(samples, axes=axes) / grid.points_per_axis**grid.dim
    return SpectralField(grid, coeffs)


def inverse_transform(field: SpectralField) -> np.ndarray:
    """Fourier coefficients -> real physical samples."""
    axes = tuple(range(field.coeffs.ndim - field.grid.dim, field.coeffs.ndim))
    samples = np.fft.ifftn(field.coeffs, axes=axes) * field.grid.points_per_axis**field.grid.dim
    return samples.real


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
    g = field.grid
    out = None
    for j, k in enumerate(g.wavenumbers):
        idx = (slice(None),) * (field.rank - 1) + (j,)
        term = field.coeffs[idx] * (1j * k)
        out = term if out is None else out + term
    return SpectralField(g, out)


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
    """Per-mode projection onto divergence-free fields, identity at k = 0."""
    if field.rank != 1:
        raise ValueError("Leray projection acts on vector fields")
    g = field.grid
    ksq = g.k_squared.copy()
    zero = (0,) * g.dim
    ksq[zero] = 1.0  # k = 0: projector is the identity
    kdotu = None
    for j, k in enumerate(g.wavenumbers):
        term = k * field.coeffs[j]
        kdotu = term if kdotu is None else kdotu + term
    kdotu = kdotu / ksq
    out = np.empty_like(field.coeffs)
    for j, k in enumerate(g.wavenumbers):
        out[j] = field.coeffs[j] - k * kdotu
    return SpectralField(g, out)


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
