"""Dyadic Littlewood-Paley decomposition, Besov norms and the paraproduct.

The frequency partition is built from one smooth radial low-pass profile H
(an exp(-1/x) glue) with H = 1 for r <= 1/2 and H = 0 for r >= 1.  Shell
profiles telescope exactly:

    block 0:       Psi(k)   = H(|k| / 2)            low ball, = 1 for |k| <= 1
    block j >= 1:  psi_j(k) = H(|k| / 2^(j+1)) - H(|k| / 2^j)

so psi_j >= 0, psi_j is supported in the open annulus 2^(j-1) < |k| < 2^(j+1),
and Psi + sum_j psi_j = H(|k| / 2^(J+1)) = 1 for every |k| <= 2^J.  Block
operators Delta_j with |j - j'| >= 2 annihilate each other exactly because
the sampled profiles have disjoint supports.

Besov norms sum 2^(j*s)-weighted block L^p norms over blocks j = 0..J with
an l^q sum (sup for q = inf); content above the top shell's support is not
measured, so callers working near the dealias cutoff should band-limit data
to |k| <= 2^J.

The partition depends on the grid alone: build_partition(grid) returns one
shared, read-only DyadicPartition per grid, built on the first call.  It
stores each block profile on the half cube of its tight band, spectral's
one layout of band-limited arrays: a 128^3 partition holds 1.1 MB of half
cubes instead of an 84 MB dense stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .spectral import (
    SpectralField,
    TorusGrid,
    _complete,
    _cube_index,
    _cut_half,
    _forward_band,
    _half_k_squared,
    _half_parseval,
    _irfft,
    _lp_quadrature,
)

__all__ = [
    "BesovIndex",
    "DyadicPartition",
    "ParaproductPieces",
    "build_partition",
    "smooth_lowpass_profile",
]


def _smooth_ramp(x: np.ndarray) -> np.ndarray:
    """C-infinity ramp: 0 for x <= 0, 1 for x >= 1, strictly rising between."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        a = np.where(x > 0.0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
        b = np.where(x < 1.0, np.exp(-1.0 / np.maximum(1.0 - x, 1e-300)), 0.0)
    return a / (a + b)


def smooth_lowpass_profile(r: np.ndarray) -> np.ndarray:
    """Radial low-pass H(r): exactly 1 for r <= 1/2, exactly 0 for r >= 1."""
    return 1.0 - _smooth_ramp(2.0 * np.asarray(r, dtype=float) - 1.0)


def _shell_profile(r: np.ndarray, j: int) -> np.ndarray:
    """Block j's profile at |k| = r: H(r / 2^(j+1)), minus H(r / 2^j) for j > 0."""
    return smooth_lowpass_profile(r / 2.0 ** (j + 1)) - (smooth_lowpass_profile(r / 2.0**j) if j > 0 else 0.0)


@dataclass(frozen=True)
class BesovIndex:
    """Regularity/integrability triple (s, p, q); p, q may be inf."""

    s: float
    p: float = 2.0
    q: float = 2.0

    def __post_init__(self):
        if not self.p >= 1:
            raise ValueError(f"p must satisfy 1 <= p <= inf, got {self.p}")
        if not self.q >= 1:
            raise ValueError(f"q must satisfy 1 <= q <= inf, got {self.q}")


@dataclass
class ParaproductPieces:
    """The three Bony pieces of a product f*g.

    low_high collects sum_k S_(k-3) f * Delta_k g (low frequencies of f
    against high of g), high_low the mirror image, resonant the near-diagonal
    interactions sum_k Delta_k f * sum_(|l|<=2) Delta_(k+l) g.  The pieces
    sum to the dealiased product.
    """

    low_high: SpectralField
    high_low: SpectralField
    resonant: SpectralField

    def total(self) -> SpectralField:
        return self.low_high + self.high_low + self.resonant


class DyadicPartition:
    """Sampled dyadic partition of unity on a grid's frequency lattice.

    Each profile is stored on the half cube of its tight band: bands[j] is
    the smallest K_j with psi_j zero outside |m_i| <= K_j, and cubes[j]
    holds psi_j on |m_i| <= K_j, m_last >= 0 (FFT order, side 2 K_j + 1 and
    K_j + 1 on the last axis).  The band is taken from the sampled support,
    not from 2^(j+1) in physical units, so every box length is exact.
    Block operators multiply and transform only the half cube.  The dense
    (j_max + 1,) + grid.shape stack multipliers, the tests' oracle, is
    completed from the half cubes on first read.  Every array is read-only,
    because build_partition shares one instance among all callers on a grid.
    """

    def __init__(self, grid: TorusGrid, j_max: int):
        if j_max < 1:
            raise ValueError("j_max must be at least 1")
        if 2.0 ** (j_max + 1) > grid.k_max * (1 + 1e-12):
            raise ValueError(
                f"j_max={j_max} too large: top shell needs 2^(j_max+1) <= K_max = {grid.k_max:.3f}"
            )
        self.grid = grid
        self.j_max = j_max
        # |k| at the axis modes (m, 0, ..., 0), formed as on the lattice
        axis = np.sqrt((np.arange(grid.points_per_axis // 2) * grid.wavenumber_scale) ** 2)
        self.bands, self.cubes = [], []
        for j in range(j_max + 1):
            # psi_j is radial and (m, 0, ..., 0) is the shortest k with
            # max |m_i| = m, so the last axis mode where psi_j is nonzero is
            # its tight band; a shell with no lattice point gets band 0
            support = np.flatnonzero(_shell_profile(axis, j))
            band = int(support[-1]) if support.size else 0
            psi = _shell_profile(np.sqrt(_half_k_squared(grid, band)), j)
            psi.flags.writeable = False
            self.bands.append(band)
            self.cubes.append(psi)

    @cached_property
    def multipliers(self) -> np.ndarray:
        """The dense stack of block profiles on the full lattice (read-only)."""
        mults = np.stack([_complete(c, self.grid, band).real for c, band in zip(self.cubes, self.bands)])
        mults.flags.writeable = False
        return mults

    def _block(self, f: SpectralField, j: int) -> np.ndarray:
        """The coefficients of Delta_j f on block j's half cube."""
        return _cut_half(f.coeffs, self.grid, self.bands[j]) * self.cubes[j]

    @cached_property
    def unity_defect(self) -> float:
        """Max |1 - sum of profiles| over the lattice ball |k| <= 2^j_max.

        The half cubes are nested, so the profiles are summed in j order on
        the top block's half cube, which holds the ball's half; the profiles
        are even in k, so the sum equals the dense stack's bit for bit.
        """
        top = self.bands[-1]
        total = np.zeros(self.cubes[-1].shape)
        for cube, band in zip(self.cubes, self.bands):
            total[_cube_index(2 * top + 1, band, self.grid.dim)] += cube
        covered = np.sqrt(_half_k_squared(self.grid, top)) <= 2.0**self.j_max
        return float(np.max(np.abs(1.0 - total[covered])))

    def delta_j(self, f: SpectralField, j: int) -> SpectralField:
        if not 0 <= j <= self.j_max:
            raise ValueError(f"block index {j} outside 0..{self.j_max}")
        self._check_grid(f)
        return SpectralField(f.grid, _complete(self._block(f, j), self.grid, self.bands[j]))

    def s_j(self, f: SpectralField, j: int) -> SpectralField:
        """Cumulative low-pass sum of blocks 0..j, the multiplier
        H(|k| / 2^(j+1)); block j's half cube holds its support."""
        self._check_grid(f)
        if j < 0:
            return SpectralField(f.grid, np.zeros_like(f.coeffs))
        j = min(j, self.j_max)
        band = self.bands[j]
        low = smooth_lowpass_profile(np.sqrt(_half_k_squared(self.grid, band)) / 2.0 ** (j + 1))
        return SpectralField(f.grid, _complete(_cut_half(f.coeffs, self.grid, band) * low, self.grid, band))

    def block_lp_norms(self, f: SpectralField, p: float) -> np.ndarray:
        """||Delta_j f||_p for j = 0..j_max, each from block j's half cube.

        p = 2 goes through Parseval over the half cube, where each mode with
        m_last > 0 stands for itself and its mirror image (K_j < N/2, so
        there is no Nyquist plane).  Other p transform the half cube back
        with the band-limited inverse and take the quadrature on the full
        grid, so they equal lp_norm of the dense block bit for bit.
        """
        self._check_grid(f)
        return self._half_norms(f.coeffs, p)

    def _half_norms(self, half: np.ndarray, p: float) -> np.ndarray:
        """block_lp_norms from a half cube (or lattice coefficients), zero-filled where a block is wider."""
        out = np.empty(self.j_max + 1)
        for j, band in enumerate(self.bands):
            cube = _cut_half(half, self.grid, band)
            if p == 2:
                out[j] = np.sqrt(_half_parseval(cube, self.grid, self.cubes[j] ** 2))
            else:
                samples = _irfft(cube * self.cubes[j], self.grid, band)
                out[j] = _lp_quadrature(samples, half.ndim - self.grid.dim, self.grid, p)
        return out

    def besov_norm(self, f: SpectralField, index: BesovIndex, homogeneous: bool = False) -> float:
        """l^q sum over blocks of 2^(j*s) ||Delta_j f||_p.

        homogeneous=True skips block 0, matching homogeneous-space
        comparisons on mean-zero data.
        """
        self._check_grid(f)
        return self._half_besov(f.coeffs, index, 1 if homogeneous else 0)

    def _half_besov(self, half: np.ndarray, index: BesovIndex, j0: int) -> float:
        """besov_norm from block j0 on, of the field whose half cube half holds."""
        norms = self._half_norms(half, index.p)
        js = np.arange(j0, self.j_max + 1)
        terms = 2.0 ** (js * index.s) * norms[j0:]
        if index.q == np.inf:
            return float(np.max(terms)) if terms.size else 0.0
        return float(np.sum(terms**index.q) ** (1.0 / index.q))

    def paraproduct_split(self, f: SpectralField, g: SpectralField) -> ParaproductPieces:
        """Bony decomposition of the dealiased pointwise product f*g."""
        self._check_grid(f)
        self._check_grid(g)
        if f.rank != 0 or g.rank != 0:
            raise ValueError("paraproduct_split is defined for scalar fields")
        J = self.j_max
        blocks_f = [_irfft(self._block(f, j), self.grid, band) for j, band in enumerate(self.bands)]
        blocks_g = [_irfft(self._block(g, j), self.grid, band) for j, band in enumerate(self.bands)]
        # cumulative physical low-pass sums S_m, index m = -1 meaning zero
        cum_f = [np.zeros(self.grid.shape)]
        cum_g = [np.zeros(self.grid.shape)]
        for j in range(J + 1):
            cum_f.append(cum_f[-1] + blocks_f[j])
            cum_g.append(cum_g[-1] + blocks_g[j])

        low_high = np.zeros(self.grid.shape)
        high_low = np.zeros(self.grid.shape)
        resonant = np.zeros(self.grid.shape)
        for k in range(J + 1):
            s_idx = max(k - 3 + 1, 0)  # cum list is offset by one
            low_high += cum_f[s_idx] * blocks_g[k]
            high_low += cum_g[s_idx] * blocks_f[k]
            near = np.zeros(self.grid.shape)
            for l in range(-2, 3):
                if 0 <= k + l <= J:
                    near += blocks_g[k + l]
            resonant += blocks_f[k] * near

        mk = lambda arr: _forward_band(arr, self.grid, self.grid.dealias_keep)
        return ParaproductPieces(mk(low_high), mk(high_low), mk(resonant))

    def _check_grid(self, f: SpectralField):
        if f.grid != self.grid:
            raise ValueError("field grid does not match partition grid")


def _default_j_max(grid: TorusGrid) -> int:
    """Largest J with 2^(J+1) <= K_max (may be < 1 on coarse grids)."""
    return int(np.floor(np.log2(grid.k_max + 1e-12))) - 1


@lru_cache(maxsize=4)
def build_partition(grid: TorusGrid) -> DyadicPartition:
    """The grid's partition, with the largest J satisfying 2^(J+1) <= K_max.

    It is built once per grid: equal grids get the same shared, read-only
    instance.  The cache keeps the 4 most recently used grids; a 128^3
    partition holds 1.1 MB of half cubes (84 MB once its dense multipliers
    are read).
    """
    return DyadicPartition(grid, _partition_depth(grid))


def _partition_depth(grid: TorusGrid) -> int:
    """build_partition's J; ValueError when the grid is too coarse for J >= 1."""
    j_max = _default_j_max(grid)
    if j_max < 1:
        raise ValueError(
            f"grid too coarse for a dyadic partition: K_max = {grid.k_max:.2f} < 4"
        )
    return j_max
