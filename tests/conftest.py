"""Shared fixtures: small grids and their dyadic partitions, plus the
zero_field helper and the full-lattice oracles of the field ensembles.

Session scope keeps the FFT plans and multiplier stacks warm; every test
that mutates a field works on copies, so sharing is safe.  Property tests
run under a derandomized hypothesis profile with a small example budget,
so every run draws the same cases.
"""

import functools

import numpy as np
import pytest
from hypothesis import settings

from lanslab import SpectralField, TorusGrid, band_mask, build_partition, forward_transform

settings.register_profile("lanslab", derandomize=True, deadline=None, max_examples=25, database=None)
settings.load_profile("lanslab")


@pytest.fixture(scope="session")
def grid8():
    return TorusGrid(dim=3, points_per_axis=8)


@pytest.fixture(scope="session")
def grid16():
    return TorusGrid(dim=3, points_per_axis=16)


@pytest.fixture(scope="session")
def grid32():
    return TorusGrid(dim=3, points_per_axis=32)


@pytest.fixture(scope="session")
def grid16_2d():
    return TorusGrid(dim=2, points_per_axis=16)


@pytest.fixture(scope="session")
def part16(grid16):
    return build_partition(grid16)


@pytest.fixture(scope="session")
def part32(grid32):
    return build_partition(grid32)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def mirrored(c, dim):
    """c(-k) on the lattice: index i -> (-i) mod N along each lattice axis."""
    axes = tuple(range(c.ndim - dim, c.ndim))
    return np.roll(np.flip(c, axes), 1, axes)


def zero_field(grid: TorusGrid, rank: int = 1) -> SpectralField:
    """The zero field of the given tensor rank on the grid."""
    return SpectralField(grid, np.zeros((grid.dim,) * rank + grid.shape, dtype=np.complex128))


def lattice_phases(grid: TorusGrid, rng: np.random.Generator) -> np.ndarray:
    """exp(-i k.x0) on the whole lattice for x0 at a random grid node, a
    product of per-axis tables of roots of unity with -1 at N/2."""
    n = grid.points_per_axis
    index = rng.integers(0, n, size=grid.dim)
    w = np.exp(-2j * np.pi * np.arange(n // 2 + 1) / n)
    w[n // 2] = -1.0
    w = np.concatenate([w, np.conj(w[n // 2 - 1 : 0 : -1])])
    return functools.reduce(np.multiply.outer, [w[np.arange(n) * j % n] for j in index])


def lattice_band_limited(grid, rng, k_min, k_max, lead=(), decay=0.0, coherent=False, zero_mean=True):
    """random_band_limited formed on the whole lattice: coherent phases or
    the transform of N^dim normals, times band_mask and |k|^-decay, then
    dealiased; it draws the same numbers in the same order."""
    mask = band_mask(grid, k_min, k_max)
    if coherent:
        jitter = 1.0 + 0.05 * rng.standard_normal()
        coeffs = np.broadcast_to(lattice_phases(grid, rng) * mask * jitter, lead + grid.shape).copy()
        if lead:
            coeffs *= (1.0 + 0.1 * np.arange(int(np.prod(lead)))).reshape(lead + (1,) * grid.dim)
    else:
        coeffs = forward_transform(rng.standard_normal(lead + grid.shape), grid).coeffs * mask
    if decay != 0.0:
        r = grid.k_magnitude.copy()
        r[r == 0.0] = 1.0
        coeffs = coeffs * r ** (-decay)
    if zero_mean:
        coeffs[(...,) + (0,) * grid.dim] = 0.0
    return SpectralField(grid, coeffs * grid.dealias_mask)


def lattice_shell(grid, j, rng, coherent=False, lead=()):
    """shell_field formed on the whole lattice: the Gaussian radial envelope
    on 2^(j-1) < |k| < 2^(j+1) times coherent phases or transformed normals."""
    r = grid.k_magnitude
    envelope = np.exp(-(((r - 2.0**j) / (0.35 * 2.0**j)) ** 2)) * ((r > 2.0 ** (j - 1)) & (r < 2.0 ** (j + 1)))
    if coherent:
        coeffs = np.broadcast_to(lattice_phases(grid, rng) * envelope, lead + grid.shape)
    else:
        coeffs = forward_transform(rng.standard_normal(lead + grid.shape), grid).coeffs * envelope
    return SpectralField(grid, coeffs)
