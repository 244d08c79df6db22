"""Shared fixtures: small grids and their dyadic partitions, plus the
zero_field helper.

Session scope keeps the FFT plans and multiplier stacks warm; every test
that mutates a field works on copies, so sharing is safe.  Property tests
run under a derandomized hypothesis profile with a small example budget,
so every run draws the same cases.
"""

import numpy as np
import pytest
from hypothesis import settings

from lanslab import SpectralField, TorusGrid, build_partition

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
