"""Randomized field ensembles for the estimate verifiers and tests.

Generic random fields leave many inequalities far from equality, so each
verifier picks a construction that puts mass where its bound is tight:

* random-phase fields have spatially flat statistics; block L^p norms track
  the block L^2 norm for every p, which saturates estimates that do not
  trade integrability (p fixed on both sides);
* coherent-phase fields align all mode phases at one random point, giving
  near-extremal bump profiles; these saturate gains of the form
  n (1/p - 1/q) between different Lebesgue exponents;
* power-law envelopes |coeff(k)| ~ |k|^(-gamma) make Besov shell profiles
  flat at a prescribed regularity, the rough-data regime for smoothing
  estimates.

All generators are deterministic functions of a numpy Generator.
"""

from __future__ import annotations

import numpy as np

from .littlewood_paley import _default_j_max
from .spectral import (
    SpectralField,
    TorusGrid,
    dealias,
    forward_transform,
    leray_project,
)

__all__ = [
    "as_rng",
    "band_mask",
    "random_band_limited",
    "random_solenoidal",
    "shell_field",
    "power_law_field",
    "coverage_k_max",
]


def as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def coverage_k_max(grid: TorusGrid) -> float:
    """Top wavenumber 2^J fully covered by the default dyadic partition."""
    return 2.0 ** _default_j_max(grid)


def band_mask(grid: TorusGrid, k_min: float, k_max: float) -> np.ndarray:
    """Boolean mask for the closed spherical band k_min <= |k| <= k_max."""
    r = grid.k_magnitude
    return (r >= k_min) & (r <= k_max)


def _hermitian_noise(grid: TorusGrid, rng: np.random.Generator, lead: tuple) -> np.ndarray:
    """Coefficients of white physical noise; Hermitian by construction."""
    samples = rng.standard_normal(lead + grid.shape)
    return forward_transform(samples, grid).coeffs


def _coherent_phases(grid: TorusGrid, rng: np.random.Generator) -> np.ndarray:
    """exp(-i k.x0) for one random center x0: a translated point mass.

    x0 snaps to a grid node so the physical-space peak is actually sampled;
    an off-lattice center under-reads max norms at high frequency.
    """
    spacing = grid.box_length / grid.points_per_axis
    x0 = spacing * rng.integers(0, grid.points_per_axis, size=grid.dim)
    phase = np.zeros(grid.shape)
    for i, m in enumerate(grid.mode_numbers):
        phase = phase + m * grid.wavenumber_scale * x0[i]
    return np.exp(-1j * phase)


def random_band_limited(
    grid: TorusGrid,
    rng,
    k_min: float = 1.0,
    k_max: float | None = None,
    lead: tuple = (),
    decay: float = 0.0,
    coherent: bool = False,
    zero_mean: bool = True,
) -> SpectralField:
    """Real random field supported on the spherical band [k_min, k_max].

    decay > 0 multiplies coefficients by |k|^(-decay).  coherent=True uses a
    common translated-point-mass phase instead of random phases (with a mild
    amplitude jitter so ensembles stay non-degenerate).
    """
    rng = as_rng(rng)
    if k_max is None:
        k_max = coverage_k_max(grid)
    mask = band_mask(grid, k_min, k_max)
    if coherent:
        jitter = 1.0 + 0.05 * rng.standard_normal()  # same for +-k: keeps symmetry
        coeffs = _coherent_phases(grid, rng) * mask * jitter
        coeffs = np.broadcast_to(coeffs, lead + grid.shape).copy()
        if lead:
            comp_scale = 1.0 + 0.1 * np.arange(int(np.prod(lead)))
            coeffs *= comp_scale.reshape(lead + (1,) * grid.dim)
    else:
        coeffs = _hermitian_noise(grid, rng, lead) * mask
    if decay != 0.0:
        r = grid.k_magnitude.copy()
        r[r == 0.0] = 1.0
        coeffs = coeffs * r ** (-decay)
    if zero_mean:
        coeffs[(...,) + (0,) * grid.dim] = 0.0
    return dealias(SpectralField(grid, coeffs))


def random_solenoidal(
    grid: TorusGrid,
    rng,
    k_min: float = 1.0,
    k_max: float | None = None,
    decay: float = 0.0,
) -> SpectralField:
    """Divergence-free mean-zero random vector field on a spherical band."""
    f = random_band_limited(grid, rng, k_min, k_max, lead=(grid.dim,), decay=decay)
    return leray_project(f)


def shell_field(
    grid: TorusGrid,
    j: int,
    rng,
    coherent: bool = False,
    lead: tuple = (),
) -> SpectralField:
    """Random field supported on the open dyadic annulus 2^(j-1) < |k| < 2^(j+1).

    Used for two-sided Bernstein checks; coherent=True gives the bump-like
    profile that saturates L^p -> L^q gains.  A Gaussian radial envelope of
    relative width 0.35 keeps the family self-similar across j;
    a sharp indicator leaks slowly decaying sidelobes into high-p norms.
    """
    lo = 2.0 ** (j - 1)
    hi = 2.0 ** (j + 1)
    r = grid.k_magnitude
    mask = (r > lo) & (r < hi)
    if not np.any(mask):
        raise ValueError(f"shell {j} holds no lattice points on this grid")
    envelope = np.exp(-(((r - 2.0**j) / (0.35 * 2.0**j)) ** 2)) * mask
    rng = as_rng(rng)
    if coherent:
        coeffs = _coherent_phases(grid, rng) * envelope
        coeffs = np.broadcast_to(coeffs, lead + grid.shape).copy()
    else:
        coeffs = _hermitian_noise(grid, rng, lead) * envelope
    return SpectralField(grid, coeffs)


def power_law_field(
    grid: TorusGrid,
    rng,
    gamma: float,
    k_min: float = 2.0,
    k_max: float | None = None,
    coherent: bool = False,
    lead: tuple = (),
) -> SpectralField:
    """Rough field with |coeff(k)| ~ |k|^(-gamma) on [k_min, k_max].

    With gamma = s + n/2 and random phases the Besov shell profile at
    regularity s and p = 2 is flat; with gamma = s + n - n/p and coherent
    phases the same holds in the bump-extremal sense for general p.
    """
    return random_band_limited(
        grid, rng, k_min=k_min, k_max=k_max, lead=lead, decay=gamma, coherent=coherent
    )
