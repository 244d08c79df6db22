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

Each field is formed on the half cube |m_i| <= K, m_last >= 0 of its ball's
band K (spectral's band layout): mask, envelope, decay and phases act on
that cube only (random_solenoidal's Leray projection too), and _complete
turns it into lattice coefficients once.  random_band_limited caps K at the
dealias band, so its fields are dealiased; shell_field does not.
"""

from __future__ import annotations

import functools

import numpy as np

from .littlewood_paley import _default_j_max
from .spectral import (
    SpectralField,
    TorusGrid,
    _ball_band,
    _complete,
    _half_cube,
    _half_indices,
    _hermitian_planes,
    _leray,
    _rfft,
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


def _hermitian_noise(grid: TorusGrid, rng: np.random.Generator, lead: tuple, band: int) -> np.ndarray:
    """The half cube of band of the coefficients of white physical noise,
    its self-mirrored planes already Hermitian: callers weight it there by
    real functions of |k| before _complete, which then leaves those planes
    as they are, so weighting commutes with completion."""
    half = _rfft(rng.standard_normal(lead + grid.shape), grid, band)
    _hermitian_planes(half, grid, band)
    return half


def _coherent_phases(grid: TorusGrid, rng: np.random.Generator, band: int) -> np.ndarray:
    """exp(-i k.x0) on the half cube of band for one random center x0: a
    translated point mass.

    x0 snaps to a grid node so the physical-space peak is actually sampled;
    an off-lattice center under-reads max norms at high frequency.  With x0
    at grid index j the phase is a product of per-axis roots of unity
    w[(m j) mod N], w[r] = exp(-2 pi i r/N), whose table holds -1 exactly
    at N/2 and conjugate mirrors above it, so the completed phases are
    exactly Hermitian.
    """
    n = grid.points_per_axis
    index = rng.integers(0, n, size=grid.dim)
    w = np.exp(-2j * np.pi * np.arange(n // 2 + 1) / n)
    w[n // 2] = -1.0
    w = np.concatenate([w, np.conj(w[n // 2 - 1 : 0 : -1])])
    return functools.reduce(np.multiply.outer, [w[m * j % n] for m, j in zip(_half_indices(grid, band), index)])


def _band_limited_half(grid: TorusGrid, rng, k_min, k_max, lead: tuple, decay, coherent, zero_mean) -> tuple:
    """(half cube, its band) of random_band_limited's field, before _complete."""
    rng = as_rng(rng)
    if k_max is None:
        k_max = coverage_k_max(grid)
    if not k_max >= 0.0:  # NaN too
        raise ValueError(f"k_max must be a nonnegative number, got {k_max}")
    if not k_min <= k_max:
        raise ValueError(f"k_min must be a number no larger than k_max = {k_max}, got {k_min}")
    band = min(_ball_band(grid, k_max), grid.dealias_keep)
    r = np.sqrt(_half_cube(grid, band).k_squared)  # grid.k_magnitude there
    mask = (r >= k_min) & (r <= k_max)
    if coherent:
        jitter = 1.0 + 0.05 * rng.standard_normal()  # same for +-k: keeps symmetry
        coeffs = _coherent_phases(grid, rng, band) * mask * jitter
        if lead:
            comp_scale = 1.0 + 0.1 * np.arange(int(np.prod(lead)))
            coeffs = coeffs * comp_scale.reshape(lead + (1,) * grid.dim)
    else:
        coeffs = _hermitian_noise(grid, rng, lead, band) * mask
    if decay != 0.0:
        r[r == 0.0] = 1.0
        coeffs = coeffs * r ** (-decay)
    if zero_mean:
        coeffs[(...,) + (0,) * grid.dim] = 0.0
    return coeffs, band


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
    """Real random field supported on the spherical band [k_min, k_max],
    dealiased.

    decay > 0 multiplies coefficients by |k|^(-decay).  coherent=True uses a
    common translated-point-mass phase instead of random phases (with a mild
    amplitude jitter so ensembles stay non-degenerate).
    """
    half, band = _band_limited_half(grid, rng, k_min, k_max, lead, decay, coherent, zero_mean)
    return SpectralField(grid, _complete(half, grid, band))


def random_solenoidal(
    grid: TorusGrid,
    rng,
    k_min: float = 1.0,
    k_max: float | None = None,
    decay: float = 0.0,
) -> SpectralField:
    """Divergence-free mean-zero random vector field on a spherical band.

    The Leray projection acts on the band's half cube before the one
    completion; the result equals leray_project(random_band_limited(...))
    under ==, bit for bit on the half m_last >= 0.
    """
    half, band = _band_limited_half(grid, rng, k_min, k_max, (grid.dim,), decay, False, True)
    return SpectralField(grid, _complete(_leray(half, grid, band), grid, band))


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
    # the envelope lives on |k| < hi, the ball just inside |k| <= hi
    band = _ball_band(grid, np.nextafter(hi, 0.0))
    r = np.sqrt(_half_cube(grid, band).k_squared)  # grid.k_magnitude there
    mask = (r > lo) & (r < hi)
    if not np.any(mask):
        raise ValueError(f"shell {j} holds no lattice points on this grid")
    envelope = np.exp(-(((r - 2.0**j) / (0.35 * 2.0**j)) ** 2)) * mask
    rng = as_rng(rng)
    if coherent:
        coeffs = np.broadcast_to(_coherent_phases(grid, rng, band) * envelope, lead + envelope.shape)
    else:
        coeffs = _hermitian_noise(grid, rng, lead, band) * envelope
    return SpectralField(grid, _complete(coeffs, grid, band))


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
