"""Spectral core: transforms, Fourier multipliers, tensor calculus.

Every numeric expectation here is frozen from a hand computation on the
2 pi torus; none is read back from the implementation.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lanslab import (
    GridMismatchError,
    LansConfig,
    SingularModeError,
    SolenoidalityError,
    SpectralField,
    TorusGrid,
    dealias,
    divergence,
    forward_transform,
    gradient,
    heat_propagate,
    helmholtz_inverse,
    inverse_transform,
    l2_inner,
    l2_norm,
    laplacian_power,
    leray_project,
    lp_norm,
    nonlinear_rhs,
    random_solenoidal,
    relative_divergence,
    require_solenoidal,
    reynolds_stress,
    sobolev_norm,
)
from lanslab.dynamics import _flux_half, _kernel_inputs
from lanslab.spectral import (
    _complete,
    _cube_index,
    _cut_half,
    _forward_band,
    _half_cube,
    _half_k_squared,
    _half_parseval,
    _irfft,
    _lp_quadrature,
    _rfft,
)
from conftest import mirrored, zero_field

# volume of the unit torus [0, 2pi)^3; sqrt of it is the L2 norm of f == 1
VOLUME_3D = (2.0 * np.pi) ** 3
CONST_NORM_3D = 15.749609945722419  # (2 pi)^(3/2), frozen


def single_mode(grid, k_vec, lead=None):
    """cos(k . x) as a spectral field, optionally embedded in one vector slot."""
    phase = sum(k * x for k, x in zip(k_vec, grid.mesh))
    samples = np.cos(phase)
    if lead is not None:
        vec = np.zeros((grid.dim,) + grid.shape)
        vec[lead] = samples
        return forward_transform(vec, grid)
    return forward_transform(samples, grid)


class TestTorusGrid:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            TorusGrid(dim=3, points_per_axis=24)

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            TorusGrid(dim=3, points_per_axis=4)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            TorusGrid(dim=4, points_per_axis=16)

    def test_spacing_and_volume(self, grid16):
        assert grid16.spacing == pytest.approx(2.0 * np.pi / 16)
        assert grid16.cell_volume * 16**3 == pytest.approx(VOLUME_3D)

    def test_dealias_cutoff_two_thirds(self, grid16):
        # keep |k| <= (2/3)(N/2) = 5.33 -> keep 5, kill 6 and above
        assert grid16.dealias_keep == 5
        mode5 = single_mode(grid16, (5, 0, 0))
        mode6 = single_mode(grid16, (6, 0, 0))
        assert l2_norm(dealias(mode5)) > 1.0
        assert l2_norm(dealias(mode6)) < 1e-13 * l2_norm(mode6)

    def test_equal_grids_share_read_only_lattice_arrays(self):
        a, b = TorusGrid(dim=3, points_per_axis=16), TorusGrid(dim=3, points_per_axis=16)
        assert a is not b
        for name in ("mesh", "k_squared", "k_magnitude", "dealias_mask"):
            arr = getattr(a, name)
            assert arr is getattr(b, name), name
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1
        assert a.k_squared is not TorusGrid(dim=3, points_per_axis=16, box_length=1.0).k_squared

    def test_wavenumber_scale_with_box_length(self):
        g = TorusGrid(dim=3, points_per_axis=16, box_length=np.pi)
        assert g.wavenumber_scale == pytest.approx(2.0)


class TestTransforms:
    def test_roundtrip_is_identity(self, grid16, rng):
        samples = rng.standard_normal((3,) + grid16.shape)
        back = inverse_transform(forward_transform(samples, grid16))
        np.testing.assert_allclose(back, samples, atol=1e-12)

    def test_constant_field_norm(self, grid16):
        f = forward_transform(np.ones(grid16.shape), grid16)
        assert l2_norm(f) == pytest.approx(CONST_NORM_3D, rel=1e-13)

    def test_cosine_coefficients_are_half(self, grid16):
        f = single_mode(grid16, (1, 0, 0))
        assert f.coeffs[1, 0, 0] == pytest.approx(0.5)
        assert f.coeffs[-1, 0, 0] == pytest.approx(0.5)

    def test_parseval_two_routes(self, grid16, rng):
        # physical quadrature (lp_norm) against coefficient sum (l2_norm)
        f = forward_transform(rng.standard_normal(grid16.shape), grid16)
        assert lp_norm(f, 2.0) == pytest.approx(l2_norm(f), rel=1e-12)

    def test_cosine_l2_norm_closed_form(self, grid16):
        # integral of cos^2 over the box is volume/2
        f = single_mode(grid16, (2, 1, 0))
        assert l2_norm(f) == pytest.approx(np.sqrt(VOLUME_3D / 2.0), rel=1e-13)

    def test_lp_infinity_is_peak_value(self, grid16):
        f = single_mode(grid16, (1, 0, 0))
        assert lp_norm(f, np.inf) == pytest.approx(1.0, rel=1e-12)

    def test_nan_exponents_are_value_errors(self, grid16):
        f = single_mode(grid16, (1, 0, 0))
        with pytest.raises(ValueError, match="^p "):
            lp_norm(f, np.nan)
        with pytest.raises(ValueError, match="^p "):
            sobolev_norm(f, 1.0, np.nan)


def power_rule(samples, rank, grid, p):
    """(sum |f|**p dV)**(1/p) with |f| the pointwise Euclidean magnitude,
    or max |f| for p = inf."""
    if rank == 0:
        mag = np.abs(samples)
    else:
        mag = np.sqrt(np.sum(np.abs(samples.reshape((-1,) + grid.shape)) ** 2, axis=0))
    if p == np.inf:
        return float(np.max(mag))
    return float((np.sum(mag**p) * grid.cell_volume) ** (1.0 / p))


class TestQuadrature:
    """Integer p takes products of |f|^2 and matches the power rule to
    roundoff; other p and p = inf are the power rule itself."""

    @given(data=st.data())
    def test_against_the_power_rule(self, data):
        grid = TorusGrid(dim=2, points_per_axis=8, box_length=data.draw(st.sampled_from([2.0 * np.pi, 3.0])))
        rank = data.draw(st.integers(0, 2))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        shape = (2,) * rank + grid.shape
        # zeros, tiny values (10^-300 .. 10^-10) and normal values at random places
        kind = rng.choice(3, size=shape, p=[0.2, 0.2, 0.6])
        tiny = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-300, -10, size=shape)
        samples = np.where(kind == 0, 0.0, np.where(kind == 1, tiny, rng.standard_normal(shape)))
        samples *= data.draw(st.sampled_from([1e-3, 1.0, 1e3]))
        for p in (1, 2, 3, 4, 5, 6, 7, 8, 30):
            want = power_rule(samples, rank, grid, p)
            assert abs(_lp_quadrature(samples, rank, grid, float(p)) - want) <= 1e-15 * want, f"p={p}"
            assert _lp_quadrature(samples, rank, grid, p) == _lp_quadrature(samples, rank, grid, float(p))
        for p in (2.5, np.inf):
            assert _lp_quadrature(samples, rank, grid, p) == power_rule(samples, rank, grid, p), f"p={p}"

    def test_zero_field(self, grid16):
        for p in (1, 2, 3, 6, 2.5, np.inf):
            assert _lp_quadrature(np.zeros((3,) + grid16.shape), 1, grid16, p) == 0.0


TRANSFORM_CASES = [(dim, n, rank) for dim, n in ((2, 8), (2, 16), (3, 8), (3, 16)) for rank in (0, 1, 2)]


class TestTransformProperties:
    @pytest.mark.parametrize("dim, n, rank", TRANSFORM_CASES)
    @given(seed=st.integers(0, 2**31), scale=st.floats(1e-3, 1e3))
    def test_forward_output_is_exactly_hermitian(self, dim, n, rank, seed, scale):
        grid = TorusGrid(dim=dim, points_per_axis=n)
        samples = scale * np.random.default_rng(seed).standard_normal((dim,) * rank + grid.shape)
        c = forward_transform(samples, grid).coeffs
        assert np.array_equal(mirrored(c, dim), np.conj(c))

    @pytest.mark.parametrize("dim, n, rank", TRANSFORM_CASES)
    @given(seed=st.integers(0, 2**31), scale=st.floats(1e-3, 1e3))
    def test_inverse_is_the_real_part_of_the_complex_inverse(self, dim, n, rank, seed, scale):
        # Hermitian coefficients drawn directly, self-mirrored planes included
        grid = TorusGrid(dim=dim, points_per_axis=n)
        rng = np.random.default_rng(seed)
        shape = (dim,) * rank + grid.shape
        c = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        c = 0.5 * (c + np.conj(mirrored(c, dim)))
        expected = np.fft.ifftn(c, axes=tuple(range(rank, rank + dim))).real * n**dim
        got = inverse_transform(SpectralField(grid, c))
        assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)


BAND_GRIDS = [
    TorusGrid(dim=2, points_per_axis=8),
    TorusGrid(dim=2, points_per_axis=32, box_length=3.0),
    TorusGrid(dim=3, points_per_axis=8),
    TorusGrid(dim=3, points_per_axis=16),
    TorusGrid(dim=3, points_per_axis=16, box_length=5.0),
    TorusGrid(dim=3, points_per_axis=16, dealias_fraction=1.0),
]


def cube_mask(grid, band):
    """The lattice's cube |m_i| <= band as a boolean mask."""
    mask = np.ones(grid.shape, dtype=bool)
    for m in grid.mode_numbers:
        mask &= np.abs(m) <= band
    return mask


class TestBandTransforms:
    """The band-limited transforms equal truncate-then-transform (inverse)
    and transform-then-truncate (forward) bit for bit; a band of N/2 or
    more is the whole lattice."""

    @pytest.mark.parametrize("grid", BAND_GRIDS, ids=str)
    @given(data=st.data())
    def test_forward_is_the_truncated_rfftn(self, grid, data):
        n, dim = grid.points_per_axis, grid.dim
        rank = data.draw(st.integers(0, 2))
        band = data.draw(st.integers(0, n // 2 + 1))
        samples = np.random.default_rng(data.draw(st.integers(0, 2**31))).standard_normal((dim,) * rank + grid.shape)
        half = _rfft(samples, grid)
        got = _rfft(samples, grid, band)
        if band >= n // 2:
            assert np.array_equal(got, half)
        else:
            assert np.array_equal(got, half[(...,) + _cube_index(n, band, dim)])
        full = forward_transform(samples, grid).coeffs
        assert np.array_equal(_forward_band(samples, grid, band).coeffs, full * cube_mask(grid, band))

    @pytest.mark.parametrize("grid", BAND_GRIDS, ids=str)
    @given(data=st.data())
    def test_inverse_is_the_truncated_irfftn(self, grid, data):
        n, dim = grid.points_per_axis, grid.dim
        rank = data.draw(st.integers(0, 2))
        band = data.draw(st.integers(0, n // 2 + 1))
        samples = np.random.default_rng(data.draw(st.integers(0, 2**31))).standard_normal((dim,) * rank + grid.shape)
        full = forward_transform(samples, grid).coeffs
        if band >= n // 2:
            assert np.array_equal(_irfft(full, grid, band), _irfft(full, grid))
            return
        truncated = np.where(cube_mask(grid, band), full, 0.0)
        expected = inverse_transform(SpectralField(grid, truncated))
        assert np.array_equal(_irfft(_cut_half(full, grid, band), grid, band), expected)

    @pytest.mark.parametrize("grid", BAND_GRIDS, ids=str)
    def test_dealias_cube_is_dealias(self, grid, rng):
        samples = rng.standard_normal((grid.dim,) + grid.shape)
        expected = dealias(forward_transform(samples, grid)).coeffs
        assert np.array_equal(_forward_band(samples, grid, grid.dealias_keep).coeffs, expected)

    @pytest.mark.parametrize("grid", BAND_GRIDS, ids=str)
    def test_half_k_squared_is_the_lattice_cut(self, grid):
        n = grid.points_per_axis
        for band in range(n // 2 + 2):
            got = _half_k_squared(grid, band)
            assert np.array_equal(got, _cut_half(grid.k_squared, grid, band)), f"band={band}"


def mean_free(f):
    c = f.coeffs.copy()
    c[(...,) + (0,) * f.grid.dim] = 0.0
    return SpectralField(f.grid, c)


# name -> (operator of a field f and a second field g, ranks of f it takes)
OPERATORS = {
    "dealias": (lambda f, g: dealias(f), (0, 1, 2)),
    "gradient": (lambda f, g: gradient(f), (0, 1)),
    "divergence": (lambda f, g: divergence(f), (1, 2)),
    "laplacian_power": (lambda f, g: laplacian_power(f, 1.5), (0, 1, 2)),
    "laplacian_power_negative": (lambda f, g: laplacian_power(mean_free(f), -1.0), (0, 1, 2)),
    "helmholtz_inverse": (lambda f, g: helmholtz_inverse(f, 0.3), (0, 1, 2)),
    "heat_propagate": (lambda f, g: heat_propagate(f, 0.01), (0, 1, 2)),
    "leray_project": (lambda f, g: leray_project(f), (1,)),
    "nonlinear_rhs": (lambda f, g: nonlinear_rhs(f, LansConfig(grid=f.grid, alpha=0.3)), (1,)),
    "nonlinear_rhs_background": (lambda f, g: nonlinear_rhs(f, LansConfig(grid=f.grid, alpha=0.3), g), (1,)),
    "reynolds_stress": (lambda f, g: reynolds_stress(f, g, LansConfig(grid=f.grid, alpha=0.3)), (1,)),
}
OPERATOR_CASES = [(name, dim, n, rank) for name, (_, ranks) in OPERATORS.items()
                  for dim, n in ((2, 8), (2, 16), (3, 8), (3, 16)) for rank in ranks]


def assert_real_field(out):
    """Exactly Hermitian coefficients, whose Parseval sum is the quadrature norm."""
    assert np.array_equal(mirrored(out.coeffs, out.grid.dim), np.conj(out.coeffs))
    l2 = l2_norm(out)
    assert abs(l2 - lp_norm(out, 2.0)) <= 1e-12 * l2


class TestOperatorsKeepHermitianSymmetry:
    @pytest.mark.parametrize("name, dim, n, rank", OPERATOR_CASES)
    @given(seed=st.integers(0, 2**31), scale=st.floats(1e-3, 1e3))
    def test_raw_noise(self, name, dim, n, rank, seed, scale):
        # white noise fills every mode, the Nyquist planes included
        grid = TorusGrid(dim=dim, points_per_axis=n)
        rng = np.random.default_rng(seed)
        f, g = (forward_transform(scale * rng.standard_normal((dim,) * rank + grid.shape), grid) for _ in range(2))
        assert_real_field(OPERATORS[name][0](f, g))

    def test_gradient_of_the_nyquist_cosine(self, grid8):
        # cos(4 x1) on 8 points lives on the Nyquist index alone
        f = forward_transform(np.cos(4.0 * grid8.mesh[0]), grid8)
        assert_real_field(gradient(f))


class TestDerivatives:
    def test_gradient_of_sine(self, grid16):
        samples = np.sin(grid16.mesh[0])
        g = gradient(forward_transform(samples, grid16))
        phys = inverse_transform(g)
        np.testing.assert_allclose(phys[0], np.cos(grid16.mesh[0]), atol=1e-12)
        np.testing.assert_allclose(phys[1], 0.0, atol=1e-13)

    def test_jacobian_convention(self, grid16):
        # u = (sin x2, 0, 0): G[i, j] = d_j u_i so G[0, 1] = cos x2
        u = single_mode_sin(grid16)
        G = inverse_transform(gradient(u))
        np.testing.assert_allclose(G[0, 1], np.cos(grid16.mesh[1]), atol=1e-12)
        np.testing.assert_allclose(G[1, 0], 0.0, atol=1e-13)

    def test_gradient_rejects_rank_two(self, grid16, rng):
        u = forward_transform(rng.standard_normal((3, 3) + grid16.shape), grid16)
        with pytest.raises(ValueError):
            gradient(u)

    def test_divergence_contracts_last_lead_axis(self, grid16, rng):
        # div(grad f) = -sum_j k'_j^2 f with the odd multipliers' k', which
        # is 0 along each axis's Nyquist index: -|k|^2 f on every mode with
        # no Nyquist component, the Nyquist-zeroed sum on the rest
        f = forward_transform(rng.standard_normal(grid16.shape), grid16)
        lap = divergence(gradient(f))
        m = np.meshgrid(*([np.fft.fftfreq(16, d=1.0 / 16)] * 3), indexing="ij")
        nyquist = (np.abs(m[0]) == 8) | (np.abs(m[1]) == 8) | (np.abs(m[2]) == 8)
        expected = laplacian_power(f, 2.0) * (-1.0)
        np.testing.assert_allclose(lap.coeffs[~nyquist], expected.coeffs[~nyquist], atol=1e-12)
        zeroed_sq = sum(np.where(np.abs(mj) == 8, 0.0, mj) ** 2 for mj in m)
        np.testing.assert_allclose(lap.coeffs[nyquist], (-zeroed_sq * f.coeffs)[nyquist], atol=1e-12)

    def test_def_rot_at_origin(self, grid16):
        # u = (sin x2, 0, 0): at x = 0 the Jacobian is the unit entry
        # G[0, 1] = 1, so Def[0, 1] = Def[1, 0] = 1/2 and Rot[0, 1] = 1/2.
        u = single_mode_sin(grid16)
        G = gradient(u).coeffs
        GT = np.swapaxes(G, 0, 1)
        D = SpectralField(grid16, 0.5 * (G + GT))
        R = SpectralField(grid16, 0.5 * (G - GT))
        d0 = inverse_transform(D)[..., 0, 0, 0]
        r0 = inverse_transform(R)[..., 0, 0, 0]
        assert d0[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert d0[1, 0] == pytest.approx(0.5, abs=1e-12)
        assert r0[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert r0[1, 0] == pytest.approx(-0.5, abs=1e-12)
        recombined = D.coeffs + R.coeffs
        np.testing.assert_allclose(recombined, gradient(u).coeffs, atol=1e-13)


def single_mode_sin(grid):
    vec = np.zeros((grid.dim,) + grid.shape)
    vec[0] = np.sin(grid.mesh[1])
    return forward_transform(vec, grid)


class TestMultipliers:
    def test_laplacian_power_single_mode(self, grid16):
        f = single_mode(grid16, (2, 0, 0))
        out = laplacian_power(f, 1.5)
        assert out.coeffs[2, 0, 0] == pytest.approx(0.5 * 2.0**1.5, rel=1e-13)

    def test_negative_power_inverts(self, grid16, rng):
        f = forward_transform(rng.standard_normal(grid16.shape), grid16)
        f.coeffs[0, 0, 0] = 0.0
        back = laplacian_power(laplacian_power(f, 2.0), -2.0)
        np.testing.assert_allclose(back.coeffs, f.coeffs, atol=1e-12)

    def test_negative_power_needs_zero_mean(self, grid16):
        f = forward_transform(np.ones(grid16.shape), grid16)
        with pytest.raises(SingularModeError):
            laplacian_power(f, -1.0)

    def test_helmholtz_inverse_single_mode(self, grid16):
        # (1 + alpha^2 |k|^2)^(-1) at |k|^2 = 4, alpha = 0.5 is 1/2
        f = single_mode(grid16, (2, 0, 0))
        out = helmholtz_inverse(f, 0.5)
        assert out.coeffs[2, 0, 0] == pytest.approx(0.25, rel=1e-13)

    def test_helmholtz_alpha_zero_is_identity(self, grid16, rng):
        f = forward_transform(rng.standard_normal(grid16.shape), grid16)
        np.testing.assert_allclose(helmholtz_inverse(f, 0.0).coeffs, f.coeffs)

    def test_sobolev_norm_single_mode(self, grid16):
        # homogeneous H^s of cos(2 x1): |k|^s times the L2 norm
        f = single_mode(grid16, (2, 0, 0))
        expected = 2.0**1.5 * np.sqrt(VOLUME_3D / 2.0)
        assert sobolev_norm(f, 1.5, homogeneous=True) == pytest.approx(expected, rel=1e-12)


class TestLerayProjection:
    def test_kills_gradients(self, grid16, rng):
        phi = forward_transform(rng.standard_normal(grid16.shape), grid16)
        assert l2_norm(leray_project(gradient(phi))) < 1e-13 * l2_norm(gradient(phi))

    def test_idempotent(self, grid16, rng):
        u = forward_transform(rng.standard_normal((3,) + grid16.shape), grid16)
        once = leray_project(u)
        twice = leray_project(once)
        np.testing.assert_allclose(twice.coeffs, once.coeffs, atol=1e-14)

    @pytest.mark.parametrize("grid", [TorusGrid(2, 32), TorusGrid(3, 16), TorusGrid(3, 32, box_length=5.0)], ids=str)
    @given(seed=st.integers(0, 2**31), alpha=st.floats(0.0, 2.0))
    def test_idempotent_and_commutes_with_helmholtz_inverse(self, grid, seed, alpha):
        u = forward_transform(np.random.default_rng(seed).standard_normal((grid.dim,) + grid.shape), grid)
        once = leray_project(u)
        scale = np.linalg.norm(once.coeffs)
        assert np.linalg.norm(leray_project(once).coeffs - once.coeffs) <= 1e-15 * scale
        a = leray_project(helmholtz_inverse(u, alpha)).coeffs
        b = helmholtz_inverse(leray_project(u), alpha).coeffs
        assert np.linalg.norm(a - b) <= 1e-15 * np.linalg.norm(b)

    def test_output_is_solenoidal(self, grid16, rng):
        u = forward_transform(rng.standard_normal((3,) + grid16.shape), grid16)
        assert relative_divergence(leray_project(u)) < 1e-13

    def test_fixes_solenoidal_fields(self, grid16, rng):
        u = random_solenoidal(grid16, rng)
        np.testing.assert_allclose(leray_project(u).coeffs, u.coeffs, atol=1e-13)

    def test_require_solenoidal_raises(self, grid16):
        bad = gradient(single_mode(grid16, (1, 0, 0)))
        with pytest.raises(SolenoidalityError):
            require_solenoidal(bad)


def flux(u, w):
    """div of the dealiased (u (x) w + w (x) u)/2 on the lattice, from the
    kernel's _flux_half; when w is u, u is transformed once."""
    u, w = _kernel_inputs(u, w)
    half = _flux_half(u.grid, u.half, None if w is u else w.half, u.band)
    return SpectralField(u.grid, _complete(half, u.grid, u.grid.dealias_keep))


class TestTensorOps:
    """The advection flux of the nonlinearity kernel, div of the dealiased
    (u (x) v + v (x) u)/2."""

    def test_divergence_of_outer_is_advection(self, grid16, rng):
        # for solenoidal u, v: div(u (x) v)_i = (v . grad) u_i; compare the
        # flux against an independent physical-space contraction
        u = random_solenoidal(grid16, rng, k_min=1.0, k_max=3.0)
        v = random_solenoidal(grid16, rng, k_min=1.0, k_max=3.0)
        lhs = flux(u, v)
        pu, pv = inverse_transform(u), inverse_transform(v)
        jac_u, jac_v = inverse_transform(gradient(u)), inverse_transform(gradient(v))
        contraction = np.einsum("j...,ij...->i...", pv, jac_u) + np.einsum("j...,ij...->i...", pu, jac_v)
        rhs = forward_transform(0.5 * contraction, grid16)
        np.testing.assert_allclose(lhs.coeffs, dealias(rhs).coeffs, atol=1e-12)

    def test_advection_tensor_symmetry(self, grid16, rng):
        u = random_solenoidal(grid16, rng, k_max=3.0)
        v = random_solenoidal(grid16, rng, k_max=3.0)
        ab = flux(u, v)
        ba = flux(v, u)
        np.testing.assert_allclose(ab.coeffs, ba.coeffs, atol=1e-13)

    def test_outer_product_single_modes(self, grid16):
        # cos(x1) * cos(x1) = 1/2 + cos(2 x1)/2, so the tensor entry [0, 0]
        # has mean 1/2 and mode-2 coefficient 1/4; the flux is d_1 of it,
        # i k times each: the mean drops and k = (2, 0, 0) carries 2i * 1/4.
        # The copy takes the two-argument path.
        u = single_mode(grid16, (1, 0, 0), lead=0)
        for t in (flux(u, u), flux(u, u.copy())):
            assert t.coeffs[0, 0, 0, 0] == 0.0
            assert t.coeffs[0, 2, 0, 0] == pytest.approx(2j * 0.25)

    def test_grid_mismatch_rejected(self, grid16, grid8, rng):
        a = forward_transform(rng.standard_normal((3,) + grid16.shape), grid16)
        b = forward_transform(rng.standard_normal((3,) + grid8.shape), grid8)
        with pytest.raises(GridMismatchError):
            nonlinear_rhs(a, LansConfig(grid=grid16), b)


class TestInnerProducts:
    def test_l2_inner_matches_quadrature(self, grid16, rng):
        fa = rng.standard_normal(grid16.shape)
        fb = rng.standard_normal(grid16.shape)
        a = forward_transform(fa, grid16)
        b = forward_transform(fb, grid16)
        quad = np.sum(fa * fb) * grid16.cell_volume
        assert l2_inner(a, b) == pytest.approx(quad, rel=1e-12)

    def test_zero_field(self, grid16):
        z = zero_field(grid16)
        assert l2_norm(z) == 0.0
        assert z.rank == 1
        assert relative_divergence(z) == 0.0


# TorusGrid admits only powers of two >= 8 points per axis
PARSEVAL_GRIDS = [TorusGrid(dim=d, points_per_axis=n, box_length=length)
                  for d in (2, 3) for n in (8, 16, 32) for length in (2.0 * np.pi, 5.0)]


class TestHalfCubeParseval:
    """_half_parseval on a half cube (band K) or the half lattice (band N/2,
    Nyquist plane m_last = N/2 present) gives l2_norm and the energy pair,
    composed from l2_norm and the homogeneous H^1 sobolev_norm, of the
    completed field."""

    @pytest.mark.parametrize("grid", PARSEVAL_GRIDS,
                             ids=[f"{g.points_per_axis}^{g.dim}-L{g.box_length:.3g}" for g in PARSEVAL_GRIDS])
    @pytest.mark.parametrize("rank", [0, 1])
    @pytest.mark.parametrize("band", ["dealias", "nyquist"])
    @given(seed=st.integers(0, 2**31), scale=st.floats(1e-3, 1e3), alpha=st.floats(0.0, 2.0))
    def test_matches_the_completed_field(self, grid, rank, band, seed, scale, alpha):
        band = grid.dealias_keep if band == "dealias" else grid.points_per_axis // 2
        noise = scale * np.random.default_rng(seed).standard_normal((grid.dim,) * rank + grid.shape)
        half = _cut_half(forward_transform(noise, grid).coeffs, grid, band)
        field = SpectralField(grid, _complete(half, grid, band))
        l2sq = _half_parseval(half, grid)
        pair = l2sq + alpha**2 * _half_parseval(half, grid, _half_cube(grid, band).k_squared)
        assert np.sqrt(l2sq) == pytest.approx(l2_norm(field), rel=1e-14)
        assert pair == pytest.approx(l2_norm(field) ** 2 + alpha**2 * sobolev_norm(field, 1.0) ** 2, rel=1e-14)
