"""Filtered-equation vector fields, the mild-solution fixed point, and the
production marcher.

The filtered stress is cross-checked against a step-by-step composition of
the public primitives; the consistency identity between the full and
perturbation forms is checked by three independent evaluations.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lanslab import (
    BesovIndex,
    GridMismatchError,
    LansConfig,
    MildSolverConfig,
    PicardDivergenceError,
    SolverBlowupError,
    SpectralField,
    TorusGrid,
    Trajectory,
    build_partition,
    dealias,
    divergence,
    duhamel_map,
    forward_transform,
    gradient,
    heat_propagate,
    helmholtz_inverse,
    inverse_transform,
    l2_norm,
    lans_rhs,
    laplacian_power,
    leray_project,
    mlans_rhs,
    nonlinear_rhs,
    picard_iterate,
    random_solenoidal,
    relative_divergence,
    reynolds_stress,
    sobolev_norm,
    solve_lans,
    solve_mlans,
    weighted_norm,
)
from lanslab import dynamics
from lanslab.dynamics import (
    _batches,
    _divergence_half,
    _kernel_inputs,
    _nonlinear_terms,
    _phi_factors,
    _stress_multiplier,
    _weighted_distance,
)
from lanslab.spectral import _complete, _cut_half, _rfft
from lanslab.monitor import energy_pair
from conftest import mirrored, zero_field

HEAT_FACTOR_K2_T01 = 0.6703200460356393  # exp(-0.4), |k| = 2 for t = 0.1


@pytest.fixture(scope="module")
def cfg16(grid16_mod):
    return LansConfig(grid=grid16_mod, alpha=0.1, nu=1.0)


@pytest.fixture(scope="module")
def grid16_mod():
    return TorusGrid(dim=3, points_per_axis=16)


def band_field(grid, seed, k_max=3.0, scale=1.0):
    u = random_solenoidal(grid, np.random.default_rng(seed), k_min=1.0, k_max=k_max)
    return u * (scale / l2_norm(u))


def assert_same_bits(got, want):
    """Equal values and equal signs, zeros included."""
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
    assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


def projected_noise(grid, seed, scale=0.3):
    """A solenoidal field with content on the whole lattice, Nyquist planes included."""
    noise = np.random.default_rng(seed).standard_normal((grid.dim,) + grid.shape)
    return leray_project(forward_transform(noise, grid)) * scale


ORACLE_GRIDS = [TorusGrid(dim=3, points_per_axis=16), TorusGrid(dim=2, points_per_axis=32)]


def physical_product(A, B, pattern):
    """The dealiased product of two fields, formed in physical space by einsum pattern."""
    pa, pb = inverse_transform(A), inverse_transform(B)
    return dealias(forward_transform(np.einsum(pattern, pa, pb), A.grid))


def def_rot(h):
    """Def = (G + G^T)/2 and Rot = (G - G^T)/2 of G[i, j] = d_j h_i."""
    G = gradient(h).coeffs
    GT = np.swapaxes(G, 0, 1)
    return SpectralField(h.grid, 0.5 * (G + GT)), SpectralField(h.grid, 0.5 * (G - GT))


def composed_stress(f, g, cfg):
    """div((alpha^2/2)(1 - alpha^2 Lap)^(-1)[Def(f) Rot(g) + Def(g) Rot(f)])
    one public primitive at a time."""
    a = cfg.alpha
    (Df, Rf), (Dg, Rg) = def_rot(f), def_rot(g)
    tensor = physical_product(Df, Rg, "im...,mj...->ij...") + physical_product(Dg, Rf, "im...,mj...->ij...")
    return divergence(helmholtz_inverse(tensor * (a**2 / 2.0), a))


class TestReynoldsStress:
    def test_alpha_zero_vanishes(self, grid16_mod):
        cfg = LansConfig(grid=grid16_mod, alpha=0.0, nu=1.0)
        u = band_field(grid16_mod, 0)
        out = reynolds_stress(u, u, cfg)
        assert l2_norm(out) == 0.0

    def test_symmetric_in_arguments(self, cfg16, grid16_mod):
        f = band_field(grid16_mod, 1)
        g = band_field(grid16_mod, 2)
        fg = reynolds_stress(f, g, cfg16)
        gf = reynolds_stress(g, f, cfg16)
        np.testing.assert_allclose(fg.coeffs, gf.coeffs, atol=1e-13 * l2_norm(fg))

    @pytest.mark.parametrize("data", ["band", "projected_noise"])
    def test_against_primitive_composition(self, cfg16, grid16_mod, data):
        # rebuild div((alpha^2/2)(1 - alpha^2 Lap)^(-1)[Def(f) Rot(g) +
        # Def(g) Rot(f)]) one public primitive at a time; projected raw
        # noise carries content on the Nyquist planes
        if data == "band":
            f = band_field(grid16_mod, 3)
            g = band_field(grid16_mod, 4)
        else:
            rng = np.random.default_rng(3)
            f, g = (leray_project(forward_transform(rng.standard_normal((3,) + grid16_mod.shape), grid16_mod))
                    for _ in range(2))
        expected = composed_stress(f, g, cfg16)
        got = reynolds_stress(f, g, cfg16)
        assert l2_norm(got - dealias(expected)) <= 1e-12 * max(l2_norm(expected), 1e-300)

    @pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=["16^3", "32^2"])
    @pytest.mark.parametrize("alpha", [0.1, 0.5])
    @pytest.mark.parametrize("data", ["in_cube", "projected_noise"])
    @pytest.mark.parametrize("pair", ["self", "mixed"])
    def test_bits_of_the_einsum_products(self, grid, alpha, data, pair):
        # Def and Rot are formed in the Jacobian's buffer and each product
        # entry is a two-term sum; projected noise takes the half lattice
        cfg = LansConfig(grid=grid, alpha=alpha, nu=1.0)
        if data == "in_cube":
            f, g = band_field(grid, 80, k_max=5.0), band_field(grid, 81, k_max=5.0)
        else:
            f, g = projected_noise(grid, 80), projected_noise(grid, 81)
        g = f if pair == "self" else g
        assert_same_bits(reynolds_stress(f, g, cfg).coeffs, einsum_stress(f, g, cfg))

    @pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=["16^3", "32^2"])
    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("data", ["in_cube", "projected_noise"])
    @pytest.mark.parametrize("pair", ["self", "mixed"])
    def test_kernel_inputs_get_the_lattice_result_cut_to_the_cube(self, grid, alpha, data, pair):
        # the kernel's own calls take the dealias half cube, with its
        # k_last = 0 plane made Hermitian as completion makes it
        cfg = LansConfig(grid=grid, alpha=alpha, nu=1.0)
        if data == "in_cube":
            f, g = band_field(grid, 82, k_max=5.0), band_field(grid, 83, k_max=5.0)
        else:
            f, g = projected_noise(grid, 82), projected_noise(grid, 83)
        g = f if pair == "self" else g
        want = _cut_half(reynolds_stress(f, g, cfg).coeffs, grid, grid.dealias_keep)
        assert_same_bits(reynolds_stress(*_kernel_inputs(f, g), cfg), want)


def einsum_stress(f, g, cfg):
    """reynolds_stress by the arithmetic its products replaced: Def and Rot
    as separate arrays from inverse_transform(gradient(.)), multiplied by
    np.einsum; the forward transform, the multiplier and the divergence are
    the kernel's own.  Returns the lattice coefficients."""
    grid = cfg.grid

    def parts(h):
        jac = inverse_transform(gradient(h))
        jac_t = np.swapaxes(jac, 0, 1)
        d, r = jac + jac_t, jac - jac_t
        d *= 0.5
        r *= 0.5
        return d, r

    (d_f, r_f), (d_g, r_g) = parts(f), parts(g)
    if g is f:
        prod = np.einsum("im...,mj...->ij...", d_f, r_f)
        prod += prod
    else:
        prod = np.einsum("im...,mj...->ij...", d_f, r_g) + np.einsum("im...,mj...->ij...", d_g, r_f)
    keep = grid.dealias_keep
    stress = _rfft(prod, grid, keep) * _stress_multiplier(grid, cfg.alpha)
    return _complete(_divergence_half(stress, grid), grid, keep)


class TestWorkArrays:
    def test_threads_march_in_their_own_work_arrays(self, cfg16, grid16_mod):
        # marches running at once in more threads than cores give the serial
        # bits; shared work arrays would mix the threads' transforms
        import sys
        from concurrent.futures import ThreadPoolExecutor

        fields = [band_field(grid16_mod, seed, k_max=5.0) for seed in range(4)] * 2

        def march(u0):
            return stacked(solve_lans(u0, cfg16, 0.01, 0.0025))

        want = [march(f) for f in fields]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(march, fields, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for g, w in zip(got, want):
            assert_same_bits(g, w)


class TestVectorFields:
    def test_zero_maps_to_zero(self, cfg16, grid16_mod):
        z = zero_field(grid16_mod)
        assert l2_norm(lans_rhs(z, cfg16)) == 0.0
        assert l2_norm(mlans_rhs(z, band_field(grid16_mod, 0), cfg16)) <= 1e-13

    def test_output_divergence_free(self, cfg16, grid16_mod):
        w = band_field(grid16_mod, 5)
        out = lans_rhs(w, cfg16)
        assert l2_norm(divergence(out)) <= 1e-12 * l2_norm(w)

    def test_rejects_non_solenoidal(self, cfg16, grid16_mod):
        from lanslab import SolenoidalityError, gradient

        phi = forward_transform(np.sin(grid16_mod.mesh[0]), grid16_mod)
        with pytest.raises(SolenoidalityError):
            lans_rhs(gradient(phi), cfg16)

    def test_linearization_slope(self, cfg16, grid16_mod):
        # the deviation from the viscous part is quadratic in the amplitude
        w = band_field(grid16_mod, 6)
        lap = laplacian_power(w, 2.0) * (-cfg16.nu)
        devs = []
        for eps in (1e-3, 1e-4):
            r = lans_rhs(w * eps, cfg16)
            devs.append(l2_norm(r * (1.0 / eps) - lap))
        slope = np.log10(devs[0] / devs[1])
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_alpha_zero_is_plain_navier_stokes(self, grid16_mod):
        cfg = LansConfig(grid=grid16_mod, alpha=0.0, nu=0.7)
        w = band_field(grid16_mod, 7)
        pw = inverse_transform(w)
        ww = dealias(forward_transform(pw[:, None] * pw[None, :], grid16_mod))
        expected = laplacian_power(w, 2.0) * (-cfg.nu) - leray_project(divergence(ww))
        got = lans_rhs(w, cfg)
        assert l2_norm(got - expected) <= 1e-12 * l2_norm(expected)

    def test_consistency_identity(self, cfg16, grid16_mod):
        # full(u + v) - full(v) equals the perturbation field: three
        # independent evaluations per pair
        for seed in (0, 1, 2):
            u = band_field(grid16_mod, 10 + seed)
            v = band_field(grid16_mod, 20 + seed)
            lhs = lans_rhs(u + v, cfg16)
            rhs = mlans_rhs(u, v, cfg16) + lans_rhs(v, cfg16)
            rel = l2_norm(lhs - rhs) / l2_norm(lhs)
            assert rel <= 1e-11, f"seed {seed}: {rel:.2e}"

    def test_background_only_terms_absent(self, cfg16, grid16_mod):
        # u = 0 must kill everything, including the pure-background stress
        v = band_field(grid16_mod, 30)
        out = mlans_rhs(zero_field(grid16_mod), v, cfg16)
        assert l2_norm(out) <= 1e-13 * l2_norm(lans_rhs(v, cfg16))

    def test_v_zero_reduces_to_full_field(self, cfg16, grid16_mod):
        u = band_field(grid16_mod, 31)
        a = mlans_rhs(u, zero_field(grid16_mod), cfg16)
        b = lans_rhs(u, cfg16)
        assert l2_norm(a - b) <= 1e-13 * l2_norm(b)


class TestKernel:
    @pytest.mark.parametrize("with_background, budget, out_of_cube", [
        (False, 21, False), (True, 37, False), (False, 27, True), (True, 48, True)])
    def test_scalar_transform_budget(self, cfg16, grid16_mod, monkeypatch, with_background, budget, out_of_cube):
        # an n-D transform spans the whole grid, so each leading index of
        # the transformed array is one scalar FFT; a 1-D pass of a pruned
        # transform counts the lines it transforms over the 2 N (N/2 + 1) + N^2
        # lines of one unpruned scalar real transform.  Real transforms are
        # counted on their real-grid side.  A mode outside the dealias cube
        # sends the inverse transforms to the whole half lattice.
        n = grid16_mod.points_per_axis
        u = band_field(grid16_mod, 40)
        if out_of_cube:
            u = with_mode_outside_cube(u)
        v = band_field(grid16_mod, 41) if with_background else None
        scalar = []

        def counting(name, original):
            def wrapped(a, *args, **kwargs):
                out = original(a, *args, **kwargs)
                side = np.asarray(out if name.startswith("irfft") else a)
                if name.endswith("n"):
                    scalar.append(side.size // n**3)
                else:
                    scalar.append(side.size / side.shape[kwargs.get("axis", -1)] / (2 * n * (n // 2 + 1) + n**2))
                return out

            return wrapped

        for name in ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
        nonlinear_rhs(u, cfg16, v)
        assert 0 < sum(scalar) <= budget

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    @pytest.mark.parametrize("grid", [TorusGrid(dim=2, points_per_axis=32), TorusGrid(dim=3, points_per_axis=16)],
                             ids=["32^2", "16^3"])
    @given(seed=st.integers(0, 2**31), scale_u=st.floats(1e-2, 10.0), scale_v=st.floats(1e-2, 10.0))
    def test_consistency_identity_property(self, grid, alpha, seed, scale_u, scale_v):
        # lans_rhs(u + v) = mlans_rhs(u, v) + lans_rhs(v) at criterion 07's bound
        cfg = LansConfig(grid=grid, alpha=alpha, nu=1.0)
        u = band_field(grid, seed, scale=scale_u)
        v = band_field(grid, seed + 1, scale=scale_v)
        lhs = lans_rhs(u + v, cfg)
        rhs = mlans_rhs(u, v, cfg) + lans_rhs(v, cfg)
        assert l2_norm(lhs - rhs) <= 1e-11 * l2_norm(lhs)


def composed_nonlinear_rhs(u, cfg, v=None):
    """nonlinear_rhs rebuilt one public primitive at a time on the full
    lattice: -P[div sym(u (x) (u + 2v)) + div tau(u, u) + 2 div tau(u, v)]."""
    w = u if v is None else u + v * 2.0
    outer = physical_product(u, w, "i...,j...->ij...").coeffs
    terms = divergence(SpectralField(u.grid, 0.5 * (outer + np.swapaxes(outer, 0, 1)))) + composed_stress(u, u, cfg)
    if v is not None:
        terms = terms + composed_stress(u, v, cfg) * 2.0
    return -leray_project(terms)


def with_mode_outside_cube(u):
    """u plus a solenoidal real mode at k = (0, K + 1, 0), outside the dealias cube."""
    grid = u.grid
    m = grid.dealias_keep + 1
    c = u.coeffs.copy()
    c[0, 0, m, 0] += 0.25 + 0.1j
    c[0, 0, -m, 0] += 0.25 - 0.1j
    return SpectralField(grid, c)


def fft_calls(monkeypatch) -> list:
    """The names of the numpy.fft calls made after this, in order."""
    calls = []
    for name in ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft"):
        def counted(*args, _name=name, _original=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.fixture(scope="module")
def fields64():
    grid = TorusGrid(dim=3, points_per_axis=64)
    return LansConfig(grid=grid, alpha=0.1, nu=1.0), band_field(grid, 94, k_max=5.0), band_field(grid, 95, k_max=5.0)


class TestKernelBatches:
    """The kernel transforms its vectors and tensors a batch of components
    at a time, as many as fit dynamics._BATCH_BYTES of physical samples: one
    component at 64^3, all of them at 32^3 and below.  Each FFT line is
    computed as in one batch, so batching moves no bit."""

    @staticmethod
    def one_component_per_batch(monkeypatch, grid):
        monkeypatch.setattr(dynamics, "_BATCH_BYTES", 1)
        assert len(_batches(grid.dim**2, grid)) == grid.dim**2

    @pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=["16^3", "32^2"])
    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("data", ["in_cube", "projected_noise"])
    def test_one_component_per_batch_moves_no_bit(self, monkeypatch, grid, alpha, data):
        # projected noise reaches past the dealias cube: the half-lattice fallback
        cfg = LansConfig(grid=grid, alpha=alpha, nu=1.0)
        if data == "in_cube":
            u, v = band_field(grid, 90, k_max=5.0), band_field(grid, 91, k_max=5.0)
        else:
            u, v = projected_noise(grid, 90), projected_noise(grid, 91)

        def outputs():
            return [nonlinear_rhs(u, cfg).coeffs, nonlinear_rhs(u, cfg, v).coeffs, reynolds_stress(u, v, cfg).coeffs]
        want = outputs()
        self.one_component_per_batch(monkeypatch, grid)
        for got, w in zip(outputs(), want):
            assert_same_bits(got, w)

    @pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=["16^3", "32^2"])
    def test_marches_in_one_component_batches_move_no_bit(self, monkeypatch, grid):
        # the batches live in the march's work arrays
        cfg = LansConfig(grid=grid, alpha=0.3, nu=0.05)
        u0, v0 = band_field(grid, 92, k_max=5.0, scale=2.0), band_field(grid, 93, k_max=5.0, scale=2.0)

        def marches():
            v_traj = solve_lans(v0, cfg, 0.04, 0.01)
            return [v_traj._halves, solve_mlans(u0, v_traj, cfg, 0.04, 0.01)._halves]
        want = marches()
        self.one_component_per_batch(monkeypatch, grid)
        for got, w in zip(marches(), want):
            assert_same_bits(got, w)

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("with_background, data, count", [
        (False, "in_cube", 12), (True, "in_cube", 21), (False, "projected_noise", 8), (True, "projected_noise", 13)])
    def test_small_grids_transform_each_tensor_in_one_batch(self, monkeypatch, n, with_background, data, count):
        # the numpy.fft calls of one call with one batch per tensor: the
        # benchmark's 16^3 pipeline and the default 32^3 one pay no per-batch overhead
        grid = TorusGrid(dim=3, points_per_axis=n)
        cfg = LansConfig(grid=grid, alpha=0.1, nu=1.0)
        u, v = band_field(grid, 96, k_max=5.0), band_field(grid, 97, k_max=5.0)
        if data == "projected_noise":
            u = projected_noise(grid, 96)
        calls = fft_calls(monkeypatch)
        nonlinear_rhs(u, cfg, v if with_background else None)
        assert len(calls) == count

    @pytest.mark.parametrize("with_background, bound", [(False, 20), (True, 31)])
    def test_traced_peak_of_a_64_cube_call(self, fields64, with_background, bound):
        # outside a march the work arrays are numpy arrays, which tracemalloc
        # sees.  In lattice scalars (8 N^3 bytes) one call peaks at 17.8, and
        # 28.7 with a background; with one batch per tensor it was 31.5 and 42.4
        cfg, u, v = fields64
        v = v if with_background else None
        nonlinear_rhs(u, cfg, v)  # the shared multiplier arrays are built once per grid
        tracemalloc.start()
        try:
            nonlinear_rhs(u, cfg, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * cfg.grid.points_per_axis**3


class TestKernelFallback:
    """The kernel prunes its transforms to the dealias cube.  An input with
    a mode outside that cube, or a grid whose dealias cube is the whole
    lattice, takes the half lattice instead; either way the result is the
    primitive composition's and exactly Hermitian."""

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("case, with_background", [
        ("mode_outside_cube", False), ("mode_outside_cube", True), ("background_outside_cube", True),
        ("dealias_fraction_1", False), ("dealias_fraction_1", True)])
    def test_against_primitive_composition(self, case, with_background, alpha):
        if case == "dealias_fraction_1":
            grid = TorusGrid(dim=3, points_per_axis=16, dealias_fraction=1.0)
            rng = np.random.default_rng(5)
            u, v = (leray_project(forward_transform(rng.standard_normal((3,) + grid.shape), grid)) for _ in range(2))
        else:
            grid = TorusGrid(dim=3, points_per_axis=16)
            u, v = band_field(grid, 50), band_field(grid, 51)
            if case == "mode_outside_cube":
                u = with_mode_outside_cube(u)
            else:
                v = with_mode_outside_cube(v)
        cfg = LansConfig(grid=grid, alpha=alpha, nu=1.0)
        got = nonlinear_rhs(u, cfg, v if with_background else None)
        expected = composed_nonlinear_rhs(u, cfg, v if with_background else None)
        assert l2_norm(got - expected) <= 1e-12 * l2_norm(expected)
        assert np.array_equal(mirrored(got.coeffs, 3), np.conj(got.coeffs))


def signed_permutation(samples, perm, signs, shift):
    """Physical samples of R u(R^T (x - s)) for the signed permutation R
    with R e_j = signs[j] e_perm[j] and a shift s of whole grid cells."""
    out = np.empty_like(samples)
    for j in range(3):
        a = samples[j]
        for axis in range(3):
            if signs[axis] < 0:
                a = np.roll(np.flip(a, axis), 1, axis)
        out[perm[j]] = signs[j] * np.transpose(a, np.argsort(perm))
    return np.roll(out, shift, axis=(1, 2, 3))


class TestKernelEquivariance:
    """N(T u) = T N(u) for the cubic group's signed permutations composed
    with grid shifts: a guard for rewrites of the kernel that holds for
    any stress tensor built from Def and Rot."""

    @given(perm=st.permutations([0, 1, 2]), signs=st.tuples(*[st.sampled_from([-1, 1])] * 3),
           shift=st.tuples(*[st.integers(0, 15)] * 3), with_background=st.booleans())
    def test_signed_permutations_and_shifts(self, perm, signs, shift, with_background):
        grid = TorusGrid(dim=3, points_per_axis=16)
        cfg = LansConfig(grid=grid, alpha=0.3, nu=0.05)
        u, v = band_field(grid, 60, k_max=4.0), band_field(grid, 61, k_max=4.0)
        bg = v if with_background else None

        def act(f):
            return forward_transform(signed_permutation(inverse_transform(f), perm, signs, shift), grid)

        moved = nonlinear_rhs(act(u), cfg, act(v) if with_background else None)
        expected = act(nonlinear_rhs(u, cfg, bg))
        assert l2_norm(moved - expected) <= 1e-14 * l2_norm(expected)


def abc_field(grid, K, A=1.0, B=0.7, C=0.4):
    """Arnold-Beltrami-Childress flow on the shell |k| = K: curl u = K u."""
    x, y, z = grid.mesh
    samples = np.stack([
        A * np.sin(K * z) + C * np.cos(K * y),
        B * np.sin(K * x) + A * np.cos(K * z),
        C * np.sin(K * y) + B * np.cos(K * x),
    ])
    return forward_transform(samples, grid)


BELTRAMI_CASES = [(n, K, alpha) for n in (16, 32) for K in (1, 3) for alpha in (0.0, 0.1, 0.5)]


class TestBeltramiOracle:
    """Exact solutions that do not depend on how the kernel is written.

    For a Beltrami field (curl u = K u) the advection term
    (u.grad)u = grad(|u|^2/2) - u x curl u is a gradient, and so is the
    filtered stress term, so the projected nonlinearity vanishes and the
    filtered flow is the heat flow.  The raw terms are O(1), so a wrong
    factor or index anywhere in the kernel shows up.
    """

    @pytest.mark.parametrize("n, K, alpha", BELTRAMI_CASES)
    def test_projected_nonlinearity_vanishes(self, n, K, alpha):
        grid = TorusGrid(dim=3, points_per_axis=n)
        cfg = LansConfig(grid=grid, alpha=alpha, nu=1.0)
        u = abc_field(grid, K)
        raw = l2_norm(_nonlinear_terms(u, cfg))
        assert raw >= 0.1 * l2_norm(u)
        assert l2_norm(nonlinear_rhs(u, cfg)) <= 1e-13 * raw

    @pytest.mark.parametrize("n, K, alpha", BELTRAMI_CASES)
    def test_march_is_the_heat_flow(self, n, K, alpha):
        grid = TorusGrid(dim=3, points_per_axis=n)
        cfg = LansConfig(grid=grid, alpha=alpha, nu=1.0)
        u0 = abc_field(grid, K)
        traj = solve_lans(u0, cfg, 0.08, 0.01)
        ref = heat_propagate(u0, 0.08, cfg.nu)
        assert len(traj) == 9
        assert l2_norm(traj.final - ref) <= 1e-13 * l2_norm(ref)


class TestHeatPropagator:
    def test_t_zero_is_identity(self, grid16_mod):
        f = band_field(grid16_mod, 0)
        np.testing.assert_array_equal(heat_propagate(f, 0.0).coeffs, f.coeffs)

    def test_semigroup_property(self, grid16_mod):
        f = band_field(grid16_mod, 1)
        ab = heat_propagate(heat_propagate(f, 0.03), 0.07)
        once = heat_propagate(f, 0.1)
        assert l2_norm(ab - once) <= 1e-13 * l2_norm(once)

    def test_single_mode_decay_factor(self, grid16_mod):
        f = forward_transform(np.cos(2.0 * grid16_mod.mesh[0]), grid16_mod)
        out = heat_propagate(f, 0.1)
        assert out.coeffs[2, 0, 0] == pytest.approx(
            0.5 * HEAT_FACTOR_K2_T01, rel=1e-13
        )

    def test_viscosity_scaling(self, grid16_mod):
        f = band_field(grid16_mod, 2)
        a = heat_propagate(f, 0.2, nu=0.5)
        b = heat_propagate(f, 0.1, nu=1.0)
        assert l2_norm(a - b) <= 1e-13 * l2_norm(b)

    def test_negative_time_rejected(self, grid16_mod):
        with pytest.raises(ValueError):
            heat_propagate(band_field(grid16_mod, 3), -0.1)

    def test_negative_time_message(self, grid16_mod):
        with pytest.raises(ValueError, match=r"needs t >= 0, got -0\.1"):
            heat_propagate(band_field(grid16_mod, 3), -0.1)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, grid16_mod, t):
        with pytest.raises(ValueError, match=f"got t={t}, nu=1.0"):
            heat_propagate(band_field(grid16_mod, 3), t)

    @pytest.mark.parametrize("nu", [np.nan, np.inf, -0.5])
    def test_bad_viscosity_rejected(self, grid16_mod, nu):
        with pytest.raises(ValueError, match=f"got t=0.1, nu={nu}"):
            heat_propagate(band_field(grid16_mod, 3), 0.1, nu)

    @pytest.mark.parametrize("grid", [TorusGrid(dim=3, points_per_axis=16), TorusGrid(dim=2, points_per_axis=32),
                                      TorusGrid(dim=3, points_per_axis=16, box_length=5.0)], ids=str)
    @given(seed=st.integers(0, 2**31), rank=st.integers(0, 2), in_cube=st.booleans(), t=st.floats(0.0, 0.5))
    def test_equals_the_lattice_multiply(self, grid, seed, rank, in_cube, t):
        # Hermitian data inside the dealias cube (the half-cube path) and
        # filling the lattice (the half-lattice path)
        f = forward_transform(np.random.default_rng(seed).standard_normal((grid.dim,) * rank + grid.shape), grid)
        f = dealias(f) if in_cube else f
        want = f.coeffs * np.exp(-0.7 * t * grid.k_squared)
        assert np.array_equal(heat_propagate(f, t, 0.7).coeffs, want)


def tail_distance(rerun, traj, i):
    """max over rerun's nodes of the B^(3/2)_(2,2) distance to traj's node i onward."""
    assert len(rerun) == len(traj) - i
    part = build_partition(traj.grid)
    return max(part.besov_norm(a - b, BesovIndex(1.5, 2.0, 2.0)) for a, b in zip(rerun, list(traj)[i:]))


class TestMarcher:
    def test_nonlinearity_off_equals_heat_flow(self, cfg16, grid16_mod):
        u0 = band_field(grid16_mod, 0)
        traj = solve_lans(u0, cfg16, 0.1, 0.0125, nonlinear=False)
        for t, state in zip(traj.times, traj):
            ref = heat_propagate(u0, t, cfg16.nu)
            assert l2_norm(state - ref) <= 1e-13 * max(l2_norm(ref), 1e-300)

    def test_second_order_convergence(self, cfg16, grid16_mod):
        u0 = band_field(grid16_mod, 0, scale=5.0)
        T = 0.02
        ref = solve_lans(u0, cfg16, T, T / 64)
        errs = [
            l2_norm(solve_lans(u0, cfg16, T, dt).final - ref.final)
            for dt in (T / 4, T / 8, T / 16)
        ]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for o in orders:
            assert o == pytest.approx(2.0, abs=0.3), f"orders {orders}"

    def test_trajectory_stays_solenoidal(self, cfg16, grid16_mod):
        traj = solve_lans(band_field(grid16_mod, 1, scale=2.0), cfg16, 0.02, 0.0025)
        assert max(relative_divergence(s) for s in traj) < 1e-10

    def test_mean_mode_conserved(self, cfg16, grid16_mod):
        traj = solve_lans(band_field(grid16_mod, 2, scale=2.0), cfg16, 0.02, 0.0025)
        means = [np.max(np.abs(s.coeffs[:, 0, 0, 0])) for s in traj]
        assert max(means) <= 1e-12

    def test_restart_from_a_stored_node_replays_the_tail(self, grid16_mod):
        # re-solving from node i (a discrete uniqueness check) matches the
        # stored tail to roundoff: the march re-projects the stored state
        cfg = LansConfig(grid=grid16_mod, alpha=0.5, nu=1.0)
        traj = solve_lans(band_field(grid16_mod, 0, k_max=4.0, scale=2.0), cfg, 0.02, 0.0025)
        for t1 in (0.0, 0.01):
            i = traj.node_index(t1)
            rerun = solve_lans(traj[i], cfg, float(traj.times[-1] - traj.times[i]), 0.0025)
            assert tail_distance(rerun, traj, i) <= 1e-12

    def test_restart_of_a_perturbation_run_replays_the_tail(self, grid16_mod):
        # the perturbation restarts over its background's tail, with time
        # measured from node i
        cfg = LansConfig(grid=grid16_mod, alpha=0.5, nu=1.0)
        v = solve_lans(band_field(grid16_mod, 50, k_max=4.0, scale=2.0), cfg, 0.02, 0.0025)
        u = solve_mlans(band_field(grid16_mod, 51, k_max=4.0, scale=2.0), v, cfg, 0.02, 0.0025)
        for t1 in (0.0, 0.01):
            i = u.node_index(t1)
            v_tail = Trajectory(v.times[i:] - v.times[i], list(v)[i:])
            rerun = solve_mlans(u[i], v_tail, cfg, float(u.times[-1] - u.times[i]), 0.0025)
            assert tail_distance(rerun, u, i) <= 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_reports_step_index(self, grid16_mod):
        cfg = LansConfig(grid=grid16_mod, alpha=0.1, nu=1e-6)
        u0 = band_field(grid16_mod, 3, scale=1e6)
        with pytest.raises(SolverBlowupError) as err:
            solve_lans(u0, cfg, 1.0, 0.25)
        assert "step" in str(err.value)

    def test_data_on_other_grid_rejected(self, cfg16):
        other = TorusGrid(dim=3, points_per_axis=16, box_length=1.0)
        with pytest.raises(GridMismatchError):
            solve_lans(zero_field(other), cfg16, 0.01, 0.0025, nonlinear=False)

    def test_dt_must_divide_horizon(self, cfg16, grid16_mod):
        with pytest.raises(ValueError):
            solve_lans(band_field(grid16_mod, 4), cfg16, 0.1, 0.03)

    def test_background_march_matches_full(self, cfg16, grid16_mod):
        # w solves the full equation; u = w - v solves the perturbation
        # equation around the trajectory of v: march both and compare w
        w0 = band_field(grid16_mod, 5, scale=2.0)
        v0 = band_field(grid16_mod, 6, scale=2.0)
        T, dt = 0.01, 0.000625
        v_traj = solve_lans(v0, cfg16, T, dt)
        u_traj = solve_mlans(w0 - v0, v_traj, cfg16, T, dt)
        w_traj = solve_lans(w0, cfg16, T, dt)
        recombined = u_traj.final + v_traj.final
        assert l2_norm(recombined - w_traj.final) <= 1e-8 * l2_norm(w_traj.final)


def lattice_march(u0, cfg, t_end, dt, v_traj=None, nonlinear=True):
    """The marcher on the full lattice, one public primitive at a time: the
    exponential-integrator update of every state, then its dealias and
    Leray projection.  Returns the stacked states."""
    grid = cfg.grid
    e_dt, phi1, phi2 = _phi_factors(-cfg.nu * dt * grid.k_squared)
    times = dt * np.arange(int(round(t_end / dt)) + 1)
    v = [None] * len(times) if v_traj is None else [v_traj.state_at(t) for t in times]
    states = [leray_project(dealias(u0)).coeffs]
    for i in range(len(times) - 1):
        u = states[-1]
        if nonlinear:
            n_u = nonlinear_rhs(SpectralField(grid, u), cfg, v[i]).coeffs
            stage = e_dt * u + dt * phi1 * n_u
            n_stage = nonlinear_rhs(SpectralField(grid, stage), cfg, v[i + 1]).coeffs
            nxt = stage + dt * phi2 * (n_stage - n_u)
        else:
            nxt = e_dt * u
        states.append(leray_project(dealias(SpectralField(grid, nxt))).coeffs)
    return np.stack(states)


def lattice_duhamel(traj, u0, cfg, v_traj=None):
    """The Duhamel map's trapezoid and heat recurrences on the full lattice,
    with nonlinear_rhs at every node.  Returns the stacked states."""
    times, grid = traj.times, cfg.grid
    dt = float(times[1] - times[0])
    step = np.exp(-cfg.nu * dt * grid.k_squared)
    n = [nonlinear_rhs(u, cfg, None if v_traj is None else v_traj.state_at(t)).coeffs for t, u in zip(times, traj)]
    if times[0] > 0:
        heat = heat_propagate(u0, times[0], cfg.nu).coeffs
        states = [heat]
    else:
        heat, states = u0.coeffs, [dealias(u0).coeffs]
    integral = np.zeros_like(u0.coeffs)
    for i in range(1, len(times)):
        integral = step * (integral + 0.5 * dt * n[i - 1]) + 0.5 * dt * n[i]
        heat = step * heat
        states.append(heat + integral)
    return np.stack(states)


def stacked(traj):
    """The trajectory's nodes, completed to the lattice, as one array."""
    return np.stack([node.coeffs for node in traj])


def assert_same_trajectory(traj, want):
    """Every node bit for bit.  The nodes after the first equal the lattice
    states.  The first, the input state, is stored as its lattice state's
    half cube and read back as that cube's completion, each bit for bit, and
    equals the lattice state in value: a -0.0 of the lattice state outside
    the stored half cube reads back as the completion's +0.0."""
    got, grid = stacked(traj), traj.grid
    band = traj._halves.shape[-1] - 1
    assert_same_bits(got[1:], want[1:])
    assert_same_bits(traj._halves[0], _cut_half(want[0], grid, band))
    first = _complete(_cut_half(want[0], grid, band), grid, band)
    first[..., grid.points_per_axis // 2 + 1 :] += 0.0
    assert_same_bits(got[0], first)
    assert np.array_equal(got[0], want[0])


class TestLatticeOracle:
    """The march and the Duhamel map hold their states on the dealias half
    cube, where their trajectories keep them; the completed nodes equal the
    lattice computations built from public primitives bit for bit, the
    input state in value and on its stored half cube (assert_same_trajectory)."""

    @pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=["16^3", "32^2"])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_solve_lans(self, grid, alpha):
        cfg = LansConfig(grid=grid, alpha=alpha, nu=0.05)
        for u0 in (band_field(grid, 70, k_max=5.0, scale=2.0), projected_noise(grid, 71)):
            assert_same_trajectory(solve_lans(u0, cfg, 0.04, 0.01), lattice_march(u0, cfg, 0.04, 0.01))

    @pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=["16^3", "32^2"])
    def test_solve_lans_without_nonlinearity(self, grid):
        cfg = LansConfig(grid=grid, alpha=0.3, nu=0.05)
        u0 = band_field(grid, 72, k_max=3.0)
        got = solve_lans(u0, cfg, 0.04, 0.01, nonlinear=False)
        assert_same_trajectory(got, lattice_march(u0, cfg, 0.04, 0.01, nonlinear=False))

    @pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=["16^3", "32^2"])
    @pytest.mark.parametrize("background", ["march", "outside_cube"])
    def test_solve_mlans(self, grid, background):
        # a background node outside the dealias cube sends its kernel calls
        # to the half lattice
        cfg = LansConfig(grid=grid, alpha=0.3, nu=0.05)
        u0, v0 = band_field(grid, 73, k_max=5.0, scale=2.0), band_field(grid, 74, k_max=5.0, scale=2.0)
        v_traj = solve_lans(v0, cfg, 0.04, 0.01)
        if background == "outside_cube":
            noise = projected_noise(grid, 75, scale=0.01)
            v_traj = Trajectory(v_traj.times, [s + noise for s in v_traj], config=cfg)
        got = solve_mlans(u0, v_traj, cfg, 0.04, 0.01)
        assert_same_trajectory(got, lattice_march(u0, cfg, 0.04, 0.01, v_traj))

    @pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=["16^3", "32^2"])
    @pytest.mark.parametrize("data", ["in_cube", "outside_cube"])
    @pytest.mark.parametrize("t0", [0.0, 0.01])
    def test_duhamel_map(self, grid, data, t0):
        # u0 and the nodes outside the dealias cube take the half lattice
        cfg = LansConfig(grid=grid, alpha=0.3, nu=0.05)
        mcfg = MildSolverConfig(t_end=0.02, dt=0.005, weight_index=BesovIndex(1.5, 2.0, 2.0))
        u0 = band_field(grid, 76, k_max=5.0) if data == "in_cube" else projected_noise(grid, 76)
        times = t0 + mcfg.time_nodes()
        traj = Trajectory(times, [heat_propagate(u0, t, cfg.nu) for t in times], config=cfg)
        v_traj = solve_lans(band_field(grid, 77, k_max=5.0), cfg, 0.04, 0.005)
        for v in (None, v_traj):
            assert_same_trajectory(duhamel_map(traj, u0, cfg, mcfg, v), lattice_duhamel(traj, u0, cfg, v))


class TestMarchEquivariance:
    """The march commutes with the cubic group's signed permutations composed
    with grid shifts: solving from T u0 (over the background T v) gives T
    of each state.  A guard for rewrites of the marcher."""

    @given(perm=st.permutations([0, 1, 2]), signs=st.tuples(*[st.sampled_from([-1, 1])] * 3),
           shift=st.tuples(*[st.integers(0, 15)] * 3), with_background=st.booleans())
    def test_signed_permutations_and_shifts(self, perm, signs, shift, with_background):
        grid = TorusGrid(dim=3, points_per_axis=16)
        cfg = LansConfig(grid=grid, alpha=0.3, nu=0.05)
        u0, v0 = band_field(grid, 60, k_max=4.0), band_field(grid, 61, k_max=4.0)
        t_end, dt = 0.04, 0.01

        def act(f):
            return forward_transform(signed_permutation(inverse_transform(f), perm, signs, shift), grid)

        if with_background:
            v_traj = solve_lans(v0, cfg, t_end, dt)
            moved_v = Trajectory(v_traj.times, [act(s) for s in v_traj], config=cfg)
            traj, moved = solve_mlans(u0, v_traj, cfg, t_end, dt), solve_mlans(act(u0), moved_v, cfg, t_end, dt)
        else:
            traj, moved = solve_lans(u0, cfg, t_end, dt), solve_lans(act(u0), cfg, t_end, dt)
        assert len(traj) == 5
        for state, moved_state in zip(traj, moved):
            expected = act(state)
            assert l2_norm(moved_state - expected) <= 1e-14 * l2_norm(expected)


def dissipation(u, cfg):
    """D = 2 nu (||grad u||^2 + alpha^2 ||Lap u||^2), the decay rate of energy_pair."""
    return 2.0 * cfg.nu * (sobolev_norm(u, 1.0) ** 2 + cfg.alpha**2 * sobolev_norm(u, 2.0) ** 2)


def energy_balance_ratio(u0, cfg, t_end, dt):
    """max_n |r_n| / (dt max_n D_n) with r_n = E_(n+1) - E_n + (dt/2)(D_n + D_(n+1))."""
    traj = solve_lans(u0, cfg, t_end, dt)
    energy = np.array([energy_pair(s, cfg.alpha) for s in traj])
    rate = np.array([dissipation(s, cfg) for s in traj])
    residual = np.diff(energy) + 0.5 * dt * (rate[:-1] + rate[1:])
    return np.max(np.abs(residual)) / (dt * np.max(rate))


class TestEnergyBalance:
    """A viscous LANS-alpha flow loses H^1_alpha energy E = ||u||^2 +
    alpha^2 ||grad u||^2 at exactly the rate D, so the per-step balance
    residual r_n is the integrator's error: second order, it shrinks about
    4x per halving of dt (3.96-4.01x measured with the Marsden-Shkoller
    tensor, 6.2e-9 at dt = 2.5e-3)."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 1: the Def*Rot stress does not conserve the H^1_alpha energy (the "
                       "ratio reads 7.5e-3 at every dt); switching the tensor is the owner's decision")
    def test_residual_is_second_order(self):
        grid = TorusGrid(dim=3, points_per_axis=16)
        cfg = LansConfig(grid=grid, alpha=0.5, nu=0.005)
        u0 = random_solenoidal(grid, np.random.default_rng(0), k_max=4.0)
        u0 = u0 * (1.0 / l2_norm(u0))
        ratios = [energy_balance_ratio(u0, cfg, 0.05, dt) for dt in (2.5e-3, 1.25e-3, 6.25e-4)]
        assert ratios[0] <= 1e-6, ratios
        assert all(a >= 3.0 * b for a, b in zip(ratios, ratios[1:])), ratios


class TestPhiFactors:
    def test_against_fifty_digit_reference(self):
        # the marcher's exponential-integrator factors exp(z), (e^z - 1)/z
        # and (e^z - 1 - z)/z^2 on z = -nu dt |k|^2, checked over [-20, 0]
        # and on both sides of the switches at z = 0 and |z| = 1
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        sides = [np.nextafter(-1.0, 0.0), -1.0, np.nextafter(-1.0, -2.0), -1e-16, -1e-12, -1e-8, -1e-5, -1e-3]
        z = np.concatenate([np.linspace(-20.0, 0.0, 401), sides])
        e, phi1, phi2 = _phi_factors(z)
        for i, zi in enumerate(z):
            if zi == 0.0:
                ref = (1, 1, mpmath.mpf(1) / 2)
            else:
                x = mpmath.mpf(zi)
                ref = (mpmath.exp(x), mpmath.expm1(x) / x, (mpmath.exp(x) - 1 - x) / x**2)
            for got, want in zip((e[i], phi1[i], phi2[i]), ref):
                assert abs(got - want) <= 1e-14 * abs(want), (zi, got, want)


class TestWeightedNorms:
    def test_constant_state_oracle(self, cfg16, grid16_mod, part16_mod):
        # sup of t^a over (0, T] is T^a, reached at the endpoint
        c = band_field(grid16_mod, 0)
        times = np.linspace(0.0, 0.2, 9)
        traj = Trajectory(times, [c.copy() for _ in times])
        idx = BesovIndex(2.5, 2.0, 2.0)
        b = part16_mod.besov_norm(c, idx)
        got = weighted_norm(traj, 0.5, idx)
        assert got == pytest.approx(0.2**0.5 * b, rel=1e-12)

    def test_a_zero_is_plain_sup(self, cfg16, grid16_mod, part16_mod):
        u0 = band_field(grid16_mod, 1)
        traj = solve_lans(u0, cfg16, 0.05, 0.00625, nonlinear=False)
        idx = BesovIndex(1.5, 2.0, 2.0)
        sup = max(part16_mod.besov_norm(s, idx) for s in traj)
        assert weighted_norm(traj, 0.0, idx) == pytest.approx(sup, rel=1e-12)

    @pytest.mark.parametrize("p", [2.0, 6.0])
    def test_traces_read_the_stored_half_cubes(self, cfg16, grid16_mod, part16_mod, p):
        # Besov blocks are formed from each node's stored half cube, a
        # dealias cube zero-filled to the half lattice where it meets one,
        # and equal the block norms of the completed nodes exactly
        idx = BesovIndex(1.5, p, 2.0)
        march = solve_lans(band_field(grid16_mod, 3), cfg16, 0.01, 0.0025)
        noise = projected_noise(grid16_mod, 4, scale=1e-3)
        lattice = Trajectory(march.times, [s + noise for s in march])
        nodes = list(zip(march.times, march, lattice))
        assert weighted_norm(march, 0.5, idx) == max(t**0.5 * part16_mod.besov_norm(a, idx) for t, a, _ in nodes[1:])
        mcfg = MildSolverConfig(t_end=0.01, dt=0.0025, weight_index=idx)
        assert _weighted_distance(march, lattice, mcfg) == max(part16_mod.besov_norm(a - b, idx) for _, a, b in nodes)

    def test_heat_flow_vanishes_at_origin(self, cfg16, grid16_mod, part16_mod):
        # t^a ||e^(t Lap) u0||_(B^s) -> 0 as t -> 0 for band-limited data
        u0 = band_field(grid16_mod, 2)
        idx = BesovIndex(2.5, 2.0, 2.0)
        ts = np.geomspace(1e-8, 0.05, 12)
        vals = [t**0.5 * part16_mod.besov_norm(heat_propagate(u0, t), idx) for t in ts]
        assert vals[0] <= 1e-3 * max(vals)


@pytest.fixture(scope="module")
def part16_mod(grid16_mod):
    return build_partition(grid16_mod)


class TestPicard:
    def make_mcfg(self, **kw):
        base = dict(
            t_end=0.02,
            dt=0.0025,
            weight_index=BesovIndex(1.5, 2.0, 2.0),
            picard_tol=1e-10,
        )
        base.update(kw)
        return MildSolverConfig(**base)

    def test_zero_data_converges_immediately(self, cfg16, grid16_mod):
        traj, hist = picard_iterate(zero_field(grid16_mod), None, cfg16, self.make_mcfg())
        assert len(hist) == 1
        assert hist[0].delta_norm == 0.0
        assert max(l2_norm(s) for s in traj) == 0.0

    def test_small_data_contracts(self, cfg16, grid16_mod, part16_mod):
        u0 = band_field(grid16_mod, 0)
        idx = BesovIndex(1.5, 2.0, 2.0)
        u0 = u0 * (1e-2 / part16_mod.besov_norm(u0, idx))
        traj, hist = picard_iterate(u0, None, cfg16, self.make_mcfg())
        ratios = [h.ratio for h in hist if h.ratio is not None]
        assert all(r <= 0.5 for r in ratios)
        assert hist[-1].delta_norm < 1e-10

    def test_heat_flow_made_without_heat_propagate(self, cfg16, grid16_mod, part16_mod, monkeypatch):
        # the start trajectory multiplies u0's dealias half cube by each
        # node's heat factor, and every Duhamel image advances the flow of
        # u0 by the one-step factor: neither calls heat_propagate
        from lanslab import dynamics, spectral

        calls = []
        original = spectral.heat_propagate

        def counting(f, t, nu=1.0):
            calls.append(t)
            return original(f, t, nu)

        monkeypatch.setattr(spectral, "heat_propagate", counting)
        monkeypatch.setattr(dynamics, "heat_propagate", counting)
        u0 = band_field(grid16_mod, 0)
        u0 = u0 * (1e-2 / part16_mod.besov_norm(u0, BesovIndex(1.5, 2.0, 2.0)))
        traj, hist = picard_iterate(u0, None, cfg16, self.make_mcfg())
        assert len(hist) >= 2
        assert calls == []

    def test_duhamel_heat_flow_matches_the_semigroup(self, cfg16, grid16_mod):
        # with the nonlinearity absent (zero data has none) the map is the
        # heat flow; a start at t0 > 0 advances the flow from t0
        u0 = band_field(grid16_mod, 3)
        mcfg = self.make_mcfg()
        for t0 in (0.0, 0.01):
            times = t0 + mcfg.time_nodes()
            zero = Trajectory(times, [zero_field(grid16_mod)] * len(times))
            image = duhamel_map(zero, u0, cfg16, mcfg)
            for t, state in zip(times, image):
                ref = heat_propagate(u0, t, cfg16.nu)
                assert l2_norm(state - ref) <= 1e-14 * l2_norm(ref)

    def test_fixed_point_residual(self, cfg16, grid16_mod, part16_mod):
        # re-applying the map to the converged trajectory barely moves it
        u0 = band_field(grid16_mod, 1)
        idx = BesovIndex(1.5, 2.0, 2.0)
        u0 = u0 * (1e-2 / part16_mod.besov_norm(u0, idx))
        mcfg = self.make_mcfg()
        traj, _ = picard_iterate(u0, None, cfg16, mcfg)
        image = duhamel_map(traj, u0, cfg16, mcfg, None)
        resid = _weighted_distance(image, traj, mcfg)
        assert resid < mcfg.picard_tol

    def test_agrees_with_marcher(self, cfg16, grid16_mod, part16_mod):
        u0 = band_field(grid16_mod, 2)
        idx = BesovIndex(1.5, 2.0, 2.0)
        u0 = u0 * (1e-2 / part16_mod.besov_norm(u0, idx))
        mcfg = self.make_mcfg(picard_tol=1e-10)
        traj, _ = picard_iterate(u0, None, cfg16, mcfg)
        march = solve_lans(u0, cfg16, mcfg.t_end, mcfg.dt / 8.0)
        worst = max(
            part16_mod.besov_norm(traj.state_at(t) - march.state_at(t), idx)
            for t in traj.times
        )
        assert worst <= 10.0 * mcfg.picard_tol

    def test_background_read_from_finer_trajectory(self, cfg16, grid16_mod, part16_mod):
        # the background's nodes at the iteration times are looked up by
        # time, so a finer trajectory and its strided copy agree bit for bit
        idx = BesovIndex(1.5, 2.0, 2.0)
        u0 = band_field(grid16_mod, 7)
        u0 = u0 * (1e-2 / part16_mod.besov_norm(u0, idx))
        v0 = band_field(grid16_mod, 8)
        v0 = v0 * (1e-2 / part16_mod.besov_norm(v0, idx))
        mcfg = self.make_mcfg()
        v_traj = solve_lans(v0, cfg16, mcfg.t_end, mcfg.dt / 4.0)
        strided = Trajectory(v_traj.times[::4], list(v_traj)[::4], config=cfg16)
        traj_full, hist_full = picard_iterate(u0, v_traj, cfg16, mcfg)
        traj_strided, hist_strided = picard_iterate(u0, strided, cfg16, mcfg)
        assert len(hist_full) > 1
        assert hist_full == hist_strided
        assert np.array_equal(traj_full.times, traj_strided.times)
        assert_same_bits(stacked(traj_full), stacked(traj_strided))

    def test_certificate_fires_above_target(self, cfg16, grid16_mod):
        # moderate data contracts at a few times 1e-4; a target below that
        # must be reported as uncertified, carrying the measured ratio
        u0 = band_field(grid16_mod, 4, scale=0.1)
        mcfg = self.make_mcfg(contraction_target=1e-6, picard_tol=1e-13)
        with pytest.raises(PicardDivergenceError) as err:
            picard_iterate(u0, None, cfg16, mcfg)
        assert err.value.last_ratio > 1e-6
        assert np.isfinite(err.value.last_ratio)
        assert len(err.value.history) >= 2
        assert "target" in str(err.value)

    def test_budget_exhaustion_reports(self, cfg16, grid16_mod):
        u0 = band_field(grid16_mod, 5, scale=0.1)
        mcfg = self.make_mcfg(picard_max_iters=1, picard_tol=1e-13)
        with pytest.raises(PicardDivergenceError) as err:
            picard_iterate(u0, None, cfg16, mcfg)
        assert "1 iteration" in str(err.value)

    def test_weight_relation_enforced(self, cfg16, grid16_mod):
        mcfg = self.make_mcfg(
            weight_index=BesovIndex(2.5, 2.0, 2.0),
            weight_a=0.3,  # correct value for s = 2.5, n = 3 is 0.5
            enforce_weight_relation=True,
        )
        with pytest.raises(ValueError):
            picard_iterate(band_field(grid16_mod, 6), None, cfg16, mcfg)


class TestConfigValidation:
    def test_bad_dt(self):
        with pytest.raises(ValueError):
            MildSolverConfig(t_end=0.1, dt=-0.01, weight_index=BesovIndex(1.5))

    def test_bad_contraction_target(self):
        with pytest.raises(ValueError):
            MildSolverConfig(
                t_end=0.1, dt=0.01, weight_index=BesovIndex(1.5), contraction_target=0.0
            )

    @pytest.mark.parametrize("dt", [0.0, -0.0025])
    def test_march_rejects_nonpositive_dt(self, cfg16, grid16_mod, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            solve_lans(zero_field(grid16_mod), cfg16, 0.01, dt)

    @pytest.mark.parametrize("t_end, dt", [(1e308, 1e-10), (0.05, 5e-324), (1e300, 1.0)])
    def test_step_count_past_an_array_index_is_named(self, t_end, dt):
        # raised before the time array or a state is allocated
        with pytest.raises(ValueError, match=re.escape(f"t_end = {t_end} over dt = {dt} is more steps")):
            MildSolverConfig(t_end=t_end, dt=dt, weight_index=BesovIndex(1.5)).time_nodes()

    def test_horizon_must_be_multiple_of_dt(self):
        mcfg = MildSolverConfig(t_end=0.1, dt=0.03, weight_index=BesovIndex(1.5))
        with pytest.raises(ValueError):
            mcfg.time_nodes()

    def test_trajectory_validation(self, grid16_mod):
        f = zero_field(grid16_mod)
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), [f, f])
        traj = Trajectory(np.array([0.0, 0.1]), [f, f])
        assert traj.node_index(0.1) == 1
        with pytest.raises(ValueError):
            traj.node_index(0.05)

    def test_trajectory_rejects_mixed_grids(self, grid16_mod):
        other = TorusGrid(dim=3, points_per_axis=16, box_length=1.0)
        with pytest.raises(GridMismatchError):
            Trajectory(np.array([0.0, 0.1]), [zero_field(grid16_mod), zero_field(other)])

    def test_nodes_complete_the_stacked_half_cubes(self, cfg16, grid16_mod):
        # the nodes' dealias half cubes are stacked in one array; indexing,
        # iteration and final complete a node into a fresh lattice array
        # whose half cube is the stored one
        traj = solve_lans(band_field(grid16_mod, 0), cfg16, 0.01, 0.0025)
        keep = grid16_mod.dealias_keep
        assert traj._halves.shape == (5, 3, 2 * keep + 1, 2 * keep + 1, keep + 1)
        for i, node in enumerate(traj):
            assert node.coeffs.shape == (3,) + grid16_mod.shape
            assert not np.shares_memory(node.coeffs, traj._halves)
            assert_same_bits(node.coeffs, traj[i].coeffs)
            assert_same_bits(_cut_half(node.coeffs, grid16_mod, keep), traj._halves[i])
            assert np.array_equal(mirrored(node.coeffs, 3), np.conj(node.coeffs))
        assert_same_bits(traj.final.coeffs, traj[4].coeffs)

    def test_march_holds_the_dealias_half_cube(self):
        # 3 (2K + 1)^2 (K + 1) complex values per node, 6.8x fewer than 3 N^3
        grid = TorusGrid(dim=3, points_per_axis=32)
        traj = solve_lans(band_field(grid, 0), LansConfig(grid=grid, alpha=0.3, nu=0.05), 0.004, 0.001)
        keep = grid.dealias_keep
        assert traj._halves.dtype == np.complex128
        assert traj._halves.size == len(traj) * 3 * (2 * keep + 1) ** 2 * (keep + 1)

    def test_march_peak_memory(self):
        # a 4-step 32^3 march peaks at 4.0 lattice vector fields of numpy
        # allocations; with every node kept on the lattice it was 10.7.  The
        # transforms' two work arrays (3.1 fields here) are anonymous mappings,
        # which tracemalloc does not see, and the march drops them as it ends
        import tracemalloc

        from lanslab.spectral import _WORK

        grid = TorusGrid(dim=3, points_per_axis=32)
        cfg = LansConfig(grid=grid, alpha=0.3, nu=0.05)
        u0 = band_field(grid, 0, k_max=5.0)
        solve_lans(u0, cfg, 0.004, 0.001)  # the shared multiplier arrays are built once per grid
        tracemalloc.start()
        try:
            solve_lans(u0, cfg, 0.004, 0.001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "slots" not in _WORK.__dict__
        assert peak <= 5 * 3 * 16 * grid.points_per_axis**3

    def test_public_constructor_picks_the_band(self, grid16_mod):
        # states inside the dealias cube keep its half cube; one state
        # outside it sends every node to the half lattice
        inside = band_field(grid16_mod, 0)
        outside = projected_noise(grid16_mod, 1)
        times = np.array([0.0, 0.1])
        keep, n = grid16_mod.dealias_keep, grid16_mod.points_per_axis
        assert Trajectory(times, [inside, inside])._halves.shape[-1] == keep + 1
        traj = Trajectory(times, [inside, outside])
        assert traj._halves.shape == (2, 3, n, n, n // 2 + 1)
        assert np.array_equal(traj[1].coeffs, outside.coeffs)

    def test_node_index_on_long_trajectory(self, grid16_mod):
        times = 0.001 * np.arange(1001)
        traj = Trajectory(times, [zero_field(grid16_mod)] * len(times))
        assert [traj.node_index(t) for t in times] == list(range(1001))
        for t in (0.0005, 0.4995, 0.9995, -0.001, 1.001):
            with pytest.raises(ValueError):
                traj.node_index(t)
