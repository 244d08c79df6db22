"""Random field factories: support, symmetry, determinism, and the
coherent-profile construction used by the extremal-scaling checks.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lanslab import (
    TorusGrid,
    as_rng,
    band_mask,
    coverage_k_max,
    inverse_transform,
    l2_norm,
    leray_project,
    power_law_field,
    random_band_limited,
    random_solenoidal,
    relative_divergence,
    shell_field,
)
from conftest import lattice_band_limited, lattice_shell, mirrored


class TestFactoryBasics:
    def test_as_rng_accepts_seed_and_generator(self):
        g = as_rng(7)
        assert isinstance(g, np.random.Generator)
        assert as_rng(g) is g

    def test_coverage_matches_partition_ball(self, grid32):
        # N = 32: K_max = 10.67, deepest shell tops out at 2^3 = 8, so the
        # fully covered ball has radius 4
        assert coverage_k_max(grid32) == 4.0

    def test_band_mask_closed_interval(self, grid16):
        m = band_mask(grid16, 2.0, 4.0)
        r = grid16.k_magnitude
        assert m[2, 0, 0] and m[0, 4, 0]
        assert not m[1, 0, 0] and not m[5, 0, 0]
        assert np.all(r[m] >= 2.0) and np.all(r[m] <= 4.0)

    def test_fields_are_real(self, grid16, rng):
        for f in (
            random_band_limited(grid16, rng, 1.0, 4.0),
            random_solenoidal(grid16, rng),
            power_law_field(grid16, rng, 2.0),
        ):
            samples = inverse_transform(f)
            assert not np.iscomplexobj(samples)

    def test_determinism_per_seed(self, grid16):
        a = random_solenoidal(grid16, as_rng(3))
        b = random_solenoidal(grid16, as_rng(3))
        c = random_solenoidal(grid16, as_rng(4))
        np.testing.assert_array_equal(a.coeffs, b.coeffs)
        assert np.max(np.abs(a.coeffs - c.coeffs)) > 0.0


class TestSupport:
    def test_band_limited_support(self, grid16, rng):
        f = random_band_limited(grid16, rng, 2.0, 4.0)
        outside = ~band_mask(grid16, 2.0, 4.0)
        assert np.max(np.abs(f.coeffs[outside])) == 0.0
        assert l2_norm(f) > 0.0

    def test_zero_mean(self, grid16, rng):
        f = random_band_limited(grid16, rng, 1.0, 4.0)
        assert abs(f.coeffs[0, 0, 0]) == 0.0

    def test_lead_axes(self, grid16, rng):
        f = random_band_limited(grid16, rng, 1.0, 4.0, lead=(3,))
        assert f.rank == 1
        assert f.coeffs.shape == (3,) + grid16.shape

    def test_solenoidal_output(self, grid32, rng):
        u = random_solenoidal(grid32, rng, k_min=1.0, k_max=8.0)
        assert relative_divergence(u) < 1e-13

    def test_shell_field_annulus(self, grid32, rng):
        f = shell_field(grid32, 2, rng)
        r = grid32.k_magnitude
        live = np.abs(f.coeffs) > 0
        assert np.all(r[live] > 2.0)
        assert np.all(r[live] < 8.0)
        assert l2_norm(f) > 0.0

    def test_power_law_decay(self, grid32, rng):
        # coherent phases have unit modulus, so the radial amplitude decay
        # is read off directly
        f = power_law_field(grid32, rng, gamma=2.0, k_min=2.0, k_max=8.0, coherent=True)
        a2 = abs(f.coeffs[2, 0, 0])
        a8 = abs(f.coeffs[8, 0, 0])
        assert a2 / a8 == pytest.approx(16.0, rel=1e-10)


class TestCoherentProfiles:
    def test_peak_sits_on_a_lattice_node(self, grid32, rng):
        # the translated-bump phases are snapped to a grid node, so the
        # physical maximum equals the l1 mass of the coefficients exactly
        f = random_band_limited(grid32, rng, 1.0, 4.0, coherent=True)
        samples = inverse_transform(f)
        coeff_mass = np.sum(np.abs(f.coeffs))
        assert np.max(samples) == pytest.approx(coeff_mass, rel=1e-11)

    def test_coherent_seeds_move_the_center(self, grid32):
        a = random_band_limited(grid32, as_rng(0), 1.0, 4.0, coherent=True)
        b = random_band_limited(grid32, as_rng(1), 1.0, 4.0, coherent=True)
        ia = np.unravel_index(np.argmax(inverse_transform(a)), grid32.shape)
        ib = np.unravel_index(np.argmax(inverse_transform(b)), grid32.shape)
        assert ia != ib

    def test_shell_field_coherent_profile(self, grid32, rng):
        # radial envelope: the on-shell amplitude dominates the shell edges
        f = shell_field(grid32, 2, rng, coherent=True)
        r = grid32.k_magnitude
        on_shell = np.abs(r - 4.0) < 0.3
        edge = (np.abs(f.coeffs) > 0) & (r > 6.5)
        assert np.max(np.abs(f.coeffs[on_shell])) > 3.0 * np.max(
            np.abs(f.coeffs[edge]) if np.any(edge) else 0.0
        )


HERMITIAN_GRIDS = [TorusGrid(dim=2, points_per_axis=16), TorusGrid(dim=3, points_per_axis=8),
                   TorusGrid(dim=3, points_per_axis=16)]
GRID_IDS = [f"{g.points_per_axis}^{g.dim}" for g in HERMITIAN_GRIDS]
# every j whose annulus 2^(j-1) < |k| < 2^(j+1) meets the lattice
SHELL_CASES = [(g, j) for g in HERMITIAN_GRIDS for j in range(int(np.log2(g.points_per_axis)) + 1)]

GENERATORS = {
    "random_band_limited": lambda g, rng, coherent, lead: random_band_limited(
        g, rng, k_max=float(g.points_per_axis), lead=lead, decay=0.5, coherent=coherent),
    "random_solenoidal": lambda g, rng, coherent, lead: random_solenoidal(g, rng, k_max=float(g.points_per_axis)),
    "power_law_field": lambda g, rng, coherent, lead: power_law_field(
        g, rng, 1.5, k_max=float(g.points_per_axis), coherent=coherent, lead=lead),
}
GENERATOR_CASES = [(name, coherent) for name in GENERATORS for coherent in (False, True)
                   if not (name == "random_solenoidal" and coherent)]


class TestExactlyHermitian:
    """Every generator's coefficients satisfy c(-k) == conj c(k) bit for bit,
    the Nyquist planes included."""

    @pytest.mark.parametrize("coherent", [False, True], ids=["random", "coherent"])
    @pytest.mark.parametrize("grid, j", SHELL_CASES, ids=[f"{g.points_per_axis}^{g.dim}-j{j}" for g, j in SHELL_CASES])
    @given(seed=st.integers(0, 2**31), vector=st.booleans())
    def test_shell_field(self, grid, j, coherent, seed, vector):
        f = shell_field(grid, j, as_rng(seed), coherent=coherent, lead=(grid.dim,) if vector else ())
        assert np.array_equal(mirrored(f.coeffs, grid.dim), np.conj(f.coeffs))

    @pytest.mark.parametrize("grid", HERMITIAN_GRIDS, ids=GRID_IDS)
    @pytest.mark.parametrize("name, coherent", GENERATOR_CASES)
    @given(seed=st.integers(0, 2**31), vector=st.booleans())
    def test_band_generators(self, name, coherent, grid, seed, vector):
        f = GENERATORS[name](grid, as_rng(seed), coherent, (grid.dim,) if vector else ())
        assert np.array_equal(mirrored(f.coeffs, grid.dim), np.conj(f.coeffs))


ORACLE_GRIDS = [TorusGrid(dim=3, points_per_axis=16), TorusGrid(dim=3, points_per_axis=32),
                TorusGrid(dim=2, points_per_axis=32), TorusGrid(dim=3, points_per_axis=16, box_length=5.0)]
ORACLE_IDS = [f"{g.points_per_axis}^{g.dim}-L{g.box_length:.3g}" for g in ORACLE_GRIDS]
# the ball's cube lies inside the dealias cube, reaches past it, or is the
# whole lattice (band N/2)
BALLS = {
    "inside": lambda g: 3.0,
    "beyond": lambda g: 0.75 * (g.points_per_axis / 2) * g.wavenumber_scale,
    "nyquist": lambda g: float(g.points_per_axis) * g.wavenumber_scale,
}


def same_draws(make, oracle, seed=11):
    """make() and oracle() on equal generators: their fields, and whether
    the generators end in the same state."""
    a, b = as_rng(seed), as_rng(seed)
    return make(a), oracle(b), a.bit_generator.state == b.bit_generator.state


class TestLatticeOracle:
    """Every generator equals its full-lattice construction under == and
    draws the same numbers."""

    @pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=ORACLE_IDS)
    @pytest.mark.parametrize("ball", BALLS)
    @pytest.mark.parametrize("coherent", [False, True], ids=["random", "coherent"])
    def test_random_band_limited(self, grid, ball, coherent):
        k_max = BALLS[ball](grid)
        for lead in ((), (grid.dim,)):
            for decay in (0.0, 1.5):
                for k_min in (0.0, 1.0):
                    kw = dict(lead=lead, decay=decay, coherent=coherent, zero_mean=k_min > 0.0)
                    got, want, same_state = same_draws(lambda r: random_band_limited(grid, r, k_min, k_max, **kw),
                                                       lambda r: lattice_band_limited(grid, r, k_min, k_max, **kw))
                    case = f"lead={lead} decay={decay} k_min={k_min}"
                    assert np.array_equal(got.coeffs, want.coeffs), case
                    assert same_state, case

    @pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=ORACLE_IDS)
    @pytest.mark.parametrize("coherent", [False, True], ids=["random", "coherent"])
    def test_shell_field(self, grid, coherent):
        for j in range(int(np.log2(grid.points_per_axis)) + 1):
            if not np.any(lattice_shell(grid, j, as_rng(0)).coeffs):
                continue  # an empty shell raises (TestBadArguments)
            for lead in ((), (grid.dim,)):
                got, want, same_state = same_draws(lambda r: shell_field(grid, j, r, coherent=coherent, lead=lead),
                                                   lambda r: lattice_shell(grid, j, r, coherent=coherent, lead=lead))
                assert np.array_equal(got.coeffs, want.coeffs), f"j={j} lead={lead}"
                assert same_state, f"j={j} lead={lead}"

    @pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=ORACLE_IDS)
    @pytest.mark.parametrize("ball", BALLS)
    def test_power_law_and_solenoidal(self, grid, ball):
        k_max = BALLS[ball](grid)
        for coherent in (False, True):
            got, want, same_state = same_draws(
                lambda r: power_law_field(grid, r, 1.5, k_max=k_max, coherent=coherent),
                lambda r: lattice_band_limited(grid, r, 2.0, k_max, decay=1.5, coherent=coherent))
            assert np.array_equal(got.coeffs, want.coeffs) and same_state, f"coherent={coherent}"
        got, want, same_state = same_draws(
            lambda r: random_solenoidal(grid, r, k_max=k_max, decay=1.5),
            lambda r: leray_project(lattice_band_limited(grid, r, 1.0, k_max, lead=(grid.dim,), decay=1.5)))
        assert np.array_equal(got.coeffs, want.coeffs) and same_state


class TestSolenoidalOnTheHalfCube:
    """random_solenoidal projects its band's half cube before completing it:
    leray_project of random_band_limited's field under ==, bit for bit on the
    half m_last >= 0.  The mirrored half's zeros may differ in sign, since the
    lattice projection writes its own +-0.0 there."""

    @pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=ORACLE_IDS)
    @pytest.mark.parametrize("ball", BALLS)
    @pytest.mark.parametrize("decay", [0.0, 1.5])
    def test_equals_the_lattice_projection(self, grid, ball, decay):
        k_max = BALLS[ball](grid)
        got, want, same_state = same_draws(
            lambda r: random_solenoidal(grid, r, k_max=k_max, decay=decay),
            lambda r: leray_project(random_band_limited(grid, r, 1.0, k_max, lead=(grid.dim,), decay=decay)))
        assert np.array_equal(got.coeffs, want.coeffs) and same_state
        half = slice(0, grid.points_per_axis // 2 + 1)
        for part in ("real", "imag"):
            assert np.array_equal(np.signbit(getattr(got.coeffs[..., half], part)),
                                  np.signbit(getattr(want.coeffs[..., half], part)))


BAD_BANDS = [({"k_max": float("nan")}, "k_max"), ({"k_max": -1.0}, "k_max"),
             ({"k_min": float("nan"), "k_max": 4.0}, "k_min"), ({"k_min": 5.0, "k_max": 4.0}, "k_min")]


class TestBadArguments:
    @pytest.mark.parametrize("kwargs, name", BAD_BANDS, ids=[f"{n}={list(k.values())}" for k, n in BAD_BANDS])
    @pytest.mark.parametrize("make", [
        lambda g, rng, **kw: random_band_limited(g, rng, **kw),
        lambda g, rng, **kw: power_law_field(g, rng, 2.0, **kw),
        lambda g, rng, **kw: random_solenoidal(g, rng, **kw),
    ], ids=["random_band_limited", "power_law_field", "random_solenoidal"])
    def test_bad_band_is_a_value_error(self, grid16, rng, make, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} "):
            make(grid16, rng, **kwargs)

    def test_empty_shell_is_a_value_error(self):
        # on the 32^3 grid of side 2 pi / 32 the lattice spacing is 32, so
        # the annulus 2 < |k| < 8 holds no point
        with pytest.raises(ValueError, match="holds no lattice points"):
            shell_field(TorusGrid(dim=3, points_per_axis=32, box_length=2.0 * np.pi / 32), 2, as_rng(0))
