"""Dyadic frequency decomposition: partition quality, block norms,
Besov norms with closed-form oracles, Bony splitting, kernels.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lanslab import (
    BesovIndex,
    DyadicPartition,
    SpectralField,
    TorusGrid,
    build_partition,
    dealias,
    forward_transform,
    l2_norm,
    lp_norm,
    random_band_limited,
)
from lanslab.littlewood_paley import smooth_lowpass_profile

VOLUME_3D = (2.0 * np.pi) ** 3
COS_NORM = np.sqrt(VOLUME_3D / 2.0)  # L2 norm of a single cosine mode


def cos_mode(grid, k_vec):
    phase = sum(k * x for k, x in zip(k_vec, grid.mesh))
    return forward_transform(np.cos(phase), grid)


class TestPartitionStructure:
    def test_default_depth_tracks_dealias_band(self):
        # top shell must fit under K_max = (2/3)(N/2)
        for n, expected in ((16, 1), (32, 2), (64, 3), (128, 4)):
            part = build_partition(TorusGrid(3, n))
            assert part.j_max == expected, f"N={n}"

    def test_one_shared_read_only_partition_per_grid(self):
        part = build_partition(TorusGrid(3, 16))
        assert build_partition(TorusGrid(3, 16)) is part
        with pytest.raises(ValueError):
            part.multipliers[0, 0, 0, 0] = 2.0

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_multipliers_match_shell_formula_bit_for_bit(self, n):
        grid = TorusGrid(3, n)
        part = build_partition(grid)
        r = grid.k_magnitude
        assert np.array_equal(part.multipliers[0], smooth_lowpass_profile(r / 2.0))
        for j in range(1, part.j_max + 1):
            shell = smooth_lowpass_profile(r / 2.0 ** (j + 1)) - smooth_lowpass_profile(r / 2.0**j)
            assert np.array_equal(part.multipliers[j], shell), f"N={n}, j={j}"

    def test_unity_on_covered_ball(self, part32):
        assert part32.unity_defect <= 1e-12

    @pytest.mark.parametrize("grid", [TorusGrid(3, 32), TorusGrid(3, 32, box_length=5.0), TorusGrid(2, 64)], ids=str)
    def test_unity_defect_equals_the_dense_sum(self, grid):
        # perturbed profiles, so that the defect is not 0: the sum over the
        # nested cubes equals the dense stack's sum bit for bit.  The
        # perturbation is a function of the profile's value, so it keeps
        # psi(-k) = psi(k), which the half cubes store
        part = DyadicPartition(grid)
        part.cubes = [c * (1.0 + 1e-3 * np.sin(7.0 * c)) for c in part.cubes]
        defect = part.unity_defect
        assert "multipliers" not in vars(part)
        dense = np.sum(part.multipliers, axis=0)[grid.k_magnitude <= 2.0**part.j_max]
        assert defect == float(np.max(np.abs(1.0 - dense))) > 0.0

    def test_non_adjacent_blocks_disjoint(self, part32):
        mults = part32.multipliers
        for j in range(len(mults)):
            for i in range(j + 2, len(mults)):
                overlap = np.max(np.abs(mults[j] * mults[i]))
                assert overlap <= 1e-14, f"blocks {j}, {i} overlap"

    def test_multipliers_nonnegative_and_bounded(self, part32):
        assert np.all(part32.multipliers >= -1e-15)
        assert np.all(part32.multipliers <= 1.0 + 1e-15)

    def test_telescoping_reconstruction(self, part32, grid32, rng):
        # fields limited to the covered ball are reassembled exactly
        f = random_band_limited(grid32, rng, 1.0, 2.0**part32.j_max)
        blocks = [part32.delta_j(f, j) for j in range(part32.j_max + 1)]
        back = sum(blocks[1:], blocks[0])
        assert l2_norm(back - f) <= 1e-13 * l2_norm(f)

    def test_sj_equals_partial_sum(self, part32, grid32, rng):
        f = random_band_limited(grid32, rng, 1.0, 8.0)
        partial = part32.delta_j(f, 0) + part32.delta_j(f, 1)
        np.testing.assert_allclose(
            part32.s_j(f, 1).coeffs, partial.coeffs, atol=1e-14
        )

    def test_block_index_range_checked(self, part32, grid32, rng):
        f = random_band_limited(grid32, rng)
        with pytest.raises(ValueError):
            part32.delta_j(f, part32.j_max + 1)


class TestBesovNorms:
    def test_single_mode_all_q(self, part32, grid32):
        # |k| = 4 sits entirely in shell 2, so the norm is 4^s * ||cos||_2
        # for every summation index q
        f = cos_mode(grid32, (4, 0, 0))
        for q in (1.0, 2.0, np.inf):
            idx = BesovIndex(1.5, 2.0, q)
            assert part32.besov_norm(f, idx) == pytest.approx(
                4.0**1.5 * COS_NORM, rel=1e-12
            )

    def test_two_shell_combination(self, part32, grid32):
        # shells 1 and 2 each hold one cosine; the q-sum is explicit
        f = cos_mode(grid32, (2, 0, 0)) + cos_mode(grid32, (0, 4, 0))
        s = 1.5
        b1, b2 = 2.0**s * COS_NORM, 4.0**s * COS_NORM
        expected = {
            1.0: b1 + b2,
            2.0: np.hypot(b1, b2),
            np.inf: max(b1, b2),
        }
        for q, want in expected.items():
            got = part32.besov_norm(f, BesovIndex(s, 2.0, q))
            assert got == pytest.approx(want, rel=1e-12)

    def test_homogeneous_skips_low_ball(self, part32, grid32):
        f = forward_transform(np.ones(grid32.shape), grid32)
        idx = BesovIndex(1.5, 2.0, 2.0)
        assert part32.besov_norm(f, idx) == pytest.approx(
            np.sqrt(VOLUME_3D), rel=1e-12
        )

    def test_q_monotonicity(self, part32, grid32, rng):
        # l^q norms shrink as q grows
        f = random_band_limited(grid32, rng, 1.0, 4.0)
        idx = lambda q: BesovIndex(0.5, 2.0, q)
        n1 = part32.besov_norm(f, idx(1.0))
        n2 = part32.besov_norm(f, idx(2.0))
        ninf = part32.besov_norm(f, idx(np.inf))
        assert n1 >= n2 >= ninf > 0.0

    def test_block_l2_shortcut_matches_fft_route(self, part32, grid32, rng):
        # the Parseval shortcut for p = 2 must agree with physically
        # transforming each block
        f = random_band_limited(grid32, rng, 1.0, 4.0, lead=(3,))
        shortcut = part32.block_lp_norms(f, 2.0)
        direct = [l2_norm(part32.delta_j(f, j)) for j in range(part32.j_max + 1)]
        np.testing.assert_allclose(shortcut, direct, rtol=1e-12)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            BesovIndex(1.0, 0.5, 2.0)
        with pytest.raises(ValueError):
            BesovIndex(1.0, 2.0, 0.0)


class TestParaproduct:
    def test_pieces_sum_to_product(self, part32, grid32, rng):
        f = random_band_limited(grid32, rng, 1.0, 4.0)
        g = random_band_limited(grid32, rng, 1.0, 4.0)
        pieces = part32.paraproduct_split(f, g)
        fg = inverse_then_product(f, g)
        resid = l2_norm(pieces.total() - fg)
        assert resid <= 1e-10 * max(l2_norm(fg), 1e-300)

    def test_split_is_bilinear_symmetric(self, part32, grid32, rng):
        f = random_band_limited(grid32, rng, 1.0, 4.0)
        g = random_band_limited(grid32, rng, 1.0, 4.0)
        ab = part32.paraproduct_split(f, g)
        ba = part32.paraproduct_split(g, f)
        # swapping the arguments swaps the two lopsided pieces
        np.testing.assert_allclose(
            ab.low_high.coeffs, ba.high_low.coeffs, atol=1e-12
        )
        np.testing.assert_allclose(
            ab.resonant.coeffs, ba.resonant.coeffs, atol=1e-12
        )


def inverse_then_product(f, g):
    from lanslab import inverse_transform

    prod = inverse_transform(f) * inverse_transform(g)
    return dealias(forward_transform(prod, f.grid))


@pytest.fixture(scope="module")
def part64():
    return build_partition(TorusGrid(3, 64))


def block_kernel(part, j):
    """Physical convolution kernel of Delta_j: Delta_j of the unit point mass,
    whose coefficients are 1 / volume at every mode."""
    grid = part.grid
    point_mass = SpectralField(grid, np.full(grid.shape, grid.box_length**-grid.dim, dtype=np.complex128))
    return part.delta_j(point_mass, j)


class TestKernels:
    def test_l1_uniformly_bounded(self, part64):
        # the annulus kernels are a rescaled single profile, so their L1
        # norms approach a constant instead of growing with j
        norms = [lp_norm(block_kernel(part64, j), 1.0) for j in range(1, part64.j_max + 1)]
        assert max(norms) <= 10.0
        assert max(norms) / min(norms) <= 2.0

    def test_l2_scaling(self, part64):
        # ||K_j||_2 ~ 2^(j n / 2): ratio 2^(3/2) between consecutive shells
        a = lp_norm(block_kernel(part64, 2), 2.0)
        b = lp_norm(block_kernel(part64, 3), 2.0)
        assert b / a == pytest.approx(2.0**1.5, rel=0.05)

    def test_linf_scaling(self, part64):
        # ||K_j||_inf ~ 2^(j n): ratio 8 between consecutive shells
        a = lp_norm(block_kernel(part64, 2), np.inf)
        b = lp_norm(block_kernel(part64, 3), np.inf)
        assert b / a == pytest.approx(8.0, rel=0.05)


ORACLE_GRIDS = [TorusGrid(2, 32), TorusGrid(3, 16), TorusGrid(3, 32), TorusGrid(3, 32, box_length=5.0)]


class TestCubeStorage:
    """Block norms come from each shell's half cube; the dense rule
    lp_norm(SpectralField(grid, f.coeffs * multipliers[j]), p) is the oracle."""

    @pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=str)
    @pytest.mark.parametrize("rank", [0, 1])
    def test_block_norms_match_the_dense_rule(self, grid, rank, rng):
        part = build_partition(grid)
        lead = (grid.dim,) * rank
        f = forward_transform(rng.standard_normal(lead + grid.shape), grid)
        dense = lambda j, p: lp_norm(SpectralField(grid, f.coeffs * part.multipliers[j]), p)
        for p in (1.0, 3.0, 4.0, 6.0, np.inf):
            got = part.block_lp_norms(f, p)
            assert got.tolist() == [dense(j, p) for j in range(part.j_max + 1)], f"p={p}"
        want = [dense(j, 2.0) for j in range(part.j_max + 1)]
        np.testing.assert_allclose(part.block_lp_norms(f, 2.0), want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("grid", ORACLE_GRIDS + [TorusGrid(3, 32, box_length=2.0 * np.pi / 32)], ids=str)
    def test_cubes_are_the_tight_support_boxes(self, grid):
        # every nonzero of the dense profile has max |m_i| <= band, and one
        # has max |m_i| == band unless the shell holds no lattice point
        part = build_partition(grid)
        max_mode = np.max(np.broadcast_arrays(*[np.abs(m) for m in grid.mode_numbers]), axis=0)
        for j, band in enumerate(part.bands):
            support = max_mode[part.multipliers[j] != 0.0]
            assert part.cubes[j].shape == (2 * band + 1,) * (grid.dim - 1) + (band + 1,), f"j={j}"
            assert band == (np.max(support) if support.size else 0), f"j={j}"

    def test_block_paths_read_no_dense_stack(self, part32, grid32, rng):
        part = DyadicPartition(grid32)
        f = random_band_limited(grid32, rng, 1.0, 4.0, lead=(3,))
        part.besov_norm(f, BesovIndex(1.0, 2.0, 2.0))
        part.besov_norm(f, BesovIndex(1.0, 4.0, 2.0))
        part.paraproduct_split(SpectralField(grid32, f.coeffs[0]), SpectralField(grid32, f.coeffs[1]))
        for j in range(part.j_max + 1):
            part.delta_j(f, j)
        assert "multipliers" not in vars(part)

    def test_128_partition_is_cube_sized(self):
        # the dense stack of a 128^3 partition is 84 MB; its half cubes are 1.1 MB
        grid = TorusGrid(3, 128)
        coeffs = np.zeros(grid.shape, dtype=np.complex128)
        coeffs[4, 0, 0] = coeffs[-4, 0, 0] = 0.5  # cos(4 x1) lies in shell 2 alone
        f = SpectralField(grid, coeffs)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            part = DyadicPartition(grid)
            p2 = part.besov_norm(f, BesovIndex(0.0, 2.0, 2.0))
            p4 = part.besov_norm(f, BesovIndex(0.0, 4.0, 2.0))
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 2 * 2**20
        assert p2 == pytest.approx(COS_NORM, rel=1e-12)
        assert p4 == pytest.approx((3.0 / 8.0 * VOLUME_3D) ** 0.25, rel=1e-12)  # mean of cos^4 is 3/8


PROPERTY_GRIDS = [TorusGrid(2, 32), TorusGrid(2, 64), TorusGrid(3, 16), TorusGrid(3, 32), TorusGrid(3, 64),
                  TorusGrid(3, 32, box_length=5.0), TorusGrid(3, 32, box_length=2.0 * np.pi / 32)]


class TestPartitionOperators:
    """delta_j and s_j equal their dense multipliers bit for bit on
    Hermitian data; multipliers[j] is the shell formula (checked above)."""

    @pytest.mark.parametrize("grid", PROPERTY_GRIDS, ids=str)
    @given(data=st.data())
    def test_operators_equal_the_dense_multipliers(self, grid, data):
        part = build_partition(grid)
        rank = data.draw(st.integers(0, 1))
        j = data.draw(st.integers(-1, part.j_max + 1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        f = forward_transform(rng.standard_normal((grid.dim,) * rank + grid.shape), grid)
        if 0 <= j <= part.j_max:
            assert np.array_equal(part.delta_j(f, j).coeffs, f.coeffs * part.multipliers[j])
        if j < 0:
            expected = np.zeros_like(f.coeffs)  # S_(-1) is the empty sum
        else:
            expected = f.coeffs * smooth_lowpass_profile(grid.k_magnitude / 2.0 ** (min(j, part.j_max) + 1))
        assert np.array_equal(part.s_j(f, j).coeffs, expected)
