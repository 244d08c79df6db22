"""A-priori monitors: the energy pair, structural cancellations, the
exponential envelope protocol, second-level term growth, the rough/smooth
splitting, and weighted higher-regularity traces.
"""

import numpy as np
import pytest

import lanslab
from lanslab import (
    LansConfig,
    SplitConfig,
    SplitError,
    TorusGrid,
    Trajectory,
    calibrate_gronwall_constant,
    cancellation_check,
    energy_pair,
    forward_transform,
    gradient,
    gronwall_monitor,
    h2_concentration_slopes,
    higher_regularity_trace,
    l2_norm,
    leray_project,
    random_solenoidal,
    sobolev_norm,
    solve_lans,
    solve_mlans,
    split_with_report,
)
from lanslab.spectral import _half_cube, _half_parseval
from conftest import zero_field

VOLUME_3D = (2.0 * np.pi) ** 3


def mk_field(grid, seed, scale, k_max=4.0):
    u0 = random_solenoidal(grid, np.random.default_rng(seed), k_min=1.0, k_max=k_max)
    return u0 * (scale / l2_norm(u0))


@pytest.fixture(scope="module")
def gron_cfg():
    return LansConfig(grid=TorusGrid(3, 16), alpha=0.5, nu=0.005)


@pytest.fixture(scope="module")
def traj16():
    cfg = LansConfig(grid=TorusGrid(3, 16), alpha=0.5, nu=1.0)
    return solve_lans(mk_field(cfg.grid, 0, 2.0), cfg, 0.02, 0.0025)


class TestEnergyPair:
    def test_single_mode_closed_form(self, grid16):
        # u = (cos(2 x2), 0, 0): L2^2 = V/2, homogeneous H1^2 = 4 V/2
        vec = np.zeros((3,) + grid16.shape)
        vec[0] = np.cos(2.0 * grid16.mesh[1])
        u = forward_transform(vec, grid16)
        want = VOLUME_3D / 2.0 * (1.0 + 0.25 * 4.0)
        assert energy_pair(u, 0.5) == pytest.approx(want, rel=1e-12)

    def test_alpha_zero_is_plain_energy(self, grid16, rng):
        u = random_solenoidal(grid16, rng)
        assert energy_pair(u, 0.0) == pytest.approx(l2_norm(u) ** 2, rel=1e-12)


class TestCancellations:
    def test_structural_zeros(self, grid16):
        for seed in range(3):
            u = mk_field(grid16, seed, 1.0)
            res = cancellation_check(u, alpha=0.2)
            assert res.max_normalized <= 1e-10, f"seed {seed}"

    def test_zero_field_reports_zeros(self, grid16):
        res = cancellation_check(zero_field(grid16), alpha=0.2)
        assert res.max_normalized == 0.0

    def test_divergence_injection_is_caught(self, grid16):
        # a gradient component breaks the skew structure loudly
        u = mk_field(grid16, 0, 1.0)
        phi = forward_transform(np.sin(grid16.mesh[0]), grid16)
        spoiler = gradient(phi)
        bad = u + spoiler * (1.0 / l2_norm(spoiler))
        assert cancellation_check(bad, alpha=0.2).max_normalized > 1e-3

    def test_u_and_its_jacobian_are_transformed_once(self, grid16, monkeypatch):
        # unpruned n-D transforms, one scalar FFT per leading index: u (3)
        # and its Jacobian (9) once, Lap u (3) and its Jacobian (9), and
        # three vector forward transforms (9); the kernel's are pruned
        n = grid16.points_per_axis
        scalar = []

        def counting(original):
            def wrapped(a, *args, **kwargs):
                out = original(a, *args, **kwargs)
                scalar.append(max(np.asarray(a).size, out.size) // n**3)
                return out

            return wrapped

        for name in ("rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name)))
        cancellation_check(mk_field(grid16, 0, 1.0), alpha=0.2)
        assert sum(scalar) == 33

    def test_raw_values_cubic_in_amplitude(self, grid16):
        u = mk_field(grid16, 1, 1.0)
        r1 = cancellation_check(u, alpha=0.2)
        r2 = cancellation_check(u * 2.0, alpha=0.2)
        # use the filter pair, whose raw value is far above roundoff
        assert r2.raw_i2 == pytest.approx(8.0 * r1.raw_i2, rel=1e-6)


class TestGronwallEnvelope:
    T = 0.1
    DT = 0.00125

    def run_pair(self, cfg, seed):
        g = cfg.grid
        v = solve_lans(mk_field(g, 100 + seed, 20.0), cfg, self.T, self.DT)
        u = solve_mlans(mk_field(g, seed, 1.0), v, cfg, self.T, self.DT)
        return u, v

    def test_no_background_is_dissipative(self, gron_cfg):
        cfg = gron_cfg
        traj = solve_lans(mk_field(cfg.grid, 0, 2.0), cfg, 0.02, 0.0025)
        rep = gronwall_monitor(traj, None, cfg.alpha)
        assert rep.nonincreasing
        assert rep.max_bound_ratio <= 1.0 + 1e-12

    def test_calibrate_once_then_judge_fresh_seed(self, gron_cfg):
        cfg = gron_cfg
        runs = [self.run_pair(cfg, s) for s in (1, 2)]
        frozen = calibrate_gronwall_constant(runs, cfg.alpha)
        assert frozen > 0.0
        u3, v3 = self.run_pair(cfg, 3)
        rep = gronwall_monitor(u3, v3, cfg.alpha, constant=frozen)
        assert not rep.extras["calibrated_in_place"]
        assert rep.e_pair.max() / rep.e_pair[0] > 1.01  # the energy really grows
        assert rep.max_bound_ratio <= 1.01

    def test_in_place_calibration_is_flagged(self, gron_cfg):
        cfg = gron_cfg
        u, v = self.run_pair(cfg, 4)
        rep = gronwall_monitor(u, v, cfg.alpha)
        assert rep.extras["calibrated_in_place"]
        assert rep.max_bound_ratio <= 1.0 + 1e-12

    def test_accumulated_integral_is_sequential_trapezoid(self, traj16):
        # the integrand ||v||_(H^2,2) of each node, by Parseval on its stored half cube
        rep = gronwall_monitor(traj16, traj16, 0.5)
        weight = (1.0 + _half_cube(traj16.grid, traj16._halves.shape[-1] - 1).k_squared) ** 2
        f = [np.sqrt(_half_parseval(half, traj16.grid, weight)) for half in traj16._halves]
        t = traj16.times
        expected = [0.0]
        for i in range(1, len(t)):
            expected.append(expected[-1] + 0.5 * (t[i] - t[i - 1]) * (f[i] + f[i - 1]))
        assert np.array_equal(rep.extras["accumulated_integral"], expected)

    @pytest.mark.parametrize("storage", ["dealias_cube", "nyquist_lattice"])
    def test_matches_the_completed_nodes_on_the_lattice(self, storage):
        # solver trajectories keep the dealias half cube; the public
        # constructor keeps projected noise on the half lattice, Nyquist
        # plane included.  The lattice norms of each completed node are the
        # oracle: the energy pair composed from l2_norm and the homogeneous
        # H^1 sobolev_norm, and the trapezoid of the inhomogeneous H^2 norms
        cfg = LansConfig(grid=TorusGrid(3, 16), alpha=0.5, nu=1.0)
        grid = cfg.grid
        if storage == "dealias_cube":
            v = solve_lans(mk_field(grid, 1, 3.0), cfg, 0.01, 0.0025)
            u = solve_mlans(mk_field(grid, 2, 1.0), v, cfg, 0.01, 0.0025)
            assert u._halves.shape[-1] == v._halves.shape[-1] == grid.dealias_keep + 1
        else:
            rng = np.random.default_rng(5)
            times = np.linspace(0.0, 0.01, 5)

            def noise():
                return Trajectory(times, [leray_project(forward_transform(rng.standard_normal((3,) + grid.shape), grid))
                                          for _ in times])
            u, v = noise(), noise()
            assert u._halves.shape[-1] == v._halves.shape[-1] == grid.points_per_axis // 2 + 1
        rep = gronwall_monitor(u, v, cfg.alpha)
        for got, s in zip(rep.e_pair, u):
            assert got == pytest.approx(l2_norm(s) ** 2 + cfg.alpha**2 * sobolev_norm(s, 1.0) ** 2, rel=1e-14)
        f = [sobolev_norm(s, 2.0, homogeneous=False) for s in v]
        t = v.times
        expected = np.concatenate(([0.0], np.cumsum([0.5 * (t[i] - t[i - 1]) * (f[i] + f[i - 1])
                                                      for i in range(1, len(t))])))
        assert rep.extras["accumulated_integral"] == pytest.approx(expected, rel=1e-14)

    def test_completes_no_node(self, traj16, monkeypatch):
        # the monitor reads the stored half cubes; every _complete binding
        # in the package is watched, and reading a node shows the watch works
        completed = []

        def watch(complete):
            def counted(half, grid, band):
                completed.append(half.shape)
                return complete(half, grid, band)
            return counted

        for module in (lanslab.spectral, lanslab.dynamics, lanslab.ensembles, lanslab.littlewood_paley):
            monkeypatch.setattr(module, "_complete", watch(module._complete))
        gronwall_monitor(traj16, traj16, 0.5)
        assert completed == []
        traj16[0]
        assert completed == [traj16._halves[0].shape]

    def test_alpha_positive_required(self, gron_cfg):
        cfg = gron_cfg
        traj = solve_lans(mk_field(cfg.grid, 5, 1.0), cfg, 0.01, 0.0025)
        with pytest.raises(ValueError):
            gronwall_monitor(traj, None, 0.0)

    @pytest.mark.parametrize("alpha", [1e-200, 7.4e-155])
    def test_alpha_minus_two_must_be_finite(self, traj16, alpha):
        # alpha^-2 overflows a double below about 7.5e-155: a ValueError
        # naming alpha, not an OverflowError after the energies are summed
        with pytest.raises(ValueError, match=f"alpha = {alpha}"):
            gronwall_monitor(traj16, traj16, alpha)


class TestH2Terms:
    def test_concentration_slopes_below_bounds(self):
        cfg = LansConfig(grid=TorusGrid(3, 32), alpha=0.5, nu=1.0)
        out = h2_concentration_slopes(cfg)
        assert out["k1_slope"] <= out["k1_bound"] + 0.1
        assert out["l2_slope"] <= out["l2_bound"] + 0.1


class TestSplit:
    def test_exact_and_small_tail(self, grid32, rng):
        w0 = random_solenoidal(grid32, rng, k_min=1.0, k_max=4.0) * 0.001
        scfg = SplitConfig(6.0, 30.0, 1e-3)
        res = split_with_report(w0, scfg)
        low, tail = res.low, res.tail
        assert l2_norm((low + tail) - w0) <= 1e-14 * l2_norm(w0)
        assert res.tail_norm < scfg.epsilon

    def test_scan_is_monotone(self, grid32, rng):
        w0 = random_solenoidal(grid32, rng, k_min=1.0, k_max=8.0)
        scfg = SplitConfig(6.0, 30.0, 1e9)
        res = split_with_report(w0, scfg)
        assert res.tail_norms_scanned[0][0] == 1  # the scan starts at level 1
        norms = [v for _, v in res.tail_norms_scanned]
        assert all(a >= b for a, b in zip(norms, norms[1:]))

    def test_unreachable_tolerance_reports_minimum(self, grid32, rng):
        w0 = random_solenoidal(grid32, rng, k_min=1.0, k_max=8.0)
        scfg = SplitConfig(6.0, 30.0, 1e-30)
        with pytest.raises(SplitError) as err:
            split_with_report(w0, scfg)
        assert err.value.achievable > 0.0
        assert "unreachable" in str(err.value)

    def test_convexity_relation_enforced(self):
        good = SplitConfig(6.0, 30.0, 1e-3)
        assert good.theta == pytest.approx(
            (1.0 / 6.0 - 1.0 / 30.0) / (0.5 - 1.0 / 30.0), rel=1e-12
        )
        with pytest.raises(ValueError):
            SplitConfig(2.0, 30.0, 1e-3)  # needs p > 2


class TestTrace:
    def test_trace_weight_and_finiteness(self, traj16):
        rep = higher_regularity_trace(traj16, 2.5, 1.5)
        assert rep.weight == pytest.approx(0.5)
        assert np.isfinite(rep.sup_value) and rep.sup_value > 0.0

    def test_trace_vanishes_toward_origin(self):
        # refining dt moves the first stored node toward zero; the weighted
        # value there must shrink like sqrt(dt)
        cfg = LansConfig(grid=TorusGrid(3, 16), alpha=0.5, nu=1.0)
        u0 = mk_field(cfg.grid, 1, 2.0)
        coarse = higher_regularity_trace(solve_lans(u0, cfg, 0.02, 0.0025), 2.5, 1.5)
        fine = higher_regularity_trace(solve_lans(u0, cfg, 0.02, 0.000625), 2.5, 1.5)
        assert fine.early_fraction < 0.7 * coarse.early_fraction
        assert fine.early_value == pytest.approx(
            coarse.early_value * 0.5, rel=0.05
        )  # sqrt(1/4) with the same band-limited state
