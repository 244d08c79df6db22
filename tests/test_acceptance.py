"""Acceptance gate: eleven numbered end-to-end checks, one summary line
each, covering the analysis layer, the dynamics layer, and the pipeline.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import numpy as np
import pytest

from lanslab import (
    BesovIndex,
    HypothesisViolation,
    LansConfig,
    MildSolverConfig,
    PicardDivergenceError,
    PipelineConfig,
    TorusGrid,
    as_rng,
    build_partition,
    calibrate_gronwall_constant,
    cancellation_check,
    dealias,
    duhamel_map,
    forward_transform,
    gradient,
    gronwall_monitor,
    higher_regularity_trace,
    inverse_transform,
    l2_norm,
    lans_rhs,
    leray_project,
    mlans_rhs,
    picard_iterate,
    random_band_limited,
    random_solenoidal,
    run_pipeline,
    solve_lans,
    solve_mlans,
    verify_bernstein,
    verify_heat_smoothing,
    verify_product_estimate,
)
from lanslab.dynamics import _weighted_sup


def emit(num, name, ok, detail):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def grid64():
    return TorusGrid(3, 64)


@pytest.fixture(scope="module")
def part64(grid64):
    return build_partition(grid64)


def test_criterion_01_partition(part64):
    unity = part64.unity_defect
    overlap = 0.0
    for j in range(part64.j_max + 1):
        for l in range(j + 2, part64.j_max + 1):
            overlap = max(overlap, float(np.max(part64.multipliers[j] * part64.multipliers[l])))
    ok = unity <= 1e-12 and overlap <= 1e-14
    assert emit(1, "dyadic partition", ok,
                f"unity defect {unity:.2e} <= 1e-12, "
                f"non-adjacent overlap {overlap:.2e} <= 1e-14")


def test_criterion_02_paraproduct(grid64, part64):
    rng = as_rng(0)
    k_hi = 2.0 ** part64.j_max
    worst = 0.0
    for _ in range(50):
        f = random_band_limited(grid64, rng, k_min=0.0, k_max=k_hi, zero_mean=False)
        g = random_band_limited(grid64, rng, k_min=0.0, k_max=k_hi, zero_mean=False)
        product = dealias(forward_transform(
            inverse_transform(f) * inverse_transform(g), grid64))
        resid = part64.paraproduct_split(f, g).total() - product
        worst = max(worst, l2_norm(resid) / l2_norm(product))
    ok = worst <= 1e-10
    assert emit(2, "paraproduct reconstruction", ok,
                f"max relative residual {worst:.2e} <= 1e-10 on 50 pairs")


def test_criterion_03_shell_growth_slopes(grid64):
    cases = [(0.0, 2.0, np.inf), (1.0, 2.0, 2.0), (1.0, 2.0, 4.0)]
    rows, ok = [], True
    for beta, p, q in cases:
        fit = verify_bernstein(beta, p, q, grid=grid64, seed=0)
        good = (
            fit.status == "pass"
            and abs(fit.measured_slope - fit.predicted_slope) <= 0.05 * abs(fit.predicted_slope)
            and fit.r_squared >= 0.98
        )
        ok = ok and good
        rows.append(f"({beta:g},{p:g},{q:g}): {fit.measured_slope:.3f}"
                    f"~{fit.predicted_slope:.3f} r2={fit.r_squared:.4f}")
    assert emit(3, "shell-growth slopes", ok, "; ".join(rows))


def test_criterion_04_heat_smoothing():
    grid = TorusGrid(3, 128)
    cases = [(1.5, 2.0, 2.5, 2.0), (0.5, 2.0, 2.5, 2.0), (0.5, 2.0, 1.5, 6.0)]
    rows, ok = [], True
    for s1, p1, s2, p2 in cases:
        fit = verify_heat_smoothing(s1, p1, s2, p2, grid=grid, seed=0)
        good = (
            fit.status == "pass"
            and abs(fit.measured_slope - fit.predicted_slope) <= 0.10 * abs(fit.predicted_slope)
        )
        ok = ok and good
        rows.append(f"({s1:g},{p1:g})->({s2:g},{p2:g}): {fit.measured_slope:.3f}"
                    f"~{fit.predicted_slope:.3f}")
    assert emit(4, "heat smoothing decay", ok, "; ".join(rows))


def test_criterion_05_product_stability(grid32, grid64):
    admissible = [(1.0, 2.0, 1.0, 2.0, 2.0),
                  (0.5, 2.0, 0.9, 3.0, 2.0),
                  (0.5, 4.0, 0.5, 4.0, 4.0)]
    rows, ok = [], True
    for s1, p1, s2, p2, p in admissible:
        coarse = verify_product_estimate(s1, p1, s2, p2, p, grid=grid32, seed=0, pairs=16)
        fine = verify_product_estimate(s1, p1, s2, p2, p, grid=grid64, seed=0, pairs=16)
        growth = fine.max_constant / coarse.max_constant
        ok = ok and growth < 2.0
        rows.append(f"({s1:g},{p1:g},{s2:g},{p2:g};{p:g}): x{growth:.3f}")

    rejects = [
        ((2.0, 2.0, 1.0, 2.0, 2.0), "s1 < n/p1"),
        ((-1.0, 2.0, 0.5, 2.0, 2.0), "s1 + s2 > 0"),
        ((0.5, 4.0, 0.5, 4.0, 1.0), "1/p <= 1/p1 + 1/p2"),
    ]
    for params, needle in rejects:
        with pytest.raises(HypothesisViolation) as err:
            verify_product_estimate(*params, grid=grid32, seed=0, pairs=2)
        ok = ok and needle in str(err.value)
    assert emit(5, "product estimate stability", ok,
                "; ".join(rows) + "; 3 inadmissible sets rejected by name")


def test_criterion_06_cancellations(grid32):
    rng = as_rng(0)
    worst = 0.0
    for _ in range(20):
        u = random_solenoidal(grid32, rng, k_min=1.0, k_max=8.0)
        worst = max(worst, cancellation_check(u, alpha=0.2).max_normalized)
    u = random_solenoidal(grid32, rng, k_min=1.0, k_max=8.0)
    u = u * (1.0 / l2_norm(u))
    spoiler = gradient(forward_transform(np.sin(grid32.mesh[0]), grid32))
    control = cancellation_check(u + spoiler * (1.0 / l2_norm(spoiler)), alpha=0.2).max_normalized
    ok = worst <= 1e-10 and control > 1e-3
    assert emit(6, "structural cancellations", ok,
                f"max over 20 fields {worst:.2e} <= 1e-10, "
                f"divergence-injected control {control:.2e} > 1e-3")


def test_criterion_07_perturbation_consistency(grid16):
    cfg = LansConfig(grid=grid16, alpha=0.1, nu=1.0)
    rng = as_rng(0)
    worst = 0.0
    for _ in range(20):
        u = random_solenoidal(grid16, rng, k_min=1.0, k_max=4.0)
        v = random_solenoidal(grid16, rng, k_min=1.0, k_max=4.0)
        lhs = lans_rhs(u + v, cfg)
        rhs = mlans_rhs(u, v, cfg) + lans_rhs(v, cfg)
        worst = max(worst, l2_norm(lhs - rhs) / l2_norm(lhs))
    ok = worst <= 1e-11
    assert emit(7, "perturbation-equation consistency", ok,
                f"max relative defect {worst:.2e} <= 1e-11 on 20 pairs")


def test_criterion_08_small_data_contraction():
    # short box so the data lives at high absolute wavenumber: the most
    # contraction-hostile regime the solver resolves
    grid = TorusGrid(3, 32, box_length=2.0 * np.pi / 32.0)
    part = build_partition(grid)
    cfg = LansConfig(grid=grid, alpha=0.1, nu=1e-3)
    mcfg = MildSolverConfig(
        t_end=0.05, dt=0.05 / 8.0,
        weight_index=BesovIndex(2.5, 2.0, 2.0),  # the weight (s - 3/2)/2 is 1/2
        picard_tol=1e-9, picard_max_iters=40, contraction_target=0.01,
    )
    rng = as_rng(0)
    base = leray_project(dealias(random_band_limited(
        grid, rng, 32.0, 128.0, coherent=True, lead=(3,))))
    small_norm = part.besov_norm(base, BesovIndex(1.5, 2.0, 2.0))

    u0 = base * (1e-2 / small_norm)
    traj, hist = picard_iterate(u0, None, cfg, mcfg)
    ratios = [h.ratio for h in hist if h.ratio is not None]
    residual = _weighted_sup([duhamel_map(traj, u0, cfg, mcfg, None)], [traj], 0.5, mcfg.weight_index)

    with pytest.raises(PicardDivergenceError) as err:
        picard_iterate(u0 * 100.0, None, cfg, mcfg)

    ok = max(ratios) <= 0.5 and residual < 1e-8 and err.value.last_ratio > 0.01
    assert emit(8, "small-data contraction", ok,
                f"ratios <= {max(ratios):.2e} (target 0.5), residual {residual:.2e} < 1e-8, "
                f"100x control diverges at ratio {err.value.last_ratio:.2e}")


def test_criterion_09_energy_envelope():
    def band(grid, seed, scale, k_max=4.0):
        u0 = random_solenoidal(grid, np.random.default_rng(seed), k_min=1.0, k_max=k_max)
        return u0 * (scale / l2_norm(u0))

    quiet = LansConfig(grid=TorusGrid(3, 16), alpha=0.5, nu=1.0)
    mono = True
    for seed in range(3):
        traj = solve_lans(band(quiet.grid, seed, 2.0), quiet, 0.02, 0.0025)
        mono = mono and gronwall_monitor(traj, None, quiet.alpha).nonincreasing

    stirred = LansConfig(grid=TorusGrid(3, 16), alpha=0.5, nu=0.005)

    def pair(seed):
        v = solve_lans(band(stirred.grid, 100 + seed, 20.0), stirred, 0.1, 0.00125)
        u = solve_mlans(band(stirred.grid, seed, 1.0), v, stirred, 0.1, 0.00125)
        return u, v

    frozen = calibrate_gronwall_constant([pair(s) for s in (1, 2)], stirred.alpha)
    rep = gronwall_monitor(*pair(3), stirred.alpha, constant=frozen)
    grew = rep.e_pair.max() / rep.e_pair[0]
    ok = mono and grew > 1.01 and rep.max_bound_ratio <= 1.01
    assert emit(9, "energy envelope", ok,
                f"undriven runs nonincreasing: {mono}; fresh-seed growth x{grew:.3f} "
                f"under frozen envelope, bound ratio {rep.max_bound_ratio:.4f} <= 1.01")


def test_criterion_10_split_solve_recombine():
    rep = run_pipeline(PipelineConfig())  # n=32, p=6, horizon 0.05
    ok = rep.passed and rep.discrepancy <= 10.0 * rep.self_error + 1e-16
    assert emit(10, "split-solve-recombine", ok,
                f"status {rep.status}, discrepancy {rep.discrepancy:.2e} <= "
                f"10 x self-error {rep.self_error:.2e}")


def test_criterion_11_regularization_trace(grid32):
    cfg = LansConfig(grid=grid32, alpha=0.5, nu=1.0)
    part = build_partition(grid32)
    idx = BesovIndex(1.5, 2.0, 2.0)
    rng = as_rng(11)
    v0 = random_solenoidal(grid32, rng, k_min=1.0, k_max=4.0)
    u0 = random_solenoidal(grid32, rng, k_min=1.0, k_max=4.0)
    v0 = v0 * (0.5 / part.besov_norm(v0, idx))
    u0 = u0 * (0.5 / part.besov_norm(u0, idx))

    def trace(dt):
        v = solve_lans(v0, cfg, 0.02, dt)
        u = solve_mlans(u0, v, cfg, 0.02, dt)
        return higher_regularity_trace(u, 2.5, 1.5)

    coarse, fine = trace(0.0025), trace(0.000625)
    stable = abs(fine.sup_value - coarse.sup_value) <= 0.1 * coarse.sup_value
    vanishing = fine.early_value < 0.7 * coarse.early_value
    ok = (np.isfinite(coarse.values).all() and np.isfinite(fine.values).all()
          and stable and vanishing)
    assert emit(11, "short-time regularization trace", ok,
                f"sup {coarse.sup_value:.4f}->{fine.sup_value:.4f} under dt/4 "
                f"(stable: {stable}), first-node weighted value "
                f"{coarse.early_value:.2e}->{fine.early_value:.2e} (vanishing: {vanishing})")
