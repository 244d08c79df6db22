"""Empirical verification of Bernstein, heat-smoothing, product, embedding
and interpolation estimates on dyadic shells.

Every verifier draws a documented saturating ensemble (see ensembles.py),
measures the claimed scaling by a least-squares fit in log-log coordinates,
and reports an ExponentFit.  Predicted exponents are always computed from
the parameter formulas inside the verifier, never hard-coded.  A fit with
r^2 below 0.98, or too few dyadic levels to fit, is reported as
"inconclusive" rather than as a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .ensembles import as_rng, random_band_limited, shell_field
from .littlewood_paley import BesovIndex, build_partition
from .spectral import (
    TorusGrid,
    _ball_band,
    _cut_half,
    _forward_band,
    _irfft,
    forward_transform,
    heat_propagate,
    l2_norm,
    laplacian_power,
    lp_norm,
    sobolev_norm,
)

__all__ = [
    "ExponentFit",
    "HypothesisViolation",
    "verify_bernstein",
    "verify_heat_smoothing",
    "verify_product_estimate",
    "verify_embedding",
    "verify_ladyzhenskaya",
    "MIN_FIT_POINTS",
    "R_SQUARED_FLOOR",
]

MIN_FIT_POINTS = 3
R_SQUARED_FLOOR = 0.98


class HypothesisViolation(ValueError):
    """A verifier was asked to test a parameter set outside the estimate's
    hypotheses; the message names the failed condition."""


@dataclass
class ExponentFit:
    """Outcome of one scaling verification.

    measured_slope / predicted_slope are in log2 coordinates of whatever
    abscissa the case uses (shell index, time, or refinement level);
    max_constant is the largest observed ratio bound/estimate.
    """

    case: str
    measured_slope: float
    predicted_slope: float
    r_squared: float
    max_constant: float
    ensemble_size: int
    status: str = "pass"  # pass | fail | inconclusive
    min_constant: float | None = None
    seed: int | None = None
    params: dict = dc_field(default_factory=dict)
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_report(self) -> dict:
        return {
            "case": self.case,
            "params": self.params,
            "seed": self.seed,
            "measured": {
                "slope": self.measured_slope,
                "r_squared": self.r_squared,
                "max_constant": self.max_constant,
                "min_constant": self.min_constant,
            },
            "predicted": {"slope": self.predicted_slope},
            "ensemble_size": self.ensemble_size,
            "status": self.status,
            "notes": self.notes,
        }


def _fit_loglog(x: np.ndarray, y: np.ndarray) -> tuple:
    """Least-squares line through (x, y); returns (slope, intercept, r^2).

    Degenerate (constant) data counts as a perfect flat fit when the
    residuals vanish too.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2 or np.ptp(x) == 0.0:
        # a single abscissa pins no slope; report a flat non-fit
        return 0.0, float(np.mean(y)) if y.size else 0.0, 0.0
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot < 1e-24:
        r2 = 1.0 if ss_res < 1e-20 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


def _refined(grid: TorusGrid) -> TorusGrid:
    """The same box with twice the points per axis."""
    return replace(grid, points_per_axis=2 * grid.points_per_axis)


def _status(measured, predicted, r2, tol, enough_points=True) -> str:
    if not enough_points or r2 < R_SQUARED_FLOOR:
        return "inconclusive"
    return "pass" if abs(measured - predicted) <= tol else "fail"


def verify_bernstein(
    beta: float,
    p: float,
    q: float,
    grid: TorusGrid,
    seed: int = 0,
    levels: list | None = None,
    per_level: int = 6,
) -> ExponentFit:
    """Measure ||A^(beta/2) g||_q / ||g||_p on single-shell fields of the required grid.

    The two-sided prediction is slope beta + n (1/p - 1/q) in the shell
    index.  Shells are built directly on the lattice (no partition needed,
    no products involved), so levels run up to 2^(j+1) <= N/2.  For q > p
    the ensemble is coherent (bump-like), which is the extremal profile;
    random phases would show no integrability gain at all.
    """
    if p != np.inf and p < 1 or (q != np.inf and q < 1):
        raise ValueError("p, q must lie in [1, inf]")
    if (np.inf if p == np.inf else p) > (np.inf if q == np.inf else q):
        raise HypothesisViolation(f"requires p <= q, got p={p} > q={q}")
    if beta < 0:
        raise HypothesisViolation(f"requires beta >= 0, got beta={beta}")
    rng = as_rng(seed)
    n = grid.dim
    inv_p = 0.0 if p == np.inf else 1.0 / p
    inv_q = 0.0 if q == np.inf else 1.0 / q
    predicted = beta + n * (inv_p - inv_q)
    if levels is None:
        j_top = int(np.log2(grid.points_per_axis)) - 2  # 2^(j_top+1) = N/2
        levels = list(range(2, j_top + 1))
    coherent = inv_q < inv_p

    xs, ys, consts = [], [], []
    for j in levels:
        for _ in range(per_level):
            g = shell_field(grid, j, rng, coherent=coherent)
            num = lp_norm(laplacian_power(g, beta), q)
            den = lp_norm(g, p)
            ratio = num / den
            xs.append(j)
            ys.append(np.log2(ratio))
            consts.append(ratio / 2.0 ** (j * predicted))

    slope, _, r2 = _fit_loglog(xs, ys)
    tol = max(0.05 * abs(predicted), 0.02)
    status = _status(slope, predicted, r2, tol, enough_points=len(levels) >= MIN_FIT_POINTS)
    return ExponentFit(
        case="bernstein",
        measured_slope=slope,
        predicted_slope=predicted,
        r_squared=r2,
        max_constant=float(np.max(consts)),
        min_constant=float(np.min(consts)),
        ensemble_size=len(xs),
        status=status,
        seed=seed,
        params={"beta": beta, "p": p, "q": q, "n_axis": grid.points_per_axis, "levels": list(levels)},
        notes="coherent bump ensemble" if coherent else "random-phase ensemble",
    )


def verify_heat_smoothing(
    s1: float,
    p1: float,
    s2: float,
    p2: float,
    grid: TorusGrid,
    seed: int = 0,
    ensemble: int = 6,
    levels: list | None = None,
) -> ExponentFit:
    """Measure the decay of ||exp(t Lap) f|| in B^(s2)_(p2,2) for rough f
    bounded in B^(s1)_(p1,2), on the required grid.

    Predicted decay exponent: -(s2 - s1 + n/p1 - n/p2)/2.  Each dyadic
    shell at scale 2^j is probed at its own diffusion time t_j = 4^(-j),
    so every sample is the same configuration rescaled and the time ladder
    traces the self-similar envelope directly.  Shell data is coherent when
    the Lebesgue exponent changes (a bump saturates the p gain), random
    phase otherwise.

    Shells must sit inside the partition's exact-unity ball, which caps
    usable levels at j_max - 1; three fit points need a 128^n grid.
    """
    if p1 > p2:
        raise HypothesisViolation(f"requires p1 <= p2, got p1={p1} > p2={p2}")
    if s1 > s2:
        raise HypothesisViolation(f"requires s1 <= s2, got s1={s1} > s2={s2}")
    q = 2.0  # the fine index of both Besov norms
    rng = as_rng(seed)
    n = grid.dim
    part = build_partition(grid)
    predicted = -(s2 - s1 + n / p1 - n / p2) / 2.0
    if levels is None:
        levels = list(range(1, part.j_max))
    for j in levels:
        if 2.0 ** (j + 1) > 2.0**part.j_max:
            raise ValueError(f"shell {j} leaves the partition's exact-unity ball (j_max={part.j_max})")
    coherent = p1 != p2
    idx1 = BesovIndex(s1, p1, q)
    idx2 = BesovIndex(s2, p2, q)
    times = [4.0 ** (-j) for j in levels]
    if not levels:
        return ExponentFit(
            case="heat_smoothing", measured_slope=0.0, predicted_slope=predicted,
            r_squared=0.0, max_constant=0.0, min_constant=0.0, ensemble_size=0,
            status="inconclusive", seed=seed,
            params={"s1": s1, "p1": p1, "s2": s2, "p2": p2, "q": q,
                    "n_axis": grid.points_per_axis, "levels": [], "times": []},
            notes="grid too coarse: no shell fits inside the exact-unity ball",
        )

    per_level = np.zeros((ensemble, len(levels)))
    for e in range(ensemble):
        for i, j in enumerate(levels):
            f = shell_field(grid, j, rng, coherent=coherent)
            ratio = part.besov_norm(heat_propagate(f, times[i]), idx2) / part.besov_norm(f, idx1)
            per_level[e, i] = ratio

    log_t = np.log2(np.asarray(times))
    log_norm = np.log2(np.mean(per_level, axis=0))
    slope, _, r2 = _fit_loglog(log_t, log_norm)
    consts = np.mean(per_level, axis=0) / np.asarray(times) ** predicted
    tol = max(0.10 * abs(predicted), 0.02)
    if predicted == 0.0:
        # no smoothing gain claimed: the ratio must simply stay bounded
        enough = len(levels) >= 2
        spread = float(np.max(consts) / max(np.min(consts), 1e-300))
        status = "pass" if enough and spread < 4.0 else "inconclusive"
        r2 = 1.0
    else:
        status = _status(slope, predicted, r2, tol, enough_points=len(levels) >= MIN_FIT_POINTS)
    return ExponentFit(
        case="heat_smoothing",
        measured_slope=slope,
        predicted_slope=predicted,
        r_squared=r2,
        max_constant=float(np.max(consts)),
        min_constant=float(np.min(consts)),
        ensemble_size=ensemble,
        status=status,
        seed=seed,
        params={"s1": s1, "p1": p1, "s2": s2, "p2": p2, "q": q, "n_axis": grid.points_per_axis,
                "levels": [int(j) for j in levels], "times": list(map(float, times))},
        notes="coherent shell ladder" if coherent else "random-phase shell ladder",
    )


def _product_hypotheses(s1, p1, s2, p2, p, n):
    if not s1 < n / p1:
        raise HypothesisViolation(f"requires s1 < n/p1: s1={s1} >= n/p1={n / p1}")
    if not s2 < n / p2:
        raise HypothesisViolation(f"requires s2 < n/p2: s2={s2} >= n/p2={n / p2}")
    if not s1 + s2 > 0:
        raise HypothesisViolation(f"requires s1 + s2 > 0: s1+s2={s1 + s2} <= 0")
    if 1.0 / p > 1.0 / p1 + 1.0 / p2:
        raise HypothesisViolation(
            f"requires 1/p <= 1/p1 + 1/p2: 1/p={1.0 / p} > {1.0 / p1 + 1.0 / p2}"
        )


def _max_product_ratio(grid, s1, p1, s2, p2, p, q, s, pairs, rng) -> float:
    part = build_partition(grid)
    k_hi = 0.95 * 2.0**part.j_max
    # f and g live on the half cube of their band, the product on the dealias cube
    band = _ball_band(grid, k_hi)
    physical = lambda h: _irfft(_cut_half(h.coeffs, grid, band), grid, band)
    i1, i2, ip = BesovIndex(s1, p1, q), BesovIndex(s2, p2, q), BesovIndex(s, p, q)
    worst = 0.0
    for m in range(pairs):
        coh = m % 2 == 1
        f = random_band_limited(grid, rng, k_min=1.0, k_max=k_hi, coherent=coh)
        g = random_band_limited(grid, rng, k_min=1.0, k_max=k_hi, coherent=coh)
        prod = _forward_band(physical(f) * physical(g), grid, grid.dealias_keep)
        den = part.besov_norm(f, i1) * part.besov_norm(g, i2)
        if den == 0.0:
            continue
        worst = max(worst, part.besov_norm(prod, ip) / den)
    return worst


def verify_product_estimate(
    s1: float,
    p1: float,
    s2: float,
    p2: float,
    p: float,
    grid: TorusGrid,
    seed: int = 0,
    pairs: int = 100,
) -> ExponentFit:
    """Check ||fg||_B^s <= C ||f|| ||g|| with s = s1 + s2 - n(1/p1 + 1/p2 - 1/p),
    every Besov norm with fine index q = 2.

    The hypotheses s1 < n/p1, s2 < n/p2, s1 + s2 > 0 (and the Hoelder
    compatibility 1/p <= 1/p1 + 1/p2) are enforced up front; violations
    raise HypothesisViolation naming the failed condition.  There is no
    sharp constant to compare against, so the check is stability: the
    observed max ratio must grow by less than a factor 2 when the grid is
    refined from the required grid's N to 2N.
    """
    q = 2.0  # the fine index of every Besov norm
    n = grid.dim
    _product_hypotheses(s1, p1, s2, p2, p, n)
    s = s1 + s2 - n * (1.0 / p1 + 1.0 / p2 - 1.0 / p)

    c_coarse = _max_product_ratio(grid, s1, p1, s2, p2, p, q, s, pairs, as_rng(seed))
    c_fine = _max_product_ratio(_refined(grid), s1, p1, s2, p2, p, q, s, pairs, as_rng(seed))
    growth = np.log2(c_fine / c_coarse) if c_coarse > 0 else np.inf
    finite = np.isfinite(c_coarse) and np.isfinite(c_fine)
    # one-sided: a bounded constant may settle downward, it must not double
    status = "pass" if finite and growth < 1.0 else "fail"
    return ExponentFit(
        case="product_estimate",
        measured_slope=float(growth),
        predicted_slope=0.0,
        r_squared=1.0,
        max_constant=float(max(c_coarse, c_fine)),
        min_constant=float(min(c_coarse, c_fine)),
        ensemble_size=pairs,
        status=status,
        seed=seed,
        params={"s1": s1, "p1": p1, "s2": s2, "p2": p2, "p": p, "q": q, "s": s, "n_axis": grid.points_per_axis},
        notes="constant stability under refinement; mixed random/coherent pairs",
    )


def _embedding_ratio_max(grid, case, params, ensemble, rng) -> tuple:
    part = build_partition(grid)
    n = grid.dim
    k_hi = 2.0**part.j_max
    worst, best = 0.0, np.inf
    for m in range(ensemble):
        coh = m % 2 == 1
        f = random_band_limited(grid, rng, k_min=1.0, k_max=k_hi, coherent=coh, decay=1.0)
        if case == "q_monotonicity":
            num = part.besov_norm(f, BesovIndex(params["s"], params["p"], params["q2"]))
            den = part.besov_norm(f, BesovIndex(params["s"], params["p"], params["q1"]))
        elif case == "p_integrability":
            g1 = params["gamma2"] + n * (1.0 / params["p1"] - 1.0 / params["p2"])
            num = part.besov_norm(f, BesovIndex(params["gamma2"], params["p2"], params["q"]))
            den = part.besov_norm(f, BesovIndex(g1, params["p1"], params["q"]))
        elif case == "sobolev_upper":
            num = sobolev_norm(f, params["s"], params["p"], homogeneous=False)
            den = part.besov_norm(f, BesovIndex(params["r"], params["p"], params["q"]))
        elif case == "sobolev_identity":
            num = part.besov_norm(f, BesovIndex(params["s"], 2.0, 2.0))
            den = sobolev_norm(f, params["s"], 2.0, homogeneous=False)
        else:
            raise ValueError(f"unknown embedding case {case!r}")
        if den == 0.0:
            continue
        ratio = num / den
        worst = max(worst, ratio)
        best = min(best, ratio)
    return worst, best


def verify_embedding(
    case: str,
    grid: TorusGrid,
    seed: int = 0,
    ensemble: int = 40,
    **params,
) -> ExponentFit:
    """Check one of the four space-comparison lines on the required grid and its refinement.

    q_monotonicity: bigger q never increases the norm (constant 1 exactly).
    p_integrability: losing n(1/p1 - 1/p2) regularity buys p2 >= p1.
    sobolev_upper: multiplier H^(s,p) norm below the Besov norm one notch up.
    sobolev_identity: B^s_(2,2) and H^(s,2) agree within a fixed factor.
    """
    if case == "q_monotonicity" and params["q1"] > params["q2"]:
        raise HypothesisViolation(f"requires q1 <= q2, got {params['q1']} > {params['q2']}")
    if case == "p_integrability" and params["p1"] > params["p2"]:
        raise HypothesisViolation(f"requires p1 <= p2, got {params['p1']} > {params['p2']}")
    if case == "sobolev_upper" and params["s"] >= params["r"]:
        raise HypothesisViolation(f"requires s < r, got s={params['s']} >= r={params['r']}")

    w_c, b_c = _embedding_ratio_max(grid, case, params, ensemble, as_rng(seed))
    w_f, b_f = _embedding_ratio_max(_refined(grid), case, params, ensemble, as_rng(seed))
    growth = np.log2(w_f / w_c) if w_c > 0 else np.inf

    worst, best = max(w_c, w_f), min(b_c, b_f)
    if case == "q_monotonicity":
        ok = worst <= 1.0 + 1e-12
    elif case == "sobolev_identity":
        ok = 0.25 <= best and worst <= 4.0
    else:
        ok = np.isfinite(worst) and abs(growth) < 1.0
    return ExponentFit(
        case=f"embedding:{case}",
        measured_slope=float(growth),
        predicted_slope=0.0,
        r_squared=1.0,
        max_constant=float(worst),
        min_constant=float(best),
        ensemble_size=ensemble,
        status="pass" if ok else "fail",
        seed=seed,
        params={**params, "n_axis": grid.points_per_axis},
    )


def verify_ladyzhenskaya(
    r1: float,
    r2: float,
    grid: TorusGrid,
    seed: int = 0,
    ensemble: int = 60,
) -> ExponentFit:
    """Interpolation ||f||_(H^r1) <= ||f||_(L2)^(1-r1/r2) ||f||_(H^r2)^(r1/r2)
    with homogeneous multiplier norms on mean-zero fields of the required grid.

    On the lattice this is exactly Hoelder in k-space, so the constant is 1
    and single modes achieve equality; both facts are checked.
    """
    if not 0 < r1 < r2:
        raise HypothesisViolation(f"requires 0 < r1 < r2, got r1={r1}, r2={r2}")
    theta = r1 / r2

    def max_ratio(g: TorusGrid, rng) -> float:
        worst = 0.0
        for _ in range(ensemble):
            f = random_band_limited(g, rng, k_min=1.0, k_max=0.9 * g.k_max, decay=1.0)
            den = l2_norm(f) ** (1.0 - theta) * sobolev_norm(f, r2, homogeneous=True) ** theta
            if den == 0.0:
                continue
            worst = max(worst, sobolev_norm(f, r1, homogeneous=True) / den)
        return worst

    w_c = max_ratio(grid, as_rng(seed))
    w_f = max_ratio(_refined(grid), as_rng(seed))
    growth = np.log2(w_f / w_c) if w_c > 0 else np.inf

    # single-mode equality: all spectral mass on one |k| makes Hoelder tight
    x1 = grid.mesh[0]
    mode = forward_transform(np.cos(4.0 * x1), grid)
    den = l2_norm(mode) ** (1.0 - theta) * sobolev_norm(mode, r2, homogeneous=True) ** theta
    single_mode_ratio = sobolev_norm(mode, r1, homogeneous=True) / den

    ok = max(w_c, w_f) <= 1.0 + 1e-10 and abs(single_mode_ratio - 1.0) <= 1e-12
    return ExponentFit(
        case="ladyzhenskaya",
        measured_slope=float(growth),
        predicted_slope=0.0,
        r_squared=1.0,
        max_constant=float(max(w_c, w_f)),
        min_constant=float(single_mode_ratio),
        ensemble_size=ensemble,
        status="pass" if ok else "fail",
        seed=seed,
        params={"r1": r1, "r2": r2, "theta": theta, "n_axis": grid.points_per_axis},
        notes="exact Hoelder in k-space: constant 1, single modes are equality cases",
    )
