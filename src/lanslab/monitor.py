"""A-priori quantities along trajectories: the energy pair, the structural
cancellations behind it, exponential (Gronwall) bounds, the growth of two
second-level terms on a frequency-concentration family, the rough/smooth
splitting of initial data, and weighted higher-regularity traces.

Constants that the estimates leave unquantified follow a strict
calibrate-once protocol: a constant is fitted on one run, frozen, and only
then used to judge fresh runs.  No monitor both fits and passes on the
same data.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .dynamics import LansConfig, Trajectory, _nonlinear_terms, _weighted_trace, reynolds_stress
from .littlewood_paley import BesovIndex, build_partition
from .spectral import (
    SpectralField,
    forward_transform,
    gradient,
    inverse_transform,
    l2_inner,
    l2_norm,
    laplacian_power,
    leray_project,
    sobolev_norm,
)

__all__ = [
    "EnergyReport",
    "SplitConfig",
    "SplitError",
    "SplitResult",
    "CancellationResiduals",
    "TraceReport",
    "energy_pair",
    "cancellation_check",
    "gronwall_monitor",
    "calibrate_gronwall_constant",
    "h2_concentration_slopes",
    "split_with_report",
    "higher_regularity_trace",
]


@dataclass
class EnergyReport:
    """Per-time energy diagnostics for a trajectory.

    e_pair = ||u||^2_(L2) + alpha^2 ||u||^2_(homog H1); bound_ratio compares
    it against the exponential envelope driven by the background size.
    """

    times: np.ndarray
    e_pair: np.ndarray
    bound_ratio: np.ndarray
    extras: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        for name in ("e_pair", "bound_ratio"):
            arr = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, arr)
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise ValueError(f"{name} must be finite and nonnegative")

    @property
    def max_bound_ratio(self) -> float:
        return float(np.max(self.bound_ratio))

    @property
    def nonincreasing(self) -> bool:
        return bool(np.all(np.diff(self.e_pair) <= 1e-12 * max(self.e_pair[0], 1e-300)))


def energy_pair(u: SpectralField, alpha: float) -> float:
    """||u||^2_(L2) + alpha^2 ||u||^2_(homogeneous H1), both by Parseval."""
    return l2_norm(u) ** 2 + alpha**2 * sobolev_norm(u, 1.0, 2.0, homogeneous=True) ** 2


def _convective(pu: np.ndarray, jac: np.ndarray, grid) -> SpectralField:
    """(u . grad) w from the samples pu of u and jac[i, j] = d_j w_i of w;
    exact pairing for 3K < N data."""
    return forward_transform(np.einsum("j...,ij...->i...", pu, jac), grid)


@dataclass(frozen=True)
class CancellationResiduals:
    """Normalized and raw values of the three structural inner products.

    i1: advection against the field itself; i2: the filter-term pair whose
    two halves cancel after integration by parts; i3: the gradient
    (pressure) component against a solenoidal field.  All three vanish for
    divergence-free data; raw values are trilinear in amplitude.
    """

    i1: float
    i2: float
    i3: float
    raw_i1: float
    raw_i2: float
    raw_i3: float

    @property
    def max_normalized(self) -> float:
        return max(self.i1, self.i2, self.i3)


def cancellation_check(u: SpectralField, alpha: float) -> CancellationResiduals:
    grid = u.grid
    u_norm = l2_norm(u)
    if u_norm == 0.0:
        return CancellationResiduals(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    cfg = LansConfig(grid=grid, alpha=alpha, nu=1.0)
    pu, jac = inverse_transform(u), inverse_transform(gradient(u))  # each transformed once

    conv = _convective(pu, jac, grid)
    raw1 = l2_inner(conv, u)
    den1 = l2_norm(conv) * u_norm
    i1 = abs(raw1) / den1 if den1 > 0 else 0.0

    # filter-level pair: (u.grad)(Lap u) . u plus (Lap u)_i d_j u_i u_j;
    # each half is nonzero, the sum cancels through the divergence condition
    lap_u = SpectralField(grid, -grid.k_squared * u.coeffs)
    t1 = l2_inner(_convective(pu, inverse_transform(gradient(lap_u)), grid), u)
    h = np.einsum("i...,ij...->j...", inverse_transform(lap_u), jac)
    t2 = l2_inner(forward_transform(h, grid), u)
    raw2 = alpha**2 * (t1 + t2)
    den2 = max(abs(t1), abs(t2))
    i2 = abs(t1 + t2) / den2 if den2 > 0 else 0.0

    # gradient component of the full nonlinearity against u
    total = _nonlinear_terms(u, cfg)
    grad_part = total - leray_project(total)
    raw3 = l2_inner(grad_part, u)
    den3 = l2_norm(total) * u_norm
    i3 = abs(raw3) / den3 if den3 > 0 else 0.0

    return CancellationResiduals(i1, i2, i3, raw1, raw2, raw3)


def _check_aligned(u_traj: Trajectory, v_traj: Trajectory | None):
    if v_traj is None:
        return
    if u_traj.grid != v_traj.grid:
        raise ValueError("trajectories live on different grids")
    if len(u_traj) != len(v_traj) or np.max(np.abs(u_traj.times - v_traj.times)) > 1e-9:
        raise ValueError("trajectories use different time grids")


def gronwall_monitor(
    u_traj: Trajectory,
    v_traj: Trajectory | None,
    alpha: float,
    constant: float | None = None,
) -> EnergyReport:
    """Energy pair along u against exp(C alpha^-2 int ||v||_(H^2,2)).

    The background norm uses the inhomogeneous multiplier (1 + |k|^2)
    followed by L^2.  `constant` is the frozen calibrated C; if
    omitted it is fitted on this very run (flagged in extras, such a report
    must not be used as a pass).
    """
    _check_aligned(u_traj, v_traj)
    if alpha <= 0:
        raise ValueError("the exponential bound needs alpha > 0")
    times = u_traj.times
    e = np.array([energy_pair(s, alpha) for s in u_traj])
    integrand = (np.zeros_like(times) if v_traj is None
                 else np.array([sobolev_norm(s, 2.0, 2.0, homogeneous=False) for s in v_traj]))
    # cumulative trapezoid rule, accumulated left to right
    increments = 0.5 * np.diff(times) * (integrand[1:] + integrand[:-1])
    accumulated = np.concatenate(([0.0], np.cumsum(increments)))

    calibrated_here = constant is None
    if calibrated_here:
        constant = _fit_gronwall_constant(e, accumulated, alpha)
    envelope = e[0] * np.exp(constant * alpha**-2 * accumulated)
    ratio = np.where(envelope > 0, e / envelope, 0.0)
    return EnergyReport(
        times=times,
        e_pair=e,
        bound_ratio=ratio,
        extras={
            "constant": float(constant),
            "calibrated_in_place": calibrated_here,
            "accumulated_integral": accumulated,
        },
    )


def _fit_gronwall_constant(e: np.ndarray, accumulated: np.ndarray, alpha: float) -> float:
    """Smallest C with e(t) <= e(0) exp(C alpha^-2 int): the max over times
    of alpha^2 log(e/e0) / int, over times where the energy actually grew."""
    best = 0.0
    for i in range(1, len(e)):
        if e[i] > e[0] and accumulated[i] > 0:
            best = max(best, alpha**2 * np.log(e[i] / e[0]) / accumulated[i])
    return best


def calibrate_gronwall_constant(runs: list, alpha: float) -> float:
    """Fit C over one or more (u_traj, v_traj) calibration runs, then
    inflate by 1.5.  The result is meant to be frozen and reused on fresh
    seeds."""
    best = 0.0
    for u_traj, v_traj in runs:
        best = max(best, gronwall_monitor(u_traj, v_traj, alpha).extras["constant"])
    return 1.5 * best


def _h2_pairing(term: SpectralField, u: SpectralField) -> float:
    """<A g, A u> = sum |k|^4 g.conj(u) * volume; the second-derivative-level
    pairing.  Any gradient component of g drops against solenoidal u, so
    projecting g is optional; we project for numerical hygiene."""
    a_term = laplacian_power(leray_project(term), 2.0)
    a_u = laplacian_power(u, 2.0)
    return l2_inner(a_term, a_u)


def h2_concentration_slopes(cfg: LansConfig) -> dict:
    """Growth of |K1| = |<A (u.grad)u, A u>| and |L2| = |<A 2 div tau(u, v),
    A u>| (_h2_pairing) against the third-derivative norm on a
    frequency-concentration family with the first-order norm held fixed.

    Pure amplitude scaling cannot see the claimed exponents (every term is
    trilinear, slope 3); pushing energy to higher shells at fixed H^1 size
    is what separates the third-derivative exponent from the constant's
    dependence on lower norms.  The claim is an upper bound: measured
    slopes must not exceed 15/8 (for K1) and 1 (for L2).  The seed-0 family
    puts u on shells 2..log2(N) - 2 against a unit-scale background v.
    """
    from .ensembles import as_rng, random_solenoidal, shell_field

    grid = cfg.grid
    rng = as_rng(0)
    levels = list(range(2, int(np.log2(grid.points_per_axis)) - 1))
    v = random_solenoidal(grid, rng, k_min=1.0, k_max=4.0)
    xs, k1s, l2s = [], [], []
    for j in levels:
        u = leray_project(shell_field(grid, j, rng, lead=(grid.dim,)))
        u = u * (1.0 / sobolev_norm(u, 1.0, homogeneous=False))
        k1 = abs(_h2_pairing(_convective(inverse_transform(u), inverse_transform(gradient(u)), grid), u))
        l2 = abs(_h2_pairing(2.0 * reynolds_stress(u, v, cfg), u))
        xs.append(np.log2(sobolev_norm(u, 3.0, homogeneous=True)))
        k1s.append(np.log2(max(k1, 1e-300)))
        l2s.append(np.log2(max(l2, 1e-300)))
    k1_slope = np.polyfit(xs, k1s, 1)[0] if len(xs) >= 2 else 0.0
    l2_slope = np.polyfit(xs, l2s, 1)[0] if len(xs) >= 2 else 0.0
    return {
        "levels": levels,
        "log_h3": xs,
        "k1_slope": float(k1_slope),
        "l2_slope": float(l2_slope),
        "k1_bound": 15.0 / 8.0,
        "l2_bound": 1.0,
    }


class SplitError(RuntimeError):
    """Requested tail smallness is unreachable on this grid; the message
    carries the achievable minimum."""

    def __init__(self, target: float, achievable: float, j_cut: int):
        super().__init__(
            f"tail norm target {target:.3e} unreachable: minimum {achievable:.3e} at cut level {j_cut}"
        )
        self.target = target
        self.achievable = achievable
        self.j_cut = j_cut


@dataclass(frozen=True)
class SplitConfig:
    """Parameters of the rough/smooth frequency splitting."""

    p: float
    p_tilde: float
    epsilon: float
    j_cut: int = 1
    q: float = 2.0

    def __post_init__(self):
        if not (self.p_tilde > self.p > 2.0):
            raise ValueError(f"need p_tilde > p > 2, got p={self.p}, p_tilde={self.p_tilde}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.j_cut < 0:
            raise ValueError("j_cut must be nonnegative")

    @property
    def theta(self) -> float:
        """The interpolation weight pinned by the convexity relation
        3/p = 3 theta/2 + 3(1-theta)/p_tilde, the exponent balance that
        places the recombined space between the two component spaces."""
        return (1.0 / self.p - 1.0 / self.p_tilde) / (0.5 - 1.0 / self.p_tilde)


@dataclass
class SplitResult:
    low: SpectralField
    tail: SpectralField
    j_cut: int
    tail_norm: float
    tail_norms_scanned: list


def split_with_report(w0: SpectralField, scfg: SplitConfig) -> SplitResult:
    """Split w0 = low + tail with a smooth dyadic low-pass at level j_cut,
    raising j_cut until the tail is smaller than epsilon in the
    large-integrability space.  The split is coefficient-exact; a j_cut
    above the partition's top level j_max is a ValueError."""
    part = build_partition(w0.grid)
    if scfg.j_cut > part.j_max:
        raise ValueError(f"j_cut={scfg.j_cut} is above the partition's top level j_max={part.j_max}")
    idx = BesovIndex(3.0 / scfg.p_tilde, scfg.p_tilde, scfg.q)
    scanned = []
    for j in range(scfg.j_cut, part.j_max + 1):
        low = part.s_j(w0, j)
        tail = w0 - low
        tail_norm = part.besov_norm(tail, idx)
        scanned.append((j, tail_norm))
        if tail_norm < scfg.epsilon:
            return SplitResult(low, tail, j, tail_norm, scanned)
    best_j, best = min(scanned, key=lambda it: it[1])
    raise SplitError(scfg.epsilon, best, best_j)


@dataclass
class TraceReport:
    """sup_t t^w ||u(t)||_(B^k) with w = (k - base)/2, plus the early-time
    value used to judge the vanishing-at-zero requirement."""

    times: np.ndarray
    values: np.ndarray
    weight: float
    sup_value: float
    early_value: float

    @property
    def early_fraction(self) -> float:
        return self.early_value / self.sup_value if self.sup_value > 0 else 0.0


def higher_regularity_trace(traj: Trajectory, k: float, base: float, q: float = 2.0) -> TraceReport:
    weight = (k - base) / 2.0
    times, values = _weighted_trace([traj], [], weight, BesovIndex(k, 2.0, q))
    return TraceReport(
        times=times,
        values=values,
        weight=weight,
        sup_value=float(np.max(values)),
        early_value=float(values[0]),
    )
