"""Filtered Navier-Stokes dynamics on the torus: right-hand sides, heat
semigroup, Duhamel fixed-point iteration, and an exponential time marcher.

Two vector fields are implemented.  lans_rhs is the filtered equation for w:

    d_t w = nu*Lap(w) - P[div(w (x) w) + div tau(w, w)]

with tau the filtered stress (alpha^2/2)(1 - alpha^2 Lap)^(-1) applied to
symmetrized Def*Rot matrix products.  mlans_rhs is the equation satisfied
by a perturbation u riding on a known background trajectory v: it carries
the u-self terms and the u-v cross terms but no pure v-v terms, so that

    lans_rhs(u + v) = mlans_rhs(u, v) + lans_rhs(v)

holds exactly at the discrete level.  Pressure never appears: every
nonlinear term is Leray-projected, which removes exactly the gradient
component.

The nonlinearity kernel (_flux, reynolds_stress, nonlinear_rhs) works on
the 2/3-rule dealias cube |m_i| <= K = grid.dealias_keep, m_last >= 0.
Like every reader of the coefficient contract in spectral it reads only
the half lattice of each input.  When every input of a call lies in the
dealias cube (a slab test on the half lattice), its inverse transforms
read only that half cube; otherwise they read the whole half lattice, so
any input gives the full-lattice operators' result.  The products' forward
transforms make only the dealias half cube, which is all the dealias mask
keeps, and the gradient, Helmholtz-inverse, divergence and Leray
multipliers act there on arrays built once per grid (spectral._HalfCube).
Each returned field is completed to the full lattice once, so it is
exactly Hermitian.  A self term makes 27 real scalar transforms and a
call with a background 48 (u's Jacobian is transformed once per call);
pruned (Sorensen & Burrus 1993), at 16^3 they cost the FFT lines of 20.7
and 36.9 unpruned ones.

A Trajectory stacks its states into one coefficient array, and all norms
of trajectories are weighted Besov sups of the form sup_t t^a ||u(t)||,
taken node by node over that array.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .littlewood_paley import BesovIndex, build_partition
from .spectral import (
    GridMismatchError,
    SpectralField,
    TorusGrid,
    _check_same_grid,
    _complete,
    _contract,
    _cut_half,
    _frozen,
    _half_cube,
    _in_band,
    _irfft,
    _leray,
    _rfft,
    dealias,
    heat_propagate,
    leray_project,
    require_solenoidal,
)

__all__ = [
    "LansConfig",
    "MildSolverConfig",
    "Trajectory",
    "IterationState",
    "PicardDivergenceError",
    "SolverBlowupError",
    "reynolds_stress",
    "lans_rhs",
    "mlans_rhs",
    "nonlinear_rhs",
    "heat_propagate",
    "duhamel_map",
    "picard_iterate",
    "solve_lans",
    "solve_mlans",
    "weighted_norm",
]


class PicardDivergenceError(RuntimeError):
    """Fixed-point iteration failed to contract.

    Signals that the horizon is too large for the data size.  Carries the
    last observed contraction ratio and the per-iterate history.
    """

    def __init__(self, message: str, last_ratio: float, history: list):
        super().__init__(f"{message} (last contraction ratio {last_ratio:.3g})")
        self.last_ratio = last_ratio
        self.history = history


class SolverBlowupError(RuntimeError):
    """Time marcher produced a non-finite state; carries the step index."""

    def __init__(self, step: int, time: float):
        super().__init__(f"non-finite state at step {step}, t = {time:.6g}")
        self.step = step
        self.time = time


@dataclass(frozen=True)
class LansConfig:
    """Physical parameters: filter width alpha >= 0 and viscosity nu > 0.

    alpha = 0 switches the stress off and leaves plain Navier-Stokes.
    """

    grid: TorusGrid
    alpha: float = 0.1
    nu: float = 1.0

    def __post_init__(self):
        if not 0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not 0 < self.nu < np.inf:
            raise ValueError(f"nu must be finite and > 0, got {self.nu}")


@dataclass(frozen=True)
class MildSolverConfig:
    """Discretization and stopping control for the Duhamel fixed point.

    weight_a and weight_index define the iteration metric
    sup_t t^weight_a * besov_norm(. , weight_index).  When
    enforce_weight_relation is set, weight_a must equal
    (weight_index.s - dim/2)/2, the scaling-critical choice for data one
    derivative class below weight_index.s.
    """

    t_end: float
    dt: float
    weight_index: BesovIndex
    weight_a: float = 0.0
    picard_tol: float = 1e-9
    picard_max_iters: int = 40
    contraction_target: float = 0.5
    enforce_weight_relation: bool = False

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.picard_tol <= 0:
            raise ValueError("picard_tol must be positive")
        if self.weight_a < 0:
            raise ValueError("weight_a must be nonnegative")
        if self.contraction_target <= 0:
            raise ValueError("contraction_target must be positive")

    def validate_weight_relation(self, dim: int):
        expected = (self.weight_index.s - dim / 2.0) / 2.0
        if abs(self.weight_a - expected) > 1e-12:
            raise ValueError(
                f"weight_a = {self.weight_a} inconsistent with "
                f"(s - n/2)/2 = {expected} for s = {self.weight_index.s}, n = {dim}"
            )

    def time_nodes(self) -> np.ndarray:
        return _time_nodes(self.t_end, self.dt)


def _time_nodes(t_end: float, dt: float) -> np.ndarray:
    """Equispaced nodes 0, dt, ..., t_end; t_end must be a multiple of dt > 0."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not 0 < t_end < np.inf:
        raise ValueError(f"t_end must be finite and > 0, got {t_end}")
    steps = int(round(t_end / dt))
    if steps < 1 or abs(steps * dt - t_end) > 1e-9 * t_end:
        raise ValueError(f"t_end = {t_end} is not an integer multiple of dt = {dt}")
    return dt * np.arange(steps + 1)


class Trajectory:
    """Time-ordered divergence-free states with their production settings.

    The states are stacked into one array, coeffs, of shape
    (T,) + lead_shape + grid.shape; all of them must live on one grid.
    traj[i] is a SpectralField view of node i that shares memory with
    coeffs, and iterating a trajectory yields its nodes in time order.
    """

    def __init__(self, times, states, equation: str = "lans", config: LansConfig | None = None):
        if len(states) == 0:
            raise ValueError("empty trajectory")
        for state in states[1:]:
            _check_same_grid(states[0], state)
        self._init(times, states[0].grid, np.stack([state.coeffs for state in states]), equation, config)

    @classmethod
    def _adopt(cls, times, grid: TorusGrid, coeffs: np.ndarray, equation: str, config) -> "Trajectory":
        """A trajectory that owns coeffs, shape (T,) + lead + grid.shape, without copying it."""
        traj = cls.__new__(cls)
        traj._init(times, grid, coeffs, equation, config)
        return traj

    def _init(self, times, grid, coeffs, equation, config):
        self.times = np.asarray(times, dtype=float)
        if len(self.times) != len(coeffs):
            raise ValueError("times and states must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        self.grid, self.coeffs, self.equation, self.config = grid, coeffs, equation, config

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, i) -> SpectralField:
        return SpectralField(self.grid, self.coeffs[operator.index(i)])

    def __iter__(self):
        return (SpectralField(self.grid, c) for c in self.coeffs)

    @property
    def final(self) -> SpectralField:
        return self[-1]

    def node_index(self, t: float) -> int:
        """Index of the stored node nearest t; raises unless it matches t."""
        i = int(np.searchsorted(self.times, t))
        if i == len(self.times) or (i > 0 and t - self.times[i - 1] <= self.times[i] - t):
            i -= 1
        if not abs(self.times[i] - t) <= 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"time {t} is not a stored node of this trajectory")
        return i

    def state_at(self, t: float) -> SpectralField:
        return self[self.node_index(t)]

    def max_relative_divergence(self) -> float:
        from .spectral import relative_divergence

        return max(relative_divergence(s) for s in self)


@dataclass
class IterationState:
    """One Duhamel iterate: weighted-norm step size and its ratio to the
    previous one; its place in the history is its index."""

    delta_norm: float
    ratio: float | None = None


class _KernelInput(SpectralField):
    """A field for the span of one kernel call, with the band its inverse
    transforms run on: the dealias band K when every input of the call lies
    in the dealias cube, else N/2, the half lattice.  Its half cube is made
    on first use; its Def/Rot parts are kept in shared_parts only where
    two stress calls read them."""

    def __init__(self, field: SpectralField, band: int):
        super().__init__(field.grid, field.coeffs)
        self.band = band
        self.shared_parts = None

    @cached_property
    def half(self) -> np.ndarray:
        return _cut_half(self.coeffs, self.grid, self.band)

    def jacobian_parts(self) -> tuple:
        """Physical Def = (J + J^T)/2 and Rot = (J - J^T)/2, J[i, j] = d_j f_i."""
        if self.shared_parts is not None:
            return self.shared_parts
        wavenumbers = _half_cube(self.grid, self.band).wavenumbers
        jac = _irfft(np.stack([self.half * (1j * k) for k in wavenumbers], axis=1), self.grid, self.band)
        jac_t = np.swapaxes(jac, 0, 1)
        d, r = jac + jac_t, jac - jac_t
        d *= 0.5
        r *= 0.5
        return d, r


def _kernel_inputs(u: SpectralField, v: SpectralField | None) -> tuple:
    """(u, v) as _KernelInputs of one band; v = None stays None and v = u
    stays u.  The band test reads the slabs outside the dealias cube once."""
    grid = u.grid
    fields = [u] if v is None or v is u else [u, v]
    band = grid.dealias_keep
    if not all(_in_band(f.coeffs, grid, band) for f in fields):
        band = grid.points_per_axis // 2
    ku = _KernelInput(u, band)
    return ku, (None if v is None else ku if v is u else _KernelInput(v, band))


def _flux_half(grid: TorusGrid, cu: np.ndarray, cw: np.ndarray | None, band: int) -> np.ndarray:
    """Dealias half-cube coefficients of div of the dealiased symmetric
    product (u (x) w + w (x) u)/2, given the half cubes of band of u and w;
    cw = None means w = u, transformed once.  Only the dim(dim+1)/2
    distinct entries of the symmetric tensor are transformed."""
    pu = _irfft(cu, grid, band)
    pw = pu if cw is None else _irfft(cw, grid, band)
    pairs = [(i, j) for i in range(grid.dim) for j in range(i, grid.dim)]
    if cw is None:
        tens = np.stack([pu[i] * pu[j] for i, j in pairs])
    else:
        tens = np.stack([0.5 * (pu[i] * pw[j] + pw[i] * pu[j]) for i, j in pairs])
    entries = _rfft(tens, grid, grid.dealias_keep)
    sym = {(i, j): entries[e] for e, (i, j) in enumerate(pairs)}
    rows = [[sym[min(i, j), max(i, j)] for j in range(grid.dim)] for i in range(grid.dim)]
    return _divergence_half(rows, grid)


def _divergence_half(rows, grid: TorusGrid) -> np.ndarray:
    """(div T)_i = sum_j i k_j T[i][j] on the dealias half cube, T given by rows."""
    wavenumbers = _half_cube(grid, grid.dealias_keep).wavenumbers
    out = np.empty((len(rows),) + rows[0][0].shape, dtype=np.complex128)
    for i, row in enumerate(rows):
        out[i] = _contract(row, wavenumbers)
    return out


def _flux(u: SpectralField, w: SpectralField) -> SpectralField:
    """div of the dealiased symmetric product (u (x) w + w (x) u)/2, which
    is ((w.grad)u + (u.grad)w)/2 for solenoidal fields.  Symmetric in
    (u, w); when w is u, u is transformed once."""
    _check_same_grid(u, w)
    u, w = _kernel_inputs(u, w)
    half = _flux_half(u.grid, u.half, None if w is u else w.half, u.band)
    return SpectralField(u.grid, _complete(half, u.grid, u.grid.dealias_keep))


@lru_cache(maxsize=8)
def _stress_multiplier(grid: TorusGrid, alpha: float) -> np.ndarray:
    """Helmholtz inverse times alpha^2/2 on the dealias half cube, shared per (grid, alpha)."""
    return _frozen(0.5 * alpha**2 / (1.0 + alpha**2 * _half_cube(grid, grid.dealias_keep).k_squared))


def reynolds_stress(f: SpectralField, g: SpectralField, cfg: LansConfig) -> SpectralField:
    """Divergence of the filtered stress tensor of the pair (f, g).

    Stress = (alpha^2/2) (1 - alpha^2 Lap)^(-1) [Def(f) Rot(g) + Def(g) Rot(f)]
    with pointwise matrix products; the result is div of that tensor,
    dealiased.  Symmetric in (f, g); identically zero for alpha = 0.  Each
    distinct argument costs one inverse transform of its Jacobian, pruned
    to the dealias cube when both arguments lie in it; the tensor's forward
    transform and the multipliers run on the dealias half cube, and the
    result is completed to the full lattice.
    """
    grid = cfg.grid
    if f.grid != grid or g.grid != grid:
        raise ValueError("fields must live on the configured grid")
    if cfg.alpha == 0.0:
        return SpectralField(grid, np.zeros((grid.dim,) + grid.shape, dtype=np.complex128))
    if not (isinstance(f, _KernelInput) and isinstance(g, _KernelInput)):
        f, g = _kernel_inputs(f, g)
    d_f, r_f = f.jacobian_parts()
    if g is f:
        prod = np.einsum("im...,mj...->ij...", d_f, r_f)
        prod += prod
    else:
        d_g, r_g = g.jacobian_parts()
        prod = np.einsum("im...,mj...->ij...", d_f, r_g) + np.einsum("im...,mj...->ij...", d_g, r_f)
        del d_g, r_g
    del d_f, r_f  # parts that no later call shares are freed before the forward transform
    band = grid.dealias_keep
    stress = _rfft(prod, grid, band) * _stress_multiplier(grid, cfg.alpha)
    return SpectralField(grid, _complete(_divergence_half(stress, grid), grid, band))


def _viscous(u: SpectralField, cfg: LansConfig) -> SpectralField:
    return SpectralField(u.grid, -cfg.nu * u.grid.k_squared * u.coeffs)


def _nonlinear_half(u: SpectralField, cfg: LansConfig, v: SpectralField | None = None) -> np.ndarray:
    """Dealias half-cube coefficients of _nonlinear_terms."""
    grid = u.grid
    if v is not None:
        _check_same_grid(u, v)
    u, v = _kernel_inputs(u, v)

    def stress(f, g):
        return _cut_half(reynolds_stress(f, g, cfg).coeffs, grid, grid.dealias_keep)

    if v is None:
        return _flux_half(grid, u.half, None, u.band) + stress(u, u)
    flux = _flux_half(grid, u.half, u.half + 2.0 * v.half, u.band)
    if cfg.alpha != 0.0:
        u.shared_parts = u.jacobian_parts()
    return flux + stress(u, u) + 2.0 * stress(u, v)


def _nonlinear_terms(u: SpectralField, cfg: LansConfig) -> SpectralField:
    """Unprojected self terms div(u(x)u) + div tau(u,u) on the dealias
    band; nonlinear_rhs(u, cfg) is minus their Leray projection."""
    return SpectralField(u.grid, _complete(_nonlinear_half(u, cfg), u.grid, u.grid.dealias_keep))


def nonlinear_rhs(u: SpectralField, cfg: LansConfig, v: SpectralField | None = None) -> SpectralField:
    """Projected nonlinear terms, sign convention d_t u = nu*Lap u + N(u[, v]).

    v = None gives the self-contained field: -P[div(u(x)u) + div tau(u,u)].
    With a background v the u-v cross terms are added:
    -P[div(u(x)u + u(x)v + v(x)u) + div tau(u,u) + 2 div tau(u,v)].
    No pure v-v terms appear in either case.  The terms are summed and
    projected on the dealias half cube and completed to the full lattice
    once.
    """
    band = u.grid.dealias_keep
    projected = _leray(_nonlinear_half(u, cfg, v), u.grid, band)
    return SpectralField(u.grid, _complete(-projected, u.grid, band))


def lans_rhs(w: SpectralField, cfg: LansConfig) -> SpectralField:
    """Full filtered right-hand side nu*Lap w - P[div(w(x)w) + div tau(w,w)]."""
    require_solenoidal(w)
    w = dealias(w)
    return _viscous(w, cfg) + nonlinear_rhs(w, cfg)


def mlans_rhs(u: SpectralField, v: SpectralField, cfg: LansConfig) -> SpectralField:
    """Right-hand side for the perturbation u over the background v.

    Contains u-self and u-v cross terms only, so that adding lans_rhs(v)
    reproduces lans_rhs(u + v) exactly.
    """
    require_solenoidal(u)
    require_solenoidal(v)
    u = dealias(u)
    v = dealias(v)
    return _viscous(u, cfg) + nonlinear_rhs(u, cfg, v)


def _require_grid(u0: SpectralField, cfg: LansConfig):
    if u0.grid != cfg.grid:
        raise GridMismatchError("initial data and configuration live on different grids")


def _background_states(v_traj: Trajectory | None, times: np.ndarray, grid: TorusGrid) -> list:
    if v_traj is None:
        return [None] * len(times)
    if v_traj.grid != grid:
        raise ValueError("background trajectory lives on a different grid")
    return [v_traj.state_at(t) for t in times]


def duhamel_map(
    traj: Trajectory,
    u0: SpectralField,
    cfg: LansConfig,
    mcfg: MildSolverConfig,
    v_traj: Trajectory | None = None,
) -> Trajectory:
    """One application of the mild-solution map

        Phi(u)(t) = exp(nu t Lap) u0 + int_0^t exp(nu (t-s) Lap) N(u(s)) ds

    on the trajectory's time grid.  The integral uses the composite
    trapezoid rule with the semigroup factor applied exactly per node via
    the recurrence I_i = E I_(i-1) + increment, E = one-step semigroup;
    the heat flow of u0 follows the same recurrence, H_i = E H_(i-1).
    """
    _require_grid(u0, cfg)
    grid = cfg.grid
    times = traj.times
    dt = float(times[1] - times[0])
    v_states = _background_states(v_traj, times, grid)
    step_mult = np.exp(-cfg.nu * dt * grid.k_squared)

    n_fields = [nonlinear_rhs(u, cfg, v) for u, v in zip(traj, v_states)]
    coeffs = np.empty((len(times),) + u0.coeffs.shape, dtype=np.complex128)
    if times[0] > 0:
        coeffs[0] = heat = heat_propagate(u0, times[0], cfg.nu).coeffs
    else:
        heat, coeffs[0] = u0.coeffs, dealias(u0).coeffs
    integral = np.zeros_like(u0.coeffs)
    for i in range(1, len(times)):
        integral = step_mult * (integral + 0.5 * dt * n_fields[i - 1].coeffs) + 0.5 * dt * n_fields[i].coeffs
        heat = step_mult * heat
        coeffs[i] = heat + integral
    return Trajectory._adopt(times, grid, coeffs, traj.equation, cfg)


def _weighted_trace(times, coeffs, a: float, index: BesovIndex, grid: TorusGrid) -> tuple:
    """(times, t^a * besov_norm) over the nodes, given one coefficient array
    per node on the grid.  The t = 0 node is skipped when a > 0 and has
    weight 1 otherwise."""
    part = build_partition(grid)
    ts, values = [], []
    for t, c in zip(times, coeffs):
        if t == 0.0 and a > 0:
            continue
        ts.append(t)
        values.append((1.0 if t == 0.0 else t**a) * part.besov_norm(SpectralField(grid, c), index))
    return np.asarray(ts, dtype=float), np.asarray(values, dtype=float)


def _weighted_sup(times, coeffs, a: float, index: BesovIndex, grid: TorusGrid) -> float:
    """sup_t t^a * besov_norm over the nodes, 0.0 when none counts."""
    return float(np.max(_weighted_trace(times, coeffs, a, index, grid)[1], initial=0.0))


def weighted_norm(traj: Trajectory, a: float, index: BesovIndex) -> float:
    """sup over stored nodes of t^a * besov_norm(u(t)); the t = 0 node
    participates only when a = 0."""
    return _weighted_sup(traj.times, traj.coeffs, a, index, traj.grid)


def picard_iterate(
    u0: SpectralField,
    v_traj: Trajectory | None,
    cfg: LansConfig,
    mcfg: MildSolverConfig,
) -> tuple:
    """Iterate the Duhamel map from the pure heat flow of u0.

    Returns (trajectory, history).  history[m].delta_norm is the weighted
    distance between iterates m and m+1; since the returned trajectory is
    the image of the last iterate, the final delta_norm is also its
    predecessor's fixed-point residual.

    Convergence is certified, not just observed: once two distances are
    available their ratio must stay at or below mcfg.contraction_target
    (ratios measured at the picard_tol floor are roundoff noise and are
    exempt).  A ratio above the target, a blow-up, or an exhausted
    iteration budget raises PicardDivergenceError carrying the last ratio
    and the full history; the usual cure is a shorter horizon or smaller
    data, since the certified factor scales linearly with the data size.
    """
    grid = cfg.grid
    require_solenoidal(u0)
    if mcfg.enforce_weight_relation:
        mcfg.validate_weight_relation(grid.dim)
    u0 = leray_project(dealias(u0))
    times = mcfg.time_nodes()

    current = Trajectory(
        times,
        [heat_propagate(u0, t, cfg.nu) for t in times],
        equation="mlans" if v_traj is not None else "lans",
        config=cfg,
    )
    history: list = []
    prev_delta = None
    for m in range(1, mcfg.picard_max_iters + 1):
        image = duhamel_map(current, u0, cfg, mcfg, v_traj)
        delta = _weighted_distance(image, current, mcfg)
        ratio = None if prev_delta in (None, 0.0) else delta / prev_delta
        history.append(IterationState(delta_norm=delta, ratio=ratio))
        if not np.isfinite(delta):
            raise PicardDivergenceError("iterate norm is not finite", np.inf, history)
        if delta < mcfg.picard_tol:
            return image, history
        if ratio is not None and delta >= 10.0 * mcfg.picard_tol and ratio > mcfg.contraction_target:
            raise PicardDivergenceError(
                "contraction ratio exceeds the configured target; "
                "shrink the horizon or the data",
                ratio,
                history,
            )
        first_delta = history[0].delta_norm
        if delta > 1e6 * max(first_delta, mcfg.picard_tol):
            raise PicardDivergenceError("iterates are blowing up", ratio if ratio else np.inf, history)
        if m >= 3 and all(h.ratio is not None and h.ratio >= 1.0 for h in history[-2:]) and delta > first_delta:
            raise PicardDivergenceError("no contraction", history[-1].ratio, history)
        current = image
        prev_delta = delta
    raise PicardDivergenceError(
        f"no convergence within {mcfg.picard_max_iters} iterations",
        history[-1].ratio if history[-1].ratio is not None else np.inf,
        history,
    )


def _weighted_distance(a: Trajectory, b: Trajectory, mcfg: MildSolverConfig) -> float:
    gaps = (x - y for x, y in zip(a.coeffs, b.coeffs))
    return _weighted_sup(a.times, gaps, mcfg.weight_a, mcfg.weight_index, a.grid)


_PHI2_TAYLOR = 1.0 / np.array([math.factorial(n + 2) for n in range(18)], dtype=float)


def _phi_factors(z: np.ndarray) -> tuple:
    """(exp(z), phi1(z), phi2(z)) with phi1 = (e^z - 1)/z, phi2 = (e^z - 1 - z)/z^2, z <= 0.

    phi1 is expm1(z)/z, accurate wherever z != 0.  phi2's closed form
    amplifies roundoff by about 2/|z| through cancellation, so below
    |z| = 1 it is the Taylor series sum_n z^n/(n+2)!, n < 18, whose
    truncation error there is below 1e-17 (Kassam & Trefethen, SIAM J. Sci.
    Comput. 26, 2005).
    """
    e = np.exp(z)
    zs = np.where(z == 0.0, 1.0, z)  # placeholder to keep divisions defined
    phi1 = np.where(z == 0.0, 1.0, np.expm1(z) / zs)
    series = np.zeros_like(z)
    for c in _PHI2_TAYLOR[::-1]:
        series = series * z + c
    phi2 = np.where(np.abs(z) < 1.0, series, (np.expm1(z) - z) / zs**2)
    return e, phi1, phi2


def _march(
    u0: SpectralField,
    cfg: LansConfig,
    t_end: float,
    dt: float,
    v_traj: Trajectory | None,
    nonlinear: bool,
    equation: str,
) -> Trajectory:
    _require_grid(u0, cfg)
    grid = cfg.grid
    require_solenoidal(u0)
    times = _time_nodes(t_end, dt)
    steps = len(times) - 1
    v_states = _background_states(v_traj, times, grid)

    z = -cfg.nu * dt * grid.k_squared
    e_dt, phi1, phi2 = _phi_factors(z)

    # rows are filled as the march advances and u is a view of the newest,
    # so the states held at any step are those the march has produced
    coeffs = np.empty((len(times),) + u0.coeffs.shape, dtype=np.complex128)
    coeffs[0] = leray_project(dealias(u0)).coeffs
    u = SpectralField(grid, coeffs[0])
    for i in range(steps):
        if nonlinear:
            n_u = nonlinear_rhs(u, cfg, v_states[i])
            stage = SpectralField(grid, e_dt * u.coeffs + dt * phi1 * n_u.coeffs)
            n_stage = nonlinear_rhs(stage, cfg, v_states[i + 1])
            nxt = stage.coeffs + dt * phi2 * (n_stage.coeffs - n_u.coeffs)
        else:
            nxt = e_dt * u.coeffs
        coeffs[i + 1] = leray_project(dealias(SpectralField(grid, nxt))).coeffs
        u = SpectralField(grid, coeffs[i + 1])
        if not np.all(np.isfinite(u.coeffs.view(np.float64))):
            raise SolverBlowupError(i + 1, float(times[i + 1]))
    return Trajectory._adopt(times, grid, coeffs, equation, cfg)


def solve_lans(
    w0: SpectralField,
    cfg: LansConfig,
    t_end: float,
    dt: float,
    nonlinear: bool = True,
) -> Trajectory:
    """Second-order exponential-integrator march of the filtered equation.

    The viscous factor is applied exactly, so with the nonlinearity
    disabled the output IS the heat flow.  States are dealiased and
    re-projected every step; a non-finite state aborts with its step index.
    """
    return _march(w0, cfg, t_end, dt, None, nonlinear, "lans")


def solve_mlans(
    u0: SpectralField,
    v_traj: Trajectory,
    cfg: LansConfig,
    t_end: float,
    dt: float,
) -> Trajectory:
    """The same nonlinear march for the perturbation equation; the background
    v must provide states at every step node (solve it first on the same grid)."""
    return _march(u0, cfg, t_end, dt, v_traj, True, "mlans")
