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

The nonlinearity kernel (_flux_half, reynolds_stress, nonlinear_rhs) reads the
half lattice of each input and works on the 2/3-rule dealias half cube
|m_i| <= K = grid.dealias_keep, m_last >= 0: its inverse transforms read
only that cube when every input of a call lies in it (a slab test), else
the whole half lattice, so any input gives the full-lattice operators'
result; its forward transforms make only the cube, all the dealias mask
keeps, and its multipliers act there on arrays built once per grid
(spectral._HalfCube).  A self term makes 27 real scalar transforms and a
call with a background 48 (u's Jacobian is transformed once per call);
pruned (Sorensen & Burrus 1993), at 16^3 they cost the FFT lines of 20.7
and 36.9 unpruned ones.  Its vectors and tensors are transformed in
batches of components whose physical samples fit _BATCH_BYTES: all of
them at 32^3 and below, one at 64^3, where a tensor of samples is 19 MB.
Each FFT line is computed as in one batch, so batching moves no bit.

The march and the Duhamel map hold u, the stage, the kernel outputs
(_rhs_half, the kernel's cube-level entry) and the Duhamel integral on the
same half cube, which holds every state they make; a Trajectory stacks
the states' half cubes and completes a node only when it is read.  All
norms of trajectories are weighted Besov sups of the form
sup_t t^a ||u(t)||, taken node by node over the stacked half cubes.  The
Picard iteration's weight follows from its index s: a = (s - n/2)/2, the
critical weighting Kato used for Navier-Stokes (Math. Z. 187, 1984), so
a = 0 at s = n/2.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

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
    _data_band,
    _frozen,
    _half_cube,
    _hermitian_planes,
    _irfft,
    _leray,
    _rfft,
    _work,
    _work_arrays,
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

    alpha = 0 switches the stress off and leaves plain Navier-Stokes; alpha^2 max|k|^2 must be a finite double.
    """

    grid: TorusGrid
    alpha: float = 0.1
    nu: float = 1.0

    def __post_init__(self):
        if not 0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        k_top = self.grid.points_per_axis / 2 * self.grid.wavenumber_scale  # max|k|^2 = dim k_top^2
        if self.alpha > 0 and not math.isfinite(self.alpha * self.alpha * max(self.grid.dim * k_top * k_top, 1.0)):
            raise ValueError(f"alpha^2 max|k|^2 on the grid must be a finite double, got alpha = {self.alpha}")
        if not 0 < self.nu < np.inf:
            raise ValueError(f"nu must be finite and > 0, got {self.nu}")


@dataclass(frozen=True)
class MildSolverConfig:
    """Discretization and stopping control for the Duhamel fixed point.

    The iteration metric is sup_t t^a * besov_norm(. , weight_index) with
    the weight derived from the index, a = (weight_index.s - dim/2)/2: the
    scaling-critical choice for data in B^(dim/2), so a = 0 at s = dim/2
    and the t = 0 node counts, and a = 1/2 at s = 5/2 in 3-D.
    picard_iterate rejects s < dim/2.
    """

    t_end: float
    dt: float
    weight_index: BesovIndex
    picard_tol: float = 1e-9
    picard_max_iters: int = 40
    contraction_target: float = 0.5

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.picard_tol <= 0:
            raise ValueError("picard_tol must be positive")
        if not 0 < self.contraction_target < 1:
            raise ValueError(f"contraction_target must lie in (0, 1), got {self.contraction_target}")

    def time_nodes(self) -> np.ndarray:
        return _time_nodes(self.t_end, self.dt)


def _time_nodes(t_end: float, dt: float) -> np.ndarray:
    """Equispaced nodes 0, dt, ..., t_end; t_end must be a multiple of dt > 0."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not 0 < t_end < np.inf:
        raise ValueError(f"t_end must be finite and > 0, got {t_end}")
    if not t_end / dt < np.iinfo(np.intp).max:
        raise ValueError(f"t_end = {t_end} over dt = {dt} is more steps than an array can index")
    steps = int(round(t_end / dt))
    if steps < 1 or abs(steps * dt - t_end) > 1e-9 * t_end:
        raise ValueError(f"t_end = {t_end} is not an integer multiple of dt = {dt}")
    return dt * np.arange(steps + 1)


class Trajectory:
    """Time-ordered divergence-free states with their production settings.

    All states live on one grid, and their half cubes of one band are
    stacked into one array: the dealias band K when every state lies in the
    dealias cube, as the solvers' states do, else N/2, the half lattice.
    traj[i] completes node i to a fresh SpectralField (IndexError past the
    end, so `for u in traj` yields the nodes in time order); the monitors
    and norms read the stacked half cubes and complete no node.
    """

    def __init__(self, times, states, config: LansConfig | None = None):
        if len(states) == 0:
            raise ValueError("empty trajectory")
        for state in states[1:]:
            _check_same_grid(states[0], state)
        band = _data_band(states[0].grid, *(state.coeffs for state in states))
        halves = np.stack([_cut_half(state.coeffs, state.grid, band) for state in states])
        self._init(times, states[0].grid, halves, config)

    @classmethod
    def _adopt(cls, times, grid: TorusGrid, halves: np.ndarray, config) -> "Trajectory":
        """A trajectory that owns halves, its nodes' stacked half cubes, without copying them."""
        traj = cls.__new__(cls)
        traj._init(times, grid, halves, config)
        return traj

    def _init(self, times, grid, halves, config):
        self.times = np.asarray(times, dtype=float)
        if len(self.times) != len(halves):
            raise ValueError("times and states must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        self.grid, self._halves, self.config = grid, halves, config

    def __len__(self) -> int:
        return len(self._halves)

    def __getitem__(self, i) -> SpectralField:
        """Node i on the lattice; the mirrored half's zeros (m_last < 0) are +0.0, as lattice arithmetic writes them."""
        half = self._halves[operator.index(i)]
        coeffs = _complete(half, self.grid, half.shape[-1] - 1)
        coeffs[..., self.grid.points_per_axis // 2 + 1 :] += 0.0
        return SpectralField(self.grid, coeffs)

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


@dataclass
class IterationState:
    """One Duhamel iterate: weighted-norm step size and its ratio to the
    previous one; its place in the history is its index."""

    delta_norm: float
    ratio: float | None = None


class _KernelInput:
    """One input of a kernel call: its half cube of the band the call's
    inverse transforms run on, the dealias band K when every input of the
    call lies in the dealias cube, else N/2, the half lattice.  Its Def/Rot
    parts are kept in shared_parts only where two stress calls read them."""

    def __init__(self, grid: TorusGrid, half: np.ndarray, band: int):
        self.grid, self.half, self.band = grid, half, band
        self.shared_parts = None

    def jacobian_parts(self) -> np.ndarray:
        """Physical Def = (J + J^T)/2 and Rot = (J - J^T)/2, J[i, j] = d_j f_i, in
        J's own buffer P: Def_ij at P[i, j] for i <= j, Rot_ij at P[j, i] for i < j.
        J's entries are inverse-transformed _batches at a time into P (_samples)."""
        if self.shared_parts is not None:
            return self.shared_parts
        grid, dim = self.grid, self.grid.dim
        wavenumbers = _half_cube(grid, self.band).wavenumbers
        spectra = np.stack([self.half * (1j * k) for k in wavenumbers], axis=1)
        jac = _samples(spectra.reshape((dim * dim,) + self.half.shape[1:]), grid, self.band)
        jac = jac.reshape((dim, dim) + grid.shape)
        for i, j in itertools.combinations(range(dim), 2):
            jac[i, j], jac[j, i] = (jac[i, j] + jac[j, i]) * 0.5, (jac[i, j] - jac[j, i]) * 0.5
        return jac


_BATCH_BYTES = 5 << 19  # physical samples per batch of transforms: a whole 32^3 tensor, one 64^3 component


def _batches(count: int, grid: TorusGrid) -> list:
    """Slices of count tensor components whose physical samples fit _BATCH_BYTES,
    one component at least; one slice when all of them fit."""
    size = max(1, _BATCH_BYTES // (8 * grid.points_per_axis**grid.dim))
    return [slice(start, min(start + size, count)) for start in range(0, count, size)]


def _samples(coeffs: np.ndarray, grid: TorusGrid, band: int) -> np.ndarray:
    """Physical samples of the components of coeffs (its leading axis), half
    cubes of band, inverse-transformed _batches at a time into one array."""
    out = np.empty((len(coeffs),) + grid.shape)
    for rows in _batches(len(coeffs), grid):
        _irfft(coeffs[rows], grid, band, out=out[rows])
    return out


def _def_rot(d: np.ndarray, r: np.ndarray, i: int, j: int) -> np.ndarray:
    """(Def Rot)_ij = sum over m != j of Def_im Rot_mj in m order, Def and Rot
    read from packed parts d and r (jacobian_parts); Rot_mj = -Rot_jm."""
    total = None
    for m in (m for m in range(len(d)) if m != j):
        term = d[min(i, m), max(i, m)] * r[max(m, j), min(m, j)]
        if m > j:
            np.negative(term, out=term)
        total = term if total is None else np.add(total, term, out=total)
    return total


def _kernel_inputs(u: SpectralField, v: SpectralField | None) -> tuple:
    """(u, v) as _KernelInputs of one band; v = None stays None and v = u
    stays u.  The band test reads the slabs outside the dealias cube once."""
    grid = u.grid
    fields = [u] if v is None or v is u else [u, v]
    band = _data_band(grid, *(f.coeffs for f in fields))
    inputs = [_KernelInput(grid, _cut_half(f.coeffs, grid, band), band) for f in fields]
    return inputs[0], (None if v is None else inputs[-1])


def _node_inputs(grid: TorusGrid, u: np.ndarray, v: np.ndarray | None) -> tuple:
    """_kernel_inputs of stored half cubes: both on the wider band, the narrower zero-filled to it."""
    band = max(x.shape[-1] for x in (u, v) if x is not None) - 1
    return tuple(None if x is None else _KernelInput(grid, _cut_half(x, grid, band), band) for x in (u, v))


def _flux_half(grid: TorusGrid, cu: np.ndarray, cw: np.ndarray | None, band: int) -> np.ndarray:
    """Dealias half-cube coefficients of div of the dealiased symmetric
    product (u (x) w + w (x) u)/2, given the half cubes of band of u and w;
    cw = None means w = u, transformed once.  Only the dim(dim+1)/2
    distinct entries of the symmetric tensor are transformed.  u, w and the
    entries are transformed _batches at a time; a batch of entries is formed
    in work slot 1 and forward-transformed to its rows of the half cube."""
    pu = _samples(cu, grid, band)
    pw = pu if cw is None else _samples(cw, grid, band)
    pairs = [(i, j) for i in range(grid.dim) for j in range(i, grid.dim)]
    entries = np.empty((len(pairs),) + _half_cube(grid, grid.dealias_keep).k_squared.shape, complex)
    for rows in _batches(len(pairs), grid):
        tens = _work(1, (len(pairs[rows]),) + grid.shape, pu.dtype)  # _rfft reads it before it writes work slot 1
        for t, (i, j) in zip(tens, pairs[rows]):
            np.multiply(pu[i], pw[j], out=t)
            if cw is not None:
                t += pw[i] * pu[j]
                t *= 0.5
        _rfft(tens, grid, grid.dealias_keep, out=entries[rows])
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
    to the dealias cube when both arguments lie in it, whose buffer holds
    its Def and Rot.  The tensor's entries are formed in work slot 1 and
    forward-transformed to the dealias half cube _batches at a time (one
    entry at 64^3, all of them at 32^3 and below), so the physical tensor
    is never held whole; the multipliers run on that half cube.  Two
    _KernelInputs (the kernel's own calls) get that half cube with its
    k_last = 0 plane made Hermitian, the lattice result cut there bit for
    bit; other arguments get the lattice result.
    """
    grid = cfg.grid
    if f.grid != grid or g.grid != grid:
        raise ValueError("fields must live on the configured grid")
    kernel, band = isinstance(f, _KernelInput) and isinstance(g, _KernelInput), grid.dealias_keep
    if cfg.alpha == 0.0:
        zero = np.zeros((grid.dim,) + (_half_cube(grid, band).k_squared.shape if kernel else grid.shape), complex)
        return zero if kernel else SpectralField(grid, zero)
    if not kernel:
        f, g = _kernel_inputs(f, g)
    parts_f = f.jacobian_parts()
    parts_g = parts_f if g is f else g.jacobian_parts()
    multiplier, entries = _stress_multiplier(grid, cfg.alpha), list(itertools.product(range(grid.dim), repeat=2))
    stress = np.empty((len(entries),) + multiplier.shape, complex)
    for rows in _batches(len(entries), grid):
        prod = _work(1, (len(entries[rows]),) + grid.shape, parts_f.dtype)  # _rfft reads it before it writes work slot 1
        for p, (i, j) in zip(prod, entries[rows]):
            first = _def_rot(parts_f, parts_g, i, j)
            np.add(first, first if g is f else _def_rot(parts_g, parts_f, i, j), out=p)
        if rows.stop == len(entries):
            del parts_f, parts_g  # parts that no later call shares are freed before the last forward transform
        _rfft(prod, grid, band, out=stress[rows])
        stress[rows] *= multiplier
    stress = stress.reshape((grid.dim, grid.dim) + multiplier.shape)
    half = _hermitian_planes(_divergence_half(stress, grid), grid, band)
    return half if kernel else SpectralField(grid, _complete(half, grid, band))


def _viscous(u: SpectralField, cfg: LansConfig) -> SpectralField:
    return SpectralField(u.grid, -cfg.nu * u.grid.k_squared * u.coeffs)


def _nonlinear_half(cfg: LansConfig, u: _KernelInput, v: _KernelInput | None) -> np.ndarray:
    """Dealias half-cube coefficients of _nonlinear_terms, given the kernel inputs."""
    grid = u.grid
    if v is None:
        return _flux_half(grid, u.half, None, u.band) + reynolds_stress(u, u, cfg)
    flux = _flux_half(grid, u.half, u.half + 2.0 * v.half, u.band)
    if cfg.alpha != 0.0:
        u.shared_parts = u.jacobian_parts()
    return flux + reynolds_stress(u, u, cfg) + 2.0 * reynolds_stress(u, v, cfg)


def _nonlinear_terms(u: SpectralField, cfg: LansConfig) -> SpectralField:
    """Unprojected self terms div(u(x)u) + div tau(u,u) on the dealias
    band; nonlinear_rhs(u, cfg) is minus their Leray projection."""
    return SpectralField(u.grid, _complete(_nonlinear_half(cfg, *_kernel_inputs(u, None)), u.grid, u.grid.dealias_keep))


def _rhs_half(cfg: LansConfig, u: _KernelInput, v: _KernelInput | None) -> np.ndarray:
    """The kernel's cube-level entry: -P[_nonlinear_half] on the dealias half
    cube, its k_last = 0 plane made Hermitian as _complete makes it;
    nonlinear_rhs completes it."""
    keep = u.grid.dealias_keep
    return _hermitian_planes(-_leray(_nonlinear_half(cfg, u, v), u.grid, keep), u.grid, keep)


def nonlinear_rhs(u: SpectralField, cfg: LansConfig, v: SpectralField | None = None) -> SpectralField:
    """Projected nonlinear terms, sign convention d_t u = nu*Lap u + N(u[, v]).

    v = None gives the self-contained field: -P[div(u(x)u) + div tau(u,u)].
    With a background v the u-v cross terms are added:
    -P[div(u(x)u + u(x)v + v(x)u) + div tau(u,u) + 2 div tau(u,v)].
    No pure v-v terms appear in either case.  The terms are summed and
    projected on the dealias half cube (_rhs_half) and completed to the
    full lattice once.
    """
    if v is not None:
        _check_same_grid(u, v)
    return SpectralField(u.grid, _complete(_rhs_half(cfg, *_kernel_inputs(u, v)), u.grid, u.grid.dealias_keep))


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


def _background_nodes(v_traj: Trajectory | None, times: np.ndarray, grid: TorusGrid) -> list:
    if v_traj is None:
        return [None] * len(times)
    if v_traj.grid != grid:
        raise ValueError("background trajectory lives on a different grid")
    return [v_traj._halves[v_traj.node_index(t)] for t in times]


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
    the heat flow of u0 follows the same recurrence, H_i = E H_(i-1).  I
    lives on the dealias half cube, H and the image on u0's (the half lattice past it).
    """
    _require_grid(u0, cfg)
    grid = cfg.grid
    band = _data_band(grid, u0.coeffs)
    times = traj.times
    dt = float(times[1] - times[0])
    v_nodes = _background_nodes(v_traj, times, grid)
    heat_mult, step_mult = (np.exp(-cfg.nu * dt * _half_cube(grid, b).k_squared) for b in (band, grid.dealias_keep))
    with _work_arrays():  # the kernel calls reuse the transforms' work arrays
        n_halves = [_rhs_half(cfg, *_node_inputs(grid, u, v)) for u, v in zip(traj._halves, v_nodes)]
    heat = _cut_half(u0.coeffs, grid, band) * np.exp(-cfg.nu * times[0] * _half_cube(grid, band).k_squared)
    halves = np.empty((len(times),) + heat.shape, dtype=np.complex128)
    halves[0] = heat if times[0] > 0 else _cut_half(dealias(u0).coeffs, grid, band)
    integral = np.zeros_like(n_halves[0])
    for i in range(1, len(times)):
        integral = step_mult * (integral + 0.5 * dt * n_halves[i - 1]) + 0.5 * dt * n_halves[i]
        heat = heat_mult * heat
        np.add(heat, _cut_half(integral, grid, band), out=halves[i])
    return Trajectory._adopt(times, grid, halves, cfg)


def _weighted_trace(plus: list, minus: list, a: float, index: BesovIndex, step: int = 1) -> tuple:
    """(times, t^a * besov_norm) over plus[0]'s nodes of sum(plus) - sum(minus[::step]),
    formed node by node (whole stacked arrays raise peak memory) from the stored half
    cubes on their widest band.  The t = 0 node is skipped when a > 0, else has weight 1."""
    grid, part = plus[0].grid, build_partition(plus[0].grid)
    band = max(traj._halves.shape[-1] for traj in plus + minus) - 1

    def node(trajs, i):
        return reduce(operator.add, (_cut_half(traj._halves[i], grid, band) for traj in trajs))
    ts, values = [], []
    for i, t in enumerate(plus[0].times):
        if t == 0.0 and a > 0:
            continue
        c = node(plus, i) - node(minus, i * step) if minus else node(plus, i)
        ts.append(t)
        values.append((1.0 if t == 0.0 else t**a) * part._half_besov(c, index))
    return np.asarray(ts, dtype=float), np.asarray(values, dtype=float)


def _weighted_sup(plus: list, minus: list, a: float, index: BesovIndex, step: int = 1) -> float:
    """sup_t t^a * besov_norm over the nodes of _weighted_trace, 0.0 when none counts."""
    return float(np.max(_weighted_trace(plus, minus, a, index, step)[1], initial=0.0))


def picard_iterate(
    u0: SpectralField,
    v_traj: Trajectory | None,
    cfg: LansConfig,
    mcfg: MildSolverConfig,
) -> tuple:
    """Iterate the Duhamel map from the pure heat flow of u0.

    Returns (trajectory, history).  history[m].delta_norm is the weighted
    distance sup_t t^a ||. ||_(B^s) between iterates m and m+1, with
    weight_index B^s and a = (s - dim/2)/2 (MildSolverConfig); s < dim/2
    raises ValueError before any work.  Since the returned trajectory is
    the image of the last iterate, the final delta_norm is also its
    predecessor's fixed-point residual.

    Convergence is certified, not just observed: once two distances are
    available their ratio must stay at or below mcfg.contraction_target < 1
    (ratios below 10 picard_tol are roundoff noise and are exempt).  A ratio
    above the target, iterates that creep upward below that floor, or an
    exhausted iteration budget raises PicardDivergenceError carrying the
    last ratio and the full history; the usual cure is a shorter horizon or
    smaller data, since the certified factor scales linearly with the data
    size.
    """
    grid, index = cfg.grid, mcfg.weight_index
    if index.s < grid.dim / 2.0:
        raise ValueError(f"the Picard weight (s - n/2)/2 needs s >= n/2, got s = {index.s}, n = {grid.dim}")
    weight = (index.s - grid.dim / 2.0) / 2.0
    require_solenoidal(u0)
    u0 = leray_project(dealias(u0))
    times = mcfg.time_nodes()
    start, ksq = _cut_half(u0.coeffs, grid, grid.dealias_keep), _half_cube(grid, grid.dealias_keep).k_squared
    heat = np.stack([start * np.exp(-cfg.nu * t * ksq) for t in times])  # u0's heat flow, on the dealias half cube
    current = Trajectory._adopt(times, grid, heat, cfg)
    history: list = []
    prev_delta = None
    for m in range(1, mcfg.picard_max_iters + 1):
        image = duhamel_map(current, u0, cfg, mcfg, v_traj)
        delta = _weighted_sup([image], [current], weight, index)
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
        if m >= 3 and all(h.ratio is not None and h.ratio >= 1.0 for h in history[-2:]) and delta > history[0].delta_norm:
            raise PicardDivergenceError("no contraction", history[-1].ratio, history)
        current = image
        prev_delta = delta
    raise PicardDivergenceError(
        f"no convergence within {mcfg.picard_max_iters} iterations",
        history[-1].ratio if history[-1].ratio is not None else np.inf,
        history,
    )


_PHI2_TAYLOR = 1.0 / np.array([math.factorial(n + 2) for n in range(18)], dtype=float)
_SQRT_MAX = math.sqrt(np.finfo(float).max)  # |z| above this has z^2 = inf


def _phi_factors(z: np.ndarray) -> tuple:
    """(exp(z), phi1(z), phi2(z)) with phi1 = (e^z - 1)/z, phi2 = (e^z - 1 - z)/z^2, z <= 0.

    phi1 is expm1(z)/z, accurate wherever z != 0.  phi2's closed form
    amplifies roundoff by about 2/|z| through cancellation, so below
    |z| = 1 it is the Taylor series sum_n z^n/(n+2)!, n < 18, whose
    truncation error there is below 1e-17 (Kassam & Trefethen, SIAM J. Sci.
    Comput. 26, 2005).  Where z^2 overflows it is (phi1 - 1)/z, ~ 1/|z|.
    """
    e = np.exp(z)
    zs = np.where(z == 0.0, 1.0, z)  # placeholder to keep divisions defined
    phi1 = np.where(z == 0.0, 1.0, np.expm1(z) / zs)
    # the series only where |z| < 1 (z^2 underflows to 0 below |z| ~ 1.6e-162), the closed form elsewhere
    small, huge = np.abs(z) < 1.0, np.abs(z) > _SQRT_MAX
    phi2 = np.zeros_like(z)
    for c in _PHI2_TAYLOR[::-1]:
        phi2[small] = phi2[small] * z[small] + c
    mid = ~(small | huge)
    phi2[mid] = (np.expm1(z[mid]) - z[mid]) / z[mid] ** 2
    phi2[huge] = (phi1[huge] - 1.0) / z[huge]  # divides e^z - 1 - z by z twice; 0 at z = -inf
    return e, phi1, phi2


def _march(
    u0: SpectralField,
    cfg: LansConfig,
    t_end: float,
    dt: float,
    v_traj: Trajectory | None,
) -> Trajectory:
    """The exponential-integrator march.  u0 is cut to the dealias half cube and
    projected there (leray_project(dealias(u0)) cut to it, bit for bit); u, the
    stage and the kernel outputs live on that cube, which holds every state and
    is where the trajectory keeps them."""
    _require_grid(u0, cfg)
    grid = cfg.grid
    keep = grid.dealias_keep
    require_solenoidal(u0)
    times = _time_nodes(t_end, dt)
    v_nodes = _background_nodes(v_traj, times, grid)
    e_dt, phi1, phi2 = _phi_factors(-cfg.nu * dt * _half_cube(grid, keep).k_squared)

    u = _leray(_cut_half(u0.coeffs, grid, keep), grid, keep)
    halves = np.empty((len(times),) + u.shape, dtype=np.complex128)
    halves[0] = u
    with _work_arrays():  # the kernel calls reuse the transforms' work arrays
        for i, (v_now, v_next) in enumerate(itertools.pairwise(v_nodes)):
            n_u = _rhs_half(cfg, *_node_inputs(grid, u, v_now))
            stage = e_dt * u + dt * phi1 * n_u
            nxt = stage + dt * phi2 * (_rhs_half(cfg, *_node_inputs(grid, stage, v_next)) - n_u)
            u = halves[i + 1] = _leray(nxt, grid, keep)
            if not np.isfinite(u).all():
                raise SolverBlowupError(i + 1, float(times[i + 1]))
    return Trajectory._adopt(times, grid, halves, cfg)


def solve_lans(
    w0: SpectralField,
    cfg: LansConfig,
    t_end: float,
    dt: float,
) -> Trajectory:
    """Second-order exponential-integrator march of the filtered equation.

    The viscous factor is applied exactly, so where the projected
    nonlinearity vanishes (a Beltrami field) the output is the heat flow.
    States are dealiased and re-projected every step; a non-finite state
    aborts with its step index.
    """
    return _march(w0, cfg, t_end, dt, None)


def solve_mlans(
    u0: SpectralField,
    v_traj: Trajectory,
    cfg: LansConfig,
    t_end: float,
    dt: float,
) -> Trajectory:
    """The same nonlinear march for the perturbation equation; the background
    v must provide states at every step node (solve it first on the same grid)."""
    return _march(u0, cfg, t_end, dt, v_traj)
