"""End-to-end split/solve/recombine driver.

Given rough divergence-free data w0, split it into a smooth low part u0
and a small high tail v0, evolve v0 under the self-contained filtered
equation, evolve u0 under the perturbation equation riding on that
background, and compare u + v against the direct solve from w0.  If the
perturbation equation is consistent, u + v and w discretize the same
solution, so their gap must sit at the integrator's own self-convergence
error; the acceptance line is a factor 10 over it.

A fixed-point (Duhamel) gate runs before the production march: if the
iteration fails to contract, the data/horizon pair is outside the small
regime and the pipeline aborts with the contraction diagnostic instead of
producing a meaningless comparison.  A march that blows up aborts the run
the same way, with its step index.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .dynamics import (
    LansConfig,
    MildSolverConfig,
    PicardDivergenceError,
    SolverBlowupError,
    _time_nodes,
    _weighted_sup,
    _weighted_trace,
    picard_iterate,
    solve_lans,
    solve_mlans,
)
from .ensembles import as_rng, random_solenoidal
from .littlewood_paley import BesovIndex, _partition_depth, build_partition
from .monitor import (
    SplitConfig,
    SplitError,
    _inverse_square,
    gronwall_monitor,
    higher_regularity_trace,
    split_with_report,
)
from .spectral import TorusGrid

__all__ = ["PipelineConfig", "PipelineReport", "run_pipeline", "make_rough_data"]

DISCREPANCY_FACTOR = 10.0
GATE_CONTRACTION_TARGET = 0.5  # the largest Picard ratio the gate certifies

# the PipelineConfig fields `lanslab pipeline` sets and its manifest hashes
CLI_KEYS = ("n", "alpha", "nu", "p", "p_tilde", "q", "epsilon", "t_end", "steps", "seed", "data_scale")


@dataclass(frozen=True)
class PipelineConfig:
    """Settings of one split/solve/recombine run.

    p is the base integrability: the discrepancy is measured in
    B^(3/p)_(p,q) and the split targets B^(3/p_tilde)_(p_tilde,q).  Any
    p > 2 is accepted because the split's convexity relation needs only
    p_tilde > p > 2; for p in (2, 3] a run checks split/recombine
    consistency only, since the global-existence theorem is for p > 3.
    The run is 3-D only, as the paper's theorem is: the exponents 3/p and
    B^(3/2) are those of R^3.
    """

    n: int = 32
    alpha: float = 0.1
    nu: float = 1.0
    p: float = 6.0
    p_tilde: float = 30.0
    q: float = 2.0
    epsilon: float = 1e-3
    t_end: float = 0.05
    steps: int = 32
    seed: int = 0
    data_scale: float = 1e-2

    def __post_init__(self):
        if not self.p > 2.0:
            raise ValueError(f"base integrability must exceed 2, got p={self.p}")
        for name in ("alpha", "data_scale"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        _inverse_square(self.alpha)  # the energy envelope exp(C alpha^-2 int ...) needs a finite alpha^-2
        if self.steps <= 0 or self.steps % 8 != 0:
            raise ValueError("steps must be a positive multiple of 8 so the gate grid nests")
        _time_nodes(self.t_end, self.dt)
        # a bad q, grid, alpha, nu, p_tilde or epsilon, or a grid too coarse
        # for the split's dyadic partition, raises here, before any work
        BesovIndex(3.0 / self.p, self.p, self.q)
        cfg, _ = self.configs()
        _partition_depth(cfg.grid)

    @property
    def dt(self) -> float:
        return self.t_end / self.steps

    def configs(self) -> tuple:
        """(LansConfig, SplitConfig) of the run; the split scans cut levels from 1 up."""
        cfg = LansConfig(grid=TorusGrid(dim=3, points_per_axis=self.n), alpha=self.alpha, nu=self.nu)
        return cfg, SplitConfig(self.p, self.p_tilde, self.epsilon, q=self.q)


@dataclass
class PipelineReport:
    status: str  # pass | fail | aborted
    reason: str
    discrepancy: float
    self_error: float
    tolerance: float
    split: dict
    picard: dict
    times: np.ndarray | None = None
    discrepancy_trace: np.ndarray | None = None
    energy: dict = dc_field(default_factory=dict)
    trace: dict = dc_field(default_factory=dict)
    config: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_report(self) -> dict:
        return {
            "status": self.status,
            "reason": self.reason,
            "discrepancy": self.discrepancy,
            "self_error": self.self_error,
            "tolerance": self.tolerance,
            "split": self.split,
            "picard": self.picard,
            "times": None if self.times is None else list(map(float, self.times)),
            "discrepancy_trace": None if self.discrepancy_trace is None else list(map(float, self.discrepancy_trace)),
            "energy": self.energy,
            "trace": self.trace,
            "config": self.config,
        }


def make_rough_data(grid, seed: int, scale: float, q: float = 2.0):
    """Random solenoidal data spanning the full measured band with a flat
    dyadic profile in the smooth-space norm, scaled to the requested size."""
    part = build_partition(grid)
    rng = as_rng(seed)
    k_hi = 0.95 * 2.0 ** (part.j_max + 1)
    w0 = random_solenoidal(grid, rng, k_min=1.0, k_max=k_hi, decay=3.0)
    norm = part.besov_norm(w0, BesovIndex(1.5, 2.0, q))
    return w0 * (scale / norm)


def _aborted(reason: str, split: dict, picard: dict, config: dict) -> PipelineReport:
    """The report of a run stopped by its split, its gate or a march: no comparison, NaN numbers."""
    return PipelineReport(status="aborted", reason=reason, discrepancy=np.nan, self_error=np.nan,
                          tolerance=np.nan, split=split, picard=picard, config=config)


def run_pipeline(pcfg: PipelineConfig) -> PipelineReport:
    cfg, scfg = pcfg.configs()
    grid = cfg.grid
    config_dump = {**{k: getattr(pcfg, k) for k in CLI_KEYS}, "dim": grid.dim, "j_cut": 1}  # the split scans from level 1
    w0 = make_rough_data(grid, pcfg.seed, pcfg.data_scale, pcfg.q)

    try:
        split = split_with_report(w0, scfg)
    except SplitError as err:
        return _aborted(f"split: {err}", {"error": str(err), "achievable": err.achievable, "j_cut": err.j_cut},
                        {}, config_dump)
    u0, v0 = split.low, split.tail
    split_info = {"j_cut": split.j_cut, "tail_norm": split.tail_norm,
                  "scanned": [[int(j), float(v)] for j, v in split.tail_norms_scanned]}

    dt = pcfg.dt
    # contraction gate on the perturbation before committing to the march;
    # its 9 nodes are nodes of v_traj because steps is a multiple of 8
    mcfg = MildSolverConfig(
        t_end=pcfg.t_end,
        dt=pcfg.t_end / 8.0,
        weight_index=BesovIndex(1.5, 2.0, pcfg.q),
        picard_tol=1e-7,
        picard_max_iters=30,
        contraction_target=GATE_CONTRACTION_TARGET,
    )
    picard_info: dict = {}
    try:
        v_traj = solve_lans(v0, cfg, pcfg.t_end, dt)
        _, history = picard_iterate(u0, v_traj, cfg, mcfg)
        picard_info = {
            "converged": True,
            "iterations": len(history),
            "final_delta": history[-1].delta_norm,
            "ratios": [h.ratio for h in history if h.ratio is not None],
        }

        u_traj = solve_mlans(u0, v_traj, cfg, pcfg.t_end, dt)
        w_traj = solve_lans(w0, cfg, pcfg.t_end, dt)

        idx = BesovIndex(3.0 / pcfg.p, pcfg.p, pcfg.q)
        _, disc_trace = _weighted_trace([u_traj, v_traj], [w_traj], 0.0, idx)
        discrepancy = float(np.max(disc_trace))

        # self-convergence at dt/2 for both sides of the comparison
        w_half = solve_lans(w0, cfg, pcfg.t_end, dt / 2.0)
        err_w = _weighted_sup([w_traj], [w_half], 0.0, idx, step=2)
        del w_half
        v_half = solve_lans(v0, cfg, pcfg.t_end, dt / 2.0)
        u_half = solve_mlans(u0, v_half, cfg, pcfg.t_end, dt / 2.0)
        err_uv = _weighted_sup([u_traj, v_traj], [u_half, v_half], 0.0, idx, step=2)
        del u_half, v_half
    except PicardDivergenceError as err:
        return _aborted(f"contraction gate: {err}", split_info,
                        {"converged": False, "last_ratio": err.last_ratio, "iterations": len(err.history)},
                        config_dump)
    except SolverBlowupError as err:
        return _aborted(f"solver: {err}", split_info, picard_info, config_dump)
    self_error = max(err_w, err_uv)

    tolerance = DISCREPANCY_FACTOR * self_error + 1e-14 * pcfg.data_scale
    status = "pass" if discrepancy <= tolerance else "fail"

    energy = gronwall_monitor(u_traj, v_traj, pcfg.alpha)
    trace = higher_regularity_trace(u_traj, 2.5, 1.5, pcfg.q)
    return PipelineReport(
        status=status,
        reason="discrepancy within tolerance" if status == "pass" else "discrepancy exceeds tolerance",
        discrepancy=discrepancy,
        self_error=self_error,
        tolerance=tolerance,
        split=split_info,
        picard=picard_info,
        times=w_traj.times,
        discrepancy_trace=disc_trace,
        energy={
            "max_bound_ratio": energy.max_bound_ratio,
            "nonincreasing": energy.nonincreasing,
            "constant": energy.extras["constant"],
            "calibrated_in_place": energy.extras["calibrated_in_place"],
        },
        trace={
            "weight": trace.weight,
            "sup_value": trace.sup_value,
            "early_value": trace.early_value,
            "early_fraction": trace.early_fraction,
        },
        config=config_dump,
    )
