"""Spectral laboratory for filtered incompressible flow on the torus.

Layers, bottom to top:

- spectral: grids, transforms, differential/projection operators
- littlewood_paley: dyadic frequency partition, Besov norms, paraproducts
- ensembles: reproducible random/coherent test fields
- inequality_lab: scaling checks for the functional inequalities
- dynamics: filtered and cross-coupled momentum equations, mild solver
- monitor: energy, cancellation, comparison and splitting diagnostics
- pipeline: end-to-end split/solve/recombine consistency run
- fieldio, reporting, cli: persistence and the `lanslab` entry point
"""

from types import ModuleType as _ModuleType

from .dynamics import (
    IterationState,
    LansConfig,
    MildSolverConfig,
    PicardDivergenceError,
    SolverBlowupError,
    Trajectory,
    duhamel_map,
    heat_propagate,
    lans_rhs,
    mlans_rhs,
    nonlinear_rhs,
    picard_iterate,
    reynolds_stress,
    solve_lans,
    solve_mlans,
    weighted_norm,
)
from .ensembles import (
    as_rng,
    band_mask,
    coverage_k_max,
    power_law_field,
    random_band_limited,
    random_solenoidal,
    shell_field,
)
from .fieldio import FieldFormatError, field_to_csv, read_field, write_field
from .inequality_lab import (
    ExponentFit,
    HypothesisViolation,
    verify_bernstein,
    verify_embedding,
    verify_heat_smoothing,
    verify_ladyzhenskaya,
    verify_product_estimate,
)
from .littlewood_paley import (
    BesovIndex,
    DyadicPartition,
    ParaproductPieces,
    build_partition,
)
from .monitor import (
    CancellationResiduals,
    EnergyReport,
    SplitConfig,
    SplitError,
    SplitResult,
    TraceReport,
    calibrate_gronwall_constant,
    cancellation_check,
    energy_pair,
    gronwall_monitor,
    h2_concentration_slopes,
    higher_regularity_trace,
    split_with_report,
)
from .pipeline import PipelineConfig, PipelineReport, make_rough_data, run_pipeline
from .reporting import canonical_json, manifest_hash, write_csv_trace, write_json_report
from .spectral import (
    GridMismatchError,
    SingularModeError,
    SolenoidalityError,
    SpectralField,
    TorusGrid,
    dealias,
    divergence,
    forward_transform,
    gradient,
    helmholtz_inverse,
    inverse_transform,
    l2_inner,
    l2_norm,
    laplacian_power,
    leray_project,
    lp_norm,
    relative_divergence,
    require_solenoidal,
    sobolev_norm,
)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
