"""Command-line entry point: `lanslab {verify|solve|pipeline|sweep}`.

verify   -- run the inequality/cancellation suites, emit JSON + CSV reports
solve    -- produce one trajectory and its norm traces
pipeline -- split/solve/recombine consistency run
sweep    -- parameter-grid fan-out of solves with per-cell isolation

Exit codes: 0 pass, 1 fail, 2 usage error or bad value, 3 inconclusive (under-resolved).
Every artifact embeds the manifest hash of the exact configuration, and
identical configs with identical seeds rebuild identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .dynamics import LansConfig, SolverBlowupError, _time_nodes, _weighted_trace, solve_lans, solve_mlans
from .ensembles import as_rng, random_band_limited, random_solenoidal
from .fieldio import field_to_csv, write_field
from .inequality_lab import (
    verify_bernstein,
    verify_embedding,
    verify_heat_smoothing,
    verify_ladyzhenskaya,
    verify_product_estimate,
)
from .littlewood_paley import BesovIndex, _partition_depth, build_partition
from .monitor import _energy_pair, cancellation_check
from .pipeline import CLI_KEYS, PipelineConfig, run_pipeline
from .reporting import manifest_hash, write_csv_trace, write_json_report
from .spectral import (
    TorusGrid,
    _cube_index,
    _forward_band,
    forward_transform,
    gradient,
    inverse_transform,
    l2_norm,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _version() -> str:
    from . import __version__

    return "lanslab-" + __version__


def _usage_error(command: str, err) -> int:
    print(f"{command}: {err}", file=sys.stderr)
    return EXIT_USAGE


# ---------------------------------------------------------------- verify


def _suite_partition(n: int, seed: int) -> list:
    grid = TorusGrid(dim=3, points_per_axis=n)
    part = build_partition(grid)
    records = [{
        "case": "partition:unity",
        "measured": {"defect": part.unity_defect},
        "status": "pass" if part.unity_defect <= 1e-12 else "fail",
    }]
    worst = 0.0
    for j in range(part.j_max + 1):
        for l in range(j + 2, part.j_max + 1):
            # block j's half cube nests in block l's, and the product is 0 outside it
            inner = part.cubes[l][_cube_index(2 * part.bands[l] + 1, part.bands[j], grid.dim)]
            worst = max(worst, float(np.max(part.cubes[j] * inner)))
    records.append({
        "case": "partition:disjointness",
        "measured": {"max_overlap": worst},
        "status": "pass" if worst <= 1e-14 else "fail",
    })
    return records


def _suite_paraproduct(n: int, seed: int) -> list:
    pairs = 5
    grid = TorusGrid(dim=3, points_per_axis=min(n, 64))
    part = build_partition(grid)
    rng = as_rng(seed)
    k_hi = 2.0**part.j_max
    worst = 0.0
    for _ in range(pairs):
        f = random_band_limited(grid, rng, k_min=0.0, k_max=k_hi, zero_mean=False)
        g = random_band_limited(grid, rng, k_min=0.0, k_max=k_hi, zero_mean=False)
        product = _forward_band(inverse_transform(f) * inverse_transform(g), grid, grid.dealias_keep)
        resid = part.paraproduct_split(f, g).total() - product
        worst = max(worst, l2_norm(resid) / max(l2_norm(product), 1e-300))
    return [{
        "case": "paraproduct:reconstruction",
        "measured": {"max_relative_residual": worst, "pairs": pairs},
        "status": "pass" if worst <= 1e-10 else "fail",
    }]


def _suite_bernstein(n: int, seed: int) -> list:
    grid = TorusGrid(dim=3, points_per_axis=min(n, 64))
    cases = [(0.0, 2.0, np.inf), (1.0, 2.0, 2.0), (1.0, 2.0, 4.0)]
    return [verify_bernstein(b, p, q, grid=grid, seed=seed).to_report() for b, p, q in cases]


def _suite_heat(n: int, seed: int) -> list:
    grid = TorusGrid(dim=3, points_per_axis=n)
    cases = [(1.5, 2.0, 2.5, 2.0), (0.5, 2.0, 2.5, 2.0), (0.5, 2.0, 1.5, 6.0)]
    return [verify_heat_smoothing(s1, p1, s2, p2, grid=grid, seed=seed).to_report() for s1, p1, s2, p2 in cases]


def _suite_product(n: int, seed: int) -> list:
    grid = TorusGrid(dim=3, points_per_axis=min(n, 32))
    cases = [(1.0, 2.0, 1.0, 2.0, 2.0), (0.5, 2.0, 0.9, 3.0, 2.0), (0.5, 4.0, 0.5, 4.0, 4.0)]
    return [
        verify_product_estimate(s1, p1, s2, p2, p, grid=grid, seed=seed, pairs=40).to_report()
        for s1, p1, s2, p2, p in cases
    ]


def _suite_embedding(n: int, seed: int) -> list:
    grid = TorusGrid(dim=3, points_per_axis=min(n, 32))
    return [
        verify_embedding("q_monotonicity", grid=grid, seed=seed, s=1.0, p=2.0, q1=2.0, q2=np.inf).to_report(),
        verify_embedding("p_integrability", grid=grid, seed=seed, gamma2=0.5, p1=2.0, p2=6.0, q=2.0).to_report(),
        verify_embedding("sobolev_upper", grid=grid, seed=seed, s=1.0, r=1.5, p=2.0, q=2.0).to_report(),
        verify_embedding("sobolev_identity", grid=grid, seed=seed, s=1.5).to_report(),
    ]


def _suite_ladyzhenskaya(n: int, seed: int) -> list:
    grid = TorusGrid(dim=3, points_per_axis=min(n, 32))
    return [
        verify_ladyzhenskaya(1.0, 2.0, grid=grid, seed=seed).to_report(),
        verify_ladyzhenskaya(0.5, 1.5, grid=grid, seed=seed).to_report(),
    ]


def _suite_cancellation(n: int, seed: int) -> list:
    fields = 20
    n = min(n, 32)  # pairings are exact once 3 K_band < n; 32 keeps this snappy
    grid = TorusGrid(dim=3, points_per_axis=n)
    rng = as_rng(seed)
    worst = 0.0
    for _ in range(fields):
        u = random_solenoidal(grid, rng, k_min=1.0, k_max=grid.points_per_axis / 4.0)
        worst = max(worst, cancellation_check(u, alpha=0.2).max_normalized)
    # control: a deliberately compressible field must light the residuals up
    u = random_solenoidal(grid, rng, k_min=1.0, k_max=grid.points_per_axis / 4.0)
    u = u * (1.0 / l2_norm(u))
    spoiler = gradient(forward_transform(np.sin(grid.mesh[0]), grid))
    bad = u + spoiler * (1.0 / l2_norm(spoiler))
    control = cancellation_check(bad, alpha=0.2).max_normalized
    ok = worst <= 1e-10 and control > 1e-3
    return [{
        "case": "cancellation",
        "measured": {"max_normalized_residual": worst, "divergent_control": control,
                     "fields": fields, "n_axis": n},
        "status": "pass" if ok else "fail",
    }]


_SUITES = {
    "partition": _suite_partition,
    "paraproduct": _suite_paraproduct,
    "bernstein": _suite_bernstein,
    "heat": _suite_heat,
    "product": _suite_product,
    "embedding": _suite_embedding,
    "ladyzhenskaya": _suite_ladyzhenskaya,
    "cancellation": _suite_cancellation,
}


def cmd_verify(args) -> int:
    if not args.suite or (args.suite != "all" and args.suite not in _SUITES):
        return _usage_error("verify", "--suite must be one of: " + ", ".join(sorted(_SUITES) + ["all"]))
    try:
        TorusGrid(dim=3, points_per_axis=args.n)
    except ValueError as err:
        return _usage_error("verify", err)
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    manifest = manifest_hash({"command": "verify", "suite": args.suite, "n": args.n, "seed": args.seed})
    out = Path(args.out)
    records = []
    for name in names:
        try:
            records.extend(_SUITES[name](args.n, args.seed))
        except ValueError as err:  # e.g. grid too coarse for any partition
            records.append({"case": name, "status": "inconclusive", "measured": {"error": str(err)}})
    for rec in records:
        line = rec.get("case", "?")
        print(f"[{rec['status'].upper():>12s}] {line}")
    write_json_report(out / "verify.json", {"records": records, "seed": args.seed, "n": args.n,
                                            "version": _version()}, manifest)
    rows = [(r["case"], r["status"]) for r in records]
    write_csv_trace(out / "verify_summary.csv", ["case", "status"], rows, manifest)
    statuses = {r["status"] for r in records}
    if "fail" in statuses:
        return EXIT_FAIL
    if "inconclusive" in statuses:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


# ---------------------------------------------------------------- solve


def _solve_config(n: int, alpha: float, nu: float, dt: float, t_end: float) -> LansConfig:
    """The settings of one solve; ValueError on a bad grid, alpha, nu or time
    step, or a grid too coarse for the dyadic partition the norms use."""
    _time_nodes(t_end, dt)
    cfg = LansConfig(grid=TorusGrid(dim=3, points_per_axis=n), alpha=alpha, nu=nu)
    _partition_depth(cfg.grid)
    return cfg


def _solve_once(equation: str, cfg: LansConfig, dt: float, t_end: float, seed: int, data_norm: float):
    grid = cfg.grid
    part = build_partition(grid)
    idx = BesovIndex(1.5, 2.0, 2.0)
    rng = as_rng(seed)
    u0 = random_solenoidal(grid, rng, k_min=1.0, k_max=2.0**part.j_max)
    u0 = u0 * (data_norm / part.besov_norm(u0, idx))
    if equation == "mlans":
        v0 = random_solenoidal(grid, as_rng(seed + 1), k_min=1.0, k_max=2.0**part.j_max)
        v0 = v0 * (data_norm / part.besov_norm(v0, idx))
        v_traj = solve_lans(v0, cfg, t_end, dt)
        traj = solve_mlans(u0, v_traj, cfg, t_end, dt)
    else:
        traj = solve_lans(u0, cfg, t_end, dt)
    # l2_norm, besov_norm and energy_pair of each node, read from its stored half cube
    pairs = [_energy_pair(half, grid, cfg.alpha) for half in traj._halves]
    besov = _weighted_trace([traj], [], 0.0, idx)[1]
    return traj, [(t, l2, b, e) for t, (l2, e), b in zip(traj.times, pairs, besov)]


def cmd_solve(args) -> int:
    try:
        cfg = _solve_config(args.n, args.alpha, args.nu, args.dt, args.t_end)
    except ValueError as err:
        return _usage_error("solve", err)
    manifest = manifest_hash({
        "command": "solve", "equation": args.equation, "n": args.n, "alpha": args.alpha,
        "nu": args.nu, "dt": args.dt, "t_end": args.t_end, "seed": args.seed,
        "data_norm": args.data_norm,
    })
    out = Path(args.out)
    try:
        traj, rows = _solve_once(args.equation, cfg, args.dt, args.t_end, args.seed, args.data_norm)
    except SolverBlowupError as err:
        print(f"solver aborted: {err}", file=sys.stderr)
        return EXIT_FAIL
    out.mkdir(parents=True, exist_ok=True)
    final = traj.final
    write_field(out / "final_state.field", final, extra={"manifest": manifest, "t": float(traj.times[-1])})
    field_to_csv(out / "final_state.csv", final, manifest_hash=manifest)
    write_csv_trace(out / "norms.csv", ["t", "l2", "besov_3half_2_2", "energy_pair"], rows, manifest)
    write_json_report(out / "solve.json", {
        "equation": args.equation, "seed": args.seed, "steps": len(traj) - 1,
        "final_l2": rows[-1][1], "final_energy_pair": rows[-1][3], "version": _version(),
    }, manifest)
    print(f"solved {args.equation}: {len(traj) - 1} steps, final l2 {rows[-1][1]:.6g}")
    return EXIT_PASS


# ---------------------------------------------------------------- pipeline


def cmd_pipeline(args) -> int:
    try:
        pcfg = PipelineConfig(**{k: getattr(args, k) for k in CLI_KEYS})
    except ValueError as err:
        return _usage_error("pipeline", err)
    manifest = manifest_hash({"command": "pipeline", **{k: getattr(pcfg, k) for k in CLI_KEYS}})
    report = run_pipeline(pcfg)
    out = Path(args.out)
    write_json_report(out / "pipeline.json", report.to_report(), manifest)
    if report.times is not None:
        write_csv_trace(out / "discrepancy.csv", ["t", "discrepancy"],
                        list(zip(report.times, report.discrepancy_trace)), manifest)
    print(f"pipeline status: {report.status} ({report.reason})")
    if report.status == "pass":
        print(f"  discrepancy {report.discrepancy:.3e} <= tolerance {report.tolerance:.3e}")
        return EXIT_PASS
    return EXIT_FAIL


# ---------------------------------------------------------------- sweep


def _parse_grid_list(flag: str, text: str, cast) -> list:
    """The values of one comma-separated sweep list; ValueError names the flag."""
    try:
        return [cast(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated list of {cast.__name__}s, got {text!r}") from None


def _sweep_cell(cell: dict, t_end: float, seed: int, data_norm: float) -> dict:
    try:
        cfg = _solve_config(cell["n"], cell["alpha"], cell["nu"], cell["dt"], t_end)
        traj, rows = _solve_once("lans", cfg, cell["dt"], t_end, seed, data_norm)
        return {**cell, "status": "ok", "final_l2": rows[-1][1], "final_energy_pair": rows[-1][3],
                "_final": traj.final}
    except Exception as err:  # isolation: one bad cell must not sink the rest
        return {**cell, "status": "failed", "error": f"{type(err).__name__}: {err}"}


def cmd_sweep(args) -> int:
    try:
        alphas = _parse_grid_list("--alpha", args.alpha, float)
        nus = _parse_grid_list("--nu", args.nu, float)
        ns = _parse_grid_list("--n", args.n, int)
        dts = _parse_grid_list("--dt", args.dt, float)
        if not 0 < args.t_end < np.inf:
            raise ValueError(f"--t-end must be finite and > 0, got {args.t_end}")
    except ValueError as err:
        return _usage_error("sweep", err)
    cells = [{"alpha": a, "nu": nu, "n": n, "dt": dt}
             for a in alphas for nu in nus for n in ns for dt in dts]
    if not cells:
        print("empty sweep grid", file=sys.stderr)
        return EXIT_USAGE
    manifest = manifest_hash({"command": "sweep", "alpha": alphas, "nu": nus, "n": ns,
                              "dt": dts, "t_end": args.t_end, "seed": args.seed})
    with ThreadPoolExecutor(max_workers=min(4, len(cells))) as pool:
        results = list(pool.map(lambda c: _sweep_cell(c, args.t_end, args.seed, args.data_norm), cells))

    # dt-only sweeps double as a self-convergence table against the finest run
    convergence = None
    only_dt_varies = len(dts) > 1 and len(alphas) == len(nus) == len(ns) == 1
    if only_dt_varies and all(r["status"] == "ok" for r in results):
        finest = min(results, key=lambda r: r["dt"])
        grid = finest["_final"].grid
        part = build_partition(grid)
        idx = BesovIndex(1.5, 2.0, 2.0)
        convergence = [
            {"dt": r["dt"], "error_vs_finest": part.besov_norm(r["_final"] - finest["_final"], idx)}
            for r in sorted(results, key=lambda r: -r["dt"])
            if r is not finest
        ]
    for r in results:
        r.pop("_final", None)

    out = Path(args.out)
    payload = {"cells": results, "convergence": convergence, "seed": args.seed, "version": _version()}
    write_json_report(out / "sweep.json", payload, manifest)
    write_csv_trace(out / "sweep.csv", ["alpha", "nu", "n", "dt", "status"],
                    [(r["alpha"], r["nu"], r["n"], r["dt"], r["status"]) for r in results], manifest)
    bad = [r for r in results if r["status"] != "ok"]
    for r in results:
        print(f"[{r['status']:>6s}] alpha={r['alpha']} nu={r['nu']} n={r['n']} dt={r['dt']}")
    return EXIT_FAIL if bad else EXIT_PASS


# ---------------------------------------------------------------- wiring


def _load_config(path: str) -> dict:
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return json.loads(text)
    config = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        try:
            config[key.strip()] = json.loads(value.strip())
        except json.JSONDecodeError:
            config[key.strip()] = value.strip()
    return config


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """Fill unset CLI options from --config; explicit flags win and null
    values count as unset.  An unreadable file, a key that names no option
    of the subcommand, or a value its flag would reject is a usage error."""
    if not getattr(args, "config", None):
        return
    try:
        config = _load_config(args.config)
    except (OSError, ValueError) as err:  # missing file, bad JSON or encoding
        parser.error(f"cannot read --config {args.config}: {err}")
    if not isinstance(config, dict):
        parser.error(f"--config {args.config} must hold a JSON object or key = value lines")
    options = set(vars(args)) - {"command", "func", "defaults", "config"}
    unknown = sorted(key for key in config if key.replace("-", "_") not in options)
    if unknown:
        parser.error(f"unknown --config key(s) for {args.command}: {', '.join(unknown)}")
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in config.items() if value is not None]
    parsed = parser.parse_args([args.command, *flags])
    for attr in options:
        if getattr(args, attr) is None:
            setattr(args, attr, getattr(parsed, attr))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lanslab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=_version())
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run inequality verification suites")
    p_verify.add_argument("--suite", default=None, help="one of: " + ", ".join(sorted(_SUITES) + ["all"]))
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--config", default=None)
    p_verify.set_defaults(func=cmd_verify, defaults={"n": 128, "seed": 0, "out": "lanslab-out"})

    p_solve = sub.add_parser("solve", help="produce one trajectory")
    p_solve.add_argument("--equation", choices=["lans", "mlans"], default=None)
    p_solve.add_argument("--n", type=int, default=None)
    p_solve.add_argument("--alpha", type=float, default=None)
    p_solve.add_argument("--nu", type=float, default=None)
    p_solve.add_argument("--dt", type=float, default=None)
    p_solve.add_argument("--t-end", type=float, default=None)
    p_solve.add_argument("--seed", type=int, default=None)
    p_solve.add_argument("--data-norm", type=float, default=None)
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--config", default=None)
    p_solve.set_defaults(func=cmd_solve, defaults={
        "equation": "lans", "n": 32, "alpha": 0.1, "nu": 1.0, "dt": 0.00125,
        "t_end": 0.05, "seed": 0, "data_norm": 0.01, "out": "lanslab-out"})

    p_pipe = sub.add_parser("pipeline", help="split/solve/recombine consistency run")
    pipe_defaults = {key: getattr(PipelineConfig(), key) for key in CLI_KEYS}
    for key, default in pipe_defaults.items():
        p_pipe.add_argument("--" + key.replace("_", "-"), type=type(default), default=None)
    p_pipe.add_argument("--out", default=None)
    p_pipe.add_argument("--config", default=None)
    p_pipe.set_defaults(func=cmd_pipeline, defaults={**pipe_defaults, "out": "lanslab-out"})

    p_sweep = sub.add_parser("sweep", help="parameter-grid fan-out of solves")
    p_sweep.add_argument("--alpha", default=None, help="comma-separated list")
    p_sweep.add_argument("--nu", default=None, help="comma-separated list")
    p_sweep.add_argument("--n", default=None, help="comma-separated list")
    p_sweep.add_argument("--dt", default=None, help="comma-separated list")
    p_sweep.add_argument("--t-end", type=float, default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--data-norm", type=float, default=None)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--config", default=None)
    p_sweep.set_defaults(func=cmd_sweep, defaults={
        "alpha": "0.1", "nu": "1.0", "n": "32", "dt": "0.00125", "t_end": 0.01,
        "seed": 0, "data_norm": 0.01, "out": "lanslab-out"})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_config(args, parser)
    for key, value in args.defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    if args.seed < 0:  # every command seeds numpy's generator with it
        return _usage_error(args.command, f"--seed must be >= 0, got {args.seed}")
    if not 0 <= getattr(args, "data_norm", 0.0) < np.inf:  # solve and sweep
        return _usage_error(args.command, f"--data-norm must be finite and >= 0, got {args.data_norm}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
