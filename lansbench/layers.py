"""Reference timings of single lanslab layers at 32^3 and 64^3.

    python3 lansbench/layers.py [--seed 1] [--repeats 5]

Times the layer list of ROADMAP.md (one vector transform, nonlinear_rhs
with and without a background, the Leray projection, a Besov norm at
p = 2 and p = 6, one marcher step, one Picard iterate) and counts each
one's scalar FFTs with the benchmark's tracer.  Prints a Markdown table:
the median over --repeats calls, and the FFT count of one call.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from lansbench.run import import_cli  # noqa: E402  (pins BLAS threads first)
from lansbench.tracer import Tracer  # noqa: E402


def layer_calls(n: int, seed: int) -> list:
    """(label, zero-argument call) pairs on an n^3 grid."""
    import numpy as np

    import lanslab as ll

    grid = ll.TorusGrid(dim=3, points_per_axis=n)
    cfg = ll.LansConfig(grid=grid, alpha=0.1, nu=1.0)
    part = ll.build_partition(grid)
    k_hi = 2.0**part.j_max
    u = ll.random_solenoidal(grid, np.random.default_rng(seed), k_max=k_hi)
    u = u * (0.01 / ll.l2_norm(u))
    v = ll.random_solenoidal(grid, np.random.default_rng(seed + 1), k_max=k_hi)
    v = v * (0.01 / ll.l2_norm(v))
    dt = 0.00625
    times = dt * np.arange(9)
    # the pipeline's contraction gate: 8 intervals, background v frozen in time
    traj = ll.Trajectory(times, [ll.heat_propagate(u, t) for t in times], config=cfg)
    v_traj = ll.Trajectory(times, [v] * len(times), config=cfg)
    mcfg = ll.MildSolverConfig(t_end=8 * dt, dt=dt, weight_index=ll.BesovIndex(1.5, 2.0, 2.0))
    return [
        ("vector inverse_transform", lambda: ll.inverse_transform(u)),
        ("nonlinear_rhs(u)", lambda: ll.nonlinear_rhs(u, cfg)),
        ("nonlinear_rhs(u, v)", lambda: ll.nonlinear_rhs(u, cfg, v)),
        ("leray_project", lambda: ll.leray_project(u)),
        ("Besov norm, p = 2", lambda: part.besov_norm(u, ll.BesovIndex(1.5, 2.0, 2.0))),
        ("Besov norm, p = 6", lambda: part.besov_norm(u, ll.BesovIndex(0.5, 6.0, 2.0))),
        ("marcher step (solve_lans, 1 step)", lambda: ll.solve_lans(u, cfg, dt, dt)),
        ("Picard iterate (duhamel_map, 9 nodes, with v)", lambda: ll.duhamel_map(traj, u, cfg, mcfg, v_traj)),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    tracer = Tracer()
    import_cli(tracer)  # FFT wrappers first, then lanslab from ./src
    rows = {}
    for n in (32, 64):
        for label, call in layer_calls(n, args.seed):
            tracer.counters.clear()
            tracer.enabled = True
            call()
            tracer.enabled = False
            ffts = tracer.counters["spectral.fft.scalar_transforms"]
            samples = []
            for _ in range(args.repeats):
                start = time.perf_counter()
                call()
                samples.append(time.perf_counter() - start)
            rows.setdefault(label, []).append((statistics.median(samples), ffts))
    print("| layer | 32^3 ms | 32^3 scalar FFTs | 64^3 ms | 64^3 scalar FFTs |")
    print("|---|---:|---:|---:|---:|")
    for label, cells in rows.items():
        print(f"| {label} | " + " | ".join(f"{1e3 * t:.3g} | {f}" for t, f in cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
