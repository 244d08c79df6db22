"""lanslab benchmark: run one workload for a fixed time and report metrics.

    python3 lansbench/run.py --workload pipeline --seed 1 --seconds 36 --trace 0
    python3 lansbench/run.py --workload all --seed 1 --seconds 36

Run from the root of a lanslab checkout; the package is imported from
./src, never from an installed copy.  One process runs the workload's
`lanslab` command repeatedly in-process (each command is one operation,
and its outputs are checked after it), starting another command only
while it is expected to end within --seconds.  With --trace 0 it reports
the end-to-end metrics of BENCHMARK.json, with each time referred to the
machine speed that lansbench/reference.py measures during it; with
--trace 1 it runs the same untraced loop, then one traced command, and
reports the per-layer metrics.  The last line of standard output is one
JSON object.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported; numpy's
# pocketfft is single-threaded, so a run computes on one core of two.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "lansbench-out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

sys.path.insert(0, str(ROOT))

from lansbench.reference import NOMINAL_S, SpeedProbe  # noqa: E402
from lansbench.tracer import ROOT_LAYER, Tracer  # noqa: E402
from lansbench.workloads import WORKLOADS, check  # noqa: E402


def import_cli(tracer=None):
    """Import lanslab.cli from ./src; FFT wrappers go in before the import."""
    sys.path.insert(0, str(SRC))
    if tracer is not None:
        tracer.install_fft()
    import lanslab.cli

    if not Path(lanslab.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"lansbench: imported {lanslab.__file__}, not the checkout's sources")
    return lanslab.cli


def setup_probe(workload, seed: int):
    """Everything a run does before its first command, then print the clock.

    time.monotonic is system-wide on Linux, so the parent can subtract the
    time it started this process.
    """
    import_cli()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{workload.name}-") as tmp:
        workload.argv(seed, Path(tmp) / "out")
        print(repr(time.monotonic()), flush=True)


def measure_setup(workload, seed: int) -> list:
    """(seconds, start) from process start to the first command, over fresh
    processes; start is the parent's perf_counter when it started one."""
    probes = []
    for _ in range(SETUP_PROBES):
        start, started = time.monotonic(), time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload.name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        probes.append((float(done.stdout.split()[-1]) - start, started))
    return probes


def run_command(cli, workload, seed: int, tracer=None) -> dict:
    """One operation: the lanslab command in a temp dir, then its checks."""
    from lanslab.fieldio import read_field

    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{workload.name}-") as tmp:
        out = Path(tmp) / "out"
        argv = workload.argv(seed, out)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    tracer.enabled = True
                    try:
                        code = tracer.span(ROOT_LAYER, cli.main, argv)
                    finally:
                        tracer.enabled = False
        except (Exception, SystemExit) as err:
            traceback.print_exc()
            return {"failed": f"{type(err).__name__}: {err}", "wall_s": time.perf_counter() - start,
                    "start": start}
        wall = time.perf_counter() - start
        if code != 0:
            return {"failed": f"exit code {code}", "wall_s": wall, "start": start}
        try:
            problems = check(workload, out, read_field)
            size = (out / workload.result_file).stat().st_size
        except (OSError, ValueError, KeyError, TypeError, IndexError) as err:
            problems, size = [f"unreadable output: {type(err).__name__}: {err}"], 0
    return {"wall_s": wall, "start": start, "problems": problems, "bytes": size}


def run_loop(cli, workload, seed: int, seconds: float) -> list:
    """Repeat the command while the next one is expected to end in time."""
    ops = []
    begin = time.perf_counter()
    while True:
        op_start = time.perf_counter()
        ops.append(run_command(cli, workload, seed))
        now = time.perf_counter()
        if (now - begin) + (now - op_start) > seconds:
            return ops


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarize(ops: list) -> tuple:
    """(correct, attempted, failed) with a report line per problem."""
    failed = [op for op in ops if "failed" in op]
    wrong = [op for op in ops if op.get("problems")]
    for op in failed:
        print(f"  operation failed: {op['failed']}")
    for op in wrong:
        for problem in op["problems"]:
            print(f"  wrong output: {problem}")
    return not wrong, len(ops), len(failed)


def median_line(name: str, values: list, unit: str, what: str) -> float:
    value = statistics.median(values)
    print(f"  {name:<16s} {value:14.6g} {unit:<6s} median of {len(values)} {what}")
    return value


def end_to_end(cli, workload, seed: int, seconds: float) -> dict:
    """Untraced run: setup probes, the command loop, the end-to-end metrics.

    wall_s and setup_s are referred to the speed probe's nominal speed;
    the raw medians are printed beside them.
    """
    with SpeedProbe() as probe:
        setup = measure_setup(workload, seed)
        ops = run_loop(cli, workload, seed, seconds)
    correct, attempted, failed = summarize(ops)
    done = [op for op in ops if "failed" not in op] or ops
    units = {m["name"]: m["unit"] for m in benchmark_spec()["end_to_end"]}

    def referred(wall, start):
        return wall * NOMINAL_S / probe.kernel_s(start, start + wall)

    median_line("raw wall", [op["wall_s"] for op in done], "s", "commands, not referred")
    median_line("raw setup", [s for s, _ in setup], "s", "fresh processes, not referred")
    median_line("kernel", [probe.kernel_s(op["start"], op["start"] + op["wall_s"]) for op in done],
                "s", f"speed-probe means over the commands, nominal {NOMINAL_S:g} s")
    values = {
        "wall_s": median_line("wall_s", [referred(op["wall_s"], op["start"]) for op in done],
                              units["wall_s"], "commands, referred"),
        "setup_s": median_line("setup_s", [referred(t, start) for t, start in setup],
                               units["setup_s"], "fresh processes, referred"),
        "peak_rss_mb": median_line("peak_rss_mb", [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
                                   units["peak_rss_mb"], "process"),
        "checkpoint_bytes": median_line("checkpoint_bytes", [op.get("bytes", 0) for op in done],
                                        units["checkpoint_bytes"], "commands"),
    }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def per_layer(tracer, cli, workload, seed: int, seconds: float) -> dict:
    """Untraced loop for the baseline, then one traced command."""
    untraced = run_loop(cli, workload, seed, seconds)
    tracer.install_lanslab()
    traced = run_command(cli, workload, seed, tracer)
    correct, attempted, failed = summarize(untraced + [traced])
    baseline = statistics.median(op["wall_s"] for op in untraced)
    measured = tracer.metrics()
    measured["trace.wall_s"] = traced["wall_s"]
    measured["trace.overhead_s"] = traced["wall_s"] - baseline
    tracer.write(OUT / f"trace-{workload.name}-seed{seed}.json",
                 {"workload": workload.name, "seed": seed, "untraced_median_s": baseline,
                  "traced_wall_s": traced["wall_s"]})
    metrics = {}
    for spec in benchmark_spec()["per_layer"]:
        value = measured.get(spec["name"], 0)  # a layer the workload never entered
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:<44s} {value:14.6g} {spec['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, each in its own process, with a summary table."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exit code {done.returncode}")
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(f"{'workload':<10s} {'metric':<44s} {'value':>14s} unit     attempted failed correct")
    for name, res in results.items():
        for metric, entry in res["metrics"].items():
            print(f"{name:<10s} {metric:<44s} {entry['value']:14.6g} {entry['unit']:<8s} "
                  f"{res['attempted']:9d} {res['failed']:6d} {res['correct']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="pipeline, verify, solve64 or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "lanslab" / "__init__.py").is_file():
        print(f"lansbench: no lanslab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    seed = args.seed % 2**32  # lanslab seeds numpy's default_rng, which needs seed >= 0
    # One core for the command, the speed kernel and the set-up probes (which
    # inherit it): the two vCPUs drift apart in speed, so the kernel only
    # tracks the command's speed when both run on the same one.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.setup_probe:
        setup_probe(workload, seed)
        return 0
    tracer = Tracer() if args.trace else None
    cli = import_cli(tracer)
    OUT.mkdir(exist_ok=True)
    print(f"lansbench {workload.name} seed={seed} seconds={args.seconds:g} trace={args.trace}")
    if tracer is None:
        result = end_to_end(cli, workload, seed, args.seconds)
    else:
        result = per_layer(tracer, cli, workload, seed, args.seconds)
    print(f"  attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
