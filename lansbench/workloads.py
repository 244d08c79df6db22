"""The benchmark workloads: one `lanslab` command line each, plus its checks.

Sizes are set so that one run of --seconds 36 holds several commands on a
2-core machine (1.5-4 s per command, 5.5-9 s for solve64), because the
reported times are medians over a run's commands; README.md gives the
make-up of each input and why it was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import checks


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: tuple  # lanslab argv without --seed and --out
    result_file: str  # the file the command persists its result in

    def argv(self, seed: int, out: Path) -> list:
        return [*self.args, "--seed", str(seed), "--out", str(out)]

    def option(self, flag: str) -> str:
        return self.args[self.args.index(flag) + 1]


PIPELINE = Workload(
    "pipeline",
    "split/solve/recombine of B^(1/2)_(6,2) data at 16^3; nonlinear_rhs dominates",
    ("pipeline", "--n", "16", "--p", "6", "--p-tilde", "30", "--epsilon", "1e-3",
     "--data-scale", "0.01", "--t-end", "0.05", "--steps", "8"),
    "pipeline.json",
)

VERIFY = Workload(
    "verify",
    "product-estimate verifier: Besov norms at p != 2, partitions and ensembles; no solver",
    ("verify", "--suite", "product", "--n", "16"),
    "verify.json",
)

SOLVE64 = Workload(
    "solve64",
    "1 LANS step at 64^3 with checkpoint and CSV export: memory traffic and output",
    ("solve", "--equation", "lans", "--n", "64", "--alpha", "0.1", "--dt", "0.00125",
     "--t-end", "0.00125", "--data-norm", "0.01"),
    "final_state.field",
)

WORKLOADS = {w.name: w for w in (PIPELINE, VERIFY, SOLVE64)}

PRODUCT_CASES = ["product_estimate"] * 3


def check(workload: Workload, out: Path, read_field) -> list:
    """Problems found in one command's outputs (empty when correct)."""
    opt = workload.option
    if workload is PIPELINE:
        return checks.check_pipeline(out, steps=int(opt("--steps")), t_end=float(opt("--t-end")),
                                     epsilon=float(opt("--epsilon")),
                                     data_scale=float(opt("--data-scale")))
    if workload is VERIFY:
        return checks.check_verify(out, PRODUCT_CASES, n_axis=min(int(opt("--n")), 32))
    steps = round(float(opt("--t-end")) / float(opt("--dt")))
    return checks.check_solve(out, n=int(opt("--n")), steps=steps, alpha=float(opt("--alpha")),
                              data_norm=float(opt("--data-norm")), read_field=read_field)
