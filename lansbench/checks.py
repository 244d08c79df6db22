"""Output checks for the benchmark workloads.

Every check compares an output against a property of the method or
against a quantity recomputed here with numpy alone: closed-form
exponents, acceptance lines rebuilt from their definitions, Parseval sums
of an FFT taken by this module.  None compares against stored output.
Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

DIM = 3  # the CLI pins every suite and solve to the 3-torus
R_SQUARED_FLOOR = 0.98
MIN_FIT_POINTS = 3


def _inv(p) -> float:
    p = float(p)  # the reports write inf as the string "inf"
    return 0.0 if np.isinf(p) else 1.0 / p


def _close(a, b, rel: float) -> bool:
    a, b = float(a), float(b)
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _report(path: Path) -> dict:
    return json.loads(path.read_text())["report"]


def _csv_table(path: Path, header: list) -> np.ndarray:
    """Rows of a lanslab CSV: '# manifest=...' line, header line, numbers."""
    with open(path) as fh:
        first, second = fh.readline(), fh.readline().strip()
    if not first.startswith("# manifest="):
        raise ValueError(f"{path.name}: missing manifest line")
    if second.split(",") != header:
        raise ValueError(f"{path.name}: header {second!r}, expected {header}")
    return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)


# ------------------------------------------------------------------ pipeline


def check_pipeline(out: Path, steps: int, t_end: float, epsilon: float,
                   data_scale: float, gate_target: float = 0.5) -> list:
    """Split/solve/recombine report of `lanslab pipeline`."""
    rep = _report(out / "pipeline.json")
    problems = []
    if rep["status"] != "pass":
        return [f"pipeline status {rep['status']!r}: {rep['reason']}"]
    trace = np.asarray(rep["discrepancy_trace"], dtype=float)
    times = np.asarray(rep["times"], dtype=float)
    if trace.shape != (steps + 1,) or times.shape != (steps + 1,):
        problems.append(f"trace has {trace.size} nodes, expected {steps + 1}")
        return problems
    if not np.allclose(times, np.arange(steps + 1) * (t_end / steps), rtol=1e-12, atol=0.0):
        problems.append("time nodes are not k * t_end / steps")
    if float(rep["discrepancy"]) != float(np.max(trace)):
        problems.append("discrepancy is not the max of its trace")
    # acceptance line: 10x the dt/2 self-convergence error
    tolerance = 10.0 * float(rep["self_error"]) + 1e-14 * data_scale
    if not _close(rep["tolerance"], tolerance, 1e-12):
        problems.append(f"tolerance {rep['tolerance']} != 10 * self_error + 1e-14 * scale = {tolerance}")
    if not float(rep["discrepancy"]) <= tolerance:
        problems.append(f"discrepancy {rep['discrepancy']} exceeds {tolerance}")
    # the split is coefficient-exact, so the t = 0 gap is roundoff
    if not trace[0] <= 1e-12 * data_scale:
        problems.append(f"discrepancy at t=0 is {trace[0]:.3e}, not roundoff")
    split = rep["split"]
    if not float(split["tail_norm"]) < epsilon:
        problems.append(f"tail norm {split['tail_norm']} not below epsilon {epsilon}")
    if not split["scanned"] or float(split["scanned"][-1][1]) != float(split["tail_norm"]):
        problems.append("tail norm is not the last scanned level's norm")
    picard = rep["picard"]
    if not picard.get("converged"):
        problems.append("contraction gate did not converge")
    ratios = [float(r) for r in picard.get("ratios", [])]
    if any(not r <= gate_target for r in ratios):
        problems.append(f"Picard ratio above {gate_target}: {max(ratios)}")
    if len(ratios) != picard.get("iterations", 0) - 1:
        problems.append("one Picard ratio per iterate after the first is missing")
    table = _csv_table(out / "discrepancy.csv", ["t", "discrepancy"])
    if table.shape != (steps + 1, 2) or not np.array_equal(table[:, 1], trace):
        problems.append("discrepancy.csv differs from the report's trace")
    return problems


# ------------------------------------------------------------------ verify


def predicted_slope(record: dict):
    """Closed-form exponent of a verifier record, or None if it has none."""
    case, prm = record["case"], record.get("params", {})
    if case == "bernstein":
        return float(prm["beta"]) + DIM * (_inv(prm["p"]) - _inv(prm["q"]))
    if case == "heat_smoothing":
        return -(float(prm["s2"]) - float(prm["s1"]) + DIM * _inv(prm["p1"]) - DIM * _inv(prm["p2"])) / 2.0
    if case == "product_estimate":
        return 0.0  # stability under refinement: no growth predicted
    return None


def _check_fit(rec: dict, predicted: float, rel_tol: float) -> list:
    meas = rec["measured"]
    slope, r2 = float(meas["slope"]), float(meas["r_squared"])
    levels = rec["params"].get("levels", [])
    problems = []
    if len(levels) < MIN_FIT_POINTS:
        problems.append(f"{rec['case']}: {len(levels)} levels, need {MIN_FIT_POINTS}")
    if not r2 >= R_SQUARED_FLOOR:
        problems.append(f"{rec['case']}: r^2 {r2} below {R_SQUARED_FLOOR}")
    tol = max(rel_tol * abs(predicted), 0.02)
    if not abs(slope - predicted) <= tol:
        problems.append(f"{rec['case']}: slope {slope} outside {predicted} +- {tol}")
    return problems


def check_verify_record(rec: dict) -> list:
    """Pass criteria of one `lanslab verify` record, rebuilt from its params.

    Covers the bernstein, heat_smoothing and product_estimate verifiers.
    """
    case = rec["case"]
    problems = [] if rec["status"] == "pass" else [f"{case}: status {rec['status']!r}"]
    meas = rec["measured"]
    predicted = predicted_slope(rec)
    if predicted is not None and not _close(rec["predicted"]["slope"], predicted, 1e-12):
        problems.append(f"{case}: predicted slope {rec['predicted']['slope']} != closed form {predicted}")
    prm = rec.get("params", {})
    if case == "bernstein":
        problems += _check_fit(rec, predicted, 0.05)
    elif case == "heat_smoothing":
        times = [4.0 ** (-j) for j in prm["levels"]]
        if not np.allclose([float(t) for t in prm["times"]], times, rtol=1e-12):
            problems.append(f"{case}: probe times are not 4^-j")
        if predicted == 0.0:
            if not float(meas["max_constant"]) < 4.0 * float(meas["min_constant"]):
                problems.append(f"{case}: bounded ratio spread is 4x or more")
        else:
            problems += _check_fit(rec, predicted, 0.10)
    elif case == "product_estimate":
        s1, p1, s2, p2, p = (float(prm[k]) for k in ("s1", "p1", "s2", "p2", "p"))
        s = s1 + s2 - DIM * (1.0 / p1 + 1.0 / p2 - 1.0 / p)
        if not _close(prm["s"], s, 1e-12):
            problems.append(f"{case}: s {prm['s']} != s1 + s2 - n(1/p1 + 1/p2 - 1/p) = {s}")
        if not (s1 < DIM / p1 and s2 < DIM / p2 and s1 + s2 > 0 and 1.0 / p <= 1.0 / p1 + 1.0 / p2):
            problems.append(f"{case}: parameters outside the estimate's hypotheses")
        if not float(meas["slope"]) < 1.0:
            problems.append(f"{case}: constant grew by 2x or more under refinement")
    else:
        problems.append(f"no check for verify record {case!r}")
    return problems


def check_verify(out: Path, cases: list, n_axis: int) -> list:
    """`lanslab verify` report: the expected records, each one passing."""
    records = _report(out / "verify.json")["records"]
    got = [r["case"] for r in records]
    if got != cases:
        return [f"verify records {got}, expected {cases}"]
    problems = []
    for rec in records:
        problems += check_verify_record(rec)
        axis = rec.get("params", {}).get("n_axis")
        if axis is not None and int(axis) != n_axis:
            problems.append(f"{rec['case']}: grid {axis}, expected {n_axis}")
    return problems


# ------------------------------------------------------------------ solve


def spectral_velocity(samples: np.ndarray, box: float = 2.0 * np.pi):
    """Fourier coefficients (series normalization) and wavenumbers."""
    n = samples.shape[-1]
    coeffs = np.fft.fftn(samples, axes=(1, 2, 3)) / n**3
    k1 = np.fft.fftfreq(n, d=1.0 / n) * (2.0 * np.pi / box)
    k = np.meshgrid(k1, k1, k1, indexing="ij", sparse=True)
    return coeffs, k


def csv_velocity(path: Path, n: int) -> np.ndarray:
    """final_state.csv -> samples of shape (3, n, n, n), checking the grid."""
    table = _csv_table(path, ["x1", "x2", "x3", "f1", "f2", "f3"])
    if table.shape != (n**3, 6):
        raise ValueError(f"{path.name}: shape {table.shape}, expected {(n**3, 6)}")
    spacing = 2.0 * np.pi / n
    idx = np.indices((n, n, n)).reshape(3, -1)
    if not np.allclose(table[:, :3].T, spacing * idx, rtol=0.0, atol=1e-12):
        raise ValueError(f"{path.name}: coordinates are not the {n}^3 grid in C order")
    return table[:, 3:].T.reshape(3, n, n, n)


def check_solve(out: Path, n: int, steps: int, alpha: float, data_norm: float,
                read_field=None) -> list:
    """`lanslab solve` outputs: CSV field, norm trace and checkpoint."""
    problems = []
    u = csv_velocity(out / "final_state.csv", n)
    coeffs, k = spectral_velocity(u)
    vol = (2.0 * np.pi) ** 3
    ksq = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
    power = np.sum(np.abs(coeffs) ** 2, axis=0)
    l2 = np.sqrt(vol * power.sum())
    div = 1j * (k[0] * coeffs[0] + k[1] * coeffs[1] + k[2] * coeffs[2])
    rel_div = np.sqrt(vol * np.sum(np.abs(div) ** 2)) / l2
    if not rel_div <= 1e-10:
        problems.append(f"final state relative divergence {rel_div:.3e} > 1e-10")
    energy = l2**2 + alpha**2 * vol * np.sum(ksq * power)

    norms = _csv_table(out / "norms.csv", ["t", "l2", "besov_3half_2_2", "energy_pair"])
    if norms.shape[0] != steps + 1:
        return problems + [f"norms.csv has {norms.shape[0]} rows, expected {steps + 1}"]
    last = norms[-1]
    if not _close(last[1], l2, 1e-10):
        problems.append(f"L2 {l2!r} from the CSV != norms.csv {last[1]!r}")
    if not _close(last[3], energy, 1e-10):
        problems.append(f"energy pair {energy!r} from the CSV != norms.csv {last[3]!r}")
    # LANS-alpha energy dissipation: the pair never grows
    if np.any(np.diff(norms[:, 3]) > 1e-12 * norms[0, 3]):
        problems.append("energy pair increases along the trajectory")
    if not _close(norms[0, 2], data_norm, 1e-10):
        problems.append(f"initial Besov norm {norms[0, 2]!r} != --data-norm {data_norm}")

    summary = _report(out / "solve.json")
    if summary["steps"] != steps or not _close(summary["final_l2"], last[1], 1e-15):
        problems.append("solve.json disagrees with norms.csv")
    if read_field is not None:
        field = read_field(out / "final_state.field")
        if (field.grid.dim, field.grid.points_per_axis) != (DIM, n) or field.coeffs.shape != (DIM, n, n, n):
            problems.append(f"checkpoint grid {field.grid} is not {n}^3")
        else:
            gap = np.max(np.abs(field.coeffs - coeffs)) / np.max(np.abs(coeffs))
            if not gap <= 1e-12:
                problems.append(f"checkpoint differs from the CSV's FFT by {gap:.3e}")
    return problems
