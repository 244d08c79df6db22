"""The output checks accept correct outputs and fire on corrupted ones.

Run with `python3 -m pytest lansbench/tests` from the checkout root.
"""

import contextlib
import copy
import io
import json

import numpy as np
import pytest

from lansbench import checks
from lanslab import TorusGrid, read_field, verify_bernstein, verify_product_estimate
from lanslab.cli import main as lanslab_main

N, STEPS, ALPHA, DATA_NORM = 16, 2, 0.1, 0.01


@pytest.fixture(scope="module")
def solve_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve")
    with contextlib.redirect_stdout(io.StringIO()):
        code = lanslab_main(["solve", "--equation", "lans", "--n", str(N), "--alpha", str(ALPHA),
                             "--dt", "0.00125", "--t-end", "0.0025", "--data-norm", str(DATA_NORM),
                             "--seed", "3", "--out", str(out)])
    assert code == 0
    return out


def _check_solve(out):
    return checks.check_solve(out, n=N, steps=STEPS, alpha=ALPHA, data_norm=DATA_NORM, read_field=read_field)


def _rewrite_csv(src, dst, transform):
    """Copy a lanslab CSV, passing its numeric table through transform."""
    lines = src.read_text().splitlines()
    table = np.loadtxt(src, delimiter=",", skiprows=2, ndmin=2)
    body = [",".join(f"{v:.17g}" for v in row) for row in transform(table)]
    dst.write_text("\n".join(lines[:2] + body) + "\n")


def _copy_solve(solve_out, tmp_path):
    for name in ("final_state.csv", "final_state.field", "norms.csv", "solve.json"):
        (tmp_path / name).write_bytes((solve_out / name).read_bytes())
    return tmp_path


def test_solve_outputs_pass(solve_out):
    assert _check_solve(solve_out) == []


def test_solve_gradient_field_fires(solve_out, tmp_path):
    out = _copy_solve(solve_out, tmp_path)

    def add_gradient(table):
        # grad of sin(x1) is (cos x1, 0, 0): a pure gradient, so divergent
        bumped = table.copy()
        bumped[:, 3] += np.abs(table[:, 3:]).max() * np.cos(table[:, 0])
        return bumped

    _rewrite_csv(solve_out / "final_state.csv", out / "final_state.csv", add_gradient)
    problems = _check_solve(out)
    assert any("divergence" in p for p in problems)
    assert any("checkpoint differs" in p for p in problems)


def test_solve_energy_growth_fires(solve_out, tmp_path):
    out = _copy_solve(solve_out, tmp_path)

    def grow(table):
        grown = table.copy()
        grown[-1, 3] = 1.01 * table[0, 3]
        return grown

    _rewrite_csv(solve_out / "norms.csv", out / "norms.csv", grow)
    problems = _check_solve(out)
    assert any("energy pair increases" in p for p in problems)
    assert any("energy pair" in p and "from the CSV" in p for p in problems)


def test_solve_wrong_data_norm_fires(solve_out):
    problems = checks.check_solve(solve_out, n=N, steps=STEPS, alpha=ALPHA, data_norm=2 * DATA_NORM)
    assert any("initial Besov norm" in p for p in problems)


# ------------------------------------------------------------------ verify


@pytest.fixture(scope="module")
def records():
    grid = TorusGrid(dim=3, points_per_axis=64)
    return {
        "bernstein": verify_bernstein(1.0, 2.0, 4.0, grid=grid, seed=1, per_level=2).to_report(),
        "product": verify_product_estimate(0.5, 4.0, 0.5, 4.0, 4.0, grid=TorusGrid(3, 16), seed=1,
                                           pairs=4).to_report(),
    }


def _heat_record(slope):
    """A heat-smoothing record shaped like the verifier's, slope set by hand."""
    return {"case": "heat_smoothing", "status": "pass",
            "params": {"s1": 0.5, "p1": 2.0, "s2": 1.5, "p2": 6.0, "q": 2.0, "n_axis": 128,
                       "levels": [1, 2, 3], "times": [0.25, 0.0625, 0.015625]},
            "measured": {"slope": slope, "r_squared": 0.999, "max_constant": 1.0, "min_constant": 0.9},
            "predicted": {"slope": -1.0}}


def test_real_records_pass(records):
    for rec in records.values():
        assert checks.check_verify_record(json.loads(json.dumps(rec, default=float))) == []


def test_closed_forms():
    assert checks.predicted_slope({"case": "bernstein", "params": {"beta": 1.0, "p": 2.0, "q": 4.0}}) == 1.75
    assert checks.predicted_slope({"case": "bernstein", "params": {"beta": 0.0, "p": 2.0, "q": "inf"}}) == 1.5
    assert checks.predicted_slope(_heat_record(-1.0)) == -1.0


def test_slope_outside_tolerance_fires(records):
    rec = copy.deepcopy(records["bernstein"])
    rec["measured"]["slope"] = rec["predicted"]["slope"] + 0.2
    assert any("outside" in p for p in checks.check_verify_record(rec))
    assert checks.check_verify_record(_heat_record(-1.05)) == []
    assert any("outside" in p for p in checks.check_verify_record(_heat_record(-1.2)))


def test_wrong_predicted_exponent_fires(records):
    rec = copy.deepcopy(records["bernstein"])
    rec["predicted"]["slope"] += 0.5
    assert any("closed form" in p for p in checks.check_verify_record(rec))
    heat = _heat_record(-1.0)
    heat["params"]["p2"] = 4.0
    assert any("closed form" in p for p in checks.check_verify_record(heat))


def test_product_record_corruptions_fire(records):
    rec = copy.deepcopy(records["product"])
    rec["params"]["s"] += 0.1
    assert any("s1 + s2" in p for p in checks.check_verify_record(rec))
    rec = copy.deepcopy(records["product"])
    rec["measured"]["slope"] = 1.5
    assert any("grew" in p for p in checks.check_verify_record(rec))
    rec = copy.deepcopy(records["product"])
    rec["status"] = "fail"
    assert any("status" in p for p in checks.check_verify_record(rec))


def test_verify_report_record_list(tmp_path, records):
    rec = json.loads(json.dumps(records["product"], default=float))
    (tmp_path / "verify.json").write_text(json.dumps({"manifest": "x", "report": {"records": [rec]}}))
    assert checks.check_verify(tmp_path, ["product_estimate"], n_axis=16) == []
    assert checks.check_verify(tmp_path, ["product_estimate"] * 3, n_axis=16) != []
    assert any("grid" in p for p in checks.check_verify(tmp_path, ["product_estimate"], n_axis=32))


# ------------------------------------------------------------------ pipeline

P_STEPS, P_T_END, P_EPS, P_SCALE = 8, 0.05, 1e-3, 0.01


def _pipeline_report():
    trace = [1e-20] + [1e-17 * k for k in range(1, P_STEPS + 1)]
    self_error = 5e-12
    return {"status": "pass", "reason": "discrepancy within tolerance",
            "discrepancy": max(trace), "self_error": self_error,
            "tolerance": 10.0 * self_error + 1e-14 * P_SCALE,
            "split": {"j_cut": 2, "tail_norm": 1.3e-4, "scanned": [[1, 0.02], [2, 1.3e-4]]},
            "picard": {"converged": True, "iterations": 2, "final_delta": 4e-12, "ratios": [2.5e-5]},
            "times": [k * P_T_END / P_STEPS for k in range(P_STEPS + 1)],
            "discrepancy_trace": trace}


def _write_pipeline(out, rep):
    (out / "pipeline.json").write_text(json.dumps({"manifest": "x", "report": rep}))
    rows = "\n".join("%.17g,%.17g" % (t, d) for t, d in zip(rep["times"], rep["discrepancy_trace"]))
    (out / "discrepancy.csv").write_text("# manifest=x\nt,discrepancy\n" + rows + "\n")


def _check_pipeline(out):
    return checks.check_pipeline(out, steps=P_STEPS, t_end=P_T_END, epsilon=P_EPS, data_scale=P_SCALE)


def test_pipeline_report_passes(tmp_path):
    _write_pipeline(tmp_path, _pipeline_report())
    assert _check_pipeline(tmp_path) == []


@pytest.mark.parametrize("corrupt, message", [
    (lambda r: r["discrepancy_trace"].__setitem__(0, 1e-9), "t=0"),
    (lambda r: r["picard"]["ratios"].__setitem__(0, 0.6), "Picard ratio"),
    (lambda r: r["split"].update(tail_norm=2e-3, scanned=[[2, 2e-3]]), "tail norm"),
    (lambda r: r["discrepancy_trace"].__setitem__(-1, 1e-9), "exceeds"),
    (lambda r: r.update(status="fail", reason="discrepancy exceeds tolerance"), "status"),
])
def test_pipeline_corruptions_fire(tmp_path, corrupt, message):
    rep = _pipeline_report()
    corrupt(rep)
    rep["discrepancy"] = max(rep["discrepancy_trace"])
    _write_pipeline(tmp_path, rep)
    assert any(message in p for p in _check_pipeline(tmp_path))
