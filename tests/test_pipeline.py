"""Split/solve/recombine driver: pass path, abort paths, config guards."""

import numpy as np
import pytest

from lanslab import PipelineConfig, run_pipeline
from lanslab.pipeline import GATE_CONTRACTION_TARGET


@pytest.fixture(scope="module")
def small_report():
    return run_pipeline(PipelineConfig(n=16))


class TestPassPath:
    def test_status_and_tolerance(self, small_report):
        rep = small_report
        assert rep.passed
        assert rep.status == "pass"
        assert rep.discrepancy <= rep.tolerance
        assert rep.tolerance >= 10.0 * rep.self_error

    def test_trace_shape_matches_march(self, small_report):
        rep = small_report
        assert len(rep.times) == 33  # one per stored node
        assert len(rep.discrepancy_trace) == 33
        assert rep.discrepancy == np.max(rep.discrepancy_trace)

    def test_gate_recorded_as_converged(self, small_report):
        pic = small_report.picard
        assert pic["converged"]
        assert pic["final_delta"] < 1e-7
        assert all(r < 0.5 for r in pic["ratios"])

    def test_split_metadata(self, small_report):
        split = small_report.split
        assert split["tail_norm"] < 1e-3
        assert split["j_cut"] >= 1
        scanned = split["scanned"]
        assert scanned[0][0] == 1

    def test_side_monitors_attached(self, small_report):
        rep = small_report
        assert rep.energy["max_bound_ratio"] <= 1.0 + 1e-12
        assert rep.trace["weight"] == pytest.approx(0.5)
        assert np.isfinite(rep.trace["sup_value"])

    def test_serialization_is_plain_data(self, small_report):
        doc = small_report.to_report()
        assert doc["status"] == "pass"
        assert isinstance(doc["times"], list)
        assert isinstance(doc["split"]["scanned"][0], list)


@pytest.mark.parametrize("p", [3.5, 4.0, 12.0])
def test_passes_across_the_integrability_range(p):
    # p in (2, 3] is accepted too; these runs check split/recombine
    # consistency, the paper's theorem needs p > 3
    rep = run_pipeline(PipelineConfig(n=16, steps=8, p=p))
    assert rep.passed, rep.reason
    assert rep.discrepancy <= rep.tolerance


class TestAbortPaths:
    def test_oversized_data_fails_split(self):
        rep = run_pipeline(PipelineConfig(n=16, data_scale=1.0))
        assert rep.status == "aborted"
        assert rep.reason.startswith("split:")
        assert rep.split["achievable"] > 1e-3
        assert np.isnan(rep.discrepancy)
        assert rep.picard == {}

    def test_oversized_data_fails_contraction_gate(self):
        # relax the tail target so the run survives the split, then let the
        # gate certificate catch the out-of-regime data
        rep = run_pipeline(PipelineConfig(n=16, steps=8, data_scale=400.0, epsilon=1e4))
        assert rep.status == "aborted"
        assert rep.reason.startswith("contraction gate:")
        assert not rep.picard["converged"]
        assert rep.picard["last_ratio"] > GATE_CONTRACTION_TARGET
        assert rep.split["tail_norm"] < 1e4

    def test_small_data_passes_same_gate(self):
        # identical gate threshold: only the data size separates the runs
        assert run_pipeline(PipelineConfig(n=16, steps=8, data_scale=0.01, epsilon=1e4)).passed

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_background_blowup_aborts(self):
        # the v solve goes non-finite at step 5: an aborted report, not a traceback
        rep = run_pipeline(PipelineConfig(n=16, steps=8, data_scale=1e5, epsilon=1e9))
        assert rep.status == "aborted"
        assert rep.reason == "solver: non-finite state at step 5, t = 0.03125"
        assert rep.picard == {}
        assert np.isnan(rep.discrepancy) and rep.times is None
        assert rep.split["j_cut"] >= 1


class TestConfigGuards:
    def test_steps_must_nest_gate_grid(self):
        with pytest.raises(ValueError, match="multiple of 8"):
            PipelineConfig(steps=30)

    def test_integrability_floor(self):
        with pytest.raises(ValueError, match="exceed 2"):
            PipelineConfig(p=2.0)

    @pytest.mark.parametrize("alpha", [1e-200, 7.4e-155])
    def test_alpha_minus_two_must_be_finite(self, alpha):
        # the energy envelope's alpha^-2 overflows a double: rejected before any work
        with pytest.raises(ValueError, match=f"alpha = {alpha}"):
            PipelineConfig(alpha=alpha)
        assert PipelineConfig(alpha=7.5e-155).alpha == 7.5e-155

    def test_dt_property(self):
        assert PipelineConfig(t_end=0.05, steps=32).dt == pytest.approx(0.0015625)
