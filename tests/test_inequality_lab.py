"""Scaling verifiers: measured exponents against their predictions, the
hypothesis gates, and the inconclusive paths on grids too coarse to fit.
"""

import numpy as np
import pytest

from lanslab import (
    HypothesisViolation,
    TorusGrid,
    verify_bernstein,
    verify_embedding,
    verify_heat_smoothing,
    verify_ladyzhenskaya,
    verify_product_estimate,
)


class TestBernstein:
    def test_integrability_gain_slope(self, grid32):
        # L2 -> Linf on shell j costs 2^(j n / 2): slope 1.5 in log2
        fit = verify_bernstein(0.0, 2.0, np.inf, grid=grid32, per_level=4, levels=[1, 2, 3])
        assert fit.passed
        assert fit.measured_slope == pytest.approx(1.5, abs=0.08)
        assert fit.r_squared > 0.98

    def test_derivative_slope(self, grid32):
        fit = verify_bernstein(1.0, 2.0, 2.0, grid=grid32, per_level=4, levels=[1, 2, 3])
        assert fit.passed
        assert fit.measured_slope == pytest.approx(1.0, abs=0.05)

    def test_too_few_levels_is_inconclusive(self, grid32):
        fit = verify_bernstein(0.0, 2.0, np.inf, grid=grid32, per_level=4, levels=[2, 3])
        assert fit.status == "inconclusive"

    def test_hypothesis_gate(self, grid32):
        with pytest.raises(HypothesisViolation):
            verify_bernstein(0.0, 4.0, 2.0, grid=grid32)  # q < p
        with pytest.raises(HypothesisViolation):
            verify_bernstein(-1.0, 2.0, 2.0, grid=grid32)


class TestHeatSmoothing:
    def test_gain_exponent_on_fine_grid(self):
        # one derivative of smoothing costs t^(-1/2)
        fit = verify_heat_smoothing(0.5, 2.0, 1.5, 2.0, grid=TorusGrid(3, 128), ensemble=2)
        assert fit.passed
        assert fit.measured_slope == pytest.approx(-0.5, abs=0.05)

    def test_no_gain_case_checks_plateau(self):
        # equal indices: no time exponent, the shell constants must agree
        fit = verify_heat_smoothing(0.5, 2.0, 0.5, 2.0, grid=TorusGrid(3, 64), ensemble=4)
        assert fit.passed
        assert fit.predicted_slope == 0.0

    def test_two_levels_is_inconclusive(self):
        fit = verify_heat_smoothing(0.5, 2.0, 1.5, 2.0, grid=TorusGrid(3, 64), ensemble=2)
        assert fit.status == "inconclusive"

    def test_coarse_grid_reports_no_usable_shells(self, grid16):
        fit = verify_heat_smoothing(0.5, 2.0, 1.5, 2.0, grid=grid16, ensemble=2)
        assert fit.status == "inconclusive"
        assert "too coarse" in fit.notes

    def test_shell_outside_ball_rejected(self, grid32):
        # shell 2 tops out at 8, the covered ball at N = 32 stops at 4
        with pytest.raises(ValueError):
            verify_heat_smoothing(0.5, 2.0, 1.5, 2.0, grid=grid32, levels=[2])


class TestProductEstimate:
    def test_admissible_set_is_stable(self, grid16):
        fit = verify_product_estimate(1.0, 2.0, 1.0, 2.0, 2.0, grid=grid16, pairs=12)
        assert fit.passed
        # one-sided: constants may settle, must not double on refinement
        assert fit.measured_slope < 1.0
        assert np.isfinite(fit.max_constant)

    def test_regularity_cap_enforced(self, grid16):
        with pytest.raises(HypothesisViolation) as err:
            verify_product_estimate(2.0, 2.0, 1.0, 2.0, 2.0, grid=grid16, pairs=4)
        assert "s1" in str(err.value)

    def test_positive_sum_enforced(self, grid16):
        with pytest.raises(HypothesisViolation) as err:
            verify_product_estimate(-1.0, 2.0, 0.5, 2.0, 2.0, grid=grid16, pairs=4)
        assert "s1 + s2" in str(err.value)

    def test_integrability_compatibility_enforced(self, grid16):
        # target integrability finer than the Hoelder combination
        with pytest.raises(HypothesisViolation):
            verify_product_estimate(1.0, 4.0, 1.0, 4.0, 1.0, grid=grid16, pairs=4)


class TestEmbeddings:
    def test_q_monotonicity_exact(self, grid16):
        fit = verify_embedding(
            "q_monotonicity", grid=grid16, ensemble=10, s=0.5, p=2.0, q1=1.0, q2=2.0
        )
        assert fit.passed
        assert fit.max_constant <= 1.0 + 1e-12

    def test_p_integrability(self, grid16):
        fit = verify_embedding(
            "p_integrability", grid=grid16, ensemble=10, gamma2=0.5, p1=2.0, p2=4.0, q=2.0
        )
        assert fit.passed

    def test_sobolev_upper(self, grid16):
        fit = verify_embedding(
            "sobolev_upper", grid=grid16, ensemble=10, s=0.5, r=1.0, p=2.0, q=2.0
        )
        assert fit.passed

    def test_sobolev_identity_two_sided(self, grid16):
        fit = verify_embedding("sobolev_identity", grid=grid16, ensemble=10, s=1.5)
        assert fit.passed
        assert 0.1 <= fit.min_constant <= fit.max_constant <= 10.0

    def test_hypothesis_gates(self, grid16):
        with pytest.raises(HypothesisViolation):
            verify_embedding("q_monotonicity", grid=grid16, s=0.5, p=2.0, q1=2.0, q2=1.0)
        with pytest.raises(HypothesisViolation):
            verify_embedding("p_integrability", grid=grid16, gamma2=0.5, p1=4.0, p2=2.0, q=2.0)
        with pytest.raises(HypothesisViolation):
            verify_embedding("sobolev_upper", grid=grid16, s=1.0, r=1.0, p=2.0, q=2.0)


class TestLadyzhenskaya:
    def test_interpolation_constant_is_one(self, grid16):
        fit = verify_ladyzhenskaya(1.0, 2.0, grid=grid16, ensemble=20)
        assert fit.passed
        assert fit.max_constant <= 1.0 + 1e-12

    def test_single_modes_achieve_equality(self, grid16):
        fit = verify_ladyzhenskaya(1.0, 2.0, grid=grid16, ensemble=20)
        assert fit.min_constant == pytest.approx(1.0, abs=1e-10)

    def test_ordering_enforced(self, grid16):
        with pytest.raises(HypothesisViolation):
            verify_ladyzhenskaya(2.0, 1.0, grid=grid16)
