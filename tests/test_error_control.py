import json

import numpy as np
import pytest

from fracpow.error_control import (
    ActionResult,
    ErrorBudget,
    check_tolerance,
    error_coefficient,
    fracpow_action,
    node_error_bound,
    residual_thresholds,
    scalar_probe,
    tolerance_floor,
)
from fracpow.errors import ToleranceFloorError
from fracpow.oracle import absolute_error, dense_fracpow_action
from fracpow.quadrature import ShiftedQuadratureRule, build_rule
from fracpow.sparse import SpectralBounds, build_diagonal, build_laplacian_1d


class TestErrorBudget:
    def test_defaults(self):
        budget = ErrorBudget(1e-6)
        assert budget.quad_share == 0.5
        assert budget.solve_share == 0.5

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            ErrorBudget(0.0)
        with pytest.raises(ValueError):
            ErrorBudget(np.inf)

    def test_rejects_share_overflow(self):
        with pytest.raises(ValueError):
            ErrorBudget(1e-6, quad_share=0.7, solve_share=0.5)
        with pytest.raises(ValueError):
            ErrorBudget(1e-6, quad_share=1.0, solve_share=0.5)

    def test_allows_slack(self):
        budget = ErrorBudget(1e-6, quad_share=0.3, solve_share=0.3)
        assert budget.quad_share + budget.solve_share < 1.0


class TestErrorCoefficient:
    def test_zero_shift(self):
        assert error_coefficient(0.0, 2.0) == 1.0

    def test_shift_equal_lambda(self):
        assert error_coefficient(2.0, 2.0) == 0.5

    def test_worked_value(self):
        assert error_coefficient(3.0, 1.0) == 0.25

    def test_vectorized_and_monotone(self):
        sigma = np.array([0.0, 1.0, 10.0, 100.0])
        coef = error_coefficient(sigma, 5.0)
        assert coef.shape == sigma.shape
        assert np.all(np.diff(coef) < 0)

    def test_rejects_negative_shift(self):
        with pytest.raises(ValueError):
            error_coefficient(-1.0, 1.0)
        with pytest.raises(ValueError):
            error_coefficient(1.0, 0.0)


class TestResidualThresholds:
    def _rule(self, shifts, weights, alpha=0.5):
        return ShiftedQuadratureRule(alpha, "gj1", shifts, weights)

    def test_worked_example(self):
        # m = 10 equal nodes, sigma_k = lambda_max, omega_k = 0.05:
        # (0.5e-6 / 10) * 2 / 0.05 = 2e-6.
        shifts = np.linspace(1.0, 2.0, 10)
        rule = self._rule(shifts, np.full(10, 0.05))
        budget = ErrorBudget(1e-6)
        tau = residual_thresholds(rule, budget, lambda_max=shifts[3])[3]
        assert tau == pytest.approx(2e-6, rel=1e-12)

    def test_all_unity(self):
        rule = self._rule(np.array([0.0]), np.array([1.0]))
        tau = residual_thresholds(rule, ErrorBudget(2.0), lambda_max=1.0)[0]
        assert tau == pytest.approx(1.0, rel=1e-15)

    def test_doubling_epsilon_doubles_thresholds_exactly(self):
        rule = build_rule("gj1", 0.3, 9)
        t1 = residual_thresholds(rule, ErrorBudget(1e-6), 4.0)
        t2 = residual_thresholds(rule, ErrorBudget(2e-6), 4.0)
        np.testing.assert_array_equal(t2, 2.0 * t1)

    def test_larger_lambda_only_tightens(self):
        rule = build_rule("gj1", 0.3, 7)
        t1 = residual_thresholds(rule, ErrorBudget(1e-6), 2.0)
        t2 = residual_thresholds(rule, ErrorBudget(1e-6), 4.0)
        assert np.all(t2 < t1)  # every shift here is positive

    def test_zero_shift_invariant_under_lambda(self):
        rule = self._rule(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        t1 = residual_thresholds(rule, ErrorBudget(1e-6), 2.0)
        t2 = residual_thresholds(rule, ErrorBudget(1e-6), 20.0)
        assert t1[0] == t2[0]
        assert t2[1] < t1[1]


class TestNodeErrorBound:
    def test_zero_residual(self):
        assert node_error_bound(0.0, 1.0, 2.0, 0.7) == 0.0

    def test_unit_case(self):
        assert node_error_bound(1.0, 0.0, 5.0, 1.0) == 1.0

    def test_inverse_of_threshold(self):
        # Stopping exactly at the threshold spends exactly the per-node
        # slice of the solve budget.
        rule = build_rule("gj1", 0.4, 6)
        budget = ErrorBudget(1e-5)
        taus = residual_thresholds(rule, budget, 3.0)
        for k in range(rule.m):
            spent = node_error_bound(taus[k], rule.shifts[k], 3.0, rule.weights[k])
            assert spent == pytest.approx(budget.solve_share * budget.epsilon / rule.m, rel=1e-13)

    def test_rejects_negative_residual(self):
        with pytest.raises(ValueError):
            node_error_bound(-1.0, 0.0, 1.0, 1.0)


class TestToleranceFloor:
    def test_formula(self):
        eps_mach = float(np.finfo(np.float64).eps)
        assert tolerance_floor(2.0, 4.0, 0.5) == pytest.approx(1e3 * eps_mach * 2.0 * 2.0)

    def test_check_passes_and_raises(self):
        check_tolerance(ErrorBudget(1e-6), 1.0, 1.0, 0.5)
        with pytest.raises(ToleranceFloorError):
            check_tolerance(ErrorBudget(1e-15), 1.0, 1.0, 0.5)

    def test_action_rejects_hopeless_tolerance(self):
        A = build_laplacian_1d(4)
        with pytest.raises(ToleranceFloorError):
            fracpow_action(A, np.ones(4), 0.5, ErrorBudget(1e-40), "de")


class TestFracpowAction:
    def test_identity_action_is_identity(self):
        A = build_diagonal(np.ones(4))
        result = fracpow_action(A, np.ones(4), 0.3, ErrorBudget(1e-6), "gj1")
        assert absolute_error(result.y, np.ones(4)) <= 1e-6
        assert result.certified

    def test_two_by_two_square_root(self):
        A = build_diagonal([1.0, 4.0])
        b = np.array([1.0, 1.0])
        result = fracpow_action(A, b, 0.5, ErrorBudget(1e-9), "gj2")
        y_ref = dense_fracpow_action(A, b, 0.5)
        np.testing.assert_allclose(y_ref, [1.0, 2.0], rtol=1e-13)
        assert absolute_error(result.y, y_ref) <= 1e-9
        assert result.certified

    @pytest.mark.parametrize("family", ["gj1", "gj2", "de"])
    def test_moderate_laplacian_all_families(self, family):
        A = build_laplacian_1d(120)
        b = np.ones(120)
        result = fracpow_action(A, b, 0.2, ErrorBudget(1e-7), family)
        y_ref = dense_fracpow_action(A, b, 0.2)
        assert absolute_error(result.y, y_ref) <= 1e-7
        assert result.certified
        assert result.report.all_converged
        assert result.rule.m == result.report.shifts.size

    @pytest.mark.parametrize("family", ["gj1", "gj2", "de"])
    def test_zero_rhs(self, family):
        # Every rule is exact on b = 0: the 1-node rule of the requested
        # family goes through the same solve and certificate as any b.
        A = build_laplacian_1d(6)
        result = fracpow_action(A, np.zeros(6), 0.5, ErrorBudget(1e-8), family)
        assert result.rule.family == family
        assert result.rule.m == 1
        np.testing.assert_array_equal(result.y, np.zeros(6))
        assert result.certified
        assert result.report.total_matvecs == 0
        assert result.error_bound_sum == 0.0

    @pytest.mark.parametrize(
        "kwargs", [{"family": "bogus"}, {"max_iterations": 0}], ids=["family", "max_iterations"]
    )
    def test_zero_rhs_validates_like_any_rhs(self, kwargs):
        A = build_laplacian_1d(6)
        with pytest.raises(ValueError):
            fracpow_action(A, np.zeros(6), 0.5, ErrorBudget(1e-8), **kwargs)

    def test_alpha_validation(self):
        A = build_laplacian_1d(4)
        with pytest.raises(ValueError):
            fracpow_action(A, np.ones(4), 1.0, ErrorBudget(1e-6), "de")
        with pytest.raises(ValueError):
            fracpow_action(A, np.ones(4), 0.5, ErrorBudget(1e-6), "bogus")

    def test_shape_validation(self):
        A = build_laplacian_1d(4)
        with pytest.raises(ValueError):
            fracpow_action(A, np.ones(5), 0.5, ErrorBudget(1e-6), "de")

    def test_bounds_override_used_verbatim(self):
        A = build_diagonal([1.0, 2.0, 3.0])
        bounds = SpectralBounds(1.0, 3.0)
        result = fracpow_action(A, np.ones(3), 0.5, ErrorBudget(1e-8), "gj2", bounds=bounds)
        assert result.bounds is bounds
        assert result.certified

    def test_max_iterations_respected(self):
        A = build_laplacian_1d(100)
        b = np.ones(100)
        result = fracpow_action(
            A, b, 0.5, ErrorBudget(1e-9), "gj2", max_iterations=2
        )
        assert result.report.iterations_used.max() <= 2
        assert not result.certified

    def test_json_schema(self):
        A = build_diagonal([1.0, 4.0])
        result = fracpow_action(A, np.ones(2), 0.5, ErrorBudget(1e-8), "gj2")
        payload = result.to_json_dict()
        text = json.dumps(payload)
        back = json.loads(text)
        assert set(back) == {
            "alpha",
            "epsilon",
            "family",
            "m",
            "lambda_bounds",
            "per_node",
            "error_bound_sum",
            "certified",
        }
        assert len(back["per_node"]) == result.rule.m
        assert set(back["per_node"][0]) == {
            "sigma",
            "omega",
            "threshold",
            "residual",
            "iterations",
            "converged",
        }
        assert back["certified"] is True

    def test_error_bound_sum_consistent(self):
        A = build_laplacian_1d(40)
        result = fracpow_action(A, np.ones(40), 0.3, ErrorBudget(1e-7), "de")
        recomputed = node_error_bound(
            result.report.final_residual_norms,
            result.rule.shifts,
            result.bounds.lambda_hi,
            result.rule.weights,
        )
        assert result.error_bound_sum == pytest.approx(recomputed.sum(), rel=1e-15)
        assert result.error_bound_sum <= 0.5 * 1e-7

    def test_scalar_probe_helper(self):
        bounds = SpectralBounds(0.5, 2.0)
        probe = scalar_probe(ErrorBudget(1e-6), bounds, 10.0)
        assert probe.budget == pytest.approx(5e-8)
        assert probe.probe_values[0] == pytest.approx(0.5)
        assert probe.probe_values[-1] == pytest.approx(2.0)


class TestActionResultInvariants:
    def test_report_covers_rule(self):
        A = build_laplacian_1d(30)
        result = fracpow_action(A, np.ones(30), 0.6, ErrorBudget(1e-6), "gj2")
        assert isinstance(result, ActionResult)
        assert result.y.shape == (30,)
        assert result.report.shifts.shape == result.rule.shifts.shape
        np.testing.assert_array_equal(result.report.shifts, result.rule.shifts)
        np.testing.assert_array_equal(
            result.report.thresholds,
            residual_thresholds(result.rule, result.budget, result.bounds.lambda_hi),
        )
