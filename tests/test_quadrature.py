import functools
import logging
import math
import types

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_jacobi

import fracpow.quadrature as quadrature
from fracpow.errors import BudgetUnreachableError, QuadratureConstructionError
from fracpow.quadrature import (
    FAMILIES,
    NODE_COUNT_CAP,
    ProbeSpec,
    ShiftedQuadratureRule,
    build_rule,
    gauss_jacobi_nodes,
    probe_error,
    probe_values_from_bounds,
    scalar_apply,
    select_node_count,
)
from fracpow.sparse import SpectralBounds


class TestGaussJacobiNodes:
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.77])
    @pytest.mark.parametrize("m", [1, 2, 5, 13, 40, 64])
    def test_matches_scipy_reference(self, alpha, m):
        # Cross-check against an unrelated implementation.  Weight agreement
        # is limited by scipy's own recurrence noise at a+b = -1 (its
        # degree-1 moment is off by ~1e-12 where ours is exact to 2e-15),
        # so the weight tolerance is loose; the sharp oracle is the moment
        # test in the acceptance suite.
        a, b = alpha - 1.0, -alpha
        nodes, weights = gauss_jacobi_nodes(m, a, b)
        with np.errstate(invalid="ignore", divide="ignore"):
            ref_nodes, ref_weights = roots_jacobi(m, a, b)
        np.testing.assert_allclose(nodes, ref_nodes, rtol=0, atol=5e-14)
        np.testing.assert_allclose(weights, ref_weights, rtol=1e-9, atol=0)

    def test_single_node_closed_form(self):
        # One-point rule sits at the mean of the weight; total mass is mu_0.
        a, b = -0.5, -0.5
        nodes, weights = gauss_jacobi_nodes(1, a, b)
        assert nodes[0] == pytest.approx(0.0, abs=1e-16)
        assert weights[0] == pytest.approx(np.pi, rel=1e-14)

    def test_nodes_inside_interval_weights_positive(self):
        nodes, weights = gauss_jacobi_nodes(30, -0.8, -0.2)
        assert np.all(nodes > -1.0) and np.all(nodes < 1.0)
        assert np.all(np.diff(nodes) > 0)
        assert np.all(weights > 0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gauss_jacobi_nodes(0, -0.5, -0.5)
        with pytest.raises(ValueError):
            gauss_jacobi_nodes(3, -1.0, 0.0)

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("m", [400, 2048])
    def test_rule_independent_of_eigensolver_driver(self, monkeypatch, alpha, m):
        # The starting nodes' accuracy depends on the LAPACK driver behind
        # eigh_tridiagonal; the Newton refinement must remove that
        # dependence.  Near s = +-1 a one-ulp change of a node moves its
        # weight by ~eps / (1 - |s|) relative, so each weight is held only to
        # 1e-11 and the sharp check is on the total change sum |dw| / mu0,
        # which bounds the change of any quadrature sum of a function
        # bounded by 1.
        rules = {}
        for driver in ("stevd", "stemr", "stebz"):
            monkeypatch.setattr(
                quadrature,
                "eigh_tridiagonal",
                functools.partial(eigh_tridiagonal, lapack_driver=driver),
            )
            rules[driver] = gauss_jacobi_nodes(m, alpha - 1.0, -alpha)
        ref_nodes, ref_weights = rules["stemr"]
        for driver, (nodes, weights) in rules.items():
            np.testing.assert_allclose(
                nodes, ref_nodes, rtol=0, atol=4 * np.finfo(float).eps, err_msg=driver
            )
            np.testing.assert_allclose(weights, ref_weights, rtol=1e-11, err_msg=driver)
            assert np.sum(np.abs(weights - ref_weights)) <= 1e-13 * np.sum(ref_weights), driver


class TestRuleType:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShiftedQuadratureRule(1.5, "gj1", [1.0], [1.0])
        with pytest.raises(ValueError):
            ShiftedQuadratureRule(0.5, "nope", [1.0], [1.0])
        with pytest.raises(ValueError):
            ShiftedQuadratureRule(0.5, "gj1", [2.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            ShiftedQuadratureRule(0.5, "gj1", [1.0], [-1.0])
        with pytest.raises(ValueError):
            ShiftedQuadratureRule(0.5, "gj1", [1.0, 2.0], [1.0])


class TestGJ1:
    def test_alpha_half_single_node_closed_form(self):
        rule = build_rule("gj1", 0.5, 1)
        assert rule.shifts[0] == pytest.approx(1.0, rel=1e-15)
        assert rule.weights[0] == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("m", [1, 3, 10, 40])
    def test_exact_at_unit_eigenvalue(self, alpha, m):
        # The transformed rule reproduces 1^alpha = 1 exactly for every m.
        rule = build_rule("gj1", alpha, m)
        assert scalar_apply(rule, 1.0) == pytest.approx(1.0, abs=5e-14)

    def test_scalar_error_decreases_with_m(self):
        # Stop at m = 8: beyond that the error sits on the rounding floor
        # (~1e-15) and no longer decreases monotonically.
        errs = [
            abs(scalar_apply(build_rule("gj1", 0.3, m), 0.5) - 0.5**0.3)
            for m in (2, 4, 8)
        ]
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        assert errs[-1] < 1e-10

    def test_shifts_positive_ascending(self):
        rule = build_rule("gj1", 0.2, 25)
        assert np.all(rule.shifts > 0)
        assert np.all(np.diff(rule.shifts) > 0)


class TestGJ2:
    def test_is_scaled_gj1(self):
        bounds = SpectralBounds(0.01, 40.0)
        c = np.sqrt(bounds.lambda_lo * bounds.lambda_hi)
        alpha, m = 0.37, 12
        base = build_rule("gj1", alpha, m)
        scaled = build_rule("gj2", alpha, m, bounds)
        np.testing.assert_array_equal(scaled.shifts, c * base.shifts)
        np.testing.assert_array_equal(scaled.weights, c**alpha * base.weights)

    def test_exact_at_geometric_mean(self):
        bounds = SpectralBounds(0.5, 8.0)
        c = 2.0  # sqrt(0.5 * 8)
        rule = build_rule("gj2", 0.5, 20, bounds)
        assert scalar_apply(rule, c) == pytest.approx(c**0.5, rel=1e-13)

    def test_requires_bounds(self):
        with pytest.raises(ValueError):
            build_rule("gj2", 0.5, 4)


class TestDE:
    def test_shifts_and_weights_valid(self):
        rule = build_rule("de", 0.2, 41, SpectralBounds(0.01, 4.0))
        assert rule.m == 41
        assert np.all(rule.shifts > 0)
        assert np.all(np.diff(rule.shifts) > 0)
        assert np.all(rule.weights > 0)

    def test_scalar_convergence(self):
        bounds = SpectralBounds(0.5, 3.0)
        errs = []
        for m in (11, 21, 41, 81):
            rule = build_rule("de", 0.4, m, bounds)
            lam = np.array([0.5, 1.0, 3.0])
            errs.append(np.max(np.abs(scalar_apply(rule, lam) - lam**0.4)))
        assert errs[-1] < 1e-9
        assert errs[-1] < errs[0]

    def test_single_node(self):
        rule = build_rule("de", 0.5, 1, SpectralBounds(0.9, 1.1))
        assert rule.m == 1
        assert rule.shifts[0] > 0

    def test_requires_bounds(self):
        with pytest.raises(ValueError):
            build_rule("de", 0.5, 4)

    def test_unreachable_truncation_budget_raises(self):
        # Pushing the window far enough to meet this budget would overflow
        # the exponential map.
        with pytest.raises(QuadratureConstructionError):
            build_rule("de", 0.5, 9, SpectralBounds(0.5, 2.0), truncation_budget=1e-300)


class TestProbe:
    def test_probe_values_cover_bounds(self):
        bounds = SpectralBounds(0.25, 16.0)
        vals = probe_values_from_bounds(bounds)
        assert vals[0] == pytest.approx(0.25)
        assert vals[-1] == pytest.approx(16.0)
        assert np.all(np.diff(vals) > 0)
        assert vals.size == 11

    def test_degenerate_bounds_yield_single_probe(self):
        vals = probe_values_from_bounds(SpectralBounds(2.0, 2.0))
        assert vals.size == 1

    def test_probe_error_definition(self):
        rule = build_rule("gj1", 0.5, 6)
        lam = np.array([0.5, 1.0, 2.0])
        expected = np.max(np.abs(scalar_apply(rule, lam) - lam**0.5))
        assert probe_error(rule, lam) == pytest.approx(expected, rel=1e-15)

    def test_probe_spec_validation(self):
        with pytest.raises(ValueError):
            ProbeSpec(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            ProbeSpec(np.array([-1.0]), 1e-6)
        with pytest.raises(ValueError):
            ProbeSpec(np.array([]), 1e-6)


# Spectral intervals of the verify-grid matrices (Lanczos lambda_lo at seed 0,
# Gershgorin lambda_hi) and the grid's (alpha, eps) cells with b = ones.
GRID_BOUNDS = {
    "lap1d:1000": (SpectralBounds(9.849886619966925e-06, 4.0), 1000),
    "lap2d:32x32": (SpectralBounds(0.01811207274561162, 8.0), 1024),
}
GRID_CELLS = [(alpha, eps) for alpha in (0.2, 0.5) for eps in (1e-3, 1e-6, 1e-9)]
# Node counts the doubling-plus-bisection search returned on the grid, in
# GRID_CELLS order.  The Gauss-Jacobi probe errors fall with m, so any search
# that keeps the pass/fail invariant must return these.
GJ_GRID_COUNTS = {
    ("lap1d:1000", "gj1"): (717, 1265, 1814, 477, 1027, 1578),
    ("lap1d:1000", "gj2"): (73, 116, 160, 79, 123, 166),
    ("lap2d:32x32", "gj1"): (20, 33, 45, 19, 31, 44),
    ("lap2d:32x32", "gj2"): (14, 21, 29, 15, 23, 31),
}
# Growth from 4 by at least 1.25x reaches 2**14 within 39 attempts, and the
# bracket then closes within 2 log2(2**14) = 28 more.
ATTEMPT_CEILING = 67
SYNTHETIC_BUDGET = 1e-8


def grid_probe(spec: str, alpha: float, eps: float) -> tuple[SpectralBounds, ProbeSpec]:
    bounds, n = GRID_BOUNDS[spec]
    return bounds, ProbeSpec(probe_values_from_bounds(bounds), 0.5 * eps / math.sqrt(n))


@functools.cache
def grid_selection(spec: str, family: str, alpha: float, eps: float) -> int:
    bounds, probe = grid_probe(spec, alpha, eps)
    return select_node_count(family, alpha, bounds, probe).m


def passes(family: str, alpha: float, m: int, bounds: SpectralBounds, probe: ProbeSpec) -> bool:
    rule = build_rule(family, alpha, m, bounds, truncation_budget=probe.budget)
    return probe_error(rule, probe.probe_values) <= probe.budget


def search_on_errors(monkeypatch, error_of_m) -> tuple[int, list[int]]:
    """Run the search with ``error_of_m(m)`` in place of the probe error."""
    attempts = []

    def fake_build(family, alpha, m, bounds=None, **kwargs):
        return types.SimpleNamespace(m=m)

    def fake_probe_error(rule, values):
        attempts.append(rule.m)
        return error_of_m(rule.m)

    monkeypatch.setattr(quadrature, "build_rule", fake_build)
    monkeypatch.setattr(quadrature, "probe_error", fake_probe_error)
    probe = ProbeSpec(np.array([1.0]), SYNTHETIC_BUDGET)
    try:
        m = select_node_count("gj1", 0.5, SpectralBounds(0.1, 10.0), probe).m
    finally:
        assert len(attempts) <= ATTEMPT_CEILING
    assert error_of_m(m) <= SYNTHETIC_BUDGET
    assert m == 1 or not error_of_m(m - 1) <= SYNTHETIC_BUDGET
    return m, attempts


class TestSelectNodeCount:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_selected_rule_meets_budget(self, family):
        bounds = SpectralBounds(0.1, 10.0)
        probe = ProbeSpec(probe_values_from_bounds(bounds), 1e-8)
        rule = select_node_count(family, 0.3, bounds, probe)
        assert probe_error(rule, probe.probe_values) <= 1e-8

    @pytest.mark.parametrize("family", FAMILIES)
    def test_budget_monotonicity(self, family):
        bounds = SpectralBounds(0.1, 10.0)
        values = probe_values_from_bounds(bounds)
        ms = []
        for budget in (1e-4, 1e-7, 1e-10):
            rule = select_node_count(family, 0.5, bounds, ProbeSpec(values, budget))
            ms.append(rule.m)
        assert ms[0] <= ms[1] <= ms[2]

    def test_loose_budget_gives_tiny_rule(self):
        bounds = SpectralBounds(0.9, 1.1)
        probe = ProbeSpec(probe_values_from_bounds(bounds), 0.5)
        rule = select_node_count("gj1", 0.5, bounds, probe)
        assert rule.m == 1

    def test_cap_raises(self, monkeypatch):
        monkeypatch.setattr(quadrature, "NODE_COUNT_CAP", 64)
        bounds = SpectralBounds(1e-6, 1e6)
        probe = ProbeSpec(probe_values_from_bounds(bounds), 1e-12)
        with pytest.raises(BudgetUnreachableError, match=r"m <= 64 .* smallest .* at m = \d+"):
            select_node_count("gj1", 0.5, bounds, probe)

    def test_cap_default_is_large(self):
        assert NODE_COUNT_CAP == 2**14

    def test_gj1_reaches_tight_budget_on_lap1d_interval(self):
        # The lap1d:1000 interval at alpha = 0.2, eps = 1e-9: the scalar
        # budget is the quadrature half of eps over ||ones(1000)||.  Node
        # errors near s = +-1 once made the gj1 error rise with m here, so
        # the search ran to the cap and raised BudgetUnreachableError.
        bounds = SpectralBounds(9.849886619935064e-06, 3.9999901501133808)
        probe = ProbeSpec(probe_values_from_bounds(bounds), 0.5e-9 / math.sqrt(1000))
        rule = select_node_count("gj1", 0.2, bounds, probe)
        assert probe_error(rule, probe.probe_values) <= probe.budget


    @pytest.mark.parametrize("alpha,eps", GRID_CELLS)
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("spec", sorted(GRID_BOUNDS))
    def test_grid_count_passes_and_one_fewer_fails(self, spec, family, alpha, eps):
        bounds, probe = grid_probe(spec, alpha, eps)
        m = grid_selection(spec, family, alpha, eps)
        assert passes(family, alpha, m, bounds, probe)
        assert m == 1 or not passes(family, alpha, m - 1, bounds, probe)

    @pytest.mark.parametrize("spec,family", sorted(GJ_GRID_COUNTS))
    def test_gauss_jacobi_grid_counts_unchanged(self, spec, family):
        got = tuple(grid_selection(spec, family, alpha, eps) for alpha, eps in GRID_CELLS)
        assert got == GJ_GRID_COUNTS[spec, family]

    def test_largest_gj1_grid_cell_takes_at_most_13_builds(self, monkeypatch):
        # Doubling from 4 and then bisecting took 20 builds here.
        built = []

        def counting_build(*args, **kwargs):
            built.append(args[2])
            return build_rule(*args, **kwargs)

        monkeypatch.setattr(quadrature, "build_rule", counting_build)
        bounds, probe = grid_probe("lap1d:1000", 0.2, 1e-9)
        rule = select_node_count("gj1", 0.2, bounds, probe)
        assert rule.m == 1814
        assert len(built) <= 13

    def test_search_logs_its_attempts(self, caplog):
        bounds, probe = grid_probe("lap2d:32x32", 0.5, 1e-3)
        with caplog.at_level(logging.DEBUG, logger=quadrature.__name__):
            rule = select_node_count("gj2", 0.5, bounds, probe)
        (record,) = [r for r in caplog.records if "builds=" in r.getMessage()]
        assert f"({rule.m}, " in record.getMessage()

    def test_geometric_error_sequence(self, monkeypatch):
        m, attempts = search_on_errors(monkeypatch, lambda m: 0.9**m)
        assert m == math.ceil(math.log(SYNTHETIC_BUDGET) / math.log(0.9))
        assert len(attempts) <= 8

    @pytest.mark.parametrize(
        "error",
        [
            # passing windows separated by failing bumps, as in the de error
            lambda m: (30.0 if 145 <= m < 150 or 300 <= m < 340 else 1.0) * 0.88**m,
            lambda m: (3.0 if m % 2 else 1.0) * 0.97**m,
            lambda m: 1e-7 * (1.0 + 50.0 / m) ** -0.5 if m < 9000 else 0.0,
            lambda m: 0.0,
            lambda m: 0.0 if m >= 37 else 1.0,
            lambda m: math.nan if m < 700 else 0.0,
        ],
        ids=["bumps", "sawtooth", "slow-then-zero", "zero", "zero-from-37", "nan-below-700"],
    )
    def test_synthetic_error_sequence_keeps_invariant(self, monkeypatch, error):
        search_on_errors(monkeypatch, error)

    @pytest.mark.parametrize(
        "error",
        [lambda m: max(0.5**m, 1e-7), lambda m: math.nan, lambda m: 1e-7 * m],
        ids=["floor", "nan", "rising"],
    )
    def test_synthetic_unreachable_raises_at_cap(self, monkeypatch, error):
        with pytest.raises(BudgetUnreachableError, match=r"with m <= 16384 .* at m = 16384,"):
            search_on_errors(monkeypatch, error)

class TestScalarApply:
    def test_broadcasts(self):
        rule = build_rule("gj1", 0.5, 8)
        lam = np.array([0.5, 1.0, 2.0, 4.0])
        got = scalar_apply(rule, lam)
        assert got.shape == lam.shape
        single = scalar_apply(rule, 2.0)
        assert np.isscalar(single) or np.ndim(single) == 0
        assert got[2] == pytest.approx(single)

    def test_continuous_at_zero(self):
        # The transfer function extends continuously with Q(0) = 0 = 0^alpha.
        rule = build_rule("gj1", 0.5, 4)
        assert scalar_apply(rule, 0.0) == 0.0
