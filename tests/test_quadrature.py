import functools
import logging
import math
import types

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.special import beta as beta_function
from scipy.special import roots_jacobi

import fracpow.quadrature as quadrature
from fracpow.error_control import ErrorBudget, plan_action
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
from fracpow.sparse import SpectralBounds, build_diagonal, estimate_spectral_bounds


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


    @pytest.mark.parametrize("m", [2, 40, 400, 1814])
    def test_newton_step_pass_leaves_rule_unchanged(self, m):
        a, b = 0.2 - 1.0, -0.2
        nodes, weights = gauss_jacobi_nodes(m, a, b)
        ref_nodes, ref_weights = two_full_passes(m, a, b)
        np.testing.assert_array_equal(nodes, ref_nodes)
        np.testing.assert_array_equal(weights, ref_weights)


def two_full_passes(m: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes and weights with both recurrence passes summing K and K'.

    Reference for the rule builder, whose first pass takes the Newton step
    alone: the step does not read the sums, so the rules must be equal.
    """
    mu0 = 2.0 ** (a + b + 1.0) * beta_function(a + 1.0, b + 1.0)
    d, e = quadrature._jacobi_recurrence(m, a, b)

    def full_pass(s):
        p_prev, p = np.zeros_like(s), np.full_like(s, 1.0 / math.sqrt(mu0))
        dp_prev, dp = np.zeros_like(s), np.zeros_like(s)
        k, half_dk = p * p, np.zeros_like(s)
        e_prev = 0.0
        for j in range(m):
            x = s - d[j]
            p_next = x * p - e_prev * p_prev
            dp_next = x * dp + p - e_prev * dp_prev
            if j == m - 1:
                break
            p_next /= e[j]
            dp_next /= e[j]
            k += p_next * p_next
            half_dk += p_next * dp_next
            p_prev, p, dp_prev, dp, e_prev = p, p_next, dp, dp_next, e[j]
        return -p_next / dp_next, k, half_dk

    nodes = eigh_tridiagonal(d, e, eigvals_only=True)
    nodes = nodes + full_pass(nodes)[0]
    delta, k, half_dk = full_pass(nodes)
    return nodes + delta, 1.0 / (k + 2.0 * half_dk * delta)


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

    @pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("where", [0, -1], ids=["first", "last"])
    def test_rejects_non_finite_shift(self, value, where):
        shifts = np.array([1.0, 2.0])
        shifts[where] = value
        with pytest.raises(ValueError, match="shifts must be finite"):
            ShiftedQuadratureRule(0.5, "de", shifts, [1.0, 1.0])


@pytest.mark.parametrize("family", FAMILIES)
def test_build_rule_rejects_zero_nodes(family):
    with pytest.raises(ValueError, match="node count"):
        build_rule(family, 0.5, 0, SpectralBounds(0.5, 2.0))


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

    @pytest.mark.parametrize("budget", [0.0, np.inf], ids=["zero", "inf"])
    def test_rejects_truncation_budget(self, budget):
        with pytest.raises(QuadratureConstructionError, match="positive and finite"):
            build_rule("de", 0.5, 9, SpectralBounds(0.5, 2.0), truncation_budget=budget)

    def test_unreachable_truncation_budget_raises(self):
        # Pushing the window far enough to meet this budget would overflow
        # the exponential map.
        with pytest.raises(QuadratureConstructionError):
            build_rule("de", 0.5, 9, SpectralBounds(0.5, 2.0), truncation_budget=1e-300)

    @pytest.mark.parametrize("alpha", [0.001, 0.02])
    def test_small_alpha_raises_typed_error(self, alpha):
        # sigma = exp(pi sinh(u) / alpha) leaves exp(+-690) inside [-3, 3]
        # for alpha < 0.0456; the window starts inside that reach and the
        # search stops with a typed error, never a numpy overflow warning.
        with pytest.raises(QuadratureConstructionError, match=f"alpha = {alpha}.*gj2"):
            build_rule("de", alpha, 8, SpectralBounds(0.01, 4.0))

    @pytest.mark.parametrize("alpha", [0.03, 0.04, 0.2, 0.9])
    @pytest.mark.parametrize("m", [2, 54])
    def test_shifts_stay_inside_the_exponent_cap(self, alpha, m):
        rule = build_rule("de", alpha, m, SpectralBounds(0.01, 4.0), truncation_budget=1e-2)
        cap = quadrature._EXP_CAP * (1.0 + 1e-12)
        assert -cap <= np.log(rule.shifts[0]) and np.log(rule.shifts[-1]) <= cap
        assert np.all(np.isfinite(rule.weights))

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("m", [2, 54])
    def test_window_reads_lambda_hi_only(self, alpha, m):
        # lambda / (sigma + lambda) rises with lambda, so the integrand at
        # lambda_hi bounds it on the interval and lambda_lo cannot move the window.
        wide = build_rule("de", alpha, m, SpectralBounds(1e-8, 4.0))
        narrow = build_rule("de", alpha, m, SpectralBounds(3.9, 4.0))
        np.testing.assert_array_equal(wide.shifts, narrow.shifts)
        np.testing.assert_array_equal(wide.weights, narrow.weights)


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


# Frozen spectral intervals of the verify-grid matrices (a Lanczos lambda_lo
# and the Gershgorin lambda_hi), kept fixed so that the quadrature tests do not
# move with the bounds estimator, and the grid's (alpha, eps) cells with b = ones.
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
# de node counts on the same cells: the search doubles from 4 and bisects, and
# the de error is not monotone in m, so these pin where that search lands.
DE_GRID_COUNTS = {
    "lap1d:1000": (58, 97, 143, 28, 54, 97),
    "lap2d:32x32": (59, 92, 136, 28, 41, 65),
}
# Doubling from 4 reaches 2**14 within 13 attempts, and bisecting the bracket
# it leaves then takes at most 14 more.
ATTEMPT_CEILING = 27
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
    # de is not priced, so the synthetic errors drive the search from m = 4.
    probe = ProbeSpec(np.array([1.0]), SYNTHETIC_BUDGET)
    try:
        m = select_node_count("de", 0.5, SpectralBounds(0.1, 10.0), probe).m
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

    @pytest.mark.parametrize("family", FAMILIES)
    def test_infinite_budget_gives_one_node_rule(self, family):
        # b = 0 gives an infinite budget, which every rule meets: m = 1.
        bounds = SpectralBounds(0.1, 10.0)
        rule = select_node_count(family, 0.3, bounds, ProbeSpec(np.array([1.0]), math.inf))
        expected = build_rule(family, 0.3, 1, bounds)
        assert rule.m == 1
        np.testing.assert_array_equal(rule.shifts, expected.shifts)
        np.testing.assert_array_equal(rule.weights, expected.weights)

    def test_loose_budget_gives_tiny_rule(self):
        bounds = SpectralBounds(0.9, 1.1)
        probe = ProbeSpec(probe_values_from_bounds(bounds), 0.5)
        rule = select_node_count("gj1", 0.5, bounds, probe)
        assert rule.m == 1

    def test_cap_raises(self, monkeypatch):
        monkeypatch.setattr(quadrature, "NODE_COUNT_CAP", 64)
        bounds = SpectralBounds(1e-6, 1e6)
        probe = ProbeSpec(probe_values_from_bounds(bounds), 1e-12)
        with pytest.raises(
            BudgetUnreachableError,
            match=r"no gj1 rule with m <= 64 is priced within scalar budget 1\.000e-12 "
            r"\(smallest priced error \S+ at m = \d+\)",
        ):
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

    @pytest.mark.parametrize("spec", sorted(DE_GRID_COUNTS))
    def test_de_grid_counts_unchanged(self, spec):
        got = tuple(grid_selection(spec, "de", alpha, eps) for alpha, eps in GRID_CELLS)
        assert got == DE_GRID_COUNTS[spec]

    def test_de_search_doubles_then_bisects(self, monkeypatch):
        # m = 143 and 144 pass, 145 to 149 fail and 150 passes: bisection
        # lands on the passing window below the failing bump.
        built = count_builds(monkeypatch)
        bounds, probe = grid_probe("lap1d:1000", 0.2, 1e-9)
        assert select_node_count("de", 0.2, bounds, probe).m == 143
        assert built == [4, 8, 16, 32, 64, 128, 256, 192, 160, 144, 136, 140, 142, 143]

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
        # Doubling from 4 past m, then bisecting the last doubling's bracket.
        assert len(attempts) <= 2 * math.ceil(math.log2(m / 4)) + 2

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

def count_builds(monkeypatch) -> list[int]:
    """Record the node count of every rule the search builds."""
    built = []

    def counting_build(*args, **kwargs):
        built.append(args[2])
        return build_rule(*args, **kwargs)

    monkeypatch.setattr(quadrature, "build_rule", counting_build)
    return built


def priced_errors(family, alpha, bounds, values, m_max) -> np.ndarray:
    errors = []
    for chunk in quadrature._priced_errors(family, alpha, bounds, values):
        errors.extend(chunk)
        if len(errors) >= m_max:
            break
    return np.array(errors[:m_max])


def rounding_floor(alpha: float, bounds: SpectralBounds) -> float:
    return 1e3 * np.finfo(float).eps * bounds.lambda_hi**alpha


@functools.cache
def kappa_1e8_diagonal():
    """The diagonal geomspace(1e-8, 1, 500) and its estimated spectral bounds."""
    A = build_diagonal(np.geomspace(1e-8, 1.0, 500))
    return A, estimate_spectral_bounds(A)


def no_build(*args, **kwargs):
    raise AssertionError("a rule was built")


class TestPricedSearch:
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("family", ["gj1", "gj2"])
    @pytest.mark.parametrize("spec", sorted(GRID_BOUNDS))
    def test_priced_error_matches_built_rule(self, spec, family, alpha):
        bounds, _ = GRID_BOUNDS[spec]
        values = probe_values_from_bounds(bounds)
        ms = (1, 4, 16, 64, 256, 1024, 1814)
        priced = priced_errors(family, alpha, bounds, values, max(ms))
        checked = 0
        for m in ms:
            built = probe_error(build_rule(family, alpha, m, bounds), values)
            if built < rounding_floor(alpha, bounds):
                continue
            rtol = 1e-6 if built >= 1e-8 else 0.05
            assert priced[m - 1] == pytest.approx(built, rel=rtol), m
            checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("family", ["gj1", "gj2"])
    @pytest.mark.parametrize("spec", sorted(GRID_BOUNDS))
    def test_priced_error_falls_to_rounding_floor(self, spec, family, alpha):
        bounds, _ = GRID_BOUNDS[spec]
        priced = priced_errors(family, alpha, bounds, probe_values_from_bounds(bounds), 2048)
        at_floor = np.flatnonzero(priced <= rounding_floor(alpha, bounds))
        stop = at_floor[0] + 1 if at_floor.size else priced.size
        assert np.all(np.diff(priced[:stop]) <= 0.0)

    @pytest.mark.parametrize("spec,family", sorted(GJ_GRID_COUNTS))
    def test_every_gj_grid_cell_takes_two_builds(self, monkeypatch, spec, family):
        built = count_builds(monkeypatch)
        for (alpha, eps), expected in zip(GRID_CELLS, GJ_GRID_COUNTS[spec, family]):
            built.clear()
            bounds, probe = grid_probe(spec, alpha, eps)
            assert select_node_count(family, alpha, bounds, probe).m == expected
            assert sorted(built) == [expected - 1, expected], (alpha, eps)

    @pytest.mark.parametrize("offset", [-40, -5, -1, 1, 5, 40])
    @pytest.mark.parametrize(
        "spec,family,cell", [("lap1d:1000", "gj2", 2), ("lap2d:32x32", "gj1", 2)]
    )
    def test_confirm_from_a_wrong_start(self, monkeypatch, spec, family, cell, offset):
        alpha, eps = GRID_CELLS[cell]
        expected = GJ_GRID_COUNTS[spec, family][cell]
        monkeypatch.setattr(quadrature, "_priced_node_count", lambda *args: expected + offset)
        built = count_builds(monkeypatch)
        bounds, probe = grid_probe(spec, alpha, eps)
        m = select_node_count(family, alpha, bounds, probe).m
        assert m == expected
        assert passes(family, alpha, m, bounds, probe)
        assert not passes(family, alpha, m - 1, bounds, probe)
        assert built[0] == expected + offset
        assert len(built) <= 2 * math.ceil(math.log2(abs(offset) + 1)) + 2

    def test_unpriceable_budget_raises_before_any_build(self, monkeypatch):
        # test_cap_raises' budget lies below what any rule up to the cap
        # reaches, so pricing raises and no rule is built.
        monkeypatch.setattr(quadrature, "NODE_COUNT_CAP", 64)
        bounds = SpectralBounds(1e-6, 1e6)
        values = probe_values_from_bounds(bounds)
        priced = priced_errors("gj1", 0.5, bounds, values, 64)
        built = count_builds(monkeypatch)
        with pytest.raises(BudgetUnreachableError) as raised:
            select_node_count("gj1", 0.5, bounds, ProbeSpec(values, 1e-12))
        assert built == []
        k = int(np.argmin(priced))
        assert f"(smallest priced error {priced[k]:.3e} at m = {k + 1})" in str(raised.value)

    @pytest.mark.parametrize(
        "alpha,eps", [(0.2, 1e-3), (0.2, 1e-6), (0.2, 1e-9), (0.5, 1e-6), (0.5, 1e-9), (0.8, 1e-9)]
    )
    def test_unreachable_gj1_cells_raise_without_a_build(self, monkeypatch, alpha, eps):
        # No gj1 count up to the cap is priced within these budgets on the
        # kappa = 1e8 diagonal with b = ones.  Building from 4 to the cap
        # instead took 13 builds and about 10 s per cell to raise.
        A, bounds = kappa_1e8_diagonal()
        quadrature._cayley_table.cache_clear()
        monkeypatch.setattr(quadrature, "build_rule", no_build)
        with pytest.raises(BudgetUnreachableError, match="gj1 rule with m <= 16384 is priced"):
            plan_action(A, np.ones(A.n), alpha, ErrorBudget(eps), "gj1", bounds=bounds)

    def test_failing_priced_start_gallops_up_to_cap_and_raises(self, monkeypatch):
        monkeypatch.setattr(quadrature, "NODE_COUNT_CAP", 64)
        monkeypatch.setattr(quadrature, "_priced_node_count", lambda *args: 60)
        built = count_builds(monkeypatch)
        bounds = SpectralBounds(1e-6, 1e6)
        probe = ProbeSpec(probe_values_from_bounds(bounds), 1e-12)
        with pytest.raises(BudgetUnreachableError, match=r"m <= 64 .* at m = 64, smallest"):
            select_node_count("gj1", 0.5, bounds, probe)
        assert built == [60, 61, 63, 64]

    def test_failing_priced_start_at_cap_raises_after_one_build(self, monkeypatch):
        monkeypatch.setattr(quadrature, "NODE_COUNT_CAP", 64)
        monkeypatch.setattr(quadrature, "_priced_node_count", lambda *args: 64)
        built = count_builds(monkeypatch)
        bounds = SpectralBounds(1e-6, 1e6)
        probe = ProbeSpec(probe_values_from_bounds(bounds), 1e-12)
        with pytest.raises(BudgetUnreachableError, match=r"m <= 64 .* at m = 64, smallest"):
            select_node_count("gj1", 0.5, bounds, probe)
        assert built == [64]

    def test_debug_line_names_priced_start(self, caplog):
        bounds, probe = grid_probe("lap2d:32x32", 0.5, 1e-3)
        with caplog.at_level(logging.DEBUG, logger=quadrature.__name__):
            select_node_count("gj2", 0.5, bounds, probe)
        (record,) = [r for r in caplog.records if "builds=" in r.getMessage()]
        assert "priced=15 builds=2 " in record.getMessage()


def fresh_gj_rule(family, alpha, m, bounds) -> tuple[np.ndarray, np.ndarray]:
    """Shifts and weights of a ``gj`` rule computed without the table cache."""
    c = 1.0 if family == "gj1" else math.sqrt(bounds.lambda_lo * bounds.lambda_hi)
    s, w = gauss_jacobi_nodes(m, alpha - 1.0, -alpha)
    sigma = c * ((1.0 - s) / (1.0 + s))
    omega = c**alpha * ((2.0 * math.sin(alpha * math.pi) / math.pi) * w / (1.0 + s))
    return sigma[::-1], omega[::-1]


def count_node_computations(monkeypatch) -> list[int]:
    """Record the node count of every Gauss-Jacobi rule the module computes."""
    computed = []

    def counting_nodes(m, a, b):
        computed.append(m)
        return gauss_jacobi_nodes(m, a, b)

    monkeypatch.setattr(quadrature, "gauss_jacobi_nodes", counting_nodes)
    return computed


def debug_line(caplog) -> str:
    (record,) = [r for r in caplog.records if "builds=" in r.getMessage()]
    caplog.clear()
    return record.getMessage()


class TestGaussJacobiTableCache:
    @pytest.mark.parametrize("alpha", [0.2, 0.5])
    @pytest.mark.parametrize("m", [1, 2, 40, 717, 1814])
    @pytest.mark.parametrize("family", ["gj1", "gj2"])
    def test_cached_rule_equals_fresh_computation(self, family, m, alpha):
        bounds = GRID_BOUNDS["lap1d:1000"][0]
        ref_shifts, ref_weights = fresh_gj_rule(family, alpha, m, bounds)
        hits = quadrature._cayley_table.cache_info().hits
        for _ in range(2):
            rule = build_rule(family, alpha, m, bounds)
            np.testing.assert_array_equal(rule.shifts, ref_shifts)
            np.testing.assert_array_equal(rule.weights, ref_weights)
        assert quadrature._cayley_table.cache_info().hits == hits + 1

    def test_gj1_and_gj2_share_one_table(self, monkeypatch):
        computed = count_node_computations(monkeypatch)
        build_rule("gj1", 0.5, 40)
        build_rule("gj2", 0.5, 40, GRID_BOUNDS["lap2d:32x32"][0])
        build_rule("gj2", 0.5, 40, GRID_BOUNDS["lap1d:1000"][0])
        assert computed == [40]

    def test_mutating_a_rule_leaves_the_next_build_unchanged(self):
        bounds = GRID_BOUNDS["lap2d:32x32"][0]
        first = build_rule("gj2", 0.2, 40, bounds)
        assert first.shifts.flags.writeable and first.weights.flags.writeable
        first.shifts[:] = -1.0
        first.weights[:] = 2.0 * first.weights
        ref_shifts, ref_weights = fresh_gj_rule("gj2", 0.2, 40, bounds)
        again = build_rule("gj2", 0.2, 40, bounds)
        np.testing.assert_array_equal(again.shifts, ref_shifts)
        np.testing.assert_array_equal(again.weights, ref_weights)

    def test_cached_tables_are_read_only(self):
        for table in quadrature._cayley_table(40, 0.5):
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0

    def test_second_search_computes_no_nodes(self, monkeypatch, caplog):
        computed = count_node_computations(monkeypatch)
        bounds, probe = grid_probe("lap1d:1000", 0.5, 1e-9)
        with caplog.at_level(logging.DEBUG, logger=quadrature.__name__):
            first = select_node_count("gj1", 0.5, bounds, probe)
            assert sorted(computed) == [first.m - 1, first.m]
            assert "builds=2 cached=0 " in debug_line(caplog)
            computed.clear()
            second = select_node_count("gj1", 0.5, bounds, probe)
            assert computed == []
            assert "builds=2 cached=2 " in debug_line(caplog)
        assert second.m == first.m == 1578
        np.testing.assert_array_equal(second.shifts, first.shifts)
        np.testing.assert_array_equal(second.weights, first.weights)

    def test_de_search_reports_no_cached_tables(self, caplog):
        bounds, probe = grid_probe("lap2d:32x32", 0.5, 1e-6)
        with caplog.at_level(logging.DEBUG, logger=quadrature.__name__):
            select_node_count("de", 0.5, bounds, probe)
        assert " cached=0 " in debug_line(caplog)
        assert quadrature._cayley_table.cache_info().currsize == 0

    def test_cache_holds_a_verify_grid_pass(self):
        tables = {
            (m, alpha)
            for counts in GJ_GRID_COUNTS.values()
            for (alpha, _), count in zip(GRID_CELLS, counts)
            for m in (count - 1, count)
        }
        assert len(tables) == 45
        assert quadrature._cayley_table.cache_info().maxsize >= len(tables)


class TestFamilyName:
    @pytest.mark.parametrize("name", ["DE", "GJ1", "Gj2"])
    def test_search_ignores_case(self, monkeypatch, name):
        bounds, probe = grid_probe("lap1d:1000", 0.2, 1e-9)
        built = count_builds(monkeypatch)
        lower = select_node_count(name.lower(), 0.2, bounds, probe)
        lower_builds = built.copy()
        built.clear()
        rule = select_node_count(name, 0.2, bounds, probe)
        assert built == lower_builds
        assert rule.family == lower.family == name.lower()
        assert rule.m == lower.m
        np.testing.assert_array_equal(rule.shifts, lower.shifts)
        np.testing.assert_array_equal(rule.weights, lower.weights)

    @pytest.mark.parametrize("budget", [1e-9, math.inf])
    def test_unknown_family_raises_before_pricing(self, monkeypatch, budget):
        def unreachable(*args, **kwargs):
            raise AssertionError("the search started")

        monkeypatch.setattr(quadrature, "_priced_node_count", unreachable)
        monkeypatch.setattr(quadrature, "build_rule", unreachable)
        bounds = GRID_BOUNDS["lap1d:1000"][0]
        probe = ProbeSpec(probe_values_from_bounds(bounds), budget)
        with pytest.raises(ValueError, match="unknown family 'foo'"):
            select_node_count("foo", 0.2, bounds, probe)


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
