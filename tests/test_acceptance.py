"""End-to-end acceptance checks.

One test per criterion; each prints its own `acceptance N ...: PASS|FAIL`
line so the suite output doubles as a checklist.  The two grid matrices and
their dense references are built once per module.
"""

import time

import mpmath as mp
import numpy as np
import pytest

from fracpow.error_control import (
    ErrorBudget,
    error_coefficient,
    fracpow_action,
    node_error_bound,
    residual_thresholds,
    scalar_probe,
)
from fracpow.oracle import absolute_error, dense_fracpow_action, dense_shifted_solve
from fracpow.quadrature import (
    ProbeSpec,
    build_rule,
    gauss_jacobi_nodes,
    scalar_apply,
    select_node_count,
)
from fracpow.shifted_cg import ShiftedSolveRequest, shifted_cg_solve, single_shift_cg
from fracpow.sparse import (
    HermitianSparseMatrix,
    SpectralBounds,
    build_laplacian_1d,
    build_laplacian_2d,
    estimate_spectral_bounds,
)

from conftest import random_hpd

GRID_ALPHAS = (0.2, 0.5)
GRID_EPSILONS = (1e-3, 1e-6, 1e-9)
GRID_FAMILIES = ("gj1", "gj2", "de")


def report(num: int, label: str, ok: bool) -> None:
    print(f"acceptance {num} ({label}): {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def grid_setup():
    """Matrices, certified bounds, and cached dense references per alpha."""
    out = {}
    for name, A in (
        ("lap1d:1000", build_laplacian_1d(1000)),
        ("lap2d:32x32", build_laplacian_2d(32, 32)),
    ):
        b = np.ones(A.n)
        bounds = estimate_spectral_bounds(A, seed=0)
        y_refs = {alpha: dense_fracpow_action(A, b, alpha) for alpha in GRID_ALPHAS}
        out[name] = (A, b, bounds, y_refs)
    return out


def test_criterion_1_full_grid_error(grid_setup):
    failures = []
    for name, (A, b, bounds, y_refs) in grid_setup.items():
        for alpha in GRID_ALPHAS:
            for epsilon in GRID_EPSILONS:
                for family in GRID_FAMILIES:
                    result = fracpow_action(
                        A, b, alpha, ErrorBudget(epsilon), family, bounds=bounds
                    )
                    err = absolute_error(result.y, y_refs[alpha])
                    if not err <= epsilon:
                        failures.append(
                            f"{name} alpha={alpha} eps={epsilon} {family}: "
                            f"error {err:.3e}"
                        )
    ok = not failures
    report(1, "36-cell grid, error <= eps", ok)
    assert ok, failures


def test_criterion_2_per_iteration_bound(grid_setup):
    A, b, bounds, _ = grid_setup["lap2d:32x32"]
    violations = []
    for sigma in (0.1, 1.0, 10.0, 100.0):
        z = dense_shifted_solve(A, b, sigma)
        coef = error_coefficient(sigma, bounds.lambda_hi)

        def check(iteration, x, r, sigma=sigma, z=z, coef=coef):
            measured = float(np.linalg.norm(A.matvec(z - x)))
            bound = coef * float(np.linalg.norm(r)) + 1e-12
            if measured > bound:
                violations.append((sigma, iteration, measured, bound))

        single_shift_cg(A, b, sigma, tol=1e-12, callback=check)
    ok = not violations
    report(2, "CG error bound holds every iteration", ok)
    assert ok, violations[:5]


def test_criterion_3_threshold_interior_minimum(grid_setup):
    budget = ErrorBudget(1e-9)
    bad = []
    for name, (A, b, bounds, _) in grid_setup.items():
        probe = scalar_probe(budget, bounds, float(np.linalg.norm(b)))
        rule = select_node_count("de", 0.2, bounds, probe)
        tau = residual_thresholds(rule, budget, bounds.lambda_hi)
        k_min = int(np.argmin(tau))
        interior = 0 < k_min < rule.m - 1
        strict = tau[0] > tau[k_min] and tau[-1] > tau[k_min]
        if not (interior and strict):
            bad.append((name, k_min, rule.m))
    ok = not bad
    report(3, "node thresholds dip to an interior minimum", ok)
    assert ok, bad


def test_criterion_4_randomized_error_bound(rng):
    start = time.perf_counter()
    violations = 0
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        A = random_hpd(rng, n)
        sigma = float(rng.uniform(0.0, 1e3))
        x = rng.standard_normal(n)
        b = rng.standard_normal(n)
        lam_max = float(np.linalg.eigvalsh(A)[-1])
        shifted = sigma * np.eye(n) + A
        z = np.linalg.solve(shifted, b)
        measured = float(np.linalg.norm(A @ (z - x)))
        residual = float(np.linalg.norm(b - shifted @ x))
        bound = error_coefficient(sigma, lam_max) * residual + 1e-12
        worst = max(worst, measured - bound)
        if measured > bound:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 30.0
    report(4, "1000 random trials of the solve error bound", ok)
    assert ok, (violations, worst, elapsed)


def test_criterion_5_multi_shift_matches_plain_cg():
    start = time.perf_counter()
    A = build_laplacian_1d(50)
    b = np.ones(A.n)
    shift_rng = np.random.default_rng(20240817)
    shifts = np.sort(shift_rng.uniform(0.0, 10.0, size=5))
    iterations = 30

    multi = {"x": [], "zeta": [], "seed_r": []}

    def grab(iteration, seed_residual, zetas, solutions):
        multi["x"].append(solutions.copy())
        multi["zeta"].append(zetas.copy())
        multi["seed_r"].append(seed_residual.copy())

    request = ShiftedSolveRequest(
        shifts=shifts,
        thresholds=np.full(5, 1e-300),
        max_iterations=iterations,
    )
    shifted_cg_solve(A, b, request, callback=grab)

    mismatches = []
    for k, sigma in enumerate(shifts):
        plain = {"x": [], "r": []}
        single_shift_cg(
            A,
            b,
            float(sigma),
            tol=1e-300,
            max_iterations=iterations,
            callback=lambda i, x, r: (plain["x"].append(x.copy()), plain["r"].append(r.copy())),
        )
        for i in range(iterations):
            x_ref = plain["x"][i]
            dx = np.linalg.norm(multi["x"][i][k] - x_ref)
            if dx > 1e-8 * max(np.linalg.norm(x_ref), 1.0):
                mismatches.append(("iterate", k, i, dx))
            r_ref = plain["r"][i]
            collinear = multi["zeta"][i][k] * multi["seed_r"][i]
            dr = np.linalg.norm(collinear - r_ref)
            if dr > 1e-8 * max(np.linalg.norm(r_ref), 1.0):
                mismatches.append(("residual", k, i, dr))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 5.0
    report(5, "multi-shift CG tracks plain CG per shift", ok)
    assert ok, (mismatches[:5], elapsed)


def jacobi_moment(j: int, a: float, b: float) -> mp.mpf:
    """Exact weight-function moment of s^j over [-1, 1] at high precision.

    Substituting s = 1 - 2u reduces to Beta integrals:
    2^(a+b+1) sum_i C(j,i) (-2)^i B(a+1+i, b+1).  The alternating sum loses
    tens of digits at degree ~40, hence the large working precision.
    """
    with mp.workdps(200):
        am = mp.mpf(a)
        bm = mp.mpf(b)
        total = mp.mpf(0)
        for i in range(j + 1):
            total += mp.binomial(j, i) * (-2) ** i * mp.beta(am + 1 + i, bm + 1)
        return mp.mpf(2) ** (am + bm + 1) * total


def test_criterion_6_quadrature_correctness():
    failures = []
    for alpha in (0.2, 0.5):
        a, bexp = alpha - 1.0, -alpha
        moments = [jacobi_moment(j, a, bexp) for j in range(2 * 20)]
        mu0 = float(moments[0])
        for m in range(1, 21):
            nodes, weights = gauss_jacobi_nodes(m, a, bexp)
            for j in range(2 * m):
                got = float(np.sum(weights * nodes**j))
                exact = moments[j]
                tol = 1e-12 * max(abs(float(exact)), mu0)
                if abs(got - float(exact)) > tol:
                    failures.append(("moment", alpha, m, j, got - float(exact)))

    bounds = SpectralBounds(0.5, 3.0)
    probe = ProbeSpec(np.array([0.5, 1.0, 3.0]), 1e-10)
    for alpha in (0.2, 0.5):
        for family in GRID_FAMILIES:
            rule = select_node_count(family, alpha, bounds, probe)
            for lam in (0.5, 1.0, 3.0):
                err = abs(scalar_apply(rule, lam) - lam**alpha)
                if err > 1e-10:
                    failures.append(("scalar", alpha, family, lam, err))
    ok = not failures
    report(6, "Gauss-Jacobi moments exact, scalar transfer converges", ok)
    assert ok, failures[:5]


def test_criterion_7_budget_isolation():
    # The stages are composed by hand so that each share can be isolated: the
    # selected rule's systems solved far below their thresholds leave only the
    # quadrature error, and a doubled rule's node bounds price the solves.
    A = build_laplacian_1d(200)
    b = np.ones(A.n)
    alpha, epsilon = 0.5, 1e-6
    budget = ErrorBudget(epsilon)
    bounds = estimate_spectral_bounds(A, seed=0)
    probe = scalar_probe(budget, bounds, float(np.linalg.norm(b)))
    y_ref = dense_fracpow_action(A, b, alpha)
    failures = []
    for family in GRID_FAMILIES:
        selected = select_node_count(family, alpha, bounds, probe)
        X, _ = shifted_cg_solve(A, b, ShiftedSolveRequest(selected.shifts, 1e-13))
        quad_err = absolute_error(A.matvec(selected.weights @ X), y_ref)
        if not quad_err <= budget.quad_share * epsilon:
            failures.append(("quad-only", family, quad_err))

        doubled = build_rule(family, alpha, 2 * selected.m, bounds)
        thresholds = residual_thresholds(doubled, budget, bounds.lambda_hi)
        X, solve = shifted_cg_solve(A, b, ShiftedSolveRequest(doubled.shifts, thresholds))
        bound_sum = node_error_bound(
            solve.final_residual_norms, doubled.shifts, bounds.lambda_hi, doubled.weights
        ).sum()
        if not bound_sum <= budget.solve_share * epsilon:
            failures.append(("solve-bound", family, bound_sum))
        total = absolute_error(A.matvec(doubled.weights @ X), y_ref)
        if not total <= epsilon:
            failures.append(("total", family, total))
    ok = not failures
    report(7, "quadrature and solve budget shares isolate", ok)
    assert ok, failures


def test_criterion_8_oracle_self_validation(rng):
    from fracpow.oracle import hpd_eigendecomposition

    failures = []
    for n in (5, 50, 200):
        M = random_hpd(rng, n)
        M = (M + M.T) / 2.0
        w, Q = hpd_eigendecomposition(HermitianSparseMatrix.from_dense(M))
        scale = np.linalg.norm(M, "fro")
        rec = np.linalg.norm(Q @ np.diag(w) @ Q.T - M, "fro") / scale
        orth = np.linalg.norm(Q.T @ Q - np.eye(n), "fro")
        if rec > 1e-10 or orth > 1e-10:
            failures.append(("eigh", n, rec, orth))

    A = build_laplacian_1d(100)
    b = np.ones(A.n)
    half = dense_fracpow_action(A, b, 0.5)
    twice = dense_fracpow_action(A, half, 0.5)
    ab = A.matvec(b)
    semigroup = float(np.linalg.norm(twice - ab))
    if semigroup > 1e-9 * float(np.linalg.norm(ab)):
        failures.append(("semigroup", semigroup))
    ok = not failures
    report(8, "dense oracle validates itself", ok)
    assert ok, failures
