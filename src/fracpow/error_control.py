"""Residual-based error certification and the end-to-end fractional action.

For a Hermitian positive definite ``A`` with ``lambda_max = ||A||_2``, any
approximation ``x`` to ``(sigma I + A)^(-1) b`` satisfies::

    || A (sigma I + A)^(-1) b - A x ||_2  <=  || b - (sigma I + A) x ||_2 / (1 + sigma / lambda_max)

because ``||A (sigma I + A)^(-1)||_2 = lambda_max / (lambda_max + sigma)``.
Splitting a total tolerance ``eps`` in half between quadrature and solves,
giving each of the ``m`` quadrature nodes an equal slice of the solve half,
and inverting the inequality yields the per-node residual stopping threshold::

    tau_k = (solve_share * eps / m) * (1 + sigma_k / lambda_max) / omega_k

Any upper bound substituted for ``lambda_max`` only tightens ``tau_k``, so a
certified overestimate keeps the certificate valid.  The sum of the per-node
error bounds ``omega_k * ||r_k|| / (1 + sigma_k / lambda_max)`` at the final
explicit residuals, plus the probed quadrature error, bounds the total error
of the assembled result; :func:`certify` writes that inequality down term by
term, and it alone decides whether a result is certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import ToleranceFloorError, check_alpha, check_rhs, check_shifts, check_weights
from .quadrature import (
    ProbeSpec,
    ShiftedQuadratureRule,
    _family_name,
    probe_error,
    probe_values_from_bounds,
    select_node_count,
)
from .shifted_cg import ShiftedSolveReport, ShiftedSolveRequest, shifted_cg_solve
from .sparse import HermitianSparseMatrix, SpectralBounds, estimate_spectral_bounds

#: Requested tolerances below ``TOLERANCE_FLOOR_FACTOR * eps_machine * ||b|| *
#: lambda_hi^alpha`` are rejected as unattainable in double precision.
TOLERANCE_FLOOR_FACTOR = 1e3


@dataclass(frozen=True)
class ErrorBudget:
    """Total tolerance ``epsilon``, split half to the quadrature and half to the solves.

    The split is fixed: each side's cost (nodes, CG iterations) grows only
    with the logarithm of one over its share, so moving it buys little.
    """

    epsilon: float
    quad_share: ClassVar[float] = 0.5
    solve_share: ClassVar[float] = 0.5

    def __post_init__(self) -> None:
        if not self.epsilon > 0.0 or not np.isfinite(self.epsilon):
            raise ValueError("epsilon must be positive and finite")


def tolerance_floor(b_norm: float, lambda_hi: float, alpha: float) -> float:
    """Smallest meaningfully certifiable tolerance for this problem scale.

    Below ``1e3 * eps_machine * ||b|| * lambda_hi^alpha`` the rounding of the
    assembly itself is commensurate with the requested tolerance.
    """
    return TOLERANCE_FLOOR_FACTOR * float(np.finfo(np.float64).eps) * b_norm * lambda_hi**alpha


def check_tolerance(budget: ErrorBudget, b_norm: float, lambda_hi: float, alpha: float) -> None:
    """Raise :class:`ToleranceFloorError` when ``epsilon`` is unattainable."""
    floor = tolerance_floor(b_norm, lambda_hi, alpha)
    if budget.epsilon < floor:
        raise ToleranceFloorError(
            f"epsilon = {budget.epsilon:.3e} is below the double-precision floor "
            f"{floor:.3e} for this problem scale"
        )


def scalar_probe(budget: ErrorBudget, bounds: SpectralBounds, b_norm: float) -> ProbeSpec:
    """Probe spec driving node-count selection for a given right-hand side.

    The scalar budget is the quadrature share divided by ``||b||``: a scalar
    transfer-function error ``e`` at every eigenvalue implies a vector error
    of at most ``e * ||b||``.  For ``b = 0`` the budget is infinite: every
    rule is exact there.
    """
    scalar_budget = budget.quad_share * budget.epsilon / b_norm if b_norm else math.inf
    return ProbeSpec(probe_values_from_bounds(bounds), scalar_budget)


def error_coefficient(sigma, lambda_max: float):
    """Factor turning a shifted residual norm into an error bound on ``A x``.

    Equals ``1 / (1 + sigma / lambda_max)``, the 2-norm of
    ``A (sigma I + A)^(-1)`` for Hermitian positive definite ``A``.
    Vectorized over ``sigma``.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    check_shifts(sigma)
    if not lambda_max > 0.0:
        raise ValueError("lambda_max must be positive")
    coef = 1.0 / (1.0 + sigma / lambda_max)
    return float(coef) if coef.ndim == 0 else coef


def residual_thresholds(
    rule: ShiftedQuadratureRule, budget: ErrorBudget, lambda_max: float
) -> np.ndarray:
    """Per-node residual stopping thresholds certifying the solve share.

    Stopping node ``k`` at ``tau_k`` caps its error contribution at
    ``solve_share * epsilon / m``; any upper bound for ``lambda_max`` only
    tightens the thresholds.
    """
    if not lambda_max > 0.0:
        raise ValueError("lambda_max must be positive")
    per_node = budget.solve_share * budget.epsilon / rule.m
    return per_node * (1.0 + rule.shifts / lambda_max) / rule.weights


def node_error_bound(residual_norm, sigma, lambda_max: float, omega):
    """Certified error of one weighted node term given its residual norm.

    ``omega * ||r|| / (1 + sigma / lambda_max)`` bounds
    ``|| omega * (A (sigma I + A)^(-1) b - A x) ||_2``.  Vectorized.
    """
    residual_norm = np.asarray(residual_norm, dtype=np.float64)
    if not np.all(residual_norm >= 0.0):
        raise ValueError("residual norm must be non-negative")
    check_weights(omega)
    bound = np.asarray(omega) * residual_norm * error_coefficient(sigma, lambda_max)
    return float(bound) if bound.ndim == 0 else bound


def residual_rounding(
    b_norm: float, sigma: float, x_norm: float, gershgorin: float, row_nnz: int
) -> float:
    """Rounding allowance of a computed explicit residual ``b - sigma x - A x``.

    Each entry of the computed residual is within ``gamma_{r+2}`` times
    ``|b| + sigma |x| + |A| |x|`` of the exact one, with ``r = row_nnz`` the
    most stored entries in a row and ``gamma_j = j u / (1 - j u)``, ``u =
    2^-53`` (Higham, 2002, ch. 3).  With ``gershgorin >= || |A| ||_2`` the
    exact residual norm is thus at most the computed one plus
    ``gamma_{r+2} (||b|| + sigma ||x|| + gershgorin ||x||)``.
    """
    j = row_nnz + 2
    gamma = j * 2.0**-53 / (1.0 - j * 2.0**-53)
    return gamma * (b_norm + (sigma + gershgorin) * x_norm)


class Term(NamedTuple):
    """One term of a :class:`Certificate`: how it was obtained, its value
    against its budget, and whether it holds."""

    method: str
    value: float = 0.0
    budget: float = 0.0
    holds: bool = True


@dataclass(frozen=True)
class Certificate:
    """Ledger of ``||y - A^alpha b||_2 <= e_Q ||b|| + sum_k omega_k ||r_k|| / (1 + sigma_k / lambda_max)``.

    One :class:`Term` per part of the bound, each named by its method:

    - ``interval`` (the bounds' own :attr:`~fracpow.sparse.SpectralBounds.method`:
      ``estimated``, ``floored`` or ``given``): no share of epsilon;
    - ``quadrature`` (``probes``): the scalar error ``e_Q`` at the probes
      against the probe budget, both per unit ``||b||``;
    - ``solve`` (``per-node``): the sum of ``node_bounds`` against the solve
      share of epsilon; it holds when every node's explicit final residual
      met its threshold;
    - ``rounding`` (``uncounted``): the rounding of the assembly.

    ``failing`` names the terms that do not hold, ``assumptions`` the
    ``term:method`` pairs that no term checks; both are read off the terms.
    With nothing failing the error is at most epsilon if the assumptions hold.
    """

    interval: Term
    quadrature: Term
    solve: Term
    rounding: Term
    node_bounds: np.ndarray = field(repr=False)
    TERMS: ClassVar[tuple[str, ...]] = ("interval", "quadrature", "solve", "rounding")

    @property
    def failing(self) -> tuple[str, ...]:
        return tuple(name for name in self.TERMS if not getattr(self, name).holds)

    @property
    def assumptions(self) -> tuple[str, ...]:
        # The solve term alone is checked on the result itself.
        return tuple(f"{name}:{getattr(self, name).method}" for name in self.TERMS if name != "solve")

    @property
    def certified(self) -> bool:
        return not self.failing


@dataclass(frozen=True)
class ActionResult:
    """Outcome of one fractional-power action ``y ~= A^alpha b``.

    ``certificate`` is the ledger :func:`certify` wrote for it.  The solver
    ran against the certificate thresholds, which ``report.thresholds`` holds.
    """

    y: np.ndarray
    rule: ShiftedQuadratureRule
    bounds: SpectralBounds
    budget: ErrorBudget
    report: ShiftedSolveReport
    certificate: Certificate

    @property
    def certified(self) -> bool:
        return self.certificate.certified

    def to_json_dict(self) -> dict:
        """Diagnostic summary as plain JSON-ready types (solution excluded)."""
        converged = self.report.converged
        return {
            "alpha": self.rule.alpha,
            "epsilon": self.budget.epsilon,
            "family": self.rule.family,
            "m": self.rule.m,
            "lambda_bounds": [self.bounds.lambda_lo, self.bounds.lambda_hi],
            "per_node": [
                {
                    "sigma": float(self.rule.shifts[k]),
                    "omega": float(self.rule.weights[k]),
                    "threshold": float(self.report.thresholds[k]),
                    "residual": float(self.report.final_residual_norms[k]),
                    "iterations": int(self.report.iterations_used[k]),
                    "converged": bool(converged[k]),
                }
                for k in range(self.rule.m)
            ],
            "error_bound_sum": self.certificate.solve.value,
            "certified": self.certified,
        }


class ActionPlan(NamedTuple):
    """Everything one action fixes before its first CG iteration."""

    bounds: SpectralBounds
    probe: ProbeSpec
    rule: ShiftedQuadratureRule
    thresholds: np.ndarray


def plan_action(
    A: HermitianSparseMatrix,
    b: np.ndarray,
    alpha: float,
    budget: ErrorBudget,
    family: str = "de",
    *,
    bounds: SpectralBounds | None = None,
) -> ActionPlan:
    """Spectral bounds, probe, rule and per-node thresholds for ``A^alpha b``.

    Pipeline: check alpha and the family before any product, estimate
    spectral bounds (unless ``bounds`` are given), check the tolerance
    floor, pick a rule whose scalar probe error fits the quadrature half of
    ``epsilon`` while one node fewer does not (probing ``epsilon / (2
    ||b||)`` on eleven log-spaced samples of the bound interval, see
    :func:`select_node_count`), and set per-node residual thresholds that
    fit the solve half.  Every rule is exact on ``b = 0``,
    so there the probe budget is infinite and :func:`select_node_count`
    returns the 1-node rule of ``family``.
    """
    check_alpha(alpha)
    family = _family_name(family)
    b = check_rhs(b, A.n)
    bnorm = float(np.linalg.norm(b))
    if bounds is None:
        bounds = estimate_spectral_bounds(A)

    check_tolerance(budget, bnorm, bounds.lambda_hi, alpha)
    probe = scalar_probe(budget, bounds, bnorm)
    rule = select_node_count(family, alpha, bounds, probe)
    return ActionPlan(bounds, probe, rule, residual_thresholds(rule, budget, bounds.lambda_hi))


def certify(plan: ActionPlan, report: ShiftedSolveReport, budget: ErrorBudget) -> Certificate:
    """The :class:`Certificate` of a solve run against ``plan``.

    The interval term is the method the plan's bounds carry; the solve term
    holds when the report reads every node converged.
    """
    bounds, probe, rule, _ = plan
    quad_err = probe_error(rule, probe.probe_values)
    node_bounds = node_error_bound(
        report.final_residual_norms, rule.shifts, bounds.lambda_hi, rule.weights
    )
    return Certificate(
        interval=Term(bounds.method),
        quadrature=Term("probes", quad_err, probe.budget, bool(quad_err <= probe.budget)),
        solve=Term(
            "per-node",
            float(node_bounds.sum()),
            budget.solve_share * budget.epsilon,
            report.all_converged,
        ),
        rounding=Term("uncounted"),
        node_bounds=node_bounds,
    )


def fracpow_action(
    A: HermitianSparseMatrix,
    b: np.ndarray,
    alpha: float,
    budget: ErrorBudget,
    family: str = "de",
    *,
    bounds: SpectralBounds | None = None,
) -> ActionResult:
    """Compute ``y ~= A^alpha b`` with a certified total error budget.

    Plan with :func:`plan_action`, solve the shifted systems with
    multi-shift CG against the plan's thresholds, assemble
    ``y = A @ (sum_k omega_k x_k)`` with one final product and
    :func:`certify` the result against the same plan; on ``b = 0`` that
    gives ``y = 0``, no CG iteration and ``certified=True``.
    """
    plan = plan_action(A, b, alpha, budget, family, bounds=bounds)
    rule = plan.rule
    solutions, report = shifted_cg_solve(A, b, ShiftedSolveRequest(rule.shifts, plan.thresholds))
    y = A.matvec(rule.weights @ solutions)
    certificate = certify(plan, report, budget)
    return ActionResult(y, rule, plan.bounds, budget, report, certificate)
