"""Residual-based error certification and the end-to-end fractional action.

For a Hermitian positive definite ``A`` with ``lambda_max = ||A||_2``, any
approximation ``x`` to ``(sigma I + A)^(-1) b`` satisfies::

    || A (sigma I + A)^(-1) b - A x ||_2  <=  || b - (sigma I + A) x ||_2 / (1 + sigma / lambda_max)

because ``||A (sigma I + A)^(-1)||_2 = lambda_max / (lambda_max + sigma)``.
Splitting a total tolerance ``eps`` into a quadrature share and a solve share,
giving each of the ``m`` quadrature nodes an equal slice of the solve share,
and inverting the inequality yields the per-node residual stopping threshold::

    tau_k = (solve_share * eps / m) * (1 + sigma_k / lambda_max) / omega_k

Any upper bound substituted for ``lambda_max`` only tightens ``tau_k``, so a
certified overestimate keeps the certificate valid.  The sum of the per-node
error bounds ``omega_k * ||r_k|| / (1 + sigma_k / lambda_max)`` at the final
explicit residuals, plus the probed quadrature error, bounds the total error
of the assembled result.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceFloorError
from .quadrature import (
    ProbeSpec,
    ShiftedQuadratureRule,
    build_rule,
    probe_error,
    probe_values_from_bounds,
    select_node_count,
)
from .shifted_cg import ShiftedSolveReport, ShiftedSolveRequest, shifted_cg_solve
from .sparse import HermitianSparseMatrix, SpectralBounds, estimate_spectral_bounds

logger = logging.getLogger(__name__)

#: Requested tolerances below ``TOLERANCE_FLOOR_FACTOR * eps_machine * ||b|| *
#: lambda_hi^alpha`` are rejected as unattainable in double precision.
TOLERANCE_FLOOR_FACTOR = 1e3


@dataclass(frozen=True)
class ErrorBudget:
    """Total tolerance and its split between quadrature and solves.

    The shares may sum to less than one (leaving slack) but never more.
    """

    epsilon: float
    quad_share: float = 0.5
    solve_share: float = 0.5

    def __post_init__(self) -> None:
        if not self.epsilon > 0.0 or not np.isfinite(self.epsilon):
            raise ValueError("epsilon must be positive and finite")
        for name, share in (("quad_share", self.quad_share), ("solve_share", self.solve_share)):
            if not 0.0 < share < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {share}")
        if self.quad_share + self.solve_share > 1.0 + 1e-12:
            raise ValueError("quad_share + solve_share must not exceed 1")


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


def choose_rule(
    family: str, alpha: float, bounds: SpectralBounds, probe: ProbeSpec
) -> ShiftedQuadratureRule:
    """Quadrature rule for a probe spec from :func:`scalar_probe`.

    An infinite probe budget means ``b = 0``, on which every rule is exact,
    so the rule is the 1-node rule of ``family``; otherwise it is the rule
    :func:`select_node_count` picks.
    """
    if math.isinf(probe.budget):
        return build_rule(family, alpha, 1, bounds)
    rule = select_node_count(family, alpha, bounds, probe)
    logger.info("selected %s rule with m = %d nodes", rule.family, rule.m)
    return rule


def error_coefficient(sigma, lambda_max: float):
    """Factor turning a shifted residual norm into an error bound on ``A x``.

    Equals ``1 / (1 + sigma / lambda_max)``, the 2-norm of
    ``A (sigma I + A)^(-1)`` for Hermitian positive definite ``A``.
    Vectorized over ``sigma``.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma < 0.0):
        raise ValueError("shift must be non-negative")
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
    if np.any(residual_norm < 0.0):
        raise ValueError("residual norm must be non-negative")
    bound = np.asarray(omega) * residual_norm * error_coefficient(sigma, lambda_max)
    return float(bound) if bound.ndim == 0 else bound


@dataclass(frozen=True)
class ActionResult:
    """Outcome of one fractional-power action ``y ~= A^alpha b``.

    ``certified`` is true when the selected rule met its scalar probe budget
    and every node's explicit final residual met the certificate threshold,
    in which case ``||y - A^alpha b||_2 <= epsilon`` up to rounding in the
    assembly.  The solver ran against the certificate thresholds, which
    ``report.thresholds`` holds.
    """

    y: np.ndarray
    rule: ShiftedQuadratureRule
    bounds: SpectralBounds
    budget: ErrorBudget
    report: ShiftedSolveReport
    node_error_bounds: np.ndarray
    error_bound_sum: float
    scalar_probe_error: float
    certified: bool

    def to_json_dict(self) -> dict:
        """Diagnostic summary as plain JSON-ready types (solution excluded)."""
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
                    "converged": bool(self.report.converged[k]),
                }
                for k in range(self.rule.m)
            ],
            "error_bound_sum": self.error_bound_sum,
            "certified": self.certified,
        }


def fracpow_action(
    A: HermitianSparseMatrix,
    b: np.ndarray,
    alpha: float,
    budget: ErrorBudget,
    family: str = "de",
    *,
    bounds: SpectralBounds | None = None,
    max_iterations: int | None = None,
) -> ActionResult:
    """Compute ``y ~= A^alpha b`` with a certified total error budget.

    Pipeline: estimate spectral bounds (unless ``bounds`` are given), check
    the tolerance floor, pick a rule whose scalar probe error fits the
    quadrature share while one node fewer does not (probing
    ``quad_share * epsilon / ||b||`` on eleven log-spaced samples of the
    bound interval, see :func:`select_node_count`), solve all shifted
    systems with multi-shift CG against the per-node thresholds, assemble
    ``y = A @ (sum_k omega_k x_k)`` with a single final product, and certify
    the result against the same thresholds and probe.

    Every rule is exact on ``b = 0``, so there the probe budget is infinite
    and the rule is the 1-node rule of ``family``; thresholds, solve,
    assembly and certificate are as for any other ``b``, which gives
    ``y = 0``, no CG iteration and ``certified=True``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    b = np.asarray(b)
    if b.shape != (A.n,):
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({A.n},)")
    bnorm = float(np.linalg.norm(b))
    if bounds is None:
        bounds = estimate_spectral_bounds(A)

    check_tolerance(budget, bnorm, bounds.lambda_hi, alpha)
    probe = scalar_probe(budget, bounds, bnorm)
    rule = choose_rule(family, alpha, bounds, probe)
    thresholds = residual_thresholds(rule, budget, bounds.lambda_hi)

    request = ShiftedSolveRequest(rule.shifts, thresholds, max_iterations)
    solutions, report = shifted_cg_solve(A, b, request)
    y = A.matvec(rule.weights @ solutions)

    node_bounds = node_error_bound(
        report.final_residual_norms, rule.shifts, bounds.lambda_hi, rule.weights
    )
    scalar_err = probe_error(rule, probe.probe_values)
    certified = bool(
        np.all(report.final_residual_norms <= thresholds) and scalar_err <= probe.budget
    )
    return ActionResult(
        y=y,
        rule=rule,
        bounds=bounds,
        budget=budget,
        report=report,
        node_error_bounds=node_bounds,
        error_bound_sum=float(node_bounds.sum()),
        scalar_probe_error=scalar_err,
        certified=certified,
    )
