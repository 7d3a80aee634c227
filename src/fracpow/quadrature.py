"""Shifted-quadrature rules for the fractional power of an HPD matrix.

For ``0 < alpha < 1`` the fractional power has the integral representation::

    A^alpha = sin(alpha pi) / (alpha pi) * A * int_0^inf (t^(1/alpha) I + A)^(-1) dt
            = sin(alpha pi) / pi       * A * int_0^inf tau^(alpha-1) (tau I + A)^(-1) dtau

Every rule built here discretizes this as::

    A^alpha b  ~=  sum_k  omega_k * A (sigma_k I + A)^(-1) b

with shifts ``sigma_k >= 0`` and positive effective weights ``omega_k`` that
already absorb the ``sin(alpha pi)`` prefactor.  Three constructions are
provided:

``gj1``
    Cayley map ``tau = (1 - s) / (1 + s)`` turns the ``tau`` integral into a
    Gauss-Jacobi problem on ``[-1, 1]`` with exponents ``(alpha - 1, -alpha)``
    and an analytic resolvent factor.  Node ``s_k`` gives
    ``sigma_k = (1 - s_k) / (1 + s_k)`` and
    ``omega_k = (2 sin(alpha pi) / pi) * w_k / (1 + s_k)``.

``gj2``
    ``gj1`` applied to ``A / c`` with ``c = sqrt(lambda_lo * lambda_hi)``;
    by ``A^alpha = c^alpha (A/c)^alpha`` the shifts scale by ``c`` and the
    weights by ``c^alpha``.  Centering the spectrum around 1 shrinks the node
    count dramatically on ill-conditioned problems.

``de``
    Double-exponential substitution ``t = exp(pi sinh u)`` in the original
    ``t`` integral, discretized by the trapezoid rule with step ``h`` on a
    truncated window: ``sigma(u) = exp(pi sinh(u) / alpha)`` and
    ``omega(u) = sin(alpha pi)/(alpha pi) * pi cosh(u) exp(pi sinh u) * h``.

The scalar transfer function ``Q(lambda) = sum_k omega_k lambda/(sigma_k +
lambda)`` approximates ``lambda^alpha``.  :func:`select_node_count` probes it
on a spectral interval and returns a rule of ``m`` nodes that meets the
budget there while ``m - 1`` nodes do not.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import beta as beta_function

from .errors import BudgetUnreachableError, QuadratureConstructionError
from .sparse import SpectralBounds

logger = logging.getLogger(__name__)

FAMILIES = ("gj1", "gj2", "de")

#: Node-count search cap for :func:`select_node_count`.
NODE_COUNT_CAP = 2**14

#: Spectral samples per probe: both interval ends and log-spaced interior points.
PROBE_COUNT = 11

# exp arguments are kept inside +-690 so shifts and weights stay finite
# doubles with headroom for downstream products.
_EXP_CAP = 690.0

# The de trapezoid window starts at [-_DE_HALFWIDTH, _DE_HALFWIDTH] and each
# end moves outward in _DE_STEP increments until the integrand is small.
_DE_HALFWIDTH = 3.0
_DE_STEP = 0.5


@dataclass(frozen=True)
class ShiftedQuadratureRule:
    """Quadrature rule ``sum_k omega_k A (sigma_k I + A)^(-1)`` for ``A^alpha``.

    ``shifts`` are strictly increasing and non-negative, ``weights`` strictly
    positive; both arrays share length ``m >= 1``.
    """

    alpha: float
    family: str
    shifts: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        alpha = float(self.alpha)
        family = str(self.family).lower()
        shifts = np.asarray(self.shifts, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "weights", weights)
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
        if shifts.ndim != 1 or shifts.size == 0 or shifts.shape != weights.shape:
            raise ValueError("shifts and weights must be equal-length non-empty vectors")
        if shifts[0] < 0.0 or np.any(np.diff(shifts) <= 0.0):
            raise ValueError("shifts must be non-negative and strictly increasing")
        if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be positive and finite")

    @property
    def m(self) -> int:
        return int(self.shifts.size)


@dataclass(frozen=True)
class ProbeSpec:
    """Positive spectral samples and the scalar accuracy to reach on them."""

    probe_values: np.ndarray
    budget: float

    def __post_init__(self) -> None:
        values = np.unique(np.asarray(self.probe_values, dtype=np.float64))
        object.__setattr__(self, "probe_values", values)
        object.__setattr__(self, "budget", float(self.budget))
        if values.size == 0 or np.any(values <= 0.0) or not np.all(np.isfinite(values)):
            raise ValueError("probe values must be positive and finite")
        if not self.budget > 0.0:
            raise ValueError("budget must be positive")


def _jacobi_recurrence(m: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the order-m Jacobi matrix for (1-s)^a (1+s)^b."""
    d = np.empty(m)
    d[0] = (b - a) / (a + b + 2.0)
    if m == 1:
        return d, np.empty(0)
    j = np.arange(1, m, dtype=np.float64)
    d[1:] = (b * b - a * a) / ((2 * j + a + b) * (2 * j + a + b + 2.0))
    e = np.empty(m - 1)
    # The generic off-diagonal formula has a removable 0/0 at j = 1 whenever
    # a + b = -1, which is exactly the exponent pair used here; the first
    # coefficient therefore gets its cancelled closed form.
    e[0] = math.sqrt(4.0 * (a + 1.0) * (b + 1.0) / ((a + b + 2.0) ** 2 * (a + b + 3.0)))
    if m > 2:
        j = np.arange(2, m, dtype=np.float64)
        num = 4.0 * j * (j + a) * (j + b) * (j + a + b)
        den = (2 * j + a + b) ** 2 * (2 * j + a + b + 1.0) * (2 * j + a + b - 1.0)
        e[1:] = np.sqrt(num / den)
    return d, e


def _recurrence_pass(
    s: np.ndarray, d: np.ndarray, e: np.ndarray, p0: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the orthonormal recurrence and its derivative once at the points s.

    Returns the Newton step ``-p_m(s) / p_m'(s)``, the Christoffel sum
    ``K(s) = sum_{j<m} p_j(s)^2`` and ``K'(s) / 2``, all in O(m) memory.
    """
    p_prev, p = np.zeros_like(s), np.full_like(s, p0)
    dp_prev, dp = np.zeros_like(s), np.zeros_like(s)
    k, half_dk = p * p, np.zeros_like(s)
    e_prev = 0.0
    for j in range(d.size):
        x = s - d[j]
        p_next = x * p - e_prev * p_prev
        dp_next = x * dp + p - e_prev * dp_prev
        if j == d.size - 1:
            break
        p_next /= e[j]
        dp_next /= e[j]
        k += p_next * p_next
        half_dk += p_next * dp_next
        p_prev, p, dp_prev, dp, e_prev = p, p_next, dp, dp_next, e[j]
    # p_m is only needed up to scale, so its 1 / e_m normalisation is skipped.
    return -p_next / dp_next, k, half_dk


def gauss_jacobi_nodes(m: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the m-point Gauss rule for weight (1-s)^a (1+s)^b.

    Starting nodes are the eigenvalues of the symmetrized three-term
    recurrence (Golub-Welsch).  Their accuracy depends on which LAPACK driver
    ``eigh_tridiagonal`` picks, and the weights are very sensitive to node
    error near ``s = +-1``, so each node is refined by a Newton step
    ``-p_m / p_m'`` on the recurrence (Hale & Townsend, SISC 2013).  A second
    recurrence pass at the refined nodes takes one more Newton step ``delta``
    and evaluates the Christoffel function ``w = 1 / sum_j p_j^2`` at the
    corrected root to first order, ``1 / (K + K' delta)``, so the weight does
    not inherit the rounding of the stored node.  Both passes need O(m)
    memory where full eigenvectors would need O(m^2).  Whichever driver
    supplied the starting nodes, the nodes agree to a few ulps and the
    weights to ``sum_k |dw_k| <= 1e-13 mu_0``.
    """
    if m < 1:
        raise ValueError("node count must be >= 1")
    if a <= -1.0 or b <= -1.0:
        raise ValueError("Jacobi exponents must exceed -1")
    mu0 = 2.0 ** (a + b + 1.0) * beta_function(a + 1.0, b + 1.0)
    d, e = _jacobi_recurrence(m, a, b)
    if m == 1:
        return d.copy(), np.array([mu0])
    p0 = 1.0 / math.sqrt(mu0)
    nodes = eigh_tridiagonal(d, e, eigvals_only=True)
    nodes = nodes + _recurrence_pass(nodes, d, e, p0)[0]
    delta, k, half_dk = _recurrence_pass(nodes, d, e, p0)
    return nodes + delta, 1.0 / (k + 2.0 * half_dk * delta)


def _de_log_integrand(u: np.ndarray, alpha: float, lam: float) -> np.ndarray:
    """log of the scalar DE integrand at spectral point lam (overflow-safe)."""
    pis = math.pi * np.sinh(u)
    prefactor = math.sin(alpha * math.pi) / (alpha * math.pi)
    return (
        math.log(prefactor)
        + np.log(math.pi * np.cosh(u))
        + pis
        + math.log(lam)
        - np.logaddexp(pis / alpha, math.log(lam))
    )


def _build_de(
    alpha: float, m: int, bounds: SpectralBounds, truncation_budget: float
) -> tuple[np.ndarray, np.ndarray]:
    """DE nodes on a window widened until the integrand at both probes is below tol."""
    tol = truncation_budget / (100.0 * m)
    if tol <= 0.0 or not np.isfinite(tol):
        raise QuadratureConstructionError("truncation budget must be positive and finite")
    log_tol = math.log(tol)
    probes = (bounds.lambda_lo, bounds.lambda_hi)

    def small_enough(u: float) -> bool:
        return all(_de_log_integrand(np.array([u]), alpha, lam)[0] <= log_tol for lam in probes)

    left = -_DE_HALFWIDTH
    # sigma(u) = exp(pi sinh(u) / alpha) must stay a positive normal double,
    # and exp(pi sinh u) in the weight must stay finite.
    while not small_enough(left):
        left -= _DE_STEP
        if math.pi * math.sinh(left) / alpha < -_EXP_CAP:
            raise QuadratureConstructionError(
                "truncation search failed on the left: integrand does not reach "
                f"{tol:.3e} before the shifts underflow"
            )
    right = _DE_HALFWIDTH
    while not small_enough(right):
        right += _DE_STEP
        if math.pi * math.sinh(right) / alpha > _EXP_CAP or math.pi * math.sinh(right) > _EXP_CAP:
            raise QuadratureConstructionError(
                "truncation search failed on the right: integrand does not reach "
                f"{tol:.3e} before the weights overflow"
            )
    if m == 1:
        u = np.array([0.5 * (left + right)])
        h = right - left
    else:
        u = np.linspace(left, right, m)
        h = (right - left) / (m - 1)
    pis = math.pi * np.sinh(u)
    sigma = np.exp(pis / alpha)
    prefactor = math.sin(alpha * math.pi) / (alpha * math.pi)
    omega = prefactor * math.pi * np.cosh(u) * np.exp(pis) * h
    return sigma, omega


def build_rule(
    family: str,
    alpha: float,
    m: int,
    bounds: SpectralBounds | None = None,
    *,
    truncation_budget: float = 1e-14,
) -> ShiftedQuadratureRule:
    """Construct an m-node rule of the requested family.

    ``bounds`` is ignored by ``gj1`` and required by ``gj2`` (for the
    geometric-mean scaling) and ``de`` (for the truncation probes).
    ``truncation_budget`` is the scalar error that the ``de`` window's
    truncation may add; the other families ignore it.
    """
    family = str(family).lower()
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if m < 1:
        raise ValueError("node count must be >= 1")
    if family == "de":
        if bounds is None:
            raise ValueError("de needs spectral bounds for its truncation probes")
        sigma, omega = _build_de(alpha, m, bounds, truncation_budget)
        return ShiftedQuadratureRule(alpha, family, sigma, omega)
    if family == "gj2" and bounds is None:
        raise ValueError("gj2 needs spectral bounds for its scaling")
    # gj2 is gj1 applied to A / c; for gj1, c = 1 and the scaling is exact.
    c = 1.0 if family == "gj1" else math.sqrt(bounds.lambda_lo * bounds.lambda_hi)
    s, w = gauss_jacobi_nodes(m, alpha - 1.0, -alpha)
    sigma = c * ((1.0 - s) / (1.0 + s))
    omega = c**alpha * ((2.0 * math.sin(alpha * math.pi) / math.pi) * w / (1.0 + s))
    # Gauss nodes come back ascending in s, which is descending in sigma.
    return ShiftedQuadratureRule(alpha, family, sigma[::-1].copy(), omega[::-1].copy())


def scalar_apply(rule: ShiftedQuadratureRule, lam):
    """Evaluate the scalar transfer ``Q(lam) = sum_k omega_k lam/(sigma_k + lam)``.

    Accepts a scalar or an array of spectral points.
    """
    lam_arr = np.asarray(lam, dtype=np.float64)
    q = np.sum(
        rule.weights * (lam_arr[..., None] / (rule.shifts + lam_arr[..., None])), axis=-1
    )
    return float(q) if np.isscalar(lam) or lam_arr.ndim == 0 else q


def probe_values_from_bounds(bounds: SpectralBounds) -> np.ndarray:
    """Spectral samples: both endpoints plus ``PROBE_COUNT - 2`` log-spaced interior points."""
    return np.unique(np.geomspace(bounds.lambda_lo, bounds.lambda_hi, PROBE_COUNT))


def probe_error(rule: ShiftedQuadratureRule, probe_values: np.ndarray) -> float:
    """Worst absolute deviation ``|lam^alpha - Q(lam)|`` over the samples."""
    lam = np.asarray(probe_values, dtype=np.float64)
    return float(np.max(np.abs(lam**rule.alpha - scalar_apply(rule, lam))))


def select_node_count(
    family: str,
    alpha: float,
    bounds: SpectralBounds,
    probe: ProbeSpec,
) -> ShiftedQuadratureRule:
    """A rule that meets the probe budget while one node fewer does not.

    Each attempt builds the ``m``-node rule and accepts it iff its probe
    error is at most the budget.  The returned rule of ``m`` nodes passes
    and the ``m - 1``-node rule fails (or ``m = 1``).  Where the probe error
    falls with ``m`` down to a rounding floor, as for ``gj1`` and ``gj2``,
    this is the smallest passing count.  The ``de`` error is not monotone in
    ``m``, so a smaller passing count may lie below a failing one.

    The search models ``log err`` as linear in ``m``.  It starts at
    ``m = 4``.  While every attempt fails, it steps to the count where the
    line through the last two failures meets the budget, clamped to
    ``[ceil(1.25 m), 2 m]``.  It doubles when there is no such line: a
    single failure, or an error that is zero, NaN or not falling.  Once an
    attempt passes, it interpolates ``log err`` between the failing ``lo``
    and the passing ``hi``, clamped to ``[lo + 1, hi - 1]``.  It bisects
    after an interpolated step that did not halve the bracket, and whenever
    the logarithms are undefined.

    :class:`BudgetUnreachableError` is raised when ``NODE_COUNT_CAP``
    fails: the budget then lies below the family's rounding floor or beyond
    its convergence at the cap, unless the error rose with ``m``, which points
    at a rounding defect in the rule.  The message therefore reports the
    smallest error seen and its ``m``.
    """
    tried: list[tuple[int, float]] = []

    def attempt(m: int) -> tuple[ShiftedQuadratureRule, float]:
        rule = build_rule(family, alpha, m, bounds, truncation_budget=probe.budget)
        err = probe_error(rule, probe.probe_values)
        tried.append((m, err))
        return rule, err

    def crossing(m0: int, e0: float, m1: int, e1: float) -> float | None:
        """Where the line through ``(m, log e)`` at m0 and m1 meets the budget."""
        if not (0.0 < e1 < e0 < math.inf and math.log(e1) < math.log(e0)):
            return None
        slope = (math.log(e1) - math.log(e0)) / (m1 - m0)
        return m1 + (math.log(probe.budget) - math.log(e1)) / slope

    def log_attempts() -> None:
        pairs = " ".join(f"({m}, {err:.3e})" for m, err in tried)
        logger.debug(
            "select_node_count %s budget=%.3e builds=%d tried %s",
            family, probe.budget, len(tried), pairs,
        )

    # A NaN error leaves no line to fit, so the first step doubles.
    lo, lo_err = 0, math.nan
    m = min(4, NODE_COUNT_CAP)
    while True:
        rule, err = attempt(m)
        if err <= probe.budget:
            best, hi, hi_err = rule, m, err
            break
        if m >= NODE_COUNT_CAP:
            log_attempts()
            finite = [(e, k) for k, e in tried if e < math.inf]
            smallest = min(finite, default=(math.inf, tried[0][0]))
            raise BudgetUnreachableError(
                f"no {family} rule with m <= {NODE_COUNT_CAP} reaches scalar budget "
                f"{probe.budget:.3e} (last error {err:.3e} at m = {m}, "
                f"smallest {smallest[0]:.3e} at m = {smallest[1]})"
            )
        target = crossing(lo, lo_err, m, err)
        lo, lo_err = m, err
        step = 2 * m if target is None else min(max(target, 1.25 * m), 2 * m)
        m = min(math.ceil(step), NODE_COUNT_CAP)

    bisect = False
    while hi - lo > 1:
        width = hi - lo
        target = None if bisect else crossing(lo, lo_err, hi, hi_err)
        if target is None:
            m = (lo + hi) // 2
        else:
            m = min(max(math.ceil(target), lo + 1), hi - 1)
        rule, err = attempt(m)
        if err <= probe.budget:
            best, hi, hi_err = rule, m, err
        else:
            lo, lo_err = m, err
        bisect = target is not None and 2 * (hi - lo) > width
    log_attempts()
    return best
