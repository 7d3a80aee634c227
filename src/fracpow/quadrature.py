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
budget there while ``m - 1`` nodes do not.  For ``gj1`` and ``gj2`` it first
prices the probe error of every ``m`` by a continued-fraction recurrence on
the Jacobi matrix, which needs no node, and then builds only the rules that
confirm the priced count; ``de`` doubles from 4 and bisects on built rules.
A ``gj1``/``gj2`` rule depends on its spectral interval only through the
scale ``c``, so its Gauss-Jacobi table is built once per process per
``(m, alpha)`` and reused by every later search and action.
"""

from __future__ import annotations

import functools
import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import beta as beta_function

from .errors import (
    BudgetUnreachableError,
    QuadratureConstructionError,
    check_alpha,
    check_shifts,
    check_weights,
)
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

# The de trapezoid window starts at [-_DE_HALFWIDTH, _DE_HALFWIDTH], or
# narrower where the shifts would leave exp(+-_EXP_CAP) there, and each end
# moves outward in _DE_STEP increments until the integrand is small.
_DE_HALFWIDTH = 3.0
_DE_STEP = 0.5

# Node counts in the first chunk of the priced walk; each later chunk doubles.
_PRICE_CHUNK = 32


def _family_name(family: str) -> str:
    """``family`` in lower case; :class:`ValueError` unless it is one of ``FAMILIES``."""
    family = str(family).lower()
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    return family


@dataclass(frozen=True)
class ShiftedQuadratureRule:
    """Quadrature rule ``sum_k omega_k A (sigma_k I + A)^(-1)`` for ``A^alpha``.

    ``shifts`` are finite, strictly increasing and non-negative, ``weights``
    finite and strictly positive; both arrays share length ``m >= 1``.
    """

    alpha: float
    family: str
    shifts: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        alpha = float(self.alpha)
        family = _family_name(self.family)
        shifts = np.asarray(self.shifts, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "weights", weights)
        check_alpha(alpha)
        if shifts.ndim != 1 or shifts.size == 0 or shifts.shape != weights.shape:
            raise ValueError("shifts and weights must be equal-length non-empty vectors")
        check_shifts(shifts)
        if np.any(np.diff(shifts) <= 0.0):
            raise ValueError("shifts must be strictly increasing")
        check_weights(weights)

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
    s: np.ndarray, d: np.ndarray, e: np.ndarray, p0: float, *, christoffel: bool = False
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Run the orthonormal recurrence and its derivative once at the points s.

    Returns the Newton step ``-p_m(s) / p_m'(s)`` and, with ``christoffel``,
    the Christoffel sum ``K(s) = sum_{j<m} p_j(s)^2`` and ``K'(s) / 2``
    (otherwise ``None`` twice), all in O(m) memory.
    """
    p_prev, p = np.zeros_like(s), np.full_like(s, p0)
    dp_prev, dp = np.zeros_like(s), np.zeros_like(s)
    k = half_dk = None
    if christoffel:
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
        if christoffel:
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
    delta, k, half_dk = _recurrence_pass(nodes, d, e, p0, christoffel=True)
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
    """DE nodes on a window widened until the integrand at ``lambda_hi`` is below tol.

    ``lambda / (sigma + lambda)`` rises with ``lambda``, so ``lambda_hi`` bounds
    the integrand on the interval.  Each end starts at
    ``+-min(_DE_HALFWIDTH, reach)``, where ``sigma(+-reach) = exp(+-_EXP_CAP)``
    (and, as ``alpha < 1``, the weights stay finite); a step past ``reach``
    raises :class:`QuadratureConstructionError`.
    """
    tol = truncation_budget / (100.0 * m)
    if tol <= 0.0 or not np.isfinite(tol):
        raise QuadratureConstructionError("truncation budget must be positive and finite")
    log_tol = math.log(tol)
    reach = math.asinh(_EXP_CAP * alpha / math.pi)
    ends = []
    for side in (-1.0, 1.0):
        u = side * min(_DE_HALFWIDTH, reach)
        while _de_log_integrand(np.array([u]), alpha, bounds.lambda_hi)[0] > log_tol:
            u += side * _DE_STEP
            if abs(u) > reach:
                raise QuadratureConstructionError(
                    f"de window for alpha = {alpha} does not bring the integrand under "
                    f"{tol:.3e} before exp(pi sinh(u) / alpha) leaves exp(+-{_EXP_CAP:g}); "
                    "use gj2, which covers every alpha in (0, 1)"
                )
        ends.append(u)
    left, right = ends
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


@functools.lru_cache(maxsize=64)
def _cayley_table(m: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``gj1`` shifts and weights of ``m`` nodes, ascending in ``s``.

    These are the ``c = 1`` arrays ``(1 - s) / (1 + s)`` and
    ``(2 sin(alpha pi) / pi) w / (1 + s)`` of the Gauss-Jacobi rule, which
    depend on ``(m, alpha)`` alone.  Each table is built once per process; the
    cache holds at most 64 of at most ``2 NODE_COUNT_CAP`` doubles, 16.8 MB.
    One verify-grid pass uses 45 tables, about 0.25 MB.
    """
    s, w = gauss_jacobi_nodes(m, alpha - 1.0, -alpha)
    sigma = (1.0 - s) / (1.0 + s)
    omega = (2.0 * math.sin(alpha * math.pi) / math.pi) * w / (1.0 + s)
    sigma.flags.writeable = omega.flags.writeable = False
    return sigma, omega


def _gj_scale(family: str, bounds: SpectralBounds | None) -> float:
    """The scale ``c`` of ``A / c``: ``sqrt(lambda_lo lambda_hi)`` for ``gj2``, 1 for ``gj1``."""
    if family == "gj1":
        return 1.0
    # lo hi = ml mh 2^k with ml mh in [1/4, 1), which neither overflows nor underflows.
    (ml, el), (mh, eh) = math.frexp(bounds.lambda_lo), math.frexp(bounds.lambda_hi)
    k = el + eh
    return math.ldexp(math.sqrt(math.ldexp(ml * mh, k % 2)), k // 2)


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
    geometric-mean scaling) and ``de``, whose truncation window is set by
    the integrand at ``lambda_hi``.  A ``de`` window that cannot be
    truncated before its shifts leave the double range, as for small
    ``alpha``, raises :class:`QuadratureConstructionError`.
    ``truncation_budget`` is the scalar error that the ``de`` window's
    truncation may add; the other families ignore it.

    ``gj1`` and ``gj2`` scale the Gauss-Jacobi table cached per
    ``(m, alpha)`` by :func:`_cayley_table`, so only a first build computes
    nodes; every rule is bit-identical to a fresh build and owns its arrays.
    """
    family = _family_name(family)
    check_alpha(alpha)
    if m < 1:
        raise ValueError("node count must be >= 1")
    if family == "de":
        if bounds is None:
            raise ValueError("de needs spectral bounds: lambda_hi sets its window")
        sigma, omega = _build_de(alpha, m, bounds, truncation_budget)
        return ShiftedQuadratureRule(alpha, family, sigma, omega)
    if family == "gj2" and bounds is None:
        raise ValueError("gj2 needs spectral bounds for its scaling")
    c = _gj_scale(family, bounds)
    sigma, omega = _cayley_table(m, float(alpha))
    # Gauss nodes come back ascending in s, which is descending in sigma; the
    # products are fresh arrays, so the rule never aliases the cached table.
    return ShiftedQuadratureRule(alpha, family, c * sigma[::-1], c**alpha * omega[::-1])


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


def _priced_errors(
    family: str, alpha: float, bounds: SpectralBounds, probe_values: np.ndarray
) -> Iterator[np.ndarray]:
    """Yield, chunk by chunk, the ``gj1``/``gj2`` probe errors of ``m = 1, 2, ...``.

    A Gauss rule applied to the Cayley-mapped resolvent is a convergent of
    the Jacobi matrix's continued fraction, so no node is computed.  With
    ``c`` the family's scale and ``x = lam / c``, the m-node rule gives
    ``Q_m(lam) = c^alpha C mu_0 x g_m(x)``, where ``C = 2 sin(alpha pi) / pi``,
    ``g_m = [((1 + x) I + (x - 1) J_m)^(-1)]_11`` for the order-m Jacobi
    matrix ``J_m`` of exponents ``(alpha - 1, -alpha)`` (Golub-Welsch:
    ``w_k = mu_0 v_1k^2``), and ``C mu_0 = 2`` because
    ``mu_0 = B(alpha, 1 - alpha) = pi / sin(alpha pi)``.  That matrix is SPD
    for ``x > 0``; its diagonal is ``a_k = (1 + x) + (x - 1) d_k`` and its
    off-diagonal ``b_k = (x - 1) e_k``.  With its LDL^T pivots
    ``u_1 = a_1``, ``u_(k+1) = a_(k+1) - b_k^2 / u_k``, each node adds one
    term: ``g_(m+1) = g_m + rho_m / u_(m+1)`` with
    ``rho_m = prod_(j<=m) (b_j / u_j)^2``, so each ``m`` costs O(probes).
    The terms are positive, so ``Q_m`` rises to ``lam^alpha`` and the error
    falls with ``m`` down to a rounding floor.  The walk ends at
    ``NODE_COUNT_CAP``.
    """
    c = _gj_scale(family, bounds)
    x = probe_values / c
    scale = 2.0 * c**alpha * x
    target = probe_values**alpha
    u, g, rho, b2 = np.ones_like(x), np.zeros_like(x), np.ones_like(x), np.zeros_like(x)
    lo, hi = 0, _PRICE_CHUNK
    while lo < NODE_COUNT_CAP:
        hi = min(hi, NODE_COUNT_CAP)
        d, e = _jacobi_recurrence(hi + 1, alpha - 1.0, -alpha)
        diag = (1.0 + x) + np.multiply.outer(d[lo:hi], x - 1.0)
        off2 = np.multiply.outer(e[lo:hi], x - 1.0) ** 2
        g_rows = np.empty_like(diag)
        for i in range(hi - lo):
            u = diag[i] - b2 / u
            g = g_rows[i] = g + rho / u
            b2 = off2[i]
            rho = rho * b2 / (u * u)
        yield np.max(np.abs(target - scale * g_rows), axis=1)
        lo, hi = hi, 2 * hi


def _priced_node_count(
    family: str, alpha: float, bounds: SpectralBounds, probe: ProbeSpec
) -> int:
    """The first ``m`` whose priced probe error meets the budget; if none up to
    the cap does, :class:`BudgetUnreachableError` names the smallest priced one."""
    m, smallest = 1, (math.inf, 1)
    for errors in _priced_errors(family, alpha, bounds, probe.probe_values):
        passing = np.flatnonzero(errors <= probe.budget)
        if passing.size:
            return m + int(passing[0])
        k = int(np.argmin(errors))
        smallest = min(smallest, (float(errors[k]), m + k))
        m += errors.size
    raise BudgetUnreachableError(
        f"no {family} rule with m <= {NODE_COUNT_CAP} is priced within scalar budget "
        f"{probe.budget:.3e} (smallest priced error {smallest[0]:.3e} at m = {smallest[1]})"
    )


def select_node_count(
    family: str,
    alpha: float,
    bounds: SpectralBounds,
    probe: ProbeSpec,
) -> ShiftedQuadratureRule:
    """A rule that meets the probe budget while one node fewer does not.

    Each attempt builds the ``m``-node rule and accepts it iff its probe
    error is at most the budget.  The returned rule of ``m`` nodes passes
    and the ``m - 1``-node rule fails (or ``m = 1``).  Every rule meets an
    infinite budget (``b = 0`` in :func:`fracpow.error_control.scalar_probe`),
    so then the result is ``build_rule(family, alpha, 1, bounds)``, built
    without a probe.  Where the probe error
    falls with ``m`` down to a rounding floor, as for ``gj1`` and ``gj2``,
    this is the smallest passing count.  The ``de`` error is not monotone in
    ``m``, so a smaller passing count may lie below a failing one.

    The search is one loop.  It starts at ``m0`` and steps ``u``, ``3 u``,
    ``7 u``, ... nodes away from it, ``m0 +- u (2^k - 1)`` within
    ``[1, NODE_COUNT_CAP]``: down while the rules pass, up while they fail.
    Once the outcome flips, it bisects the bracket between the largest
    failing and the smallest passing count.  ``gj1`` and ``gj2`` are Gauss
    rules, so their probe error at every ``m`` is first priced by one O(m)
    continued-fraction recurrence without a node (see
    :func:`_priced_errors`), and the search starts at the first priced count
    ``m*`` that meets the budget, with ``u = 1``.  Pricing picks where to
    start, and every acceptance is still a built rule's probe error.  Priced
    and built errors agree to several digits above the rounding floor, so
    this usually builds two rules, ``m*`` and a neighbour.  ``de`` starts at
    ``m0 = u = 4``, so its search doubles from 4 and then bisects.  A ``gj``
    build whose table an earlier build cached computes no node; the DEBUG
    line counts these as ``cached``.

    ``family`` is matched case-insensitively, as in :func:`build_rule`, and
    an unknown family raises :class:`ValueError` before any pricing.

    :class:`BudgetUnreachableError` is raised before any build when no
    ``gj1``/``gj2`` count up to ``NODE_COUNT_CAP`` is priced within the
    budget, and otherwise when the built ``NODE_COUNT_CAP``-node rule fails:
    the budget then lies below the family's rounding floor or beyond its
    convergence at the cap, unless the error rose with ``m``, which points
    at a rounding defect in the rule.  Each message reports the smallest
    error seen and its ``m``.
    """
    family = _family_name(family)
    if math.isinf(probe.budget):
        return build_rule(family, alpha, 1, bounds)
    tried: list[tuple[int, float]] = []
    hits = _cayley_table.cache_info().hits

    def log_attempts() -> None:
        pairs = " ".join(f"({m}, {err:.3e})" for m, err in tried)
        cached = _cayley_table.cache_info().hits - hits
        logger.debug(
            "select_node_count %s budget=%.3e priced=%s builds=%d cached=%d tried %s",
            family, probe.budget, priced, len(tried), cached, pairs,
        )

    # de is not a Gauss rule, so only gj1 and gj2 are priced.
    priced = None if family == "de" else _priced_node_count(family, alpha, bounds, probe)
    m0, u = (4, 4) if priced is None else (priced, 1)
    # lo fails and hi passes; 0 and NODE_COUNT_CAP + 1 stand for "none yet".
    lo, hi, reach, m = 0, NODE_COUNT_CAP + 1, 0, m0
    while hi - lo > 1:
        rule = build_rule(family, alpha, m, bounds, truncation_budget=probe.budget)
        err = probe_error(rule, probe.probe_values)
        tried.append((m, err))
        if err <= probe.budget:
            best, hi = rule, m
        elif m >= NODE_COUNT_CAP:
            log_attempts()
            finite = [(e, k) for k, e in tried if e < math.inf]
            smallest = min(finite, default=(math.inf, tried[0][0]))
            raise BudgetUnreachableError(
                f"no {family} rule with m <= {NODE_COUNT_CAP} reaches scalar budget "
                f"{probe.budget:.3e} (last error {err:.3e} at m = {m}, "
                f"smallest {smallest[0]:.3e} at m = {smallest[1]})"
            )
        else:
            lo = m
        if lo and hi <= NODE_COUNT_CAP:
            m = (lo + hi) // 2
        else:
            reach = 2 * reach + u
            m = max(m0 - reach, 1) if lo == 0 else min(m0 + reach, NODE_COUNT_CAP)
    log_attempts()
    logger.info("selected %s rule with m = %d nodes", family, best.m)
    return best
