"""Conjugate gradients for families of shifted Hermitian positive definite systems.

One Krylov sequence serves every system ``(sigma_k I + A) x_k = b`` because
shifting leaves Krylov spaces unchanged.  The seed is plain CG on ``A``,
:func:`fracpow.sparse._cg_steps` at shift 0, whose coefficients are the
Lanczos tridiagonal of ``(A, b)``, and each shifted residual stays collinear
with the seed residual: ``r_k^(i) = zeta_k^(i) * r^(i)`` with a scalar
``zeta`` obeying a three-term recurrence in ``sigma_k`` and the seed
coefficients (Jegerlehner, hep-lat/9612014).  Tracking ``zeta_k * ||r||``
prices every system's residual at one matrix-vector product per joint
iteration.

A shift whose tracked residual first dips under its trigger (at first its
threshold) is verified by one explicit residual evaluation before it is
frozen.  If the explicit value fails, the check also measures the residual
gap ``||res - zeta_k r||`` between the explicit residual ``res`` and the
recursive one ``zeta_k r`` (Greenbaum, SIMAX 1997).  As the recursive part
goes to zero, the explicit residual tends to that gap, so a gap at or over
the threshold means further iterations cannot pass: the shift is frozen
unconverged as stagnated.  A smaller gap halves its trigger.  The cap is
the third stop reason: at the last allowed iteration every active shift is
checked once and stops, converged if its explicit residual passes and
unconverged otherwise.  All three stop in one place, and a shift's
converged flag is its final explicit residual against its threshold, never
the collinearity estimate.  A seed residual of exactly 0 makes every active
shift pass or stagnate, so the loop ends before the seed breaks down.

Every per-shift array is indexed by the shift's request index.  The seed
and collinearity recurrences never read the iterates, so the iterates and
search directions are updated lazily over a window of ``_BLOCK`` (32) joint
iterations.  Inside a window that starts at ``X``, ``P``, row ``k`` is
``x = X[k] + D[0, k] P[k] + D[1:, k] R`` and ``p = E[0, k] P[k] + E[1:, k]
R``, where the rows of ``R`` are the window's seed residuals and the
coefficient columns are updated by scalar work on the active shifts.  At
the end of a window they are applied as block products over fixed-size
tiles to the span of rows from the first active shift to the last.  A shift
that stops keeps its checked iterate in ``X`` and the identity column
``D[:, k] = 0``, ``E[:, k] = (1, 0, ..., 0)``, so a flush whose span covers
it leaves its row as it is.  Between flushes a row is formed only when its
shift is checked, on its own.

Rows are zero-padded to ``width`` columns, ``n`` rounded up to a multiple of
16 in each column tile, so every tile is whole, and contiguous where one
tile spans a row.  The solve holds ``X`` and ``P`` (m x width), ``R``
(``_BLOCK`` x width), ``D`` and ``E`` ((``_BLOCK`` + 1) x about m) and the
flush tile of about ``_TILE`` entries: ``2 m n + s n + 2 m (s + 1) + tile``
entries, up to the padding; a check adds a few n-vectors.  The solutions
are ``X[:, :n]``; each row is the iterate whose residual was checked when
its shift stopped, or the zero iterate where that residual is larger than
``||b||``.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import SolverBreakdownError, SolverMemoryError, check_iteration_cap, check_rhs, check_shifts
from .sparse import HermitianSparseMatrix, _cg_steps

logger = logging.getLogger(__name__)

# Joint iterations per window of the deferred update.
_BLOCK = 32

# Elements per tile of a window flush (512 KiB of doubles), so that a tile of
# X, the same tile of P and the workspace fit in a 2 MiB L2 cache together.
_TILE = 1 << 16

# Columns per flush tile.  numpy's elementwise passes over a strided tile
# slow down about fourfold once its rows are 2048 doubles or shorter.
_COLS = 8192


@dataclass(frozen=True)
class ShiftedSolveRequest:
    """Shifts, per-shift stopping thresholds, and an iteration cap.

    ``max_iterations`` of ``None`` lets the solver default to ``10 n``.
    Thresholds are absolute residual norms; ``inf`` is allowed and means the
    zero iterate already qualifies.
    """

    shifts: np.ndarray
    thresholds: np.ndarray
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        shifts = np.atleast_1d(np.asarray(self.shifts, dtype=np.float64))
        thresholds = np.broadcast_to(
            np.asarray(self.thresholds, dtype=np.float64), shifts.shape
        ).copy()
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "thresholds", thresholds)
        if shifts.size == 0:
            raise ValueError("shifts must be a non-empty vector")
        check_shifts(shifts)
        if np.unique(shifts).size != shifts.size:
            raise ValueError("shifts must be distinct")
        if np.any(thresholds <= 0.0) or np.any(np.isnan(thresholds)):
            raise ValueError("thresholds must be positive")
        check_iteration_cap(self.max_iterations)


@dataclass(frozen=True)
class ShiftedSolveReport:
    """Per-shift convergence record for one multi-shift solve.

    ``final_residual_norms`` are explicitly recomputed residuals (except for
    the zero iterate, whose residual is exactly ``||b||``), and
    ``converged[k]`` is ``final_residual_norms[k] <= thresholds[k]``.
    A shift that stops unconverged with an explicit residual above ``||b||``
    returns the zero iterate instead, with residual ``||b||``; its
    ``iterations_used`` is still the iteration at which it stopped.
    ``total_matvecs``, the most joint iterations any shift used, counts one
    product each; explicit verification products are in ``verification_matvecs``.
    """

    shifts: np.ndarray
    thresholds: np.ndarray
    iterations_used: np.ndarray
    final_residual_norms: np.ndarray
    verification_matvecs: int

    @property
    def converged(self) -> np.ndarray:
        return self.final_residual_norms <= self.thresholds

    @property
    def all_converged(self) -> bool:
        return bool(np.all(self.converged))

    @property
    def total_matvecs(self) -> int:
        return int(self.iterations_used.max(initial=0))


def _available_memory() -> int:
    """Bytes of ``MemAvailable`` in ``/proc/meminfo``, or of physical memory without it."""
    try:
        with open("/proc/meminfo") as meminfo:
            kib = next(line.split()[1] for line in meminfo if line.startswith("MemAvailable:"))
        return int(kib) * 1024
    except (OSError, StopIteration):
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _active_rows(active: np.ndarray) -> tuple[np.ndarray, slice | np.ndarray]:
    """Request indices of the active shifts, and an index that selects them.

    The index is the slice from the first active row to the last when no
    stopped row lies between them, and the index array otherwise; a slice
    gives views, where fancy indexing would copy on every iteration.
    """
    rows = np.flatnonzero(active)
    lo, hi = (int(rows[0]), int(rows[-1]) + 1) if rows.size else (0, 0)
    return rows, slice(lo, hi) if hi - lo == rows.size else rows


def _flush(X, P, D, E, R, lo, hi, work) -> None:
    """Close a window: ``X += D[0] P + D[1:] R``, then ``P = E[0] P + E[1:] R``, per row.

    It updates rows ``[lo, hi)`` and only closes whole windows, so every row
    of ``R`` is a seed residual.  ``work`` is ``kb x cb``; ``D`` and ``E``
    hold whole ``kb``-column blocks from any shift and ``X``, ``P`` and
    ``R`` whole ``cb``-column tiles, so every product has the workspace's
    shape.  Block rows at or past ``hi`` are computed and dropped.  Then
    ``D`` and ``E[0]`` restart; ``E``'s other rows are set before use.
    """
    kb, cb = work.shape
    for j0 in range(0, X.shape[1], cb):
        cols = slice(j0, j0 + cb)
        Rt = R[:, cols]
        for i0 in range(lo, hi, kb):
            block = slice(i0, i0 + kb)
            rows = slice(i0, min(i0 + kb, hi))
            Xt, Pt = X[rows, cols], P[rows, cols]
            w = work[: Pt.shape[0]]
            np.multiply(D[0, rows, None], Pt, out=w)
            Xt += w
            np.matmul(D[1:, block].T, Rt, out=work)
            Xt += w
            np.multiply(E[0, rows, None], Pt, out=Pt)
            np.matmul(E[1:, block].T, Rt, out=work)
            Pt += w
    D.fill(0.0)
    E[0] = 1.0


def _check(A, b, X, P, D, R, k, sigma, t):
    """Row ``k`` at window step ``t``, its residual ``b - sigma x - A x`` and that residual's norm.

    The row is ``x = D[1:t+1, k] R[:t] + D[0, k] P[k] + X[k]``, padded like
    ``b``; the residual is over the first ``n`` columns and takes one
    ``A.matvec``.  The coefficients multiply ``R`` in a two-row product whose
    second row is dropped (``D`` is padded, so column ``k + 1`` exists),
    since OpenBLAS rounds a one-row (vector) product differently.
    """
    x = (D[1 : t + 1, k : k + 2].T @ R[:t])[0]
    x += D[0, k] * P[k]
    x += X[k]
    res = (b - sigma * x)[: A.n]
    res -= A.matvec(x[: A.n])
    return x, res, float(np.linalg.norm(res))


def shifted_cg_solve(
    A: HermitianSparseMatrix,
    b: np.ndarray,
    request: ShiftedSolveRequest,
) -> tuple[np.ndarray, ShiftedSolveReport]:
    """Solve ``(sigma_k I + A) x_k = b`` for every shift in the request.

    Returns ``(solutions, report)`` where ``solutions[k]`` is the iterate for
    shift ``k``; every per-shift array, the solutions and the report use
    request order throughout.  The iteration carries the iterates and search
    directions of the active shifts as coefficients on the last ``_BLOCK``
    seed residuals, applied once per window; a shift's row is formed only
    when it is checked.  Where the arrays the module docstring lists would
    exceed the available memory, :class:`SolverMemoryError` is raised before
    any product.  A shift stops when its explicit residual ``res`` passes,
    when it fails with a gap ``||res - zeta_k r||`` at least its threshold
    (stagnation; a smaller gap halves its trigger), or at ``max_iterations``,
    where every active shift is checked once; it keeps the iterate whose
    residual was checked, or the zero iterate if that residual exceeds
    ``||b||``, and identity coefficients keep a later flush from moving it.
    A solve capped at ``max_iterations = i`` thus returns every shift still
    active at ``i`` as its iterate ``i``, unless that iterate's residual
    exceeds ``||b||``.
    """
    b = check_rhs(b, A.n)
    shifts = request.shifts
    thresholds = request.thresholds
    m = shifts.size
    n = A.n
    max_iterations = 10 * n if request.max_iterations is None else int(request.max_iterations)
    dtype = np.promote_types(b.dtype, A.values.dtype)
    # Window: row k is x = X[k] + D[0, k] P[k] + D[1:t+1, k] R[:t] and
    # p = E[0, k] P[k] + E[1:t+1, k] R[:t].  OpenBLAS rounds the ragged
    # column edge of a product differently by row position, and a one-row
    # (vector) product differently from a block one.  So products are of at
    # least two rows and a multiple of 16 columns (rows are zero-padded to
    # them, and D and E to whole blocks so that a flush tile may start at
    # any row), and each row's bits do not depend on its position, on the
    # tile size or on which shifts are still active.
    s = _BLOCK
    chunks = -(-n // _COLS)
    cb = 16 * -(-n // (16 * chunks))
    width = chunks * cb
    nblocks = -(-m // max(2, _TILE // cb))
    kb = max(2, -(-m // nblocks))
    shapes = {
        "X": (m, width), "P": (m, width), "R": (s, width),
        "D, E": (2, s + 1, m + kb - 1), "work": (kb, cb),
    }
    needed = dtype.itemsize * sum(math.prod(shape) for shape in shapes.values())
    available = _available_memory()
    if needed > available:
        raise SolverMemoryError(
            f"the solve needs {needed} bytes for its {m} x {n} iterates and directions "
            f"and its workspace, more than the {available} bytes of available memory"
        )
    # Rows are zero-padded to ``width`` columns.
    b = np.pad(b.astype(dtype, copy=False), (0, width - n))

    bnorm = float(np.linalg.norm(b[:n]))
    final_res = np.full(m, bnorm)
    iterations_used = np.zeros(m, dtype=np.int64)
    verification_matvecs = 0
    # Zero iterate already qualifies: residual is exactly b, no product needed.
    active = bnorm > thresholds
    rows, index = _active_rows(active)
    # The active shifts' scalars, in the order of ``rows``: shift, collinearity
    # factor zeta and its previous value, and check trigger (at first the
    # threshold).
    sigma = shifts[rows]
    zeta = np.ones(rows.size)
    zeta_prev = np.ones(rows.size)
    trigger = thresholds[rows]

    X = np.zeros(shapes["X"], dtype=dtype)
    P = np.tile(b, (m, 1))
    # A stopped shift keeps the identity coefficients D = 0, E = (1, 0, ..., 0).
    identity = np.zeros((2, s + 1, 1), dtype=dtype)
    identity[1, 0] = 1.0
    coef = np.tile(identity, shapes["D, E"][2])
    D, E = coef
    R = np.zeros(shapes["R"], dtype=dtype)
    work = np.empty(shapes["work"], dtype=dtype)
    t = 0
    alpha_prev = 1.0
    beta_prev = 0.0

    steps = _cg_steps(A, b[:n], 0.0, R[:, :n]) if rows.size else ()
    for iterations, (alpha, beta, _, r, rnorm) in enumerate(steps, 1):
        # zeta_next = zeta * ratio, ratio = zeta_prev alpha_prev / denom with
        # denom = alpha beta_prev (zeta_prev - zeta) + zeta_prev alpha_prev (1 + sigma alpha).
        ratio = zeta_prev * alpha_prev
        denom = zeta_prev - zeta
        denom *= alpha * beta_prev
        scaled = sigma * alpha
        scaled += 1.0
        scaled *= ratio
        denom += scaled
        if not (denom.min() > 0.0 and denom.max() < math.inf):
            raise SolverBreakdownError(
                "collinearity recurrence produced a non-positive denominator "
                f"at iteration {iterations - 1}"
            )
        ratio /= denom
        zeta_prev = zeta
        zeta = zeta_prev * ratio

        # x += cx p, then p = cp p + zeta r, on the window coefficients.
        cx = ratio * alpha
        ratio *= ratio
        ratio *= beta
        D[: t + 1, index] += cx * E[: t + 1, index]
        E[: t + 1, index] *= ratio
        t += 1
        E[t, index] = zeta

        # At the cap every active shift is a candidate and stops; a NaN
        # estimate fails the comparison and is a candidate too.
        capped = iterations == max_iterations
        below = np.greater(zeta * rnorm, trigger)
        if capped or not below.all():
            for j in range(rows.size) if capped else np.flatnonzero(~below):
                k = rows[j]
                x, res, explicit = _check(A, b, X, P, D, R, k, sigma[j], t)
                verification_matvecs += 1
                threshold = thresholds[k]
                if explicit > threshold:
                    if capped:
                        logger.debug("shift %d capped: explicit %.3e vs threshold %.3e", k, explicit, threshold)
                    else:
                        # The explicit residual tends to the gap once the recursive
                        # one vanishes; a gap at the threshold cannot pass later.
                        gap = float(np.linalg.norm(res - zeta[j] * r))
                        logger.debug(
                            "shift %d %s: explicit %.3e, gap %.3e vs threshold %.3e",
                            k, "re-checked" if gap < threshold else "stagnated", explicit, gap, threshold,
                        )
                        if gap < threshold:
                            trigger[j] *= 0.5
                            continue
                    if explicit > bnorm:  # the zero iterate's residual b is smaller
                        x, explicit = 0.0, bnorm
                X[k] = x
                coef[:, :, k : k + 1] = identity
                final_res[k] = explicit
                iterations_used[k] = iterations
                active[k] = False
            keep = active[rows]
            if not keep.all():
                rows, index = _active_rows(active)
                sigma, trigger = sigma[keep], trigger[keep]
                zeta, zeta_prev = zeta[keep], zeta_prev[keep]

        if not rows.size:
            break
        if t == s:
            _flush(X, P, D, E, R, rows[0], rows[-1] + 1, work)
            t = 0
        alpha_prev, beta_prev = alpha, beta

    report = ShiftedSolveReport(
        shifts.copy(), thresholds.copy(), iterations_used, final_res, verification_matvecs
    )
    return X[:, :n], report


def single_shift_cg(
    A: HermitianSparseMatrix,
    b: np.ndarray,
    sigma: float,
    *,
    tol: float,
    max_iterations: int | None = None,
    callback=None,
) -> tuple[np.ndarray, int, float]:
    """Plain conjugate gradients on ``(sigma I + A) x = b``.

    The reference path of the tests.  It shares the ``p``/``r`` recurrence,
    :func:`fracpow.sparse._cg_steps`, with :func:`shifted_cg_solve` and the
    spectral bounds, and keeps its iterate independently: ``x += alpha p``
    on each step, with none of the solver's collinearity factors, windows or
    explicit checks.  Stops when the recurrence residual norm drops to
    ``tol`` (absolute).  ``callback(iteration, x, r)`` sees each iterate
    through live views (copy to retain).  Returns ``(x, iterations,
    final_residual_norm)``.
    """
    b = check_rhs(b, A.n)
    check_shifts(sigma)
    check_iteration_cap(max_iterations)
    max_iterations = 10 * A.n if max_iterations is None else int(max_iterations)
    b = b.astype(np.promote_types(b.dtype, A.values.dtype), copy=False)
    x = np.zeros_like(b)
    rnorm = np.sqrt(float(np.vdot(b, b).real))
    iterations = 0
    steps = _cg_steps(A, b, sigma) if rnorm > tol else ()
    for iterations, (alpha, _, p, r, rnorm) in enumerate(steps, 1):
        x += alpha * p
        if callback is not None:
            callback(iterations, x, r)
        if rnorm <= tol or iterations == max_iterations:
            break
    return x, iterations, float(rnorm)
