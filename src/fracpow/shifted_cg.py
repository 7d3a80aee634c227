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
search directions are updated lazily over a window of ``_BLOCK`` joint
iterations.  Inside a window that starts at ``X``, ``P``, row ``k`` is
``x = X[k] + D[k, 0] P[k] + D[k, 1:] R`` and ``p = E[k, 0] P[k] + E[k, 1:]
R``, where the rows of ``R`` are the window's seed residuals and the
coefficient rows are updated by scalar work on the active rows.  At the end
of a window they are applied as block products over fixed-size tiles to the
span of rows from the first active shift to the last, so the solve holds two
m x n arrays, ``R`` (``_BLOCK`` x n) and one tile.  A shift that stops keeps
its checked iterate in ``X`` and the identity rows ``D[k] = 0``, ``E[k] =
(1, 0, ..., 0)``, so a flush whose span covers it leaves its row as it is.
Rows are formed only by a flush and, alone from their coefficients, for a
shift checked between flushes.  The solutions are returned in ``X``; each
row is the iterate whose residual was checked when its shift stopped, or the
zero iterate where that residual is larger than ``||b||``.
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
_BLOCK = 16

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
    """Close a window: ``X += D[:, 0] P + D[:, 1:] R``, then ``P = E[:, 0] P + E[:, 1:] R``.

    It updates rows ``[lo, hi)`` and only closes whole windows, so every row
    of ``R`` is a seed residual.  ``work`` is ``kb x cb``; ``D`` and ``E``
    hold whole ``kb``-row blocks from any row and ``R`` whole ``cb``-column
    blocks, so every product has the workspace's shape.  Block rows at or
    past ``hi`` are computed and dropped.  Then ``D`` and ``E[:, 0]``
    restart; ``E``'s other columns are set before use.
    """
    kb, cb = work.shape
    n = X.shape[1]
    for j0 in range(0, n, cb):
        cols = slice(j0, min(j0 + cb, n))
        Rt = R[:, j0 : j0 + cb]
        for i0 in range(lo, hi, kb):
            block = slice(i0, i0 + kb)
            rows = slice(i0, min(i0 + kb, hi))
            Xt, Pt = X[rows, cols], P[rows, cols]
            w = work[: Pt.shape[0], : Pt.shape[1]]
            np.multiply(D[rows, 0, None], Pt, out=w)
            Xt += w
            np.matmul(D[block, 1:], Rt, out=work)
            Xt += w
            np.multiply(E[rows, 0, None], Pt, out=Pt)
            np.matmul(E[block, 1:], Rt, out=work)
            Pt += w
    D.fill(0.0)
    E[:, 0] = 1.0


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
    seed residuals, applied as two block products over cache-sized tiles
    once per window to the rows from the first active shift to the last.
    Memory is the two m x n arrays ``X`` and ``P``, the ``_BLOCK`` x n
    residual window ``R``, the m x (``_BLOCK`` + 1) coefficients ``D`` and
    ``E`` and one tile; ``solutions`` is ``X``.  Where their sum would exceed
    the available memory, :class:`SolverMemoryError` is raised before any
    product.  A shift stops when its explicit residual ``res`` passes, when
    it fails with a gap ``||res - zeta_k r||`` at least its threshold
    (stagnation; a smaller gap halves its trigger), or at ``max_iterations``,
    where every active shift is checked once; it keeps the iterate whose
    residual was checked, or the zero iterate if that residual exceeds
    ``||b||``, and identity coefficients keep a later flush from moving it.  A solve capped at ``max_iterations = i`` thus returns
    every shift still active at ``i`` as its iterate ``i``, unless that
    iterate's residual exceeds ``||b||``.
    """
    b = check_rhs(b, A.n)
    shifts = request.shifts
    thresholds = request.thresholds
    m = shifts.size
    n = A.n
    max_iterations = 10 * n if request.max_iterations is None else int(request.max_iterations)
    dtype = np.promote_types(b.dtype, A.values.dtype)
    # Window: row k is x = X[k] + D[k, 0] P[k] + D[k, 1:t+1] R[:t] and
    # p = E[k, 0] P[k] + E[k, 1:t+1] R[:t].  OpenBLAS rounds the ragged
    # column edge of a product differently by row position, and a one-row
    # (vector) product differently from a block one.  So flush products are
    # whole tiles of at least two rows and a multiple of 16 columns (D, E and
    # R are zero-padded to them, D and E so that a tile may start at any
    # row), and each row's bits do not depend on its position, on the tile
    # size or on which shifts are still active.
    s = _BLOCK
    chunks = -(-n // _COLS)
    cb = 16 * -(-n // (16 * chunks))
    nblocks = -(-m // max(2, _TILE // cb))
    kb = max(2, -(-m // nblocks))
    shapes = {
        "X": (m, n), "P": (m, n), "R": (s, -(-n // cb) * cb),
        "D": (m + kb - 1, s + 1), "E": (m + kb - 1, s + 1), "work": (kb, cb),
    }
    needed = dtype.itemsize * sum(math.prod(shape) for shape in shapes.values())
    available = _available_memory()
    if needed > available:
        raise SolverMemoryError(
            f"the solve needs {needed} bytes for its {m} x {n} iterates and directions "
            f"and its workspace, more than the {available} bytes of available memory"
        )
    b = b.astype(dtype, copy=False)

    bnorm = float(np.linalg.norm(b))
    final_res = np.full(m, bnorm)
    iterations_used = np.zeros(m, dtype=np.int64)
    verification_matvecs = 0
    # Zero iterate already qualifies: residual is exactly b, no product needed.
    active = bnorm > thresholds
    rows, index = _active_rows(active)

    trigger = thresholds.copy()
    zeta_prev = np.ones(m)
    zeta = np.ones(m)
    X = np.zeros(shapes["X"], dtype=dtype)
    P = np.tile(b, (m, 1))
    D = np.zeros(shapes["D"], dtype=dtype)
    E = np.zeros(shapes["E"], dtype=dtype)
    E[:, 0] = 1.0
    R = np.zeros(shapes["R"], dtype=dtype)
    work = np.empty(shapes["work"], dtype=dtype)
    t = 0
    alpha_prev = 1.0
    beta_prev = 0.0

    steps = _cg_steps(A, b, 0.0, R[:, :n]) if rows.size else ()
    for iterations, (alpha, beta, _, r, rnorm) in enumerate(steps, 1):
        za = zeta[index]
        zpa = zeta_prev[index]
        denom = alpha * beta_prev * (zpa - za) + zpa * alpha_prev * (1.0 + shifts[index] * alpha)
        if not np.all(np.isfinite(denom)) or np.any(denom <= 0.0):
            raise SolverBreakdownError(
                "collinearity recurrence produced a non-positive denominator "
                f"at iteration {iterations - 1}"
            )
        znext = za * zpa * alpha_prev / denom
        ratio = znext / za
        zeta_prev[index] = za
        zeta[index] = znext

        # x += cx p, then p = cp p + znext r, on the window coefficients.
        cx = alpha * ratio
        cp = beta * ratio**2
        D[index, : t + 1] += cx[:, None] * E[index, : t + 1]
        E[index, : t + 1] *= cp[:, None]
        t += 1
        E[index, t] = znext

        tracked = znext * rnorm
        capped = iterations == max_iterations
        # At the cap every active shift is a candidate and stops; ~(>) keeps a
        # NaN estimate a candidate.
        candidates = np.flatnonzero(capped | ~(tracked > trigger[index]))
        for j in candidates:
            k = rows[j]
            threshold = thresholds[k]
            x = X[k] + D[k, 0] * P[k]
            x += D[k, 1 : t + 1] @ R[:t, :n]
            res = b - shifts[k] * x - A.matvec(x)
            explicit = float(np.linalg.norm(res))
            verification_matvecs += 1
            if explicit > threshold and capped:
                logger.debug("shift %d capped: explicit %.3e vs threshold %.3e", k, explicit, threshold)
            elif explicit > threshold:
                # The explicit residual tends to the gap once the recursive
                # one vanishes; a gap at the threshold cannot pass later.
                gap = float(np.linalg.norm(res - znext[j] * r))
                if gap < threshold:
                    trigger[k] *= 0.5
                    continue
                logger.debug(
                    "shift %d stagnated: explicit %.3e, gap %.3e vs threshold %.3e",
                    k, explicit, gap, threshold,
                )
            if explicit > bnorm:  # the zero iterate's residual b is smaller
                x, explicit = 0.0, bnorm
            X[k] = x
            D[k], E[k], E[k, 0] = 0.0, 0.0, 1.0
            final_res[k] = explicit
            iterations_used[k] = iterations
            active[k] = False
        if candidates.size:
            rows, index = _active_rows(active)

        if not rows.size:
            break
        if t == s:
            _flush(X, P, D, E, R, rows[0], rows[-1] + 1, work)
            t = 0
        alpha_prev, beta_prev = alpha, beta

    report = ShiftedSolveReport(
        shifts.copy(), thresholds.copy(), iterations_used, final_res, verification_matvecs
    )
    return X, report


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
