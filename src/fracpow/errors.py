"""Exception types and input checks shared across the package.

Library callers can usually just catch :class:`FracpowError`.  The CLI
reports any of them on stderr and exits 1.

Each rule on an input that a caller supplies is written once, in a check
below that every public entry point taking that input calls: the
right-hand side (:func:`check_rhs`), the power alpha (:func:`check_alpha`),
the shifts (:func:`check_shifts`), the quadrature weights
(:func:`check_weights`) and the solvers' iteration cap
(:func:`check_iteration_cap`).  They raise :class:`ValueError`.  The CLI
checks its right-hand side file, ``--alpha`` and ``--shifts`` with the same
functions, and ``--eps`` with :class:`~fracpow.error_control.ErrorBudget`.
"""

from __future__ import annotations

import numpy as np


class FracpowError(Exception):
    """Base class for errors raised by this package."""


class MatrixFormatError(FracpowError):
    """A matrix source (Matrix Market stream, CLI spec string) is invalid."""


class SpectralBoundsError(FracpowError):
    """The matrix is not positive definite: a diagonal entry, a Ritz value or
    the oracle's smallest eigenvalue is not positive."""


class BudgetUnreachableError(FracpowError):
    """No node count within the cap meets the requested scalar accuracy."""


class QuadratureConstructionError(FracpowError):
    """A quadrature rule could not be built (e.g. truncation search failed)."""


class SolverBreakdownError(FracpowError):
    """The conjugate gradient recurrence hit a numerically singular quantity."""


class ToleranceFloorError(FracpowError):
    """The requested tolerance is below what double precision can certify."""


class SolverMemoryError(FracpowError):
    """The shifted solve would need more memory than the machine has available."""


def check_rhs(b, n: int) -> np.ndarray:
    """``b`` as an array; :class:`ValueError` unless it has shape ``(n,)`` and is
    finite, with a finite ``b^H b`` (the CG recurrence's first quantity)."""
    b = np.asarray(b)
    if b.shape != (n,):
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({n},)")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side must be finite")
    wide = b.astype(np.promote_types(b.dtype, np.float64), copy=False)
    with np.errstate(over="ignore"):
        if not np.isfinite(np.vdot(wide, wide)):
            raise ValueError("right-hand side is too large: its squared norm overflows")
    return b


def check_alpha(alpha) -> None:
    """:class:`ValueError` unless the power ``alpha`` lies in (0, 1) (NaN does not)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def check_shifts(shifts) -> None:
    """:class:`ValueError` unless every shift (a scalar or an array) is finite and non-negative."""
    shifts = np.asarray(shifts, dtype=np.float64)
    if not (np.all(shifts >= 0.0) and np.all(np.isfinite(shifts))):
        raise ValueError("shifts must be finite and non-negative")


def check_weights(weights) -> None:
    """:class:`ValueError` unless every weight (a scalar or an array) is positive and finite."""
    weights = np.asarray(weights, dtype=np.float64)
    if not (np.all(weights > 0.0) and np.all(np.isfinite(weights))):
        raise ValueError("weights must be positive and finite")


def check_iteration_cap(max_iterations) -> None:
    """:class:`ValueError` unless the iteration cap is ``None`` or an integer >= 1 (numpy integers too)."""
    if max_iterations is not None and not (
        isinstance(max_iterations, (int, np.integer)) and max_iterations >= 1
    ):
        raise ValueError(f"max_iterations must be None or an integer >= 1, got {max_iterations!r}")
