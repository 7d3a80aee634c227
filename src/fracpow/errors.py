"""Exception types shared across the package.

Library callers can usually just catch :class:`FracpowError`.  The CLI
reports any of them on stderr and exits 1; only :class:`ToleranceFloorError`
gets a message of its own.
"""

from __future__ import annotations


class FracpowError(Exception):
    """Base class for errors raised by this package."""


class MatrixFormatError(FracpowError):
    """A matrix source (Matrix Market stream, CLI spec string) is invalid."""


class SpectralBoundsError(FracpowError):
    """A positive spectral interval could not be certified."""


class BudgetUnreachableError(FracpowError):
    """No node count within the cap meets the requested scalar accuracy."""


class QuadratureConstructionError(FracpowError):
    """A quadrature rule could not be built (e.g. truncation search failed)."""


class SolverBreakdownError(FracpowError):
    """The conjugate gradient recurrence hit a numerically singular quantity."""


class ToleranceFloorError(FracpowError):
    """The requested tolerance is below what double precision can certify."""
