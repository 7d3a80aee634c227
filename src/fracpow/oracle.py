"""Dense reference computations for tests and certification experiments.

Everything here is a test fixture, not a production path.  The one entry
point is :func:`hpd_eigendecomposition`, which checks the size cap of
``ORACLE_SIZE_CAP`` rows before it densifies and rejects a matrix that is
not positive definite.  Real symmetric and complex Hermitian matrices are
both accepted.  The fractional action reference is the eigendecomposition
definition ``y_ref = Q diag(lambda^alpha) Q^H b``.
"""

from __future__ import annotations

import numpy as np

from .errors import MatrixFormatError, SpectralBoundsError, check_alpha, check_rhs, check_shifts
from .sparse import HermitianSparseMatrix

#: Largest dimension the dense oracle accepts.
ORACLE_SIZE_CAP = 1100


def hpd_eigendecomposition(A: HermitianSparseMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition ``A = Q diag(w) Q^H`` of a Hermitian positive definite A.

    Returns real eigenvalues ascending and orthonormal eigenvectors as
    columns; ``Q`` is real for real storage and complex for complex storage.
    The size cap is checked before ``A`` is densified; the smallest
    eigenvalue must be positive.
    """
    if A.n > ORACLE_SIZE_CAP:
        raise MatrixFormatError(f"dense oracle is capped at n = {ORACLE_SIZE_CAP}, got n = {A.n}")
    w, Q = np.linalg.eigh(A.to_dense())
    if w[0] <= 0.0:
        raise SpectralBoundsError(
            f"matrix is not positive definite: smallest eigenvalue {w[0]:.6e}"
        )
    return w, Q


def dense_fracpow_action(A: HermitianSparseMatrix, b: np.ndarray, alpha: float) -> np.ndarray:
    """Reference ``A^alpha b`` through the full eigendecomposition.

    Raises if any eigenvalue is non-positive; the fractional power of an
    indefinite matrix is not Hermitian.  A complex ``A`` or ``b`` gives a
    complex result.
    """
    check_alpha(alpha)
    b = check_rhs(b, A.n)
    w, Q = hpd_eigendecomposition(A)
    return Q @ (w**alpha * (Q.conj().T @ b))


def dense_shifted_solve(A: HermitianSparseMatrix, b: np.ndarray, sigma: float) -> np.ndarray:
    """Reference solution of ``(sigma I + A) x = b`` via eigendecomposition."""
    check_shifts(sigma)
    b = check_rhs(b, A.n)
    w, Q = hpd_eigendecomposition(A)
    return Q @ ((Q.conj().T @ b) / (w + sigma))


def absolute_error(y: np.ndarray, y_ref: np.ndarray) -> float:
    """Euclidean distance ``||y - y_ref||_2``."""
    y = np.asarray(y)
    y_ref = np.asarray(y_ref)
    if y.shape != y_ref.shape:
        raise ValueError(f"shape mismatch: {y.shape} vs {y_ref.shape}")
    return float(np.linalg.norm(y - y_ref))
