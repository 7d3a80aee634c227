"""Dense reference computations for tests and certification experiments.

Everything here is a test fixture, not a production path.  The one entry
point is :func:`hpd_eigendecomposition`, which checks the size cap of
``ORACLE_SIZE_CAP`` rows before it densifies, accepts real symmetric values
only, and rejects a matrix that is not positive definite.  The fractional
action reference is the eigendecomposition definition
``y_ref = Q diag(lambda^alpha) Q^T b``.
"""

from __future__ import annotations

import numpy as np

from .errors import MatrixFormatError, SpectralBoundsError
from .sparse import HERMITIAN_RTOL, HermitianSparseMatrix

#: Largest dimension the dense oracle accepts.
ORACLE_SIZE_CAP = 1100


def hpd_eigendecomposition(A: HermitianSparseMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition ``A = Q diag(w) Q^T`` of a real symmetric positive definite A.

    Returns eigenvalues ascending and orthonormal eigenvectors as columns.
    The size cap is checked before ``A`` is densified; complex storage must
    carry no imaginary part; the smallest eigenvalue must be positive.
    """
    if A.n > ORACLE_SIZE_CAP:
        raise MatrixFormatError(f"dense oracle is capped at n = {ORACLE_SIZE_CAP}, got n = {A.n}")
    dense = A.to_dense()
    if np.iscomplexobj(dense):
        scale = float(np.abs(dense).max()) or 1.0
        if float(np.abs(dense.imag).max()) > HERMITIAN_RTOL * scale:
            raise MatrixFormatError("dense oracle supports real symmetric matrices only")
        dense = dense.real
    w, Q = np.linalg.eigh(dense)
    if w[0] <= 0.0:
        raise SpectralBoundsError(
            f"matrix is not positive definite: smallest eigenvalue {w[0]:.6e}"
        )
    return w, Q


def dense_fracpow_action(A: HermitianSparseMatrix, b: np.ndarray, alpha: float) -> np.ndarray:
    """Reference ``A^alpha b`` through the full eigendecomposition.

    Raises if any eigenvalue is non-positive; the fractional power of an
    indefinite matrix is not real.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.n,):
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({A.n},)")
    w, Q = hpd_eigendecomposition(A)
    return Q @ (w**alpha * (Q.T @ b))


def dense_shifted_solve(A: HermitianSparseMatrix, b: np.ndarray, sigma: float) -> np.ndarray:
    """Reference solution of ``(sigma I + A) x = b`` via eigendecomposition."""
    if sigma < 0.0:
        raise ValueError("shift must be non-negative")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.n,):
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({A.n},)")
    w, Q = hpd_eigendecomposition(A)
    return Q @ ((Q.T @ b) / (w + sigma))


def absolute_error(y: np.ndarray, y_ref: np.ndarray) -> float:
    """Euclidean distance ``||y - y_ref||_2``."""
    y = np.asarray(y)
    y_ref = np.asarray(y_ref)
    if y.shape != y_ref.shape:
        raise ValueError(f"shape mismatch: {y.shape} vs {y_ref.shape}")
    return float(np.linalg.norm(y - y_ref))
