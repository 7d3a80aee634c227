"""Dense reference computations for tests and certification experiments.

Everything here is a test fixture, not a production path: matrices are
capped at ``ORACLE_SIZE_CAP`` rows and kept real symmetric.  The fractional
action reference is the eigendecomposition definition
``y_ref = Q diag(lambda^alpha) Q^T b``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MatrixFormatError, SpectralBoundsError
from .sparse import HermitianSparseMatrix

#: Largest dimension the dense oracle accepts.
ORACLE_SIZE_CAP = 1100

_SYMMETRY_RTOL = 1e-13


@dataclass(frozen=True)
class DenseSymmetricMatrix:
    """Dense real symmetric matrix, size-capped for oracle use only."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=np.float64)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise MatrixFormatError(f"expected a square matrix, got shape {entries.shape}")
        n = entries.shape[0]
        if n == 0:
            raise MatrixFormatError("matrix must be non-empty")
        if n > ORACLE_SIZE_CAP:
            raise MatrixFormatError(
                f"dense oracle is capped at n = {ORACLE_SIZE_CAP}, got n = {n}"
            )
        scale = float(np.abs(entries).max())
        asym = float(np.abs(entries - entries.T).max())
        if asym > _SYMMETRY_RTOL * max(scale, 1.0):
            raise MatrixFormatError(
                f"matrix is not symmetric: max asymmetry {asym:.3e} at scale {scale:.3e}"
            )

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_sparse(cls, A: HermitianSparseMatrix) -> "DenseSymmetricMatrix":
        """Densify a sparse operator.  Complex storage must carry no imaginary part."""
        dense = A.to_dense()
        if np.iscomplexobj(dense):
            scale = float(np.abs(dense).max()) or 1.0
            if float(np.abs(dense.imag).max()) > _SYMMETRY_RTOL * scale:
                raise MatrixFormatError("dense oracle supports real symmetric matrices only")
            dense = dense.real
        return cls(dense)


def dense_eigh(M: DenseSymmetricMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Full symmetric eigendecomposition ``M = Q diag(w) Q^T``.

    Returns eigenvalues ascending and orthonormal eigenvectors as columns.
    """
    w, Q = np.linalg.eigh(M.entries)
    return w, Q


def hpd_eigendecomposition(A: HermitianSparseMatrix) -> tuple[np.ndarray, np.ndarray]:
    """:func:`dense_eigh` of ``A``, raising if ``A`` is not positive definite."""
    w, Q = dense_eigh(DenseSymmetricMatrix.from_sparse(A))
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
