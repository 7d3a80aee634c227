"""Exact ``A^alpha b`` for the Dirichlet Laplacians, independent of fracpow.

The orthonormal DST-I diagonalises the ``lap1d``/``lap2d`` matrices of
``fracpow.cli.build_matrix``: along each axis of ``n`` points the Laplacian
is ``S diag(4 sin^2(j pi / (2 (n + 1)))) S`` with ``S`` the orthonormal DST-I,
which is symmetric and its own inverse. The 2-D matrix is the Kronecker sum
of two such factors on the row-major grid ``ix * ny + iy``. So

    A^alpha b = S (lambda^alpha * (S b))

costs O(n log n) where the dense oracle needs O(n^3) and stops at n = 1100.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import dstn


def laplacian_shape(spec: str) -> tuple[int, ...]:
    """Grid shape of a ``lap1d:<n>`` or ``lap2d:<nx>x<ny>`` spec."""
    kind, _, arg = spec.partition(":")
    if kind == "lap1d":
        return (int(arg),)
    if kind == "lap2d":
        nx, _, ny = arg.partition("x")
        return (int(nx), int(ny))
    raise ValueError(f"no DST reference for matrix spec {spec!r}")


def laplacian_eigenvalues(spec: str) -> np.ndarray:
    """Eigenvalues of the Laplacian, laid out on its DST grid."""
    shape = laplacian_shape(spec)
    lam = np.zeros(shape)
    for axis, n in enumerate(shape):
        one_d = 4.0 * np.sin(np.arange(1, n + 1) * np.pi / (2.0 * (n + 1))) ** 2
        lam = lam + one_d.reshape([n if a == axis else 1 for a in range(len(shape))])
    return lam


def laplacian_fracpow_action(spec: str, b: np.ndarray, alpha: float) -> np.ndarray:
    """Reference ``A^alpha b`` for the Laplacian named by ``spec``."""
    lam = laplacian_eigenvalues(spec)
    coeffs = dstn(np.reshape(b, lam.shape), type=1, norm="ortho")
    return dstn(lam**alpha * coeffs, type=1, norm="ortho").ravel()
