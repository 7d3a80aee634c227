"""Soundness bank: ``certified=True`` must mean an oracle error of at most epsilon.

The matrices are the three known counterexamples of ROADMAP.md (items 1
and 2, and item 1's diagonal with kappa = 1e13) and one random sparse
complex Hermitian matrix, with its bottom and then its top eigenvector as
the right-hand side.  Each cell runs the whole pipeline, spectral bounds
included, and asserts that a certified result is within epsilon of the
dense oracle; an uncertified result or a typed failure passes.  Each cell
also checks the interval its certificate reports: ``floored`` on the kappa =
1e13 diagonal, whose ``lambda_lo`` sits at the floor, ``estimated`` elsewhere.  Cells that
certify an error above epsilon today are strict expected failures that
name the ROADMAP item whose fix removes the mark, so such a fix turns the
suite red until the mark goes.
"""

import functools

import numpy as np
import pytest
import scipy.sparse

from fracpow.error_control import ErrorBudget, fracpow_action
from fracpow.errors import FracpowError
from fracpow.oracle import absolute_error, dense_fracpow_action
from fracpow.sparse import HermitianSparseMatrix, build_diagonal, lanczos_start_vector


@functools.cache
def hidden_bottom_eigenvector():
    """Item 1's repro: spectrum {1e-3} and linspace(1, 10, 199) on n = 200,
    with the bottom eigenvector orthogonal to the Lanczos start vector.

    Returns the matrix and that eigenvector, the right-hand side.
    """
    n = 200
    start = lanczos_start_vector(n)
    start = start / np.linalg.norm(start)
    basis = np.random.default_rng(7).standard_normal((n, n))
    basis[:, 0] -= (start @ basis[:, 0]) * start
    Q, _ = np.linalg.qr(basis)
    w = np.concatenate(([1e-3], np.linspace(1.0, 10.0, n - 1)))
    dense = (Q * w) @ Q.T
    return HermitianSparseMatrix.from_dense((dense + dense.T) / 2.0), Q[:, 0]


@functools.cache
def random_sparse_spd():
    """Item 2's repro: a random sparse SPD matrix with kappa = 1e4 on n = 600,
    and its top eigenvector, the right-hand side."""
    n = 600
    R = scipy.sparse.random(
        n, n, density=0.01, random_state=3, data_rvs=np.random.default_rng(7).standard_normal
    )
    S = (R + R.T).toarray()
    lo, hi = np.linalg.eigvalsh(S)[[0, -1]]
    dense = S + (hi - 1e4 * lo) / (1e4 - 1.0) * np.eye(n)
    dense = (dense + dense.T) / 2.0
    _, V = np.linalg.eigh(dense)
    return HermitianSparseMatrix.from_dense(dense), V[:, -1]


@functools.cache
def floor_above_lambda_min():
    """Item 1's kappa > 1e12 case: the diagonal geomspace(1e-13, 1, 300), where
    the 1e-12 lambda_hi floor on lambda_lo lies above lambda_min, and b = e_0,
    the bottom eigenvector."""
    n = 300
    return build_diagonal(np.geomspace(1e-13, 1.0, n)), np.eye(n)[0]


@functools.cache
def random_sparse_complex_hermitian():
    """A random sparse complex Hermitian matrix with kappa = 1e4 on n = 300,
    stored with too many diagonals for DIA, and its eigenvectors."""
    n = 300
    rng = np.random.default_rng(11)
    R = scipy.sparse.random(n, n, density=0.01, random_state=5, format="csr")
    R.data = rng.standard_normal(R.nnz) + 1j * rng.standard_normal(R.nnz)
    S = (R + R.conj().T).toarray()
    lo, hi = np.linalg.eigvalsh(S)[[0, -1]]
    dense = S + (hi - 1e4 * lo) / (1e4 - 1.0) * np.eye(n)
    dense = (dense + dense.conj().T) / 2.0
    _, V = np.linalg.eigh(dense)
    A = HermitianSparseMatrix.from_dense(dense)
    assert A._product_operator.format == "csr"
    return A, V


def complex_hermitian_with(column: int):
    """The complex Hermitian matrix and its eigenvector ``column``, the right-hand side."""
    A, V = random_sparse_complex_hermitian()
    return A, V[:, column]


MATRICES = {
    "item1": hidden_bottom_eigenvector,
    "item2": random_sparse_spd,
    "item1-kappa1e13": floor_above_lambda_min,
    "complex-bottom": functools.partial(complex_hermitian_with, 0),
    "complex-top": functools.partial(complex_hermitian_with, -1),
}


def unsound(item: str, note: str):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}: {note}")


ITEM1 = "lambda_lo misses the hidden bottom eigenvalue; the gj rules certify far over eps"
ITEM2 = "de's rule passes its probes but not the interval's top end"
ITEM1_FLOOR = "the 1e-12 lambda_hi floor puts lambda_lo above lambda_min; gj2 certifies 34.5 eps"

CELLS = [
    *(
        pytest.param("item1", family, alpha, 1e-6, marks=unsound("1", ITEM1))
        for family in ("gj1", "gj2")
        for alpha in (0.2, 0.5, 0.8)
    ),
    *(pytest.param("item1", "de", alpha, 1e-6) for alpha in (0.2, 0.5, 0.8)),
    pytest.param("item2", "de", 0.5, 1e-3, marks=unsound("2", ITEM2)),
    pytest.param("item2", "gj1", 0.5, 1e-3),
    pytest.param("item2", "gj2", 0.5, 1e-3),
    pytest.param("item1-kappa1e13", "gj2", 0.2, 1e-6, marks=unsound("1", ITEM1_FLOOR)),
    pytest.param("item1-kappa1e13", "de", 0.2, 1e-6),
    *(
        pytest.param(matrix, family, 0.5, 1e-6)
        for matrix in ("complex-bottom", "complex-top")
        for family in ("gj1", "gj2", "de")
    ),
]


@pytest.mark.parametrize("matrix, family, alpha, epsilon", CELLS)
def test_certified_means_within_epsilon(matrix, family, alpha, epsilon):
    A, b = MATRICES[matrix]()
    try:
        result = fracpow_action(A, b, alpha, ErrorBudget(epsilon), family)
    except FracpowError:
        return
    floored = matrix == "item1-kappa1e13"
    assert result.certificate.interval.method == ("floored" if floored else "estimated")
    if result.certified:
        assert absolute_error(result.y, dense_fracpow_action(A, b, alpha)) <= epsilon
