import tracemalloc

import numpy as np
import pytest

from fracpow.errors import MatrixFormatError, SpectralBoundsError
from fracpow.oracle import (
    ORACLE_SIZE_CAP,
    absolute_error,
    dense_fracpow_action,
    dense_shifted_solve,
    hpd_eigendecomposition,
)
from fracpow.sparse import HermitianSparseMatrix, build_diagonal, build_laplacian_1d

from conftest import random_hpd


class TestHpdEigendecomposition:
    def test_rejects_oversize_before_densifying(self):
        A = build_laplacian_1d(3000)
        tracemalloc.start()
        try:
            with pytest.raises(MatrixFormatError, match=f"capped at n = {ORACLE_SIZE_CAP}"):
                hpd_eigendecomposition(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 8 * A.n**2

    def test_accepts_boundary_size(self):
        w, Q = hpd_eigendecomposition(build_diagonal(np.ones(ORACLE_SIZE_CAP)))
        assert w.shape == (ORACLE_SIZE_CAP,)
        assert Q.shape == (ORACLE_SIZE_CAP, ORACLE_SIZE_CAP)

    def test_real_storage_of_complex(self):
        A = HermitianSparseMatrix.from_dense(np.eye(2).astype(complex))
        w, Q = hpd_eigendecomposition(A)
        assert not np.iscomplexobj(w)
        assert not np.iscomplexobj(Q)

    def test_rejects_true_complex(self):
        dense = np.array([[2.0, 1.0 + 1.0j], [1.0 - 1.0j, 2.0]])
        A = HermitianSparseMatrix.from_dense(dense)
        with pytest.raises(MatrixFormatError):
            hpd_eigendecomposition(A)

    def test_diagonal_case(self):
        w, Q = hpd_eigendecomposition(build_diagonal([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0], rtol=1e-15)
        # Eigenvectors of a diagonal matrix form a signed permutation.
        np.testing.assert_allclose(np.abs(Q), np.eye(3)[:, [1, 2, 0]], atol=1e-15)

    def test_laplacian_3_closed_form(self):
        w, _ = hpd_eigendecomposition(build_laplacian_1d(3))
        expected = np.array([2.0 - np.sqrt(2.0), 2.0, 2.0 + np.sqrt(2.0)])
        np.testing.assert_allclose(w, expected, rtol=1e-14)

    @pytest.mark.parametrize("n", [5, 20, 100])
    def test_backward_stability(self, rng, n):
        M = random_hpd(rng, n)
        M = (M + M.T) / 2.0
        w, Q = hpd_eigendecomposition(HermitianSparseMatrix.from_dense(M))
        recon = Q @ np.diag(w) @ Q.T
        scale = np.linalg.norm(M, "fro")
        assert np.linalg.norm(recon - M, "fro") <= 1e-10 * scale
        assert np.linalg.norm(Q.T @ Q - np.eye(n), "fro") <= 1e-10
        assert np.all(np.diff(w) >= 0)


class TestDenseFracpowAction:
    def test_identity(self, rng):
        A = build_diagonal(np.ones(5))
        b = rng.standard_normal(5)
        np.testing.assert_allclose(dense_fracpow_action(A, b, 0.37), b, rtol=1e-13)

    def test_scalar_square_roots(self):
        A = build_diagonal([4.0, 9.0])
        got = dense_fracpow_action(A, np.array([1.0, 1.0]), 0.5)
        np.testing.assert_allclose(got, [2.0, 3.0], rtol=1e-14)

    def test_cross_oracle_extended_precision(self):
        # Second, independent reference: per-eigenvalue powers computed as
        # exp(alpha * log(lambda)) in extended precision.
        A = build_laplacian_1d(8)
        b = np.ones(8)
        alpha = 0.2
        got = dense_fracpow_action(A, b, alpha)
        dense = A.to_dense().astype(np.longdouble)
        w, Q = np.linalg.eigh(dense.astype(np.float64))
        wl = w.astype(np.longdouble)
        powers = np.exp(alpha * np.log(wl))
        ref = (Q.astype(np.longdouble) @ (powers * (Q.astype(np.longdouble).T @ b))).astype(
            np.float64
        )
        assert np.linalg.norm(got - ref) <= 1e-12

    def test_rejects_indefinite(self):
        A = build_diagonal([-1.0, 2.0])
        with pytest.raises(SpectralBoundsError):
            dense_fracpow_action(A, np.ones(2), 0.5)

    def test_rejects_bad_alpha(self):
        A = build_diagonal([1.0, 2.0])
        with pytest.raises(ValueError):
            dense_fracpow_action(A, np.ones(2), 0.0)

    def test_semigroup_property(self):
        A = build_laplacian_1d(100)
        b = np.ones(100)
        half = dense_fracpow_action(A, b, 0.5)
        twice = dense_fracpow_action(A, half, 0.5)
        Ab = A.matvec(b)
        assert np.linalg.norm(twice - Ab) <= 1e-9 * np.linalg.norm(Ab)


class TestDenseShiftedSolve:
    def test_residual_small(self, rng):
        A = build_laplacian_1d(30)
        b = rng.standard_normal(30)
        for sigma in (0.0, 0.5, 10.0):
            x = dense_shifted_solve(A, b, sigma)
            r = b - sigma * x - A.matvec(x)
            assert np.linalg.norm(r) <= 1e-11 * np.linalg.norm(b)

    def test_rejects_negative_shift(self):
        A = build_laplacian_1d(4)
        with pytest.raises(ValueError):
            dense_shifted_solve(A, np.ones(4), -1.0)


class TestAbsoluteError:
    def test_zero_for_equal(self):
        y = np.array([1.0, 2.0])
        assert absolute_error(y, y) == 0.0

    def test_unit_distance(self):
        assert absolute_error(np.array([1.0, 0.0]), np.zeros(2)) == 1.0

    def test_three_four_five(self):
        assert absolute_error(np.array([3.0, 4.0]), np.zeros(2)) == 5.0

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            absolute_error(np.ones(2), np.ones(3))
