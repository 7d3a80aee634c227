import hashlib
import io
import logging
import tracemalloc

import numpy as np
import pytest

from fracpow.error_control import ErrorBudget, fracpow_action
from fracpow.errors import MatrixFormatError, SpectralBoundsError
from fracpow.sparse import (
    HermitianSparseMatrix,
    SpectralBounds,
    build_diagonal,
    build_laplacian_1d,
    build_laplacian_2d,
    estimate_spectral_bounds,
    read_matrix_market,
    write_matrix_market,
)

from conftest import random_hermitian


def lap1d_eigenvalues(n: int) -> np.ndarray:
    k = np.arange(1, n + 1)
    return 2.0 - 2.0 * np.cos(np.pi * k / (n + 1))


class TestHermitianSparseMatrix:
    def test_from_dense_round_trip(self, rng):
        dense = random_hermitian(rng, 7)
        dense[np.abs(dense) < 0.8] = 0.0
        dense = (dense + dense.T) / 2.0
        np.fill_diagonal(dense, 3.0)
        A = HermitianSparseMatrix.from_dense(dense)
        np.testing.assert_array_equal(A.to_dense(), dense)

    def test_matvec_matches_dense_real(self, rng):
        dense = random_hermitian(rng, 11)
        A = HermitianSparseMatrix.from_dense(dense)
        x = rng.standard_normal(11)
        np.testing.assert_allclose(A.matvec(x), dense @ x, rtol=1e-14, atol=1e-14)

    def test_matvec_matches_dense_complex(self, rng):
        dense = random_hermitian(rng, 9, complex_valued=True)
        A = HermitianSparseMatrix.from_dense(dense)
        x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        np.testing.assert_allclose(A.matvec(x), dense @ x, rtol=1e-14, atol=1e-14)

    def test_matvec_with_structurally_empty_row(self):
        # Row 1 has no stored entries at all; the product must still have n slots.
        dense = np.zeros((3, 3))
        dense[0, 0] = 2.0
        dense[2, 2] = 1.0
        dense[0, 2] = dense[2, 0] = 0.5
        A = HermitianSparseMatrix.from_dense(dense)
        np.testing.assert_allclose(A.matvec(np.ones(3)), dense @ np.ones(3))

    def test_rejects_non_hermitian_pattern(self):
        with pytest.raises(MatrixFormatError):
            HermitianSparseMatrix.from_coo(2, [0], [1], [1.0])

    def test_rejects_non_hermitian_values(self):
        with pytest.raises(MatrixFormatError):
            HermitianSparseMatrix.from_coo(2, [0, 1], [1, 0], [1.0, 2.0])

    def test_rejects_conjugate_mismatch(self):
        with pytest.raises(MatrixFormatError):
            HermitianSparseMatrix.from_coo(2, [0, 1], [1, 0], [1.0 + 1j, 1.0 + 1j])

    def test_accepts_conjugate_pair(self):
        A = HermitianSparseMatrix.from_coo(2, [0, 1], [1, 0], [1.0 + 1j, 1.0 - 1j])
        assert A.nnz == 2

    def test_rejects_complex_diagonal(self):
        with pytest.raises(MatrixFormatError):
            HermitianSparseMatrix.from_coo(1, [0], [0], [1.0 + 0.5j])

    def test_rejects_duplicate_entries(self):
        with pytest.raises(ValueError):
            HermitianSparseMatrix.from_coo(2, [0, 0], [0, 0], [1.0, 2.0])

    def test_rejects_out_of_range_column(self):
        with pytest.raises((MatrixFormatError, ValueError)):
            HermitianSparseMatrix.from_coo(2, [0], [5], [1.0])

    def test_rejects_nan_from_dense(self):
        # NaN != 0, so the NaN entries reach the finiteness check.
        with pytest.raises(MatrixFormatError, match="not finite"):
            HermitianSparseMatrix.from_dense([[2.0, np.nan], [np.nan, 2.0]])

    def test_rejects_inf_from_coo(self):
        with pytest.raises(MatrixFormatError, match="not finite"):
            HermitianSparseMatrix.from_coo(2, [0, 1], [0, 1], [np.inf, 1.0])

    def test_diagonal(self):
        A = build_diagonal([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(A.diagonal(), [3.0, 1.0, 2.0])
        L = build_laplacian_1d(4)
        np.testing.assert_array_equal(L.diagonal(), [2.0, 2.0, 2.0, 2.0])


class CountingMatrix(HermitianSparseMatrix):
    """Counts calls of ``matvec``, the one product method."""

    calls = 0

    def matvec(self, x: np.ndarray) -> np.ndarray:
        object.__setattr__(self, "calls", self.calls + 1)
        return super().matvec(x)


class TestProductPath:
    @pytest.mark.parametrize(("family", "alpha", "eps"), [("de", 0.5, 1e-6), ("gj2", 0.2, 1e-9)])
    def test_every_product_goes_through_matvec(self, family, alpha, eps):
        # A subclass that meters matvec must see every product the pipeline makes.
        L = build_laplacian_2d(32, 32)
        bounds = estimate_spectral_bounds(L)
        A = CountingMatrix(L.n, L.row_offsets, L.col_indices, L.values)
        result = fracpow_action(A, np.ones(A.n), alpha, ErrorBudget(eps), family, bounds=bounds)
        # Joint iterations, explicit residual checks and the one assembly product.
        assert A.calls == result.report.total_matvecs + result.report.verification_matvecs + 1


class TestBuilders:
    def test_laplacian_1d_dense(self):
        A = build_laplacian_1d(4)
        expected = np.array(
            [
                [2.0, -1.0, 0.0, 0.0],
                [-1.0, 2.0, -1.0, 0.0],
                [0.0, -1.0, 2.0, -1.0],
                [0.0, 0.0, -1.0, 2.0],
            ]
        )
        np.testing.assert_array_equal(A.to_dense(), expected)

    def test_laplacian_1d_spectrum(self):
        A = build_laplacian_1d(10)
        got = np.linalg.eigvalsh(A.to_dense())
        np.testing.assert_allclose(got, np.sort(lap1d_eigenvalues(10)), atol=1e-13)

    def test_laplacian_2d_is_kronecker_sum(self):
        nx, ny = 3, 4
        A = build_laplacian_2d(nx, ny)
        Lx = build_laplacian_1d(nx).to_dense()
        Ly = build_laplacian_1d(ny).to_dense()
        expected = np.kron(Lx, np.eye(ny)) + np.kron(np.eye(nx), Ly)
        np.testing.assert_array_equal(A.to_dense(), expected)

    def test_laplacian_2d_size_and_diagonal(self):
        A = build_laplacian_2d(32, 32)
        assert A.n == 1024
        np.testing.assert_array_equal(A.diagonal(), np.full(1024, 4.0))

    @pytest.mark.parametrize(
        ("make", "digest"),
        [
            (lambda: build_laplacian_1d(1000), "77e7bd4fada00495"),
            (lambda: build_laplacian_2d(32, 32), "86d195b1bdba3fc6"),
            (lambda: build_laplacian_2d(150, 150), "b0fc3259b70f245e"),
            (lambda: build_laplacian_2d(7, 3), "0a3336b887df7ccf"),
            (lambda: build_diagonal([0.5, 1.0, 2.0, 4.0]), "3d53fbf644bba626"),
        ],
        ids=["lap1d:1000", "lap2d:32x32", "lap2d:150x150", "lap2d:7x3", "diag"],
    )
    def test_storage_digest(self, make, digest):
        # CSR order, index dtype and values fix the order of every product's
        # sums, so these pin the products bit for bit.
        A = make()
        assert (A.row_offsets.dtype, A.col_indices.dtype, A.values.dtype) == (
            np.int64,
            np.int64,
            np.float64,
        )
        h = hashlib.sha256()
        for array in (A.row_offsets, A.col_indices, A.values):
            h.update(array.tobytes())
        assert h.hexdigest()[:16] == digest

    def test_builders_reject_bad_sizes(self):
        with pytest.raises(ValueError):
            build_laplacian_1d(0)
        with pytest.raises(ValueError):
            build_laplacian_2d(0, 3)
        with pytest.raises(ValueError):
            build_diagonal([])


class TestMatrixMarket:
    def test_round_trip_real(self, rng, tmp_path):
        dense = random_hermitian(rng, 6)
        dense[np.abs(dense) < 0.5] = 0.0
        dense = (dense + dense.T) / 2.0
        np.fill_diagonal(dense, 2.0)
        A = HermitianSparseMatrix.from_dense(dense)
        path = tmp_path / "a.mtx"
        write_matrix_market(A, path)
        B = read_matrix_market(path)
        np.testing.assert_array_equal(A.to_dense(), B.to_dense())

    def test_round_trip_complex(self, rng, tmp_path):
        dense = random_hermitian(rng, 5, complex_valued=True)
        A = HermitianSparseMatrix.from_dense(dense)
        path = tmp_path / "h.mtx"
        write_matrix_market(A, path)
        B = read_matrix_market(path)
        np.testing.assert_array_equal(A.to_dense(), B.to_dense())

    @pytest.mark.parametrize(
        ("dense", "expected"),
        [
            (
                [[2.5, -0.1, 0.0], [-0.1, 3.0, 1 / 3], [0.0, 1 / 3, 4.0]],
                "%%MatrixMarket matrix coordinate real symmetric\n3 3 5\n1 1 2.5\n"
                "2 1 -0.10000000000000001\n2 2 3\n3 2 0.33333333333333331\n3 3 4\n",
            ),
            (
                [[2.0, 0.5 - 1j / 3], [0.5 + 1j / 3, 1.0]],
                "%%MatrixMarket matrix coordinate complex hermitian\n2 2 3\n1 1 2 0\n"
                "2 1 0.5 0.33333333333333331\n2 2 1 0\n",
            ),
        ],
        ids=["real", "complex"],
    )
    def test_writes_golden_text(self, dense, expected):
        # Header, lower triangle in row-major order, 17 significant digits.
        out = io.StringIO()
        write_matrix_market(HermitianSparseMatrix.from_dense(np.array(dense)), out)
        assert out.getvalue() == expected

    def test_reads_stream(self):
        text = (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 3\n"
            "1 1 2.0\n"
            "2 1 -1.0\n"
            "2 2 2.0\n"
        )
        A = read_matrix_market(io.StringIO(text))
        np.testing.assert_array_equal(A.to_dense(), [[2.0, -1.0], [-1.0, 2.0]])

    @pytest.mark.parametrize(
        "entries",
        ["1 1 2.0\n2 1 nan\n2 2 2.0\n", "1 1 inf\n2 1 -1.0\n2 2 2.0\n"],
        ids=["nan", "inf"],
    )
    def test_rejects_non_finite_value(self, entries):
        text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n" + entries
        with pytest.raises(MatrixFormatError, match="not finite"):
            read_matrix_market(io.StringIO(text))

    def test_rejects_general_symmetry(self):
        text = "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.0\n"
        with pytest.raises(MatrixFormatError):
            read_matrix_market(io.StringIO(text))

    def test_rejects_pattern_field(self):
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n1 1 1\n1 1\n"
        with pytest.raises(MatrixFormatError):
            read_matrix_market(io.StringIO(text))

    def test_rejects_upper_triangle_entry(self):
        text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 1.0\n"
        with pytest.raises(MatrixFormatError):
            read_matrix_market(io.StringIO(text))

    def test_rejects_empty_matrix(self):
        text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 0\n"
        with pytest.raises(MatrixFormatError):
            read_matrix_market(io.StringIO(text))

    def test_rejects_missing_diagonal_before_allocating(self):
        # 76 bytes claiming n = 10^7: rejected from the entry count alone,
        # before any array of length n is built.
        text = "%%MatrixMarket matrix coordinate real symmetric\n10000000 10000000 1\n1 1 2.0\n"
        tracemalloc.start()
        try:
            with pytest.raises(MatrixFormatError, match="not positive definite"):
                read_matrix_market(io.StringIO(text))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_rejects_non_ascii_byte(self):
        data = "%%MatrixMarket matrix coordinate real symmetric\n% café\n1 1 1\n1 1 2.0\n"
        with pytest.raises(MatrixFormatError, match="offset 53"):
            read_matrix_market(io.BytesIO(data.encode("utf-8")))

    def test_rejects_rectangular(self):
        text = "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1.0\n"
        with pytest.raises(MatrixFormatError):
            read_matrix_market(io.StringIO(text))

    def test_rejects_index_out_of_range(self):
        text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n3 1 1.0\n"
        with pytest.raises(MatrixFormatError):
            read_matrix_market(io.StringIO(text))

    def test_rejects_bad_header(self):
        with pytest.raises(MatrixFormatError):
            read_matrix_market(io.StringIO("not a matrix market file\n"))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_matrix_market(tmp_path / "missing.mtx")


class TestSpectralBounds:
    def test_bounds_type_validation(self):
        with pytest.raises(ValueError):
            SpectralBounds(0.0, 1.0)
        with pytest.raises(ValueError):
            SpectralBounds(2.0, 1.0)
        with pytest.raises(ValueError):
            SpectralBounds(1.0, np.inf)

    def test_diagonal_spectrum_enclosed(self):
        A = build_diagonal([0.5, 1.0, 2.0, 4.0])
        bounds = estimate_spectral_bounds(A)
        assert bounds.lambda_lo <= 0.5
        assert bounds.lambda_hi >= 4.0
        # Gershgorin on a diagonal matrix is exact, so the top is tight.
        assert bounds.lambda_hi == pytest.approx(4.0, rel=1e-12)

    def test_laplacian_enclosure_is_certified(self):
        for n in (50, 200):
            A = build_laplacian_1d(n)
            ev = lap1d_eigenvalues(n)
            bounds = estimate_spectral_bounds(A)
            assert bounds.lambda_lo <= ev.min() * (1 + 1e-12)
            assert bounds.lambda_hi >= ev.max() * (1 - 1e-12)
            # The enclosure must also be reasonably tight at the bottom.
            assert bounds.lambda_lo >= ev.min() * 0.5

    def test_large_laplacian_bottom_eigenvalue(self):
        # Needs the sweep extended past 50 steps: a short Krylov sweep cannot resolve
        # the bottom of this spectrum.
        A = build_laplacian_1d(1000)
        ev_min = lap1d_eigenvalues(1000).min()
        bounds = estimate_spectral_bounds(A)
        assert bounds.lambda_lo <= ev_min * (1 + 1e-12)
        assert bounds.lambda_lo >= ev_min * 0.3

    def test_identity_invariant_subspace(self):
        A = build_diagonal(np.ones(8))
        bounds = estimate_spectral_bounds(A)
        assert bounds.lambda_lo == pytest.approx(1.0, rel=1e-9)
        assert bounds.lambda_hi == pytest.approx(1.0, rel=1e-9)

    def test_indefinite_matrix_rejected(self):
        A = build_diagonal([-1.0, 1.0])
        with pytest.raises(SpectralBoundsError):
            estimate_spectral_bounds(A)

    def test_seed_changes_probe_not_validity(self, rng):
        dense = random_hermitian(rng, 30)
        dense = dense @ dense.T + 0.5 * np.eye(30)
        A = HermitianSparseMatrix.from_dense(dense)
        ev = np.linalg.eigvalsh(dense)
        for seed in (0, 1, 7):
            bounds = estimate_spectral_bounds(A, seed=seed)
            assert bounds.lambda_lo <= ev.min() * (1 + 1e-10)
            assert bounds.lambda_hi >= ev.max() * (1 - 1e-10)

    def test_non_positive_diagonal_rejected(self):
        # Entry (1, 1) is not stored, so a_11 = e_1^T A e_1 = 0.
        dense = np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 2.0]])
        A = HermitianSparseMatrix.from_dense(dense)
        with pytest.raises(SpectralBoundsError, match="diagonal entry 1 is"):
            estimate_spectral_bounds(A)

    def test_top_eigenvector_orthogonal_to_start_vector(self):
        # The Lanczos start vector is seed 0's first draw; a top eigenvector
        # orthogonal to it is never seen by the recurrence, so only a bound
        # that does not come from Lanczos reaches lambda_max.
        n = 200
        start = np.random.default_rng(0).standard_normal(n)
        u = np.random.default_rng(1).standard_normal(n)
        u -= (u @ start) / (start @ start) * start
        u /= np.linalg.norm(u)
        w = np.eye(n)[0] - u
        H = np.eye(n) - 2.0 * np.outer(w, w) / (w @ w)  # reflector, H e_1 = u
        dense = H @ np.diag(np.r_[10.5, np.linspace(1.0, 10.0, n - 1)]) @ H
        bounds = estimate_spectral_bounds(HermitianSparseMatrix.from_dense((dense + dense.T) / 2))
        assert bounds.lambda_hi >= 10.5

    @pytest.mark.parametrize(
        ("make", "products", "lambda_lo", "gershgorin", "lambda_max"),
        [
            (lambda: build_laplacian_1d(1000), 1000, 9.849886619935064e-06, 4.0,
             4.0 * np.sin(1000 * np.pi / 2002) ** 2),
            (lambda: build_laplacian_2d(32, 32), 100, 0.01811207274561117, 8.0,
             8.0 * np.sin(32 * np.pi / 66) ** 2),
            (lambda: build_laplacian_1d(50), 50, 0.0037933425258559663, 4.0,
             4.0 * np.sin(50 * np.pi / 102) ** 2),
        ],
        ids=["lap1d:1000", "lap2d:32x32", "lap1d:50"],
    )
    def test_one_sweep(self, make, products, lambda_lo, gershgorin, lambda_max):
        # One recurrence checked at 50, 100, 200, ... steps, not re-run from
        # scratch at each; lambda_hi is the Gershgorin bound and costs no
        # product.
        L = make()
        A = CountingMatrix(L.n, L.row_offsets, L.col_indices, L.values)
        bounds = estimate_spectral_bounds(A)
        assert A.calls == products
        assert bounds.lambda_lo == pytest.approx(lambda_lo, rel=1e-9)
        assert bounds.lambda_hi == gershgorin
        assert bounds.lambda_hi >= lambda_max

    def test_memory_is_order_n(self):
        # The recurrence runs all n steps here, so a peak that grows with the
        # step count would show.
        A = build_laplacian_1d(1000)
        tracemalloc.start()
        try:
            estimate_spectral_bounds(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 8 * A.n

    def test_debug_log_shows_sweep_length(self, caplog):
        caplog.set_level(logging.DEBUG, logger="fracpow.sparse")
        estimate_spectral_bounds(build_laplacian_1d(200))
        messages = [r.getMessage() for r in caplog.records if r.name == "fracpow.sparse"]
        extending = [m for m in messages if "extending" in m]
        assert [m.split()[-2] for m in extending] == ["100", "200"]
        assert sum("stopped after 200 steps" in m for m in messages) == 1
