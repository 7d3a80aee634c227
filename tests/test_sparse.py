import hashlib
import io
import logging
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from fracpow.error_control import ErrorBudget, fracpow_action
from fracpow.errors import MatrixFormatError, SpectralBoundsError
from fracpow.sparse import (
    LAMBDA_LO_FLOOR,
    HermitianSparseMatrix,
    SpectralBounds,
    build_diagonal,
    build_laplacian_1d,
    build_laplacian_2d,
    estimate_spectral_bounds,
    lanczos_start_vector,
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
        with pytest.raises(MatrixFormatError, match="not Hermitian"):
            HermitianSparseMatrix.from_coo(1, [0], [0], [1.0 + 0.5j])

    @pytest.mark.parametrize(
        ("n", "offsets", "cols", "vals"),
        [
            (0, [0], [], []),
            (2, [0, 2], [0, 1], [1.0, 1.0]),
            (2, [1, 1, 2], [0, 1], [1.0, 1.0]),
            (3, [0, 2, 1, 2], [0, 1], [1.0, 1.0]),
            (2, [0, -1, 0], [], []),
            (2, [0, 1, 1], [0, 1], [1.0, 1.0]),
            (2, [0, 1, 3], [0, 1], [1.0, 1.0]),
            (2, [0, 1, 2], [0, 1], [1.0]),
            (2, [0, 1, 2], [0, 2], [1.0, 1.0]),
            (2, [0, 1, 2], [-1, 1], [1.0, 1.0]),
            (2, [0, 2, 4], [1, 0, 0, 1], [1.0, 1.0, 1.0, 1.0]),
            (2, [0, 2, 3], [0, 0, 1], [1.0, 1.0, 1.0]),
        ],
        ids=[
            "n-zero", "offsets-short", "offsets-start", "offsets-decreasing",
            "offsets-decreasing-empty", "offsets-end-below-nnz", "offsets-end-above-nnz",
            "values-length", "column-high", "column-negative", "columns-unsorted",
            "columns-duplicate",
        ],
    )
    def test_rejects_malformed_csr(self, n, offsets, cols, vals):
        with pytest.raises(ValueError):
            HermitianSparseMatrix(n, offsets, cols, vals)

    def test_integer_values_become_float64(self):
        A = HermitianSparseMatrix(2, [0, 1, 2], [0, 1], [2, 3])
        assert A.values.dtype == np.float64
        np.testing.assert_array_equal(A.to_dense(), [[2.0, 0.0], [0.0, 3.0]])

    def test_storage_is_shared_with_the_csr(self):
        A = build_laplacian_2d(4, 3)
        assert A.col_indices.dtype == A.row_offsets.dtype == np.int64
        assert np.shares_memory(A._csr.indices, A.col_indices)
        assert np.shares_memory(A._csr.indptr, A.row_offsets)
        assert np.shares_memory(A._csr.data, A.values)

    @pytest.mark.parametrize("dense", [np.ones((2, 3)), np.ones(3)], ids=["rectangular", "vector"])
    def test_from_dense_rejects_non_square(self, dense):
        with pytest.raises(ValueError, match="square"):
            HermitianSparseMatrix.from_dense(dense)

    def test_matvec_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="does not match"):
            build_laplacian_1d(3).matvec(np.ones(4))

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


def banded_complex(n: int) -> HermitianSparseMatrix:
    """Complex Hermitian tridiagonal matrix with a gap in each off-diagonal."""
    off = (0.3 + 0.7j) * np.ones(n - 1)
    off[n // 2] = 0.0
    csr = scipy.sparse.diags_array([off.conj(), np.full(n, 4.0), off], offsets=[-1, 0, 1])
    return HermitianSparseMatrix.from_dense(csr.toarray())


def random_sparse_hermitian(n: int) -> HermitianSparseMatrix:
    rng = np.random.default_rng(7)
    dense = random_hermitian(rng, n)
    dense[np.abs(dense) < 1.2] = 0.0
    np.fill_diagonal(dense, float(n))
    return HermitianSparseMatrix.from_dense(dense)


def permuted_lap2d(nx: int, ny: int) -> HermitianSparseMatrix:
    """``P A P^T`` for the five-point Laplacian: same spectrum, no band."""
    L = build_laplacian_2d(nx, ny)
    perm = np.random.default_rng(3).permutation(L.n)
    P = L._csr[perm][:, perm].tocoo()
    return HermitianSparseMatrix.from_coo(L.n, P.row, P.col, P.data)


PRODUCT_MATRICES = {
    "lap1d:1000": (lambda: build_laplacian_1d(1000), scipy.sparse.dia_array),
    "lap2d:150x150": (lambda: build_laplacian_2d(150, 150), scipy.sparse.dia_array),
    "lap2d:7x3": (lambda: build_laplacian_2d(7, 3), scipy.sparse.dia_array),
    "complex-banded": (lambda: banded_complex(40), scipy.sparse.dia_array),
    "random-sparse": (lambda: random_sparse_hermitian(60), scipy.sparse.csr_array),
    "permuted-lap2d:32x32": (lambda: permuted_lap2d(32, 32), scipy.sparse.csr_array),
}


class TestProductOperator:
    @pytest.mark.parametrize(
        ("make", "kind"), PRODUCT_MATRICES.values(), ids=PRODUCT_MATRICES.keys()
    )
    def test_choice_and_bit_identity(self, make, kind, rng):
        A = make()
        x = rng.standard_normal(A.n)
        if np.iscomplexobj(A.values):
            x = x + 1j * rng.standard_normal(A.n)
        y = A.matvec(x)
        assert type(A._product_operator) is kind
        assert y.tobytes() == (A._csr @ x).tobytes()
        if kind is scipy.sparse.dia_array:
            assert A._product_operator.data.size <= 2 * A.nnz
        else:
            assert A._product_operator is A._csr

    def test_built_once_on_first_product(self, monkeypatch):
        built = []
        real_dia = scipy.sparse.dia_array

        def counting_dia(*args, **kwargs):
            built.append(1)
            return real_dia(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse, "dia_array", counting_dia)
        A = build_laplacian_2d(20, 10)
        estimate_spectral_bounds(A)  # includes the Gershgorin bound, which uses CSR
        assert len(built) == 1
        operator = A._product_operator
        A.matvec(np.ones(A.n))
        assert A._product_operator is operator and len(built) == 1

    def test_not_built_at_construction(self):
        A = build_laplacian_2d(20, 10)
        assert "_product_operator" not in vars(A)
        A.diagonal()
        A.to_dense()
        write_matrix_market(A, io.StringIO())
        assert "_product_operator" not in vars(A)

    def test_first_product_memory(self):
        # The DIA values plus a few nnz-long index arrays, freed after the build.
        A = build_laplacian_2d(100, 100)
        x = np.ones(A.n)
        tracemalloc.start()
        try:
            A.matvec(x)
            first = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            A.matvec(x)
            later = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first - later <= A._product_operator.data.nbytes + 4 * 8 * A.nnz

    def test_subclass_builds_its_own_operator_and_sees_every_product(self, rng):
        L = build_laplacian_2d(12, 9)
        x = rng.standard_normal(L.n)
        y = L.matvec(x)
        A = CountingMatrix(L.n, L.row_offsets, L.col_indices, L.values)
        np.testing.assert_array_equal(A.matvec(x), y)
        bounds = estimate_spectral_bounds(L)
        result = fracpow_action(A, x, 0.5, ErrorBudget(1e-8), "gj2", bounds=bounds)
        report = result.report
        assert A.calls == 1 + report.total_matvecs + report.verification_matvecs + 1
        assert A._product_operator is not L._product_operator
        assert type(A._product_operator) is scipy.sparse.dia_array


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
        # Every diagonal entry is stored, so only the triangle check stands in the way.
        text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 2.0\n1 2 1.0\n2 2 2.0\n"
        with pytest.raises(MatrixFormatError, match=r"entry \(1, 2\) is not in the lower triangle"):
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

    @pytest.mark.parametrize(
        "stream",
        [lambda text: io.BytesIO(text.encode("utf-8")), io.StringIO],
        ids=["bytes", "text"],
    )
    def test_rejects_non_ascii_byte(self, stream):
        # A text stream is held to the ASCII rule as its UTF-8 bytes.
        data = "%%MatrixMarket matrix coordinate real symmetric\n% café\n1 1 1\n1 1 2.0\n"
        with pytest.raises(MatrixFormatError, match="offset 53"):
            read_matrix_market(stream(data))

    def test_rejects_rectangular(self):
        text = "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1.0\n"
        with pytest.raises(MatrixFormatError):
            read_matrix_market(io.StringIO(text))

    def test_rejects_index_out_of_range(self):
        text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 2.0\n3 1 1.0\n2 2 2.0\n"
        with pytest.raises(MatrixFormatError, match=r"entry \(3, 1\) is not in the lower triangle for n = 2"):
            read_matrix_market(io.StringIO(text))

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("%%MatrixMarket matrix array real symmetric\n2 2\n2.0\n-1.0\n2.0\n", "coordinate"),
            (
                "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 2\n2 1 1.0\n2 1 1.0\n",
                "unsupported symmetry qualifier",
            ),
            ("%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n", "expected 3 entries, found 0"),
            (
                "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n% only a comment\n",
                "expected 3 entries, found 0",
            ),
            (
                "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 2.0\n2 2 2.0\n",
                "expected 3 entries, found 2",
            ),
            (
                "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 2.0\n2 1 -1.0\n2 2 2.0\n",
                "expected 2 entries, found 3",
            ),
            (
                "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 2.0\n2 1 -1.0\n",
                "only 1 of 2 diagonal entries",
            ),
            (
                "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 2.0\n1 1 2.0\n2 2 2.0\n",
                "duplicate entries",
            ),
        ],
        ids=[
            "array", "skew-symmetric", "no-entry-lines", "only-comments", "fewer-entries",
            "more-entries", "missing-diagonal", "duplicate-entry",
        ],
    )
    def test_rejects_malformed_file(self, text, message):
        with pytest.raises(MatrixFormatError, match=message):
            read_matrix_market(io.StringIO(text))

    def test_rejects_bad_header(self):
        with pytest.raises(MatrixFormatError):
            read_matrix_market(io.StringIO("not a matrix market file\n"))

    def test_rejects_complex_symmetric_with_imaginary_off_diagonal(self):
        # [[2, i], [i, 2]] is complex symmetric, not Hermitian: its mirror is
        # not conjugated, so it fails the Hermitian check.
        text = (
            "%%MatrixMarket matrix coordinate complex symmetric\n2 2 3\n"
            "1 1 2 0\n2 1 0 1\n2 2 2 0\n"
        )
        with pytest.raises(MatrixFormatError, match="not Hermitian"):
            read_matrix_market(io.StringIO(text))

    def test_complex_symmetric_with_real_off_diagonal_reads_as_hermitian(self):
        entries = "2 2 3\n1 1 2 0\n2 1 -0.5 0\n2 2 3 0\n"
        head = "%%MatrixMarket matrix coordinate complex "
        A = read_matrix_market(io.StringIO(head + "symmetric\n" + entries))
        B = read_matrix_market(io.StringIO(head + "hermitian\n" + entries))
        np.testing.assert_array_equal(A.to_dense(), B.to_dense())
        np.testing.assert_array_equal(A.to_dense(), [[2, -0.5], [-0.5, 3]])

    @pytest.mark.parametrize("tail", [" # c", " % c", " 0"], ids=["hash", "percent", "number"])
    def test_rejects_trailing_text_on_entry_line(self, tail):
        text = (
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n"
            f"1 1 2.0\n2 1 -1{tail}\n2 2 2.0\n"
        )
        with pytest.raises(MatrixFormatError, match="malformed entry line"):
            read_matrix_market(io.StringIO(text))

    @pytest.mark.parametrize(
        "size", ["0 0 0", "99999999999999999999 99999999999999999999 1"], ids=["empty", "int64-overflow"]
    )
    def test_rejects_size_line(self, size):
        text = f"%%MatrixMarket matrix coordinate real symmetric\n{size}\n1 1 2.0\n"
        with pytest.raises(MatrixFormatError):
            read_matrix_market(io.StringIO(text))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_matrix_market(tmp_path / "missing.mtx")


def sparse_complex_hpd() -> HermitianSparseMatrix:
    """Complex Hermitian positive definite matrix of order 300 on the CSR path:
    a random Hermitian matrix with its entries below 2 in modulus cut, plus
    11.5 I (smallest eigenvalue about 0.4994, largest about 22.76)."""
    dense = random_hermitian(np.random.default_rng(1), 300, complex_valued=True)
    dense[np.abs(dense) < 2.0] = 0.0
    A = HermitianSparseMatrix.from_dense(dense + 11.5 * np.eye(300))
    assert A._product_operator.format == "csr"
    return A


class TestSpectralBounds:
    def test_bounds_type_validation(self):
        with pytest.raises(ValueError):
            SpectralBounds(0.0, 1.0)
        with pytest.raises(ValueError):
            SpectralBounds(2.0, 1.0)
        with pytest.raises(ValueError):
            SpectralBounds(1.0, np.inf)
        with pytest.raises(ValueError, match="unknown interval method 'guessed'"):
            SpectralBounds(1.0, 2.0, "guessed")

    def test_kappa_1e13_diagonal_is_floored(self):
        bounds = estimate_spectral_bounds(build_diagonal(np.geomspace(1e-13, 1.0, 300)))
        assert bounds.method == "floored"
        assert bounds.lambda_lo == LAMBDA_LO_FLOOR * bounds.lambda_hi

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
        assert bounds.method == "estimated"
        assert bounds.lambda_lo <= ev_min * (1 + 1e-12)
        assert bounds.lambda_lo >= ev_min * 0.3

    @pytest.mark.parametrize("e", [-600, -60, 60, 600])
    @pytest.mark.parametrize("build", [lambda: build_laplacian_1d(200), lambda: build_laplacian_2d(32, 32)],
                             ids=["lap1d:200", "lap2d:32x32"])
    def test_interval_scales_with_the_matrix(self, build, e):
        # CG on 2^e A runs the same residuals with every coefficient scaled by
        # a power of two, so the interval scales bit for bit: the tridiagonal
        # never reaches LAPACK far from 1, and the pad is relative.
        A = build()
        scaled = HermitianSparseMatrix(A.n, A.row_offsets, A.col_indices, np.ldexp(A.values, e))
        bounds, unscaled = estimate_spectral_bounds(scaled), estimate_spectral_bounds(A)
        assert bounds.method == unscaled.method == "estimated"
        assert bounds.lambda_lo == np.ldexp(unscaled.lambda_lo, e)
        assert bounds.lambda_hi == np.ldexp(unscaled.lambda_hi, e)

    def test_identity_invariant_subspace(self):
        A = build_diagonal(np.ones(8))
        bounds = estimate_spectral_bounds(A)
        assert bounds.lambda_lo == pytest.approx(1.0, rel=1e-9)
        assert bounds.lambda_hi == pytest.approx(1.0, rel=1e-9)

    def test_indefinite_matrix_rejected(self):
        A = build_diagonal([-1.0, 1.0])
        with pytest.raises(SpectralBoundsError):
            estimate_spectral_bounds(A)

    def test_positive_diagonal_indefinite_matrix_rejected(self):
        # Eigenvalues 3 and -1: the diagonal passes, the CG run breaks down.
        A = HermitianSparseMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(SpectralBoundsError, match="non-positive Rayleigh quotient"):
            estimate_spectral_bounds(A)

    def test_encloses_random_hpd_spectra(self, rng):
        for _ in range(3):
            dense = random_hermitian(rng, 30)
            dense = dense @ dense.T + 0.5 * np.eye(30)
            A = HermitianSparseMatrix.from_dense(dense)
            ev = np.linalg.eigvalsh(dense)
            bounds = estimate_spectral_bounds(A)
            assert bounds.lambda_lo <= ev.min() * (1 + 1e-10)
            assert bounds.lambda_hi >= ev.max() * (1 - 1e-10)

    def test_non_positive_diagonal_rejected(self):
        # Entry (1, 1) is not stored, so a_11 = e_1^T A e_1 = 0.
        dense = np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 2.0]])
        A = HermitianSparseMatrix.from_dense(dense)
        with pytest.raises(SpectralBoundsError, match="diagonal entry 1 is"):
            estimate_spectral_bounds(A)

    def test_top_eigenvector_orthogonal_to_start_vector(self):
        # A top eigenvector orthogonal to the seed-0 Lanczos start vector is
        # never seen by the recurrence, so only a bound that does not come
        # from Lanczos reaches lambda_max.
        n = 200
        start = lanczos_start_vector(n)
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
            (lambda: build_laplacian_1d(1000), 800, 9.597246855030176e-06, 4.0,
             4.0 * np.sin(1000 * np.pi / 2002) ** 2),
            (lambda: build_laplacian_2d(32, 32), 50, 0.01784013701636091, 8.0,
             8.0 * np.sin(32 * np.pi / 66) ** 2),
            (lambda: build_laplacian_1d(50), 50, 0.0037933425258559663, 4.0,
             4.0 * np.sin(50 * np.pi / 102) ** 2),
            (lambda: build_laplacian_2d(150, 150), 200, 0.0008347277288398337, 8.0,
             8.0 * np.sin(150 * np.pi / 302) ** 2),
            (sparse_complex_hpd, 50, 0.4993486978760706, 42.35845555823093, 22.757082686954384),
            (lambda: build_diagonal(np.linspace(1.0, 1.001, 200)), 42, 0.9999993163127334,
             1.001, 1.001),
            (lambda: HermitianSparseMatrix._from_csr(
                scipy.sparse.csr_array(scipy.sparse.eye(400) + 1e-4 * build_laplacian_1d(400)._csr)
             ), 37, 0.999999769461102, 1.0004, 1.0 + 4e-4 * np.sin(400 * np.pi / 802) ** 2),
        ],
        ids=["lap1d:1000", "lap2d:32x32", "lap1d:50", "lap2d:150x150", "complex-csr",
             "linspace(1,1.001)", "I+1e-4*lap1d:400"],
    )
    def test_one_sweep(self, make, products, lambda_lo, gershgorin, lambda_max):
        # One recurrence checked at 50, 100, 200, ... steps, not re-run from
        # scratch at each; lambda_hi is the Gershgorin bound and costs no
        # product.  On the two clustered spectra each step divides the squared
        # residual by ~1e7: the run stops before it underflows, below lambda_min,
        # instead of taking the vanishing curvature for an indefinite matrix.
        L = make()
        A = CountingMatrix(L.n, L.row_offsets, L.col_indices, L.values)
        bounds = estimate_spectral_bounds(A)
        assert A.calls == products
        assert bounds.lambda_lo == pytest.approx(lambda_lo, rel=1e-9)
        assert bounds.lambda_hi == gershgorin
        assert bounds.lambda_hi >= lambda_max

    @pytest.mark.parametrize(("sign_flipped", "max_products"), [(False, 200), (True, 400)])
    def test_start_vector_sweep_length(self, sign_flipped, max_products):
        # The Laplacian's bottom eigenvector is positive, so the all-ones part
        # of the start vector halves the sweep (400 products from a plain
        # Gaussian start).  S L S, with S a random +-1 diagonal, has the same
        # spectrum but a bottom eigenvector of mixed signs: the sweep must be
        # no longer than from a plain Gaussian start, and still enclose.
        L = build_laplacian_2d(150, 150)
        ev = lap1d_eigenvalues(150)
        if sign_flipped:
            s = np.random.default_rng(5).choice([-1.0, 1.0], L.n)
            coo = L._csr.tocoo()
            L = HermitianSparseMatrix.from_coo(
                L.n, coo.row, coo.col, coo.data * s[coo.row] * s[coo.col]
            )
        A = CountingMatrix(L.n, L.row_offsets, L.col_indices, L.values)
        bounds = estimate_spectral_bounds(A)
        assert A.calls <= max_products
        assert bounds.lambda_lo <= 2 * ev.min() * (1 + 1e-12)
        assert bounds.lambda_hi >= 2 * ev.max() * (1 - 1e-12)
        assert bounds.lambda_lo >= 2 * ev.min() * 0.5

    def test_start_vector_leans_on_all_ones(self):
        # g is oriented toward the all-ones vector, so the two unit parts
        # never cancel: the start keeps at least 1/sqrt(2) along 1/sqrt(n).
        # The seed-0 draw sums to a positive value for one of these n and to a
        # negative one for the others, so both orientations are covered.
        signs = set()
        for n in (1, 2, 1000):
            signs.add(np.sign(np.random.default_rng(0).standard_normal(n).sum()))
            v = lanczos_start_vector(n)
            assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-14)
            assert v.sum() / np.sqrt(n) >= 2**-0.5
        assert signs == {-1.0, 1.0}

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
