"""Sparse Hermitian matrices, model problem generators, and spectral bounds.

Every matrix is built through scipy (COO or DIA to CSR), validated as one
``scipy.sparse.csr_array`` with both triangles present and held in that
form, so a matrix-vector product needs no conjugation logic.  Non-finite
values are rejected.  The generators build the standard Dirichlet
Laplacians used throughout the test-suite, and
:func:`estimate_spectral_bounds` produces an interval ``[lambda_lo,
lambda_hi]`` for the spectrum of a Hermitian positive definite matrix.  The
upper end is the Gershgorin bound, which is guaranteed; the lower end is the
bottom Ritz value of a basis-free Lanczos recurrence minus its residual, an
estimate, since that bounds the distance to *some* eigenvalue, not to the
smallest one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
from scipy.linalg import eigh_tridiagonal

from .errors import MatrixFormatError, SpectralBoundsError

logger = logging.getLogger(__name__)

# Relative slack for "equal up to rounding" checks on stored values.
HERMITIAN_RTOL = 1e-13

# Lanczos steps at the first convergence check of the bottom Ritz pair in
# the spectral-bounds recurrence; each later check comes after twice as many
# steps.
LANCZOS_INITIAL_STEPS = 50


def _is_complex(values: np.ndarray) -> bool:
    return np.issubdtype(values.dtype, np.complexfloating)


@dataclass(frozen=True)
class HermitianSparseMatrix:
    """Structurally Hermitian sparse matrix in CSR form.

    Invariants checked at construction:

    - ``row_offsets`` has length ``n + 1``, starts at 0, is non-decreasing;
    - column indices are in range and strictly increasing within each row
      (hence no duplicate entries);
    - every value is finite;
    - entry ``(i, j)`` is present exactly when ``(j, i)`` is, and the two
      values agree with conjugation to within ``1e-13`` relative;
    - every stored diagonal entry is real to the same tolerance.

    Positive definiteness is not checked here; it is the caller's
    responsibility where an operation requires it.  Every product goes
    through :meth:`matvec`.
    """

    n: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    _csr: scipy.sparse.csr_array = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = int(self.n)
        if n < 1:
            raise ValueError(f"matrix dimension must be positive, got {n}")
        offsets = np.asarray(self.row_offsets, dtype=np.int64)
        cols = np.asarray(self.col_indices, dtype=np.int64)
        vals = np.asarray(self.values)
        if not np.issubdtype(vals.dtype, np.inexact):
            vals = vals.astype(np.float64)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "row_offsets", offsets)
        object.__setattr__(self, "col_indices", cols)
        object.__setattr__(self, "values", vals)

        if offsets.shape != (n + 1,) or offsets[0] != 0:
            raise ValueError("row_offsets must have length n + 1 and start at 0")
        if np.any(np.diff(offsets) < 0) or offsets[-1] != cols.size:
            raise ValueError("row_offsets must be non-decreasing and end at nnz")
        if vals.shape != cols.shape:
            raise ValueError("values and col_indices must have equal length")
        if cols.size and (cols.min() < 0 or cols.max() >= n):
            raise ValueError("column index out of range")
        if not np.all(np.isfinite(vals)):
            raise MatrixFormatError("matrix values are not finite")

        csr = scipy.sparse.csr_array((vals, cols, offsets), shape=(n, n))
        if not csr.has_canonical_format:
            raise ValueError("col_indices must be strictly increasing within each row")
        mirror = csr.T.conj().tocsr()
        if not (
            np.array_equal(mirror.indptr, csr.indptr)
            and np.array_equal(mirror.indices, csr.indices)
        ):
            raise MatrixFormatError("sparsity pattern is not symmetric")
        scale = np.maximum(np.abs(csr.data), np.abs(mirror.data))
        if np.any(np.abs(csr.data - mirror.data) > HERMITIAN_RTOL * scale):
            raise MatrixFormatError("matrix values are not Hermitian within 1e-13 relative")
        diag = csr.diagonal()
        if _is_complex(vals) and np.any(np.abs(diag.imag) > HERMITIAN_RTOL * np.abs(diag)):
            raise MatrixFormatError("diagonal entries must be real")
        object.__setattr__(self, "_csr", csr)

    @property
    def nnz(self) -> int:
        return int(self.col_indices.size)

    @classmethod
    def _from_csr(cls, csr: scipy.sparse.csr_array) -> "HermitianSparseMatrix":
        return cls(csr.shape[0], csr.indptr, csr.indices, csr.data)

    @classmethod
    def from_coo(
        cls, n: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray
    ) -> "HermitianSparseMatrix":
        """Build from coordinate triplets through scipy's COO to CSR conversion.

        Duplicate entries are rejected, not summed; an index outside
        ``[0, n)`` raises scipy's ``ValueError``.
        """
        values = np.asarray(values)
        csr = scipy.sparse.coo_array((values, (rows, cols)), shape=(n, n)).tocsr()
        if csr.nnz != values.size:
            raise ValueError("duplicate entries in coordinate data")
        return cls._from_csr(csr)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "HermitianSparseMatrix":
        """Build from the nonzero entries of a square array (NaN counts as nonzero)."""
        dense = np.asarray(dense)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("dense input must be square")
        rows, cols = np.nonzero(dense != 0)
        return cls.from_coo(dense.shape[0], rows, cols, dense[rows, cols])

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Return ``A @ x``."""
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise ValueError(f"vector length {x.shape} does not match n = {self.n}")
        return self._csr @ x

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def diagonal(self) -> np.ndarray:
        return self._csr.diagonal()


@dataclass(frozen=True)
class SpectralBounds:
    """Spectral interval ``0 < lambda_lo <= lambda_hi``.

    From :func:`estimate_spectral_bounds`, ``lambda_hi`` is the guaranteed
    Gershgorin bound and ``lambda_lo`` a Lanczos estimate of the bottom.
    """

    lambda_lo: float
    lambda_hi: float

    def __post_init__(self) -> None:
        lo = float(self.lambda_lo)
        hi = float(self.lambda_hi)
        object.__setattr__(self, "lambda_lo", lo)
        object.__setattr__(self, "lambda_hi", hi)
        if not (0.0 < lo <= hi) or not np.isfinite(hi):
            raise ValueError(f"need 0 < lambda_lo <= lambda_hi, got ({lo}, {hi})")


def _laplacian_1d_csr(n: int) -> scipy.sparse.csr_array:
    diagonals = [-1.0, 2.0, -1.0]
    return scipy.sparse.diags_array(diagonals, offsets=[-1, 0, 1], shape=(n, n), format="csr")


def build_laplacian_1d(n: int) -> HermitianSparseMatrix:
    """Tridiagonal (-1, 2, -1) matrix of order ``n`` (Dirichlet at both ends).

    Built as a scipy DIA matrix and converted to CSR.  Its eigenvalues are
    ``4 sin^2(j pi / (2 (n + 1)))`` for ``j = 1..n``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return HermitianSparseMatrix._from_csr(_laplacian_1d_csr(n))


def build_laplacian_2d(nx: int, ny: int) -> HermitianSparseMatrix:
    """Five-point Laplacian on an ``nx`` by ``ny`` Dirichlet grid.

    scipy's Kronecker sum of the two 1-D operators, so every diagonal entry
    is 4 and the eigenvalues are sums of the 1-D eigenvalues.  Grid point
    ``(ix, iy)`` maps to row ``ix * ny + iy``.
    """
    if nx < 1 or ny < 1:
        raise ValueError("grid dimensions must be >= 1")
    csr = scipy.sparse.kronsum(_laplacian_1d_csr(ny), _laplacian_1d_csr(nx), format="csr")
    return HermitianSparseMatrix._from_csr(csr)


def build_diagonal(entries: np.ndarray) -> HermitianSparseMatrix:
    """Diagonal matrix from a vector of (real) entries."""
    entries = np.asarray(entries, dtype=np.float64)
    if entries.ndim != 1 or entries.size == 0:
        raise ValueError("entries must be a non-empty vector")
    idx = np.arange(entries.size)
    return HermitianSparseMatrix.from_coo(entries.size, idx, idx, entries)


# ---------------------------------------------------------------------------
# Matrix Market I/O (coordinate format, symmetric/hermitian only)
# ---------------------------------------------------------------------------


def read_matrix_market(source) -> HermitianSparseMatrix:
    """Read a coordinate Matrix Market file into a Hermitian sparse matrix.

    Accepts a path or an open text/byte stream.  Only ``symmetric`` and
    ``hermitian`` qualifiers are admitted; ``general`` files are rejected
    because symmetry cannot be certified from one triangle.  Entries must
    store the lower triangle (``i >= j``); the upper triangle is generated by
    conjugation.  Every diagonal entry must be stored, since a Hermitian
    positive definite matrix has ``a_ii > 0``; this is checked before any
    ``O(n)`` array is allocated.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "rb") as fh:
            text = fh.read()
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise MatrixFormatError(
                f"non-ASCII byte {text[exc.start]:#04x} at offset {exc.start}"
            ) from exc
    lines = text.splitlines()
    if not lines:
        raise MatrixFormatError("empty Matrix Market stream")

    header = lines[0].strip().split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        raise MatrixFormatError(f"malformed Matrix Market header: {lines[0]!r}")
    _, obj, fmt, fieldq, symq = (tok.lower() for tok in header)
    if obj != "matrix" or fmt != "coordinate":
        raise MatrixFormatError("only 'matrix coordinate' Matrix Market data is supported")
    if fieldq not in ("real", "complex"):
        raise MatrixFormatError(f"unsupported field qualifier {fieldq!r}")
    if symq == "general":
        raise MatrixFormatError(
            "'general' files are not accepted: Hermitian structure cannot be certified"
        )
    if symq not in ("symmetric", "hermitian"):
        raise MatrixFormatError(f"unsupported symmetry qualifier {symq!r}")

    body = [ln for ln in lines[1:] if ln.strip() and not ln.lstrip().startswith("%")]
    if not body:
        raise MatrixFormatError("missing size line")
    size = body[0].split()
    if len(size) != 3:
        raise MatrixFormatError(f"malformed size line: {body[0]!r}")
    try:
        nrows, ncols, nnz = (int(tok) for tok in size)
    except ValueError as exc:
        raise MatrixFormatError(f"malformed size line: {body[0]!r}") from exc
    if nrows != ncols:
        raise MatrixFormatError(f"matrix must be square, got {nrows} x {ncols}")
    if len(body) - 1 != nnz:
        raise MatrixFormatError(f"expected {nnz} entries, found {len(body) - 1}")

    want = 4 if fieldq == "complex" else 3
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz, dtype=np.complex128 if fieldq == "complex" else np.float64)
    for k, line in enumerate(body[1:]):
        toks = line.split()
        if len(toks) != want:
            raise MatrixFormatError(f"malformed entry line: {line!r}")
        try:
            i, j = int(toks[0]), int(toks[1])
            if fieldq == "complex":
                v = complex(float(toks[2]), float(toks[3]))
            else:
                v = float(toks[2])
        except ValueError as exc:
            raise MatrixFormatError(f"malformed entry line: {line!r}") from exc
        if not (1 <= i <= nrows and 1 <= j <= ncols):
            raise MatrixFormatError(f"entry index ({i}, {j}) out of range for n = {nrows}")
        if i < j:
            raise MatrixFormatError(
                f"entry ({i}, {j}) lies above the diagonal; "
                "symmetric files must store the lower triangle"
            )
        rows[k], cols[k], vals[k] = i - 1, j - 1, v
    stored_diagonal = int(np.count_nonzero(rows == cols))
    if stored_diagonal < nrows:
        raise MatrixFormatError(
            f"matrix is not positive definite: only {stored_diagonal} of {nrows} "
            "diagonal entries are stored"
        )

    off = rows != cols
    full_rows = np.concatenate([rows, cols[off]])
    full_cols = np.concatenate([cols, rows[off]])
    full_vals = np.concatenate([vals, np.conjugate(vals[off])])
    try:
        return HermitianSparseMatrix.from_coo(nrows, full_rows, full_cols, full_vals)
    except ValueError as exc:
        raise MatrixFormatError(str(exc)) from exc


def write_matrix_market(A: HermitianSparseMatrix, dest) -> None:
    """Write the lower triangle in coordinate format.

    Values are formatted with 17 significant digits so that a read-back
    reproduces the stored doubles bit-exactly.
    """
    lower = scipy.sparse.tril(A._csr)
    r, c, v = lower.row, lower.col, lower.data
    is_c = _is_complex(v)
    lines = [
        "%%MatrixMarket matrix coordinate "
        + ("complex hermitian" if is_c else "real symmetric"),
        f"{A.n} {A.n} {r.size}",
    ]
    for i, j, val in zip(r, c, v):
        if is_c:
            lines.append(f"{i + 1} {j + 1} {val.real:.17g} {val.imag:.17g}")
        else:
            lines.append(f"{i + 1} {j + 1} {val:.17g}")
    payload = "\n".join(lines) + "\n"
    if hasattr(dest, "write"):
        dest.write(payload)
    else:
        with open(dest, "w") as fh:
            fh.write(payload)


# ---------------------------------------------------------------------------
# Spectral bounds
# ---------------------------------------------------------------------------


def _lanczos_bottom(A: HermitianSparseMatrix, seed: int, scale: float) -> tuple[float, float]:
    """Bottom Ritz value and its residual from a plain three-term Lanczos recurrence.

    No basis is stored and nothing is re-orthogonalized, so memory is O(n)
    whatever the step count.  Lost orthogonality only adds ghost copies of
    converged Ritz values; the extreme ones still converge (Paige, 1980;
    Parlett, *The Symmetric Eigenvalue Problem*, ch. 13).

    The bottom Ritz pair is checked after ``LANCZOS_INITIAL_STEPS * 2^i``
    steps, capped at ``n``.  The recurrence stops at the first check where
    its relative residual is at most 0.05, at ``n`` steps, or once the
    Krylov space is invariant (a new direction below ``1e-12 * scale``).
    """
    n = A.n
    rng = np.random.default_rng(seed)
    dtype = np.complex128 if _is_complex(A.values) else np.float64
    v = rng.standard_normal(n).astype(dtype)
    v /= np.linalg.norm(v)
    v_prev = np.zeros(n, dtype=dtype)
    alphas, betas = [], []
    beta_prev = 0.0
    check = min(LANCZOS_INITIAL_STEPS, n)
    for j in range(n):
        w = A.matvec(v) - beta_prev * v_prev
        a = np.vdot(v, w).real
        w -= a * v
        b = float(np.linalg.norm(w))
        invariant = b <= 1e-12 * scale
        alphas.append(a)
        betas.append(0.0 if invariant else b)
        if invariant or j + 1 == check:
            theta, Y = eigh_tridiagonal(
                np.array(alphas), np.array(betas[:-1]), select="i", select_range=(0, 0)
            )
            t_lo, r_lo = theta[0], betas[-1] * abs(Y[-1, 0])
            if invariant or j + 1 == n or r_lo <= 0.05 * max(t_lo, np.finfo(float).tiny):
                msg = "Lanczos stopped after %d steps (one product each), bottom Ritz residual %.3e"
                logger.debug(msg, j + 1, r_lo)
                return t_lo, r_lo
            check = min(2 * check, n)
            msg = "bottom Ritz residual %.3e, extending Lanczos to %d steps"
            logger.debug(msg, r_lo, check)
        v_prev, v, beta_prev = v, w / b, b


def estimate_spectral_bounds(A: HermitianSparseMatrix, *, seed: int = 0) -> SpectralBounds:
    """Spectral interval ``[lambda_lo, lambda_hi]`` of a Hermitian positive definite A.

    ``lambda_hi`` is the Gershgorin bound ``max_i a_ii + sum_{j != i}
    |a_ij|``, a guaranteed upper bound on the spectrum that costs no
    product.  Overestimating ``lambda_hi`` only tightens downstream stopping
    thresholds, so this direction is safe.

    ``lambda_lo`` is the bottom Ritz value of :func:`_lanczos_bottom` minus
    its residual, floored at ``1e-12 * lambda_hi``.  A Ritz value minus its
    residual bounds the distance to *some* eigenvalue, not to the smallest
    one, so ``lambda_lo`` is an estimate of the bottom of the spectrum, not
    a guaranteed lower bound.  Underestimating it only widens the probing
    interval.  The recurrence is extended from ``LANCZOS_INITIAL_STEPS``
    steps while the relative residual is large: on matrices with a tiny
    relative gap at the low end (the 1-D Laplacian at n = 1000, say) a fixed
    50-step run overestimates ``lambda_lo`` by orders of magnitude, and the
    node-count needed to cover the resulting fictitious interval becomes
    infeasible.

    A diagonal entry ``a_ii = e_i^* A e_i <= 0`` rules out positive
    definiteness before any product is spent.
    """
    diag = A.diagonal().real
    bad = np.flatnonzero(diag <= 0.0)
    if bad.size:
        k = int(bad[0])
        raise SpectralBoundsError(
            f"matrix is not positive definite: diagonal entry {k} is {diag[k]:.6e}"
        )
    # With every a_ii > 0 the Gershgorin bound is the largest absolute row sum.
    gersh = float(np.max(abs(A._csr) @ np.ones(A.n)))
    t_lo, r_lo = _lanczos_bottom(A, seed, gersh)
    if t_lo <= 0.0:
        raise SpectralBoundsError(
            f"Lanczos found a non-positive Rayleigh quotient ({t_lo:.3e}): "
            "matrix is not positive definite"
        )
    pad = 64.0 * np.finfo(float).eps * max(gersh, 1.0)
    lambda_lo = max(t_lo - r_lo - pad, 1e-12 * gersh)
    return SpectralBounds(lambda_lo, gersh)
