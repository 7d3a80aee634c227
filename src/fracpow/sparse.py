"""Sparse Hermitian matrices, model problem generators, and spectral bounds.

Every matrix is built through scipy (COO or DIA to CSR), validated as one
``scipy.sparse.csr_array`` with both triangles present and held in that
form, so a matrix-vector product needs no conjugation logic.  Non-finite
values are rejected.  A matrix whose entries lie on few diagonals runs its
products through scipy's DIA kernel, which gives the CSR product bit for bit
in about half the time.  The generators build the standard Dirichlet
Laplacians used throughout the test-suite, and
:func:`estimate_spectral_bounds` produces an interval ``[lambda_lo,
lambda_hi]`` for the spectrum of a Hermitian positive definite matrix.  The
upper end is the Gershgorin bound, which is guaranteed; the lower end is the
bottom Ritz value of the Lanczos tridiagonal read off the coefficients of a
CG run, started from a fixed seed-0 random vector plus the all-ones vector,
minus its residual.  That is an estimate, since it bounds the distance to
*some* eigenvalue, not to the smallest one.  That CG recurrence,
:func:`_cg_steps`, is also the one both solvers run on.
"""

from __future__ import annotations

import functools
import io
import itertools
import logging
import re
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
import scipy.io
import scipy.sparse
from scipy.linalg import eigh_tridiagonal

from .errors import MatrixFormatError, SolverBreakdownError, SpectralBoundsError

logger = logging.getLogger(__name__)

# Relative slack for "equal up to rounding" checks on stored values.
HERMITIAN_RTOL = 1e-13

# Lanczos steps at the first convergence check of the bottom Ritz pair in
# the spectral-bounds recurrence; each later check comes after twice as many
# steps.
LANCZOS_INITIAL_STEPS = 50

# A CG step whose curvature ``p^H (sigma I + A) p`` is at most this times ``r^H r``
# is a breakdown.
BREAKDOWN_FLOOR = 1e-300

# Estimated ``lambda_lo`` never falls below this fraction of ``lambda_hi``.
LAMBDA_LO_FLOOR = 1e-12


@dataclass(frozen=True)
class HermitianSparseMatrix:
    """Structurally Hermitian sparse matrix in CSR form.

    Invariants checked at construction:

    - the CSR structure passes scipy's ``check_format(full_check=True)``
      (``row_offsets`` of length ``n + 1``, starting at 0, non-decreasing;
      column indices in range), and ``row_offsets`` ends at nnz;
    - column indices are strictly increasing within each row (hence no
      duplicate entries);
    - every value is finite;
    - entry ``(i, j)`` is present exactly when ``(j, i)`` is, and the two
      values agree with conjugation to within ``1e-13`` relative.  A
      diagonal entry ``d`` is its own mirror, so ``|Im d|`` is within half
      that tolerance.

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

        csr = scipy.sparse.csr_array((vals, cols, offsets), shape=(n, n))
        csr.check_format(full_check=True)
        if offsets[-1] != cols.size:  # scipy drops the entries past the last offset
            raise ValueError("row_offsets must end at nnz")
        if not np.all(np.isfinite(vals)):
            raise MatrixFormatError("matrix values are not finite")
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

    @functools.cached_property
    def _product_operator(self) -> scipy.sparse.dia_array | scipy.sparse.csr_array:
        """The array :meth:`matvec` multiplies by, built on the first product.

        When the stored entries lie on ``k`` diagonals with ``k n <= 2 nnz``,
        so that the DIA values take no more memory than CSR's values and
        indices, it is a ``dia_array``; otherwise it is the CSR array.  The
        diagonals are kept in ascending offset order, so for each row the DIA
        kernel adds the products in CSR's (sorted) column order, and every
        padding term adds ``0 * x_j``: the two products agree bit for bit on
        finite ``x``.  The build is not done at construction because a matrix
        that is only validated, written or bounded by Gershgorin never needs
        it.
        """
        n = self.n
        diag_of = self.col_indices - np.repeat(np.arange(n), np.diff(self.row_offsets))
        diag_of += n - 1  # offset col - row, shifted into [0, 2n - 1)
        present = np.zeros(2 * n - 1, dtype=bool)
        present[diag_of] = True
        offsets = np.flatnonzero(present)
        if offsets.size * n > 2 * self.nnz:
            return self._csr
        data = np.zeros((offsets.size, n), dtype=self.values.dtype)
        data[(np.cumsum(present) - 1)[diag_of], self.col_indices] = self.values
        return scipy.sparse.dia_array((data, offsets - (n - 1)), shape=(n, n))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Return ``A @ x``.

        Banded matrices multiply through DIA storage (see
        ``_product_operator``), which matches the CSR product bit for bit
        only on finite ``x``: where a diagonal is padded, DIA adds ``0 *
        x_j``, which is NaN for an infinite ``x_j`` that CSR never reads.
        """
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise ValueError(f"vector length {x.shape} does not match n = {self.n}")
        return self._product_operator @ x

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def diagonal(self) -> np.ndarray:
        return self._csr.diagonal()


def _cg_steps(A: HermitianSparseMatrix, b: np.ndarray, sigma: float, window=None):
    """Conjugate gradient steps on ``(sigma I + A) x = b`` from ``x = 0``, one product each.

    Each step yields ``(alpha, beta, p, r, rnorm)``: the iterate moves by
    ``alpha p``, ``r`` is the new residual, and the next direction is ``r +
    beta p``.  ``p`` and ``r`` are live arrays that the next step overwrites;
    given a k x n ``window``, step ``i`` writes ``r`` into its row ``i mod k``.
    At ``sigma = 0`` a step makes no ``sigma p`` pass.
    The coefficients give the Lanczos tridiagonal of ``(sigma I + A, b)``:
    ``T_jj = 1/alpha_j + beta_(j-1)/alpha_(j-1)``, ``T_(j,j+1) =
    sqrt(beta_j)/alpha_j`` (Saad, *Iterative Methods for Sparse Linear
    Systems*, 2003, section 6.7.3).  A curvature ``p^H (sigma I + A) p`` not
    above ``BREAKDOWN_FLOOR * r^H r`` raises :class:`SolverBreakdownError`;
    being relative, the test lets a residual shrink towards underflow.
    """
    r = b.astype(np.promote_types(b.dtype, A.values.dtype), copy=True)
    p = r.copy()
    tmp = np.empty_like(r)
    rr = float(np.vdot(r, r).real)
    for i, out in enumerate(itertools.repeat(r) if window is None else itertools.cycle(window)):
        q = A.matvec(p)
        if sigma:
            q += np.multiply(sigma, p, out=tmp)
        pq = float(np.vdot(p, q).real)
        if not pq > BREAKDOWN_FLOOR * rr:
            raise SolverBreakdownError(
                f"curvature term {pq:.3e} at iteration {i} is not safely positive; "
                "the operator is numerically singular or indefinite on the Krylov space"
            )
        alpha = rr / pq
        r = np.subtract(r, np.multiply(alpha, q, out=tmp), out=out)
        rr_next = float(np.vdot(r, r).real)
        beta = rr_next / rr
        yield alpha, beta, p, r, np.sqrt(rr_next)
        p *= beta
        p += r
        rr = rr_next


@dataclass(frozen=True)
class SpectralBounds:
    """Spectral interval ``0 < lambda_lo <= lambda_hi`` and how it was made.

    ``method`` is ``given`` for an interval a caller builds.
    :func:`estimate_spectral_bounds` sets ``estimated`` (``lambda_hi`` the
    Gershgorin bound, ``lambda_lo`` a Lanczos estimate of the bottom) or
    ``floored`` (that estimate fell to ``LAMBDA_LO_FLOOR * lambda_hi``).
    """

    lambda_lo: float
    lambda_hi: float
    method: str = "given"
    METHODS: ClassVar[tuple[str, ...]] = ("estimated", "floored", "given")

    def __post_init__(self) -> None:
        lo = float(self.lambda_lo)
        hi = float(self.lambda_hi)
        object.__setattr__(self, "lambda_lo", lo)
        object.__setattr__(self, "lambda_hi", hi)
        if not (0.0 < lo <= hi) or not np.isfinite(hi):
            raise ValueError(f"need 0 < lambda_lo <= lambda_hi, got ({lo}, {hi})")
        if self.method not in self.METHODS:
            raise ValueError(f"unknown interval method {self.method!r}, expected one of {self.METHODS}")


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


# ``%`` comment lines between Matrix Market entries.
_COMMENT_LINES = re.compile(rb"^[ \t\r\v\f]*%[^\n]*(?:\n|\Z)", re.MULTILINE)


def read_matrix_market(source) -> HermitianSparseMatrix:
    """Read a coordinate Matrix Market file into a Hermitian sparse matrix.

    Accepts a path or an open text/byte stream; its content must be ASCII.
    ``scipy.io.mminfo`` reads the banner and size line; ``%`` lines are cut
    from the rest, and one ``np.loadtxt`` parses what remains (skipping blank
    lines), each line exactly two indices and the value.  Only
    ``symmetric`` and ``hermitian`` files are admitted (the symmetry of a
    ``general`` file cannot be certified from one triangle), and they must
    store the lower triangle (``i >= j``).  The mirror is conjugated for
    ``hermitian`` only, so a complex ``symmetric`` file must be real off the
    diagonal.  Every diagonal entry must be stored, since a Hermitian
    positive definite matrix has ``a_ii > 0``; fewer entries than rows are
    rejected before any entry is parsed.
    """
    if hasattr(source, "read"):
        raw = source.read()
    else:
        with open(source, "rb") as fh:
            raw = fh.read()
    if isinstance(raw, str):
        raw = raw.encode()
    if not raw.isascii():
        offset = re.search(rb"[\x80-\xff]", raw).start()
        raise MatrixFormatError(f"non-ASCII byte {raw[offset]:#04x} at offset {offset}")

    lines = io.BytesIO(raw)
    next(lines, None)  # the banner
    for line in lines:
        if line.strip() and not line.lstrip().startswith(b"%"):
            break  # the size line
    header_end = lines.tell()
    try:
        nrows, ncols, nnz, fmt, fieldq, symq = scipy.io.mminfo(io.BytesIO(raw[:header_end]))
    except (ValueError, OverflowError) as exc:
        raise MatrixFormatError(f"malformed Matrix Market header: {exc}") from exc
    if fmt != "coordinate":
        raise MatrixFormatError("only 'matrix coordinate' Matrix Market data is supported")
    if fieldq not in ("real", "complex"):
        raise MatrixFormatError(f"unsupported field qualifier {fieldq!r}")
    if symq == "general":
        raise MatrixFormatError(
            "'general' files are not accepted: Hermitian structure cannot be certified"
        )
    if symq not in ("symmetric", "hermitian"):
        raise MatrixFormatError(f"unsupported symmetry qualifier {symq!r}")
    if nrows != ncols or nrows < 1:
        raise MatrixFormatError(f"matrix must be square and non-empty, got {nrows} x {ncols}")
    if nnz < nrows:
        raise MatrixFormatError(
            f"matrix is not positive definite: {nnz} entries cannot store "
            f"all {nrows} diagonal entries"
        )

    entries = raw[header_end:]
    if b"%" in entries:  # the pass costs about as much as the parse; most files skip it
        entries = _COMMENT_LINES.sub(b"", entries)
    if not entries.strip():  # np.loadtxt warns on empty input
        raise MatrixFormatError(f"expected {nnz} entries, found 0")
    dtype = [("i", np.int64), ("j", np.int64), ("re", np.float64)]
    if fieldq == "complex":
        dtype.append(("im", np.float64))
    try:
        # comments=None: text after the value is an error, not a comment.
        data = np.loadtxt(io.BytesIO(entries), dtype=dtype, ndmin=1, comments=None)
    except ValueError as exc:
        raise MatrixFormatError(f"malformed entry line: {exc}") from exc
    if data.size != nnz:
        raise MatrixFormatError(f"expected {nnz} entries, found {data.size}")
    rows, cols, vals = data["i"] - 1, data["j"] - 1, data["re"]
    if fieldq == "complex":
        vals = vals.astype(np.complex128)
        vals.imag = data["im"]
    bad = np.flatnonzero((cols < 0) | (rows < cols) | (rows >= nrows))
    if bad.size:
        i, j = data["i"][bad[0]], data["j"][bad[0]]
        raise MatrixFormatError(f"entry ({i}, {j}) is not in the lower triangle for n = {nrows}")
    stored_diagonal = int(np.count_nonzero(rows == cols))
    if stored_diagonal < nrows:
        raise MatrixFormatError(
            f"matrix is not positive definite: only {stored_diagonal} of {nrows} "
            "diagonal entries are stored"
        )

    off = rows != cols
    mirror = np.conjugate(vals[off]) if symq == "hermitian" else vals[off]
    full_rows = np.concatenate([rows, cols[off]])
    full_cols = np.concatenate([cols, rows[off]])
    full_vals = np.concatenate([vals, mirror])
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
    is_c = np.iscomplexobj(v)
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


def lanczos_start_vector(n: int) -> np.ndarray:
    """Unit start vector of the bounds recurrence: ``g/||g|| + 1/sqrt(n)``, renormalised.

    ``g`` is the first ``n`` standard normal draws of
    ``np.random.default_rng(0)``, its sign chosen so that ``sum(g) >= 0``.
    The two unit parts then never cancel, and the start keeps at least
    ``1/sqrt(2)`` of its length along the all-ones direction.

    A Stieltjes matrix (positive definite with non-positive off-diagonal
    entries, such as every Dirichlet Laplacian built here) has an entrywise
    positive inverse, so its bottom eigenvector is positive (Perron--Frobenius;
    Varga, *Matrix Iterative Analysis*).  A plain Gaussian start has only
    about ``1/sqrt(n)`` of its length along that vector, and the recurrence
    takes twice as many steps on the ``lap2d`` matrices.  The random part
    keeps every eigencomponent, so on other matrices the start is about
    ``sqrt(2)`` worse in initial angle; a sign-flipped Laplacian ``S L S``
    (same spectrum, ``S`` a random +-1 diagonal) takes the same number of
    steps from either start.
    """
    g = np.random.default_rng(0).standard_normal(n)
    g *= np.copysign(1.0 / np.linalg.norm(g), g.sum())
    v = g + 1.0 / np.sqrt(n)
    return v / np.linalg.norm(v)


def gershgorin_bound(A: HermitianSparseMatrix) -> float:
    """Largest absolute row sum of ``A``, an upper bound on its spectrum.

    With every ``a_ii > 0`` this is the Gershgorin bound ``max_i a_ii +
    sum_{j != i} |a_ij|``.  It costs no product.
    """
    return float(np.max(abs(A._csr) @ np.ones(A.n)))


def estimate_spectral_bounds(A: HermitianSparseMatrix) -> SpectralBounds:
    """Spectral interval ``[lambda_lo, lambda_hi]`` of a Hermitian positive definite A.

    ``lambda_hi`` is :func:`gershgorin_bound`, a guaranteed upper bound on
    the spectrum that costs no product.  Overestimating ``lambda_hi`` only
    tightens downstream stopping thresholds, so this direction is safe.

    ``lambda_lo`` is the bottom Ritz value of the Lanczos tridiagonal read
    off the coefficients of a CG run on ``A`` (:func:`_cg_steps` at shift
    0), minus its residual and ``64 eps lambda_hi`` (method ``estimated``),
    or ``LAMBDA_LO_FLOOR * lambda_hi`` where that is no larger (method
    ``floored``).  LAPACK sees the tridiagonal scaled by a power of two
    towards 1, so the interval of ``2^e A`` is ``2^e`` times that of ``A``.
    A Ritz value minus its residual bounds the distance to *some* eigenvalue,
    not to the smallest one, so ``lambda_lo`` is an estimate, not a
    guaranteed lower bound, whatever the start vector.  Underestimating it
    only widens the probing interval.  The start is :func:`lanczos_start_vector`, so the
    interval is a function of ``A`` alone.  No basis is stored, so memory is
    O(n); lost orthogonality only adds ghost copies of converged Ritz values,
    and the extreme ones still converge (Paige, 1980; Parlett, *The
    Symmetric Eigenvalue Problem*, ch. 13).

    The bottom Ritz pair is checked after ``LANCZOS_INITIAL_STEPS * 2^i``
    steps, capped at ``n``: a fixed 50-step run overestimates ``lambda_lo``
    by orders of magnitude where the low end's relative gap is tiny (the 1-D
    Laplacian at n = 1000, say).  The run stops at the first check where the
    relative residual is at most 0.05, at ``n`` steps, once the Krylov
    space is invariant (a next off-diagonal at most ``1e-12 * lambda_hi``),
    or once the residual has run out, as on a clustered spectrum.

    A diagonal entry ``a_ii = e_i^* A e_i <= 0`` rules out positive
    definiteness before any product is spent, and a CG breakdown (a
    curvature ``p^H A p`` that is not safely positive) on the way.
    """
    diag = A.diagonal().real
    bad = np.flatnonzero(diag <= 0.0)
    if bad.size:
        k = int(bad[0])
        raise SpectralBoundsError(
            f"matrix is not positive definite: diagonal entry {k} is {diag[k]:.6e}"
        )
    gersh = gershgorin_bound(A)
    e = np.frexp(gersh)[1]  # gersh / 2^e lies in [1/2, 1)
    n = A.n
    diagonal, off_diagonal = [], []
    carry = 0.0  # beta_(j-1) / alpha_(j-1), zero at the first step
    check = min(LANCZOS_INITIAL_STEPS, n)
    steps = enumerate(_cg_steps(A, lanczos_start_vector(n), 0.0), 1)
    try:
        for j, (alpha, beta, _, _, rnorm) in steps:
            diagonal.append(1.0 / alpha + carry)
            carry = beta / alpha
            off = np.sqrt(beta) / alpha
            invariant = off <= 1e-12 * gersh
            # The next curvature is at least lambda_min * rnorm^2: stop before
            # it can leave the normal range for a lambda_min above the floor.
            exhausted = rnorm**2 * LAMBDA_LO_FLOOR * gersh < np.finfo(float).tiny
            off_diagonal.append(0.0 if invariant else off)
            last = invariant or exhausted or j == n
            if last or j == check:
                T = np.ldexp(diagonal, -e), np.ldexp(off_diagonal[:-1], -e)
                theta, Y = eigh_tridiagonal(*T, select="i", select_range=(0, 0))
                t_lo, r_lo = np.ldexp(theta[0], e), off_diagonal[-1] * abs(Y[-1, 0])
                if last or r_lo <= 0.05 * max(t_lo, np.finfo(float).tiny):
                    break
                check = min(2 * check, n)
                logger.debug("bottom Ritz residual %.3e, extending Lanczos to %d steps", r_lo, check)
    except SolverBreakdownError as exc:
        raise SpectralBoundsError(
            f"matrix is not positive definite: CG found a non-positive Rayleigh quotient ({exc})"
        ) from exc
    msg = "Lanczos stopped after %d steps (one product each), bottom Ritz residual %.3e"
    logger.debug(msg, j, r_lo)
    estimate = t_lo - r_lo - 64.0 * np.finfo(float).eps * gersh
    floor = LAMBDA_LO_FLOOR * gersh
    if estimate > floor:
        return SpectralBounds(estimate, gersh, "estimated")
    return SpectralBounds(floor, gersh, "floored")
