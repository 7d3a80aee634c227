"""Certified actions of matrix fractional powers.

Computes ``y = A^alpha b`` for Hermitian positive definite ``A`` and
``0 < alpha < 1`` by quadrature over an integral representation of
``A^alpha``, solving all shifted systems ``(sigma_k I + A) x_k = b`` with a
multi-shift conjugate gradient method.  Per-node residual stopping
thresholds certify that the total error stays below a prescribed tolerance.

Typical use::

    from fracpow import ErrorBudget, build_laplacian_1d, fracpow_action

    A = build_laplacian_1d(1000)
    result = fracpow_action(A, b, alpha=0.5, budget=ErrorBudget(1e-9))
    y = result.y
"""

from .errors import (
    BudgetUnreachableError,
    FracpowError,
    MatrixFormatError,
    QuadratureConstructionError,
    SolverBreakdownError,
    SpectralBoundsError,
    ToleranceFloorError,
)
from .error_control import (
    ActionResult,
    ErrorBudget,
    error_coefficient,
    fracpow_action,
    node_error_bound,
    residual_thresholds,
    tolerance_floor,
)
from .oracle import (
    absolute_error,
    dense_fracpow_action,
    dense_shifted_solve,
)
from .quadrature import (
    FAMILIES,
    ProbeSpec,
    ShiftedQuadratureRule,
    build_rule,
    gauss_jacobi_nodes,
    probe_error,
    probe_values_from_bounds,
    scalar_apply,
    select_node_count,
)
from .shifted_cg import (
    ShiftedSolveReport,
    ShiftedSolveRequest,
    shifted_cg_solve,
    single_shift_cg,
)
from .sparse import (
    HermitianSparseMatrix,
    SpectralBounds,
    build_diagonal,
    build_laplacian_1d,
    build_laplacian_2d,
    estimate_spectral_bounds,
    read_matrix_market,
    write_matrix_market,
)

__version__ = "0.1.0"

__all__ = [
    "ActionResult",
    "BudgetUnreachableError",
    "ErrorBudget",
    "FAMILIES",
    "FracpowError",
    "HermitianSparseMatrix",
    "MatrixFormatError",
    "ProbeSpec",
    "QuadratureConstructionError",
    "ShiftedQuadratureRule",
    "ShiftedSolveReport",
    "ShiftedSolveRequest",
    "SolverBreakdownError",
    "SpectralBounds",
    "SpectralBoundsError",
    "ToleranceFloorError",
    "absolute_error",
    "build_diagonal",
    "build_laplacian_1d",
    "build_laplacian_2d",
    "build_rule",
    "dense_fracpow_action",
    "dense_shifted_solve",
    "error_coefficient",
    "estimate_spectral_bounds",
    "fracpow_action",
    "gauss_jacobi_nodes",
    "node_error_bound",
    "probe_error",
    "probe_values_from_bounds",
    "read_matrix_market",
    "residual_thresholds",
    "scalar_apply",
    "select_node_count",
    "shifted_cg_solve",
    "single_shift_cg",
    "tolerance_floor",
    "write_matrix_market",
    "__version__",
]
