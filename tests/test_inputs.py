"""Every public entry point applies the one check of each input it takes.

The right-hand side, the power alpha, the shifts, the quadrature weights and
the solvers' iteration cap each have one rule, written once in
``fracpow.errors``; each entry point below must reject every bad value with
that rule's message.
"""

import numpy as np
import pytest

from fracpow.error_control import (
    ErrorBudget,
    error_coefficient,
    fracpow_action,
    node_error_bound,
    plan_action,
)
from fracpow.oracle import dense_fracpow_action, dense_shifted_solve
from fracpow.quadrature import ShiftedQuadratureRule, build_rule
from fracpow.shifted_cg import ShiftedSolveRequest, shifted_cg_solve, single_shift_cg
from fracpow.sparse import build_laplacian_1d

A = build_laplacian_1d(8)


def _rhs_with(value: float) -> np.ndarray:
    b = np.ones(A.n)
    b[3] = value
    return b


_FINITE_RHS = "right-hand side must be finite"
_OVERFLOW_RHS = "right-hand side is too large: its squared norm overflows"
_SHIFTS = "shifts must be finite and non-negative"
_ALPHA = r"alpha must lie in \(0, 1\)"
_WEIGHTS = "weights must be positive and finite"
_CAP = "max_iterations must be None or an integer >= 1"

# Per rule: the bad values with the message each raises, and every entry
# point taking the input, as a function of it.
RULES = {
    "rhs": (
        {
            "shape": (np.ones(A.n + 1), r"right-hand side has shape \(9,\), expected \(8,\)"),
            "nan": (_rhs_with(np.nan), _FINITE_RHS),
            "inf": (_rhs_with(np.inf), _FINITE_RHS),
            "overflow": (_rhs_with(1e200), _OVERFLOW_RHS),
        },
        {
            "fracpow_action": lambda b: fracpow_action(A, b, 0.5, ErrorBudget(1e-6)),
            "plan_action": lambda b: plan_action(A, b, 0.5, ErrorBudget(1e-6)),
            "shifted_cg_solve": lambda b: shifted_cg_solve(A, b, ShiftedSolveRequest([1.0], 1e-8)),
            "single_shift_cg": lambda b: single_shift_cg(A, b, 1.0, tol=1e-10),
            "dense_fracpow_action": lambda b: dense_fracpow_action(A, b, 0.5),
            "dense_shifted_solve": lambda b: dense_shifted_solve(A, b, 1.0),
        },
    ),
    "shift": (
        {"nan": (np.nan, _SHIFTS), "inf": (np.inf, _SHIFTS), "negative": (-1.0, _SHIFTS)},
        {
            "single_shift_cg": lambda s: single_shift_cg(A, np.ones(A.n), s, tol=1e-10),
            "error_coefficient": lambda s: error_coefficient(s, 4.0),
            "node_error_bound": lambda s: node_error_bound(1.0, s, 4.0, 1.0),
            "dense_shifted_solve": lambda s: dense_shifted_solve(A, np.ones(A.n), s),
            "ShiftedSolveRequest": lambda s: ShiftedSolveRequest([s], 1e-8),
            "ShiftedQuadratureRule": lambda s: ShiftedQuadratureRule(0.5, "gj1", [s], [1.0]),
        },
    ),
    "alpha": (
        {"zero": (0.0, _ALPHA), "one": (1.0, _ALPHA), "nan": (np.nan, _ALPHA)},
        {
            "fracpow_action": lambda a: fracpow_action(A, np.ones(A.n), a, ErrorBudget(1e-6)),
            "plan_action": lambda a: plan_action(A, np.ones(A.n), a, ErrorBudget(1e-6)),
            "ShiftedQuadratureRule": lambda a: ShiftedQuadratureRule(a, "gj1", [1.0], [1.0]),
            "build_rule": lambda a: build_rule("gj1", a, 4),
            "dense_fracpow_action": lambda a: dense_fracpow_action(A, np.ones(A.n), a),
        },
    ),
    "weights": (
        {
            "nan": (np.nan, _WEIGHTS),
            "inf": (np.inf, _WEIGHTS),
            "zero": (0.0, _WEIGHTS),
            "negative": (-1.0, _WEIGHTS),
        },
        {
            "node_error_bound": lambda w: node_error_bound(1.0, 1.0, 4.0, w),
            "ShiftedQuadratureRule": lambda w: ShiftedQuadratureRule(0.5, "gj1", [1.0], [w]),
        },
    ),
    "iteration-cap": (
        {"zero": (0, _CAP), "negative": (-5, _CAP), "fraction": (2.5, _CAP), "inf": (np.inf, _CAP)},
        {
            "ShiftedSolveRequest": lambda i: ShiftedSolveRequest([1.0], 1e-8, i),
            "single_shift_cg": lambda i: single_shift_cg(A, np.ones(A.n), 1.0, tol=1e-10, max_iterations=i),
        },
    ),
}


@pytest.mark.parametrize(
    ("call", "value", "message"),
    [
        pytest.param(call, value, message, id=f"{entry}-{rule}-{name}")
        for rule, (values, entries) in RULES.items()
        for entry, call in entries.items()
        for name, (value, message) in values.items()
    ],
)
def test_entry_point_rejects_bad_input(call, value, message):
    with pytest.raises(ValueError, match=message):
        call(value)
