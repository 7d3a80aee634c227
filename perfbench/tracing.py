"""Spans and product counts recorded from the benchmark's side of each call.

The traced run replays ``fracpow_action`` stage by stage through the
package's public functions, in ``fracpow_action``'s order, and wraps each call in a
span. Products are counted and timed by ``CountingMatrix``, a
``HermitianSparseMatrix`` whose ``matvec`` is metered; every product the
pipeline makes through ``matvec`` is seen, wherever it happens. Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from fracpow import (
    ErrorBudget,
    HermitianSparseMatrix,
    ProbeSpec,
    ShiftedQuadratureRule,
    ShiftedSolveReport,
    ShiftedSolveRequest,
    SpectralBounds,
    estimate_spectral_bounds,
    node_error_bound,
    probe_error,
    residual_thresholds,
    select_node_count,
    shifted_cg_solve,
)
from fracpow.error_control import check_tolerance, scalar_probe

ROOT_SPAN = "error_control.fracpow_action"


@dataclass
class ProductMeter:
    """Running count and wall time of matrix-vector products."""

    calls: int = 0
    seconds: float = 0.0


class CountingMatrix(HermitianSparseMatrix):
    """A ``HermitianSparseMatrix`` whose products are counted and timed."""

    meter: ProductMeter

    @classmethod
    def wrap(cls, A: HermitianSparseMatrix, meter: ProductMeter) -> "CountingMatrix":
        counted = cls(A.n, A.row_offsets, A.col_indices, A.values)
        object.__setattr__(counted, "meter", meter)
        return counted

    def matvec(self, x: np.ndarray) -> np.ndarray:
        start = perf_counter()
        y = super().matvec(x)
        self.meter.seconds += perf_counter() - start
        self.meter.calls += 1
        return y


@dataclass
class Span:
    """One timed call. ``action`` is ``"setup:<rep>"`` or ``"action:<k>"``;
    ``parent`` indexes the enclosing span in the tracer's list."""

    name: str
    action: str
    parent: int | None
    start: float
    end: float = math.nan
    matvecs: int = 0
    matvec_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans and the product counts made inside each."""

    def __init__(self) -> None:
        self.meter = ProductMeter()
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, action: str):
        record = Span(name, action, self._open[-1] if self._open else None, perf_counter())
        calls, seconds = self.meter.calls, self.meter.seconds
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = perf_counter()
            record.matvecs = self.meter.calls - calls
            record.matvec_s = self.meter.seconds - seconds
            self._open.pop()


def maybe_span(tracer: Tracer | None, name: str, action: str):
    return nullcontext() if tracer is None else tracer.span(name, action)


@dataclass(frozen=True)
class Replica:
    """What the traced replay of one action produced."""

    y: np.ndarray
    rule: ShiftedQuadratureRule
    bounds: SpectralBounds
    report: ShiftedSolveReport
    probe: ProbeSpec
    certified: bool


def traced_action(
    A: CountingMatrix,
    b: np.ndarray,
    alpha: float,
    budget: ErrorBudget,
    family: str,
    bounds: SpectralBounds | None,
    tracer: Tracer,
    action: str,
) -> Replica:
    """Replay ``fracpow_action(A, b, alpha, budget, family, bounds=bounds)`` under spans.

    The stages and their arguments are those of ``fracpow_action``, so the result is
    bit-identical to an untraced call on the same inputs; the run checks this.
    A ``FracpowError`` propagates as it would from ``fracpow_action``.
    """

    def span(name: str):
        return tracer.span(name, action)

    with span(ROOT_SPAN):
        bnorm = float(np.linalg.norm(b))
        if bounds is None:
            with span("sparse.estimate_spectral_bounds"):
                bounds = estimate_spectral_bounds(A)
        with span("error_control.check_tolerance"):
            check_tolerance(budget, bnorm, bounds.lambda_hi, alpha)
        with span("error_control.scalar_probe"):
            probe = scalar_probe(budget, bounds, bnorm)
        with span("quadrature.select_node_count"):
            rule = select_node_count(family, alpha, bounds, probe)
        with span("error_control.residual_thresholds"):
            thresholds = residual_thresholds(rule, budget, bounds.lambda_hi)
        with span("shifted_cg.shifted_cg_solve"):
            solutions, report = shifted_cg_solve(
                A, b, ShiftedSolveRequest(rule.shifts, thresholds, None)
            )
        with span("error_control.assemble"):
            y = A.matvec(rule.weights @ solutions)
        with span("error_control.certify"):
            node_error_bound(report.final_residual_norms, rule.shifts, bounds.lambda_hi, rule.weights)
            certified = bool(
                np.all(report.final_residual_norms <= thresholds)
                and probe_error(rule, probe.probe_values) <= probe.budget
            )
    return Replica(y, rule, bounds, report, probe, certified)
