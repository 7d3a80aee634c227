"""The benchmark's workloads: what each one runs, on which inputs, and why.

Each workload is a fixed sequence of cells, one ``fracpow_action`` call per
cell; a run repeats whole passes over the sequence. ``why()`` is the one-line
rationale that ``BENCHMARK.json`` carries for the workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np


@dataclass(frozen=True)
class Cell:
    """Parameters of one action: matrix spec (``cli.build_matrix`` grammar), power, tolerance, family."""

    spec: str
    alpha: float
    epsilon: float
    family: str


@dataclass(frozen=True)
class Workload:
    """A named, fixed sequence of actions and how their inputs are made.

    ``rhs`` is ``"normal"`` (a fresh standard-normal ``b`` per action, drawn
    from the run's seed and the action's index) or ``"ones"``.
    ``reuse_bounds`` estimates the spectral bounds once per matrix in set-up
    and passes them to every action. ``matrix_market`` writes each matrix to
    a Matrix Market file and loads it through ``mm:<path>``. ``reference`` is
    ``"dst"`` (exact Laplacian reference of ``reference.py``) or
    ``"dense_oracle"`` (``fracpow.oracle.dense_fracpow_action``). ``heavy``
    and ``light`` name the layers the workload is meant to load heavily and
    lightly, so a performance change can name a claim and a control workload.
    """

    name: str
    cells: tuple[Cell, ...]
    rhs: str
    reuse_bounds: bool
    matrix_market: bool
    reference: str
    heavy: tuple[str, ...]
    light: tuple[str, ...]
    reason: str

    @property
    def specs(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(cell.spec for cell in self.cells))

    def rhs_vector(self, seed: int, index: int, n: int) -> np.ndarray:
        """Right-hand side of action ``index``; depends only on the seed and the index."""
        if self.rhs == "ones":
            return np.ones(n)
        return np.random.default_rng([seed, index]).standard_normal(n)

    def why(self) -> str:
        def values(attr: str) -> str:
            seen = (getattr(c, attr) for c in self.cells)
            return ",".join(dict.fromkeys(v if isinstance(v, str) else f"{v:g}" for v in seen))

        via = " via mm:" if self.matrix_market else ""
        rhs = "seeded N(0,1) per action" if self.rhs == "normal" else self.rhs
        return (
            f"{','.join(self.specs)}{via} {values('family')} a={values('alpha')} "
            f"eps={values('epsilon')} b={rhs}, {len(self.cells)}/pass; {self.reason}; "
            f"heavy {','.join(self.heavy)}; light {','.join(self.light)}"
        )


# The shipped verification grid, spelled out here so that the benchmark does
# not follow a later change to the CLI's defaults. The failing gj1 cell
# (lap1d:1000, alpha 0.2, eps 1e-9) stays in place.
GRID_CELLS = tuple(
    Cell(spec, alpha, epsilon, family)
    for spec, alpha, epsilon, family in product(
        ("lap1d:1000", "lap2d:32x32"), (0.2, 0.5), (1e-3, 1e-6, 1e-9), ("gj1", "gj2", "de")
    )
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cold_lap2d",
            cells=(Cell("lap2d:150x150", 0.5, 1e-6, "de"),),
            rhs="normal",
            reuse_bounds=False,
            matrix_market=False,
            reference="dst",
            heavy=("sparse.bounds",),
            light=("quadrature",),
            reason="one-shot call, full pipeline with bounds in every action",
        ),
        Workload(
            name="warm_mm_lap2d",
            cells=(Cell("lap2d:150x150", 0.2, 1e-9, "gj2"),),
            rhs="normal",
            reuse_bounds=True,
            matrix_market=True,
            reference="dst",
            heavy=("shifted_cg",),
            light=("sparse.bounds", "quadrature"),
            reason="repeated application: load and bounds once in set-up",
        ),
        Workload(
            name="grid_oracle",
            cells=GRID_CELLS,
            rhs="ones",
            reuse_bounds=True,
            matrix_market=False,
            reference="dense_oracle",
            heavy=("quadrature",),
            light=("sparse.matvec",),
            reason="verify grid: rule search, many shifts on small n",
        ),
    )
}
