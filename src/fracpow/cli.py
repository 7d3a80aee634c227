"""Command-line front end: compute, thresholds, bound-trace, verify.

Exit codes: 0 success (and certified, for ``compute``), 1 input or
configuration error, 2 result computed but not certified, 3 verification
grid failure.  Output artifacts are byte-stable for a fixed configuration:
no timestamps, floats serialized with 17 significant digits in CSV and
shortest round-trip form in JSON.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FracpowError, ToleranceFloorError
from .error_control import (
    ErrorBudget,
    check_tolerance,
    error_coefficient,
    fracpow_action,
    residual_thresholds,
    scalar_probe,
)
from .oracle import absolute_error, hpd_eigendecomposition
from .quadrature import FAMILIES, select_node_count
from .shifted_cg import single_shift_cg
from .sparse import (
    HermitianSparseMatrix,
    build_diagonal,
    build_laplacian_1d,
    build_laplacian_2d,
    estimate_spectral_bounds,
    read_matrix_market,
)

logger = logging.getLogger(__name__)

VERIFY_MATRICES = ("lap1d:1000", "lap2d:32x32")
VERIFY_ALPHAS = (0.2, 0.5)
VERIFY_EPSILONS = (1e-3, 1e-6, 1e-9)


@dataclass(frozen=True)
class RunConfig:
    """One resolved command configuration."""

    matrix: str
    alpha: float
    epsilon: float
    family: str = "de"
    quad_share: float = 0.5
    solve_share: float = 0.5
    rhs_path: str | None = None
    out_path: str | None = None
    out_format: str = "json"
    max_iterations: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.matrix:
            raise ValueError("a matrix source is required")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.out_format not in ("json", "csv"):
            raise ValueError(f"unknown output format {self.out_format!r}")


def build_matrix(spec: str) -> HermitianSparseMatrix:
    """Construct a matrix from a source spec.

    Grammar: ``lap1d:<n>``, ``lap2d:<nx>x<ny>``, ``mm:<path>``,
    ``diag:<v1,v2,...>``.
    """
    kind, sep, arg = spec.partition(":")
    if not sep or not arg:
        raise ValueError(f"malformed matrix spec {spec!r}; expected kind:argument")
    try:
        if kind == "lap1d":
            return build_laplacian_1d(int(arg))
        if kind == "lap2d":
            nx_s, sep2, ny_s = arg.partition("x")
            if not sep2:
                raise ValueError("lap2d spec must be lap2d:<nx>x<ny>")
            return build_laplacian_2d(int(nx_s), int(ny_s))
        if kind == "mm":
            return read_matrix_market(arg)
        if kind == "diag":
            return build_diagonal([float(v) for v in arg.split(",")])
    except ValueError as exc:
        raise ValueError(f"invalid matrix spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown matrix kind {kind!r}; expected lap1d, lap2d, mm or diag")


def _load_rhs(path: str, n: int) -> np.ndarray:
    b = np.loadtxt(path, dtype=np.float64, ndmin=1)
    if b.shape != (n,):
        raise ValueError(f"right-hand side in {path!r} has shape {b.shape}, expected ({n},)")
    return b


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text, encoding="utf-8")


def _vector_payload(y: np.ndarray) -> list:
    if np.iscomplexobj(y):
        return [[float(v.real), float(v.imag)] for v in y]
    return [float(v) for v in y]


def _setup(config: RunConfig):
    A = build_matrix(config.matrix)
    b = np.ones(A.n) if config.rhs_path is None else _load_rhs(config.rhs_path, A.n)
    budget = ErrorBudget(config.epsilon, config.quad_share, config.solve_share)
    bounds = estimate_spectral_bounds(A, seed=config.seed)
    return A, b, budget, bounds


def cmd_compute(config: RunConfig) -> int:
    """Run the full pipeline; write the result artifact; 0 iff certified."""
    A, b, budget, bounds = _setup(config)
    result = fracpow_action(
        A,
        b,
        config.alpha,
        budget,
        config.family,
        bounds=bounds,
        max_iterations=config.max_iterations,
    )
    if config.out_format == "json":
        payload = result.to_json_dict()
        payload["y"] = _vector_payload(result.y)
        text = json.dumps(payload, indent=2) + "\n"
    else:
        if np.iscomplexobj(result.y):
            text = _csv_text(
                ["re", "im"], [[_fmt(v.real), _fmt(v.imag)] for v in result.y]
            )
        else:
            text = _csv_text(["y"], [[_fmt(v)] for v in result.y])
    _emit(text, config.out_path)
    report = result.report
    print(
        f"m={result.rule.m} matvecs={report.total_matvecs} "
        f"verification_matvecs={report.verification_matvecs} "
        f"error_bound_sum={result.error_bound_sum:.3e} "
        f"certified={'yes' if result.certified else 'no'}",
        file=sys.stderr,
    )
    return 0 if result.certified else 2


def cmd_thresholds(config: RunConfig) -> int:
    """Emit the per-node stopping thresholds for the selected rule."""
    A, b, budget, bounds = _setup(config)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        raise ValueError("right-hand side is zero; thresholds are undefined")
    check_tolerance(budget, bnorm, bounds.lambda_hi, config.alpha)
    rule = select_node_count(
        config.family, config.alpha, bounds, scalar_probe(budget, bounds, bnorm)
    )
    taus = residual_thresholds(rule, budget, bounds.lambda_hi)
    if config.out_format == "json":
        payload = [
            {
                "k": k + 1,
                "sigma": float(rule.shifts[k]),
                "omega": float(rule.weights[k]),
                "tau": float(taus[k]),
            }
            for k in range(rule.m)
        ]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        rows = [
            [str(k + 1), _fmt(rule.shifts[k]), _fmt(rule.weights[k]), _fmt(taus[k])]
            for k in range(rule.m)
        ]
        text = _csv_text(["k", "sigma", "omega", "tau"], rows)
    _emit(text, config.out_path)
    return 0


def cmd_bound_trace(config: RunConfig, shifts: list[float]) -> int:
    """Per-iteration CG error trace against the residual-based bound.

    For each shift, every row records the measured error
    ``||A (sigma I + A)^(-1) b - A x_i||_2`` (against a dense reference
    solve) next to the certified bound ``||r_i|| / (1 + sigma/lambda_hi)``.
    Requires an oracle-sized matrix.
    """
    A = build_matrix(config.matrix)
    b = np.ones(A.n) if config.rhs_path is None else _load_rhs(config.rhs_path, A.n)
    w, Q = hpd_eigendecomposition(A)
    bounds = estimate_spectral_bounds(A, seed=config.seed)
    rows: list[list[str]] = []
    payload: list[dict] = []

    def add_row(iteration: int, sigma: float, measured: float, bound: float) -> None:
        rows.append([str(iteration), _fmt(sigma), _fmt(measured), _fmt(bound)])
        payload.append(
            {
                "iteration": iteration,
                "shift": sigma,
                "measured_error": measured,
                "error_bound": bound,
            }
        )

    for sigma in shifts:
        # A (sigma I + A)^{-1} b via the transfer w/(w+sigma) in (0, 1]; this
        # avoids forming the 1/lambda_min-amplified intermediate solve.
        target = Q @ ((w / (w + sigma)) * (Q.T @ b))
        coefficient = error_coefficient(sigma, bounds.lambda_hi)
        add_row(0, sigma, float(np.linalg.norm(target)), coefficient * float(np.linalg.norm(b)))

        def trace(
            iteration: int,
            x: np.ndarray,
            r: np.ndarray,
            *,
            sigma: float = sigma,
            target: np.ndarray = target,
            coefficient: float = coefficient,
        ) -> None:
            measured = float(np.linalg.norm(target - A.matvec(x)))
            add_row(iteration, sigma, measured, coefficient * float(np.linalg.norm(r)))

        single_shift_cg(
            A,
            b,
            sigma,
            tol=config.epsilon,
            max_iterations=config.max_iterations,
            callback=trace,
        )
    if config.out_format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = _csv_text(["iteration", "shift", "measured_error", "error_bound"], rows)
    _emit(text, config.out_path)
    return 0


def _verify_cell(A, b, bounds, y_ref, alpha, epsilon, family, quad_share, solve_share):
    budget = ErrorBudget(epsilon, quad_share, solve_share)
    result = fracpow_action(A, b, alpha, budget, family, bounds=bounds)
    error = absolute_error(result.y, y_ref)
    return result.rule.m, error, error <= epsilon


def cmd_verify(
    matrices: list[str],
    alphas: list[float],
    epsilons: list[float],
    families: list[str],
    *,
    quad_share: float = 0.5,
    solve_share: float = 0.5,
    jobs: int = 1,
    out_path: str | None = None,
    out_format: str = "csv",
    seed: int = 0,
) -> int:
    """Run the verification grid: pipeline vs dense oracle per cell.

    Writes one row per cell (matrix, alpha, eps, family, m, error, pass) in
    deterministic grid order; exit 0 iff every cell's error is at most its
    epsilon, else 3 with failing cells listed.
    """
    prepared = {}
    for spec in matrices:
        A = build_matrix(spec)
        b = np.ones(A.n)
        bounds = estimate_spectral_bounds(A, seed=seed)
        w, Q = hpd_eigendecomposition(A)
        qtb = Q.T @ b
        refs = {alpha: Q @ (w**alpha * qtb) for alpha in alphas}
        prepared[spec] = (A, b, bounds, refs)

    cells = [
        (spec, alpha, epsilon, family)
        for spec in matrices
        for alpha in alphas
        for epsilon in epsilons
        for family in families
    ]

    def run(cell):
        spec, alpha, epsilon, family = cell
        A, b, bounds, refs = prepared[spec]
        return _verify_cell(
            A, b, bounds, refs[alpha], alpha, epsilon, family, quad_share, solve_share
        )

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(run, cells))
    else:
        outcomes = [run(cell) for cell in cells]

    rows = []
    payload = []
    failures = []
    for (spec, alpha, epsilon, family), (m, error, passed) in zip(cells, outcomes):
        rows.append(
            [spec, _fmt(alpha), _fmt(epsilon), family, str(m), _fmt(error),
             "true" if passed else "false"]
        )
        payload.append(
            {
                "matrix": spec,
                "alpha": alpha,
                "eps": epsilon,
                "family": family,
                "m": m,
                "error": error,
                "pass": passed,
            }
        )
        print(
            f"{spec:<12} alpha={alpha:<4g} eps={epsilon:<6g} {family:<4} "
            f"m={m:<6d} error={error:.3e} {'PASS' if passed else 'FAIL'}"
        )
        if not passed:
            failures.append(f"{spec} alpha={alpha:g} eps={epsilon:g} {family}")
    if out_path is not None:
        header = ["matrix", "alpha", "eps", "family", "m", "error", "pass"]
        if out_format == "json":
            _emit(json.dumps(payload, indent=2) + "\n", out_path)
        else:
            _emit(_csv_text(header, rows), out_path)
    print(f"{len(cells) - len(failures)}/{len(cells)} cells passed")
    if failures:
        print("failed cells:", file=sys.stderr)
        for item in failures:
            print(f"  {item}", file=sys.stderr)
        return 3
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _str_list(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip()]


def _add_common(sub: argparse.ArgumentParser, *, need_alpha: bool) -> None:
    sub.add_argument("--matrix", required=True, help="matrix source: lap1d:<n>, lap2d:<nx>x<ny>, mm:<path>, diag:<v1,...>")
    if need_alpha:
        sub.add_argument("--alpha", type=float, required=True, help="fractional power in (0, 1)")
        sub.add_argument("--eps", type=float, required=True, help="total error tolerance (2-norm, absolute)")
        sub.add_argument("--family", choices=FAMILIES, default="de", help="quadrature family (default de)")
        sub.add_argument("--quad-share", type=float, default=0.5, help="budget share for quadrature error (default 0.5)")
        sub.add_argument("--solve-share", type=float, default=0.5, help="budget share for solve error (default 0.5)")
    sub.add_argument("--rhs", default=None, help="right-hand side file, one value per line (default: all ones)")
    sub.add_argument("--out", default=None, help="output artifact path (default: stdout)")
    sub.add_argument("--format", choices=("json", "csv"), default=None, help="artifact format")
    sub.add_argument("--seed", type=int, default=0, help="seed for the spectral bound estimator")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fracpow", description="Certified actions of matrix fractional powers: y = A^alpha b.")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    compute = commands.add_parser("compute", help="compute y = A^alpha b with a certified error budget")
    _add_common(compute, need_alpha=True)
    compute.add_argument("--max-iter", type=int, default=None, help="CG iteration cap (default 10 n)")

    thresholds = commands.add_parser("thresholds", help="emit per-node residual stopping thresholds")
    _add_common(thresholds, need_alpha=True)

    trace = commands.add_parser("bound-trace", help="per-iteration CG error vs certified bound (oracle-sized matrices)")
    _add_common(trace, need_alpha=False)
    trace.add_argument("--shifts", type=_float_list, default=[0.1, 1.0, 10.0, 100.0], help="comma-separated shifts (default 0.1,1,10,100)")
    trace.add_argument("--eps", type=float, default=1e-12, help="absolute residual stopping value per shift (default 1e-12)")
    trace.add_argument("--max-iter", type=int, default=None, help="CG iteration cap (default 10 n)")

    verify = commands.add_parser("verify", help="run the verification grid against the dense oracle")
    verify.add_argument("--matrix", action="append", default=None, help="matrix spec, repeatable (default: the full verification grid)")
    verify.add_argument("--alpha", type=_float_list, default=list(VERIFY_ALPHAS), help="comma-separated alpha values")
    verify.add_argument("--eps", type=_float_list, default=list(VERIFY_EPSILONS), help="comma-separated tolerances")
    verify.add_argument("--family", type=_str_list, default=list(FAMILIES), help="comma-separated families")
    verify.add_argument("--quad-share", type=float, default=0.5)
    verify.add_argument("--solve-share", type=float, default=0.5)
    verify.add_argument("--jobs", type=_positive_int, default=1, help="number of grid cells to run concurrently")
    verify.add_argument("--out", default=None, help="write the report table to this path")
    verify.add_argument("--format", choices=("json", "csv"), default=None)
    verify.add_argument("--seed", type=int, default=0)
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "compute":
        config = RunConfig(
            matrix=args.matrix,
            alpha=args.alpha,
            epsilon=args.eps,
            family=args.family,
            quad_share=args.quad_share,
            solve_share=args.solve_share,
            rhs_path=args.rhs,
            out_path=args.out,
            out_format=args.format or "json",
            max_iterations=args.max_iter,
            seed=args.seed,
        )
        return cmd_compute(config)
    if args.command == "thresholds":
        config = RunConfig(
            matrix=args.matrix,
            alpha=args.alpha,
            epsilon=args.eps,
            family=args.family,
            quad_share=args.quad_share,
            solve_share=args.solve_share,
            rhs_path=args.rhs,
            out_path=args.out,
            out_format=args.format or "csv",
            seed=args.seed,
        )
        return cmd_thresholds(config)
    if args.command == "bound-trace":
        config = RunConfig(
            matrix=args.matrix,
            alpha=0.5,
            epsilon=args.eps,
            rhs_path=args.rhs,
            out_path=args.out,
            out_format=args.format or "csv",
            max_iterations=args.max_iter,
            seed=args.seed,
        )
        shifts = args.shifts
        if not shifts:
            raise ValueError("at least one shift is required")
        if any(s < 0.0 for s in shifts):
            raise ValueError("shifts must be non-negative")
        return cmd_bound_trace(config, shifts)
    if args.command == "verify":
        for family in args.family:
            if family not in FAMILIES:
                raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
        return cmd_verify(
            args.matrix if args.matrix is not None else list(VERIFY_MATRICES),
            args.alpha,
            args.eps,
            args.family,
            quad_share=args.quad_share,
            solve_share=args.solve_share,
            jobs=args.jobs,
            out_path=args.out,
            out_format=args.format or "csv",
            seed=args.seed,
        )
    raise ValueError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    level_name = os.environ.get("FRACPOW_LOG", "").upper()
    if level_name:
        logging.basicConfig(
            level=getattr(logging, level_name, logging.INFO),
            stream=sys.stderr,
            format="%(levelname)s %(name)s: %(message)s",
        )
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except ToleranceFloorError as exc:
        print(f"fracpow: error: tolerance below double-precision floor ({exc})", file=sys.stderr)
        return 1
    except FracpowError as exc:
        print(f"fracpow: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"fracpow: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
