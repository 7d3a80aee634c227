"""Command-line front end: compute, thresholds, bound-trace, verify.

Exit codes: 0 success (and certified, for ``compute``), 1 input or
configuration error, 2 result computed but not certified, 3 verification
grid failure.  Argument values are checked as they are parsed, so a bad
value exits 1 before any matrix is built.  Output artifacts are byte-stable
for a fixed configuration: no timestamps, floats serialized with 17
significant digits in CSV and shortest round-trip form in JSON.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .errors import FracpowError, ToleranceFloorError
from .error_control import (
    ErrorBudget,
    check_tolerance,
    choose_rule,
    error_coefficient,
    fracpow_action,
    residual_thresholds,
    scalar_probe,
)
from .oracle import absolute_error, hpd_eigendecomposition
from .quadrature import FAMILIES
from .shifted_cg import single_shift_cg
from .sparse import (
    HermitianSparseMatrix,
    build_diagonal,
    build_laplacian_1d,
    build_laplacian_2d,
    estimate_spectral_bounds,
    read_matrix_market,
)

VERIFY_MATRICES = ("lap1d:1000", "lap2d:32x32")
VERIFY_ALPHAS = (0.2, 0.5)
VERIFY_EPSILONS = (1e-3, 1e-6, 1e-9)


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


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text, encoding="utf-8")


def _emit_table(header: list[str], records: list[tuple], fmt: str, out_path: str | None) -> None:
    """Write ``records`` as CSV rows under ``header``, or as a JSON list of objects."""
    if fmt == "json":
        text = json.dumps([dict(zip(header, rec)) for rec in records], indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_csv_cell(v) for v in rec] for rec in records)
        text = buf.getvalue()
    _emit(text, out_path)


def _load_problem(args: argparse.Namespace):
    A = build_matrix(args.matrix)
    b = np.ones(A.n) if args.rhs is None else _load_rhs(args.rhs, A.n)
    return A, b


def _setup(args: argparse.Namespace):
    budget = ErrorBudget(args.eps, args.quad_share, args.solve_share)
    A, b = _load_problem(args)
    bounds = estimate_spectral_bounds(A, seed=args.seed)
    return A, b, budget, bounds


def cmd_compute(args: argparse.Namespace) -> int:
    """Run the full pipeline; write the result artifact; 0 iff certified."""
    A, b, budget, bounds = _setup(args)
    result = fracpow_action(
        A, b, args.alpha, budget, args.family, bounds=bounds, max_iterations=args.max_iter
    )
    if args.format == "json":
        payload = result.to_json_dict()
        y = result.y
        if np.iscomplexobj(y):
            payload["y"] = [[float(v.real), float(v.imag)] for v in y]
        else:
            payload["y"] = [float(v) for v in y]
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    elif np.iscomplexobj(result.y):
        _emit_table(["re", "im"], [(v.real, v.imag) for v in result.y], "csv", args.out)
    else:
        _emit_table(["y"], [(v,) for v in result.y], "csv", args.out)
    report = result.report
    print(
        f"m={result.rule.m} matvecs={report.total_matvecs} "
        f"verification_matvecs={report.verification_matvecs} "
        f"error_bound_sum={result.error_bound_sum:.3e} "
        f"certified={'yes' if result.certified else 'no'}",
        file=sys.stderr,
    )
    return 0 if result.certified else 2


def cmd_thresholds(args: argparse.Namespace) -> int:
    """Emit the per-node stopping thresholds for the selected rule."""
    A, b, budget, bounds = _setup(args)
    bnorm = float(np.linalg.norm(b))
    check_tolerance(budget, bnorm, bounds.lambda_hi, args.alpha)
    rule = choose_rule(args.family, args.alpha, bounds, scalar_probe(budget, bounds, bnorm))
    taus = residual_thresholds(rule, budget, bounds.lambda_hi)
    records = [
        (k + 1, float(rule.shifts[k]), float(rule.weights[k]), float(taus[k]))
        for k in range(rule.m)
    ]
    _emit_table(["k", "sigma", "omega", "tau"], records, args.format, args.out)
    return 0


def cmd_bound_trace(args: argparse.Namespace) -> int:
    """Per-iteration CG error trace against the residual-based bound.

    For each shift, every row records the measured error
    ``||A (sigma I + A)^(-1) b - A x_i||_2`` (against a dense reference
    solve) next to the certified bound ``||r_i|| / (1 + sigma/lambda_hi)``.
    Requires an oracle-sized matrix.
    """
    A, b = _load_problem(args)
    w, Q = hpd_eigendecomposition(A)
    bounds = estimate_spectral_bounds(A, seed=args.seed)
    records: list[tuple[int, float, float, float]] = []
    for sigma in args.shifts:
        # A (sigma I + A)^{-1} b via the transfer w/(w+sigma) in (0, 1]; this
        # avoids forming the 1/lambda_min-amplified intermediate solve.
        target = Q @ ((w / (w + sigma)) * (Q.T @ b))
        coefficient = error_coefficient(sigma, bounds.lambda_hi)
        records.append(
            (0, sigma, float(np.linalg.norm(target)), coefficient * float(np.linalg.norm(b)))
        )

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
            records.append((iteration, sigma, measured, coefficient * float(np.linalg.norm(r))))

        single_shift_cg(
            A, b, sigma, tol=args.eps, max_iterations=args.max_iter, callback=trace
        )
    header = ["iteration", "shift", "measured_error", "error_bound"]
    _emit_table(header, records, args.format, args.out)
    return 0


def _verify_cell(A, b, bounds, y_ref, alpha, budget, family):
    result = fracpow_action(A, b, alpha, budget, family, bounds=bounds)
    error = absolute_error(result.y, y_ref)
    return result.rule.m, error, error <= budget.epsilon


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the verification grid: pipeline vs dense oracle per cell.

    Writes one row per cell (matrix, alpha, eps, family, m, error, pass) in
    deterministic grid order; exit 0 iff every cell's error is at most its
    epsilon, else 3 with failing cells listed.
    """
    matrices = args.matrix if args.matrix is not None else list(VERIFY_MATRICES)
    budgets = {eps: ErrorBudget(eps, args.quad_share, args.solve_share) for eps in args.eps}
    prepared = {}
    for spec in matrices:
        A = build_matrix(spec)
        b = np.ones(A.n)
        w, Q = hpd_eigendecomposition(A)
        bounds = estimate_spectral_bounds(A, seed=args.seed)
        qtb = Q.T @ b
        refs = {alpha: Q @ (w**alpha * qtb) for alpha in args.alpha}
        prepared[spec] = (A, b, bounds, refs)

    cells = [
        (spec, alpha, epsilon, family)
        for spec in matrices
        for alpha in args.alpha
        for epsilon in args.eps
        for family in args.family
    ]

    records = []
    failures = []
    for spec, alpha, epsilon, family in cells:
        A, b, bounds, refs = prepared[spec]
        m, error, passed = _verify_cell(
            A, b, bounds, refs[alpha], alpha, budgets[epsilon], family
        )
        records.append((spec, alpha, epsilon, family, m, error, passed))
        print(
            f"{spec:<12} alpha={alpha:<4g} eps={epsilon:<6g} {family:<4} "
            f"m={m:<6d} error={error:.3e} {'PASS' if passed else 'FAIL'}"
        )
        if not passed:
            failures.append(f"{spec} alpha={alpha:g} eps={epsilon:g} {family}")
    if args.out is not None:
        header = ["matrix", "alpha", "eps", "family", "m", "error", "pass"]
        _emit_table(header, records, args.format, args.out)
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


def _number(text: str, accept, expected: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (np.isfinite(value) and accept(value)):
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return value


def _alpha(text: str) -> float:
    return _number(text, lambda a: 0.0 < a < 1.0, "a power in (0, 1)")


def _tolerance(text: str) -> float:
    return _number(text, lambda e: e > 0.0, "a positive finite tolerance")


def _shift(text: str) -> float:
    return _number(text, lambda s: s >= 0.0, "a non-negative finite shift")


def _share(text: str) -> float:
    return _number(text, lambda s: 0.0 < s < 1.0, "a budget share in (0, 1)")


def _family(text: str) -> str:
    if text not in FAMILIES:
        raise argparse.ArgumentTypeError(f"unknown family {text!r}, expected one of {FAMILIES}")
    return text


def _integer(text: str, minimum: int, expected: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"expected {expected}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _integer(text, 1, "a positive integer")


def _seed(text: str) -> int:
    return _integer(text, 0, "a non-negative integer")


def _list_of(item):
    """Argument type for a non-empty comma-separated list of ``item`` values."""

    def parse(text: str) -> list:
        values = [item(v.strip()) for v in text.split(",") if v.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"expected a non-empty comma-separated list, got {text!r}")
        return values

    return parse


def _add_common(sub: argparse.ArgumentParser, *, need_alpha: bool, fmt: str) -> None:
    sub.add_argument("--matrix", required=True, help="matrix source: lap1d:<n>, lap2d:<nx>x<ny>, mm:<path>, diag:<v1,...>")
    if need_alpha:
        sub.add_argument("--alpha", type=_alpha, required=True, help="fractional power in (0, 1)")
        sub.add_argument("--eps", type=_tolerance, required=True, help="total error tolerance (2-norm, absolute)")
        sub.add_argument("--family", choices=FAMILIES, default="de", help="quadrature family (default de)")
        sub.add_argument("--quad-share", type=_share, default=0.5, help="budget share for quadrature error (default 0.5)")
        sub.add_argument("--solve-share", type=_share, default=0.5, help="budget share for solve error (default 0.5)")
    sub.add_argument("--rhs", default=None, help="right-hand side file, one value per line (default: all ones)")
    sub.add_argument("--out", default=None, help="output artifact path (default: stdout)")
    sub.add_argument("--format", choices=("json", "csv"), default=fmt, help=f"artifact format (default {fmt})")
    sub.add_argument("--seed", type=_seed, default=0, help="seed for the spectral bound estimator")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fracpow", description="Certified actions of matrix fractional powers: y = A^alpha b.")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    compute = commands.add_parser("compute", help="compute y = A^alpha b with a certified error budget")
    _add_common(compute, need_alpha=True, fmt="json")
    compute.add_argument("--max-iter", type=_positive_int, default=None, help="CG iteration cap (default 10 n)")
    compute.set_defaults(func=cmd_compute)

    thresholds = commands.add_parser("thresholds", help="emit per-node residual stopping thresholds")
    _add_common(thresholds, need_alpha=True, fmt="csv")
    thresholds.set_defaults(func=cmd_thresholds)

    trace = commands.add_parser("bound-trace", help="per-iteration CG error vs certified bound (oracle-sized matrices)")
    _add_common(trace, need_alpha=False, fmt="csv")
    trace.add_argument("--shifts", type=_list_of(_shift), default=[0.1, 1.0, 10.0, 100.0], help="comma-separated shifts (default 0.1,1,10,100)")
    trace.add_argument("--eps", type=_tolerance, default=1e-12, help="absolute residual stopping value per shift (default 1e-12)")
    trace.add_argument("--max-iter", type=_positive_int, default=None, help="CG iteration cap (default 10 n)")
    trace.set_defaults(func=cmd_bound_trace)

    verify = commands.add_parser("verify", help="run the verification grid against the dense oracle")
    verify.add_argument("--matrix", action="append", default=None, help="matrix spec, repeatable (default: the full verification grid)")
    verify.add_argument("--alpha", type=_list_of(_alpha), default=list(VERIFY_ALPHAS), help="comma-separated alpha values")
    verify.add_argument("--eps", type=_list_of(_tolerance), default=list(VERIFY_EPSILONS), help="comma-separated tolerances")
    verify.add_argument("--family", type=_list_of(_family), default=list(FAMILIES), help="comma-separated families")
    verify.add_argument("--quad-share", type=_share, default=0.5)
    verify.add_argument("--solve-share", type=_share, default=0.5)
    verify.add_argument("--out", default=None, help="write the report table to this path")
    verify.add_argument("--format", choices=("json", "csv"), default="csv", help="report table format (default csv)")
    verify.add_argument("--seed", type=_seed, default=0)
    verify.set_defaults(func=cmd_verify)
    return parser


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
        return args.func(args)
    except ToleranceFloorError as exc:
        print(f"fracpow: error: tolerance below double-precision floor ({exc})", file=sys.stderr)
        return 1
    except (FracpowError, ValueError, OSError) as exc:
        print(f"fracpow: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
