"""Benchmark of fracpow's public entry point, ``fracpow_action``.

Run from the repository root, for one workload of ``workloads.py``:

    python3 perfbench/run.py --workload cold_lap2d --seed 1 --seconds 20 --trace 0

The run sets up its matrices several times (the median is ``setup_s``), then
runs whole passes over the workload's actions until ``--seconds`` have gone
by, and checks every output against an independent reference.

``--trace 0`` times each action with tracing off and reports the end-to-end
metrics. ``--trace 1`` runs each action twice on the same inputs, untraced
and as a traced replay (``tracing.py``), in alternating order, and reports
the per-layer metrics taken from the replay's spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record of
the run (environment, every action, every span) is written to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# The benchmark measures the checkout it sits in, never an installed copy.
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fracpow  # noqa: E402
from fracpow import (  # noqa: E402
    ErrorBudget,
    FracpowError,
    HermitianSparseMatrix,
    SpectralBounds,
    estimate_spectral_bounds,
    fracpow_action,
    probe_error,
    write_matrix_market,
)
from fracpow.cli import build_matrix  # noqa: E402
from fracpow.oracle import dense_fracpow_action  # noqa: E402

from reference import laplacian_eigenvalues, laplacian_fracpow_action  # noqa: E402
from tracing import ROOT_SPAN, CountingMatrix, Replica, Tracer, maybe_span, traced_action  # noqa: E402
from workloads import WORKLOADS, Cell, Workload  # noqa: E402

# Set-up runs SETUP_MIN_REPEATS times before the first pass, and again before
# a later pass while set-up has taken under SETUP_SHARE of the run's wall
# time; its median is setup_s.
SETUP_MIN_REPEATS = 3
SETUP_SHARE = 0.1
# Log-spaced points of [lambda_lo, lambda_hi] for the dense scalar-error check.
DENSE_POINTS = 20001
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Prepared:
    """A loaded matrix: the plain one for untraced actions, its metered copy
    for traced replays (``None`` when untraced), and bounds reused by every
    action (``None`` when each action estimates its own)."""

    A: HermitianSparseMatrix
    counted: CountingMatrix | None
    bounds: SpectralBounds | None


@dataclass
class ActionRecord:
    """One untraced action: its cell, wall time, and outcome.

    ``raised`` names the ``FracpowError`` subclass if the action raised one.
    """

    index: int
    cell: Cell
    wall_s: float
    raised: str | None = None
    message: str | None = None
    m: int | None = None
    certified: bool | None = None
    err_over_eps: float | None = None

    @property
    def failed(self) -> bool:
        return self.raised is not None or self.err_over_eps > 1.0


@dataclass
class Pair:
    """An untraced action and its traced replay on the same inputs."""

    index: int
    cell: Cell
    untraced_s: float
    traced_s: float
    match: bool
    replica: Replica | None
    probe_err_over_budget: float | None
    dense_err_over_budget: float | None


def write_sources(workload: Workload, scratch: Path) -> dict[str, str]:
    """``build_matrix`` source for every matrix of the workload."""
    sources = {}
    for spec in workload.specs:
        if workload.matrix_market:
            path = scratch / (spec.replace(":", "_") + ".mtx")
            write_matrix_market(build_matrix(spec), path)
            sources[spec] = f"mm:{path}"
        else:
            sources[spec] = spec
    return sources


def set_up(workload: Workload, sources: dict[str, str], tracer: Tracer | None, rep: int):
    """Load every matrix and, where the workload reuses them, estimate its bounds."""
    action = f"setup:{rep}"
    prepared = {}
    for spec in workload.specs:
        with maybe_span(tracer, "sparse.build_matrix", action):
            A = build_matrix(sources[spec])
        counted = None if tracer is None else CountingMatrix.wrap(A, tracer.meter)
        bounds = None
        if workload.reuse_bounds:
            with maybe_span(tracer, "sparse.estimate_spectral_bounds", action):
                bounds = estimate_spectral_bounds(A if counted is None else counted)
        prepared[spec] = Prepared(A, counted, bounds)
    return prepared


def expected_output(workload: Workload, prep: Prepared, cell: Cell, b: np.ndarray, cache: dict):
    """Reference ``A^alpha b``; dense-oracle results are cached per matrix, power and ``b``."""
    if workload.reference == "dst":
        return laplacian_fracpow_action(cell.spec, b, cell.alpha)
    key = (cell.spec, cell.alpha, b.tobytes())
    if key not in cache:
        cache[key] = dense_fracpow_action(prep.A, b, cell.alpha)
    return cache[key]


def run_action(index: int, cell: Cell, prep: Prepared, b: np.ndarray, y_ref: np.ndarray):
    """Time one untraced ``fracpow_action`` call and check it against ``y_ref``."""
    start = perf_counter()
    try:
        result = fracpow_action(
            prep.A, b, cell.alpha, ErrorBudget(cell.epsilon), cell.family, bounds=prep.bounds
        )
    except FracpowError as exc:
        wall = perf_counter() - start
        return ActionRecord(index, cell, wall, raised=type(exc).__name__, message=str(exc)), None
    wall = perf_counter() - start
    err = float(np.linalg.norm(result.y - y_ref)) / cell.epsilon
    record = ActionRecord(
        index, cell, wall, m=result.rule.m, certified=result.certified, err_over_eps=err
    )
    return record, result


def dense_scalar_error(rule, bounds: SpectralBounds) -> float:
    """Largest ``|lam^alpha - Q(lam)|`` on a dense log grid of the bounds interval."""
    lam = np.geomspace(bounds.lambda_lo, bounds.lambda_hi, DENSE_POINTS)
    chunks = np.array_split(lam, max(1, DENSE_POINTS * rule.m // 4_000_000))
    return max(probe_error(rule, chunk) for chunk in chunks)


def same_outcome(result, record: ActionRecord, replica: Replica | None, replica_raised) -> bool:
    if result is None or replica is None:
        return result is None and replica is None and record.raised == replica_raised
    return (
        np.array_equal(result.y, replica.y)
        and result.rule.m == replica.rule.m
        and np.array_equal(result.report.iterations_used, replica.report.iterations_used)
        and result.report.verification_matvecs == replica.report.verification_matvecs
        and result.certified == replica.certified
    )


def run_pair(index, cell, prep, b, y_ref, tracer: Tracer):
    """Untraced action and traced replay of it; odd indices replay first."""
    action = f"action:{index}"

    def replay():
        try:
            replica = traced_action(
                prep.counted, b, cell.alpha, ErrorBudget(cell.epsilon), cell.family,
                prep.bounds, tracer, action,
            )
        except FracpowError as exc:
            return None, type(exc).__name__
        return replica, None

    if index % 2:
        replica, replica_raised = replay()
        record, result = run_action(index, cell, prep, b, y_ref)
    else:
        record, result = run_action(index, cell, prep, b, y_ref)
        replica, replica_raised = replay()
    root = next(s for s in reversed(tracer.spans) if s.action == action and s.name == ROOT_SPAN)
    probe_ratio = dense_ratio = None
    if replica is not None:
        budget = replica.probe.budget
        probe_ratio = probe_error(replica.rule, replica.probe.probe_values) / budget
        dense_ratio = dense_scalar_error(replica.rule, replica.bounds) / budget
    pair = Pair(
        index, cell, record.wall_s, root.seconds,
        same_outcome(result, record, replica, replica_raised),
        replica, probe_ratio, dense_ratio,
    )
    return record, pair


def measure(workload: Workload, sources: dict, seed: int, seconds: float, tracer: Tracer | None):
    """Set up, then run whole passes over the workload's cells until the
    passes have taken ``seconds``.

    Set-ups between passes spread the samples of a cheap set-up over the
    whole run, so that its median does not hang on the machine's speed in
    one burst at the start.
    """
    setup_s, records, pairs, cache = [], [], [], {}
    start = perf_counter()

    def set_up_once():
        begin = perf_counter()
        prepared = set_up(workload, sources, tracer, len(setup_s))
        setup_s.append(perf_counter() - begin)
        return prepared

    for _ in range(SETUP_MIN_REPEATS):
        prepared = set_up_once()
    in_passes = 0.0
    index = 0
    while in_passes < seconds:
        while sum(setup_s) < SETUP_SHARE * (perf_counter() - start):
            prepared = set_up_once()
        pass_start = perf_counter()
        for cell in workload.cells:
            prep = prepared[cell.spec]
            b = workload.rhs_vector(seed, index, prep.A.n)
            y_ref = expected_output(workload, prep, cell, b, cache)
            if tracer is None:
                record, _ = run_action(index, cell, prep, b, y_ref)
            else:
                record, pair = run_pair(index, cell, prep, b, y_ref, tracer)
                pairs.append(pair)
            records.append(record)
            index += 1
        in_passes += perf_counter() - pass_start
    return prepared, setup_s, records, pairs


def metric(value, unit: str, unavailable: str | None = None) -> dict:
    if unavailable is not None or value is None:
        return {"value": None, "unit": unit, "unavailable": unavailable or "no sample"}
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(records: list[ActionRecord], per_pass: int, setup_s: list[float]) -> dict:
    """End-to-end metrics of the untraced actions.

    ``action_p50_s`` is the median over passes of the mean action wall time
    in a pass: the median action itself where a pass is one action. Over the
    36 unlike cells of the grid, the median action would be whichever small
    cell sits at the gap between the two matrices, timed twice a run, which
    second-to-second CPU speed swings on a shared host make too unsteady to
    bound.
    """
    walls = [r.wall_s for r in records]
    n = len(records)
    pass_means = [sum(walls[i : i + per_pass]) / per_pass for i in range(0, n, per_pass)]
    return {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "action_p50_s": metric(statistics.median(pass_means), "s"),
        "actions_per_s": metric(n / sum(walls), "1/s"),
        "pass_share": metric(1.0 - sum(r.failed for r in records) / n, "share"),
        "certified_share": metric(sum(r.certified is True for r in records) / n, "share"),
        "err_over_eps_max": metric(
            max((r.err_over_eps for r in records if r.raised is None), default=None), "ratio"
        ),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def diagnostics(records: list[ActionRecord]) -> dict:
    """Printed and recorded, but not bounded in ``BENCHMARK.json``.

    The slowest action is an outlier statistic: host speed swings of a shared
    machine move it run to run by more than any bound the benchmark may set.
    ``fail_share`` and ``uncertified_share`` can have a median of 0, which
    has no relative spread, so their complements ``pass_share`` and
    ``certified_share`` are the bounded metrics.
    """
    n = len(records)
    return {
        "action_max_s": metric(max(r.wall_s for r in records), "s"),
        "fail_share": metric(sum(r.failed for r in records) / n, "share"),
        "uncertified_share": metric(sum(r.certified is False for r in records) / n, "share"),
    }


def csr_product_bytes(A: HermitianSparseMatrix) -> int:
    """Bytes one CSR product must touch at least: values and int64 column
    indices per entry, int64 row offsets, one read of x and one write of y."""
    item = A.values.dtype.itemsize
    return A.nnz * (item + 8) + 8 * (A.n + 1) + 2 * A.n * item


def layer_metrics(workload: Workload, prepared: dict, tracer: Tracer, pairs: list[Pair]) -> dict:
    """Per-layer metrics from the traced replays.

    Times and counts are means per action over every replay (a stage an
    action never reached counts 0), except where the workload reuses bounds:
    there ``sparse.bounds_*`` is the median over set-up repeats, like
    ``sparse.load_s``. Error ratios are maxima; ``lambda_lo_over_min`` is the
    largest and ``lambda_hi_over_max`` the smallest ratio seen.
    """
    spans = tracer.spans
    n = len(pairs)
    replicas = [p for p in pairs if p.replica is not None]

    def action_spans(name):
        return [s for s in spans if s.name == name and s.action.startswith("action:")]

    def per_action(name, attr="seconds"):
        return sum(getattr(s, attr) for s in action_spans(name)) / n

    def per_setup(name, attr="seconds"):
        reps: dict[str, float] = {}
        for s in spans:
            if s.name == name and s.action.startswith("setup:"):
                reps[s.action] = reps.get(s.action, 0.0) + getattr(s, attr)
        return statistics.median(reps.values())

    bounds_stage = per_setup if workload.reuse_bounds else per_action
    if workload.reuse_bounds:
        seen_bounds = [(spec, prep.bounds) for spec, prep in prepared.items()]
    else:
        seen_bounds = [(p.cell.spec, p.replica.bounds) for p in replicas]
    extremes = {spec: laplacian_eigenvalues(spec) for spec in workload.specs}
    lo_ratio = max((b.lambda_lo / extremes[s].min() for s, b in seen_bounds), default=None)
    hi_ratio = min((b.lambda_hi / extremes[s].max() for s, b in seen_bounds), default=None)

    roots = [(i, s) for i, s in enumerate(spans) if s.name == ROOT_SPAN]
    self_s = sum(
        root.seconds - sum(c.seconds for c in spans if c.parent == i) for i, root in roots
    ) / n
    solves = {s.action: s for s in action_spans("shifted_cg.shifted_cg_solve")}
    assembles = {s.action: s for s in action_spans("error_control.assemble")}
    # Products are counted only where they go through matvec; if the solve
    # reports more than the meter saw, the counts are not to be trusted.
    short = [
        p.index
        for p in replicas
        if solves[f"action:{p.index}"].matvecs
        < p.replica.report.total_matvecs + p.replica.report.verification_matvecs
        or assembles[f"action:{p.index}"].matvecs < 1
    ]
    counts_gone = (
        f"product meter saw fewer products than the solver reports in actions {short[:5]}"
        if short
        else None
    )
    product_s = sum(root.matvec_s for _, root in roots)
    spec_of = {f"action:{p.index}": p.cell.spec for p in pairs}
    product_bytes = sum(
        root.matvecs * csr_product_bytes(prepared[spec_of[root.action]].A) for _, root in roots
    )
    reports = [p.replica.report for p in replicas]
    verified = sum(r.verification_matvecs for r in reports)
    hits = sum(int(np.sum(r.converged & (r.iterations_used > 0))) for r in reports)

    def mean_over_replicas(values):
        values = list(values)
        return sum(values) / len(values) if values else None

    solve_s = per_action("shifted_cg.shifted_cg_solve")
    solve_matvec_s = per_action("shifted_cg.shifted_cg_solve", "matvec_s")
    return {
        "sparse.load_s": metric(per_setup("sparse.build_matrix"), "s"),
        "sparse.bounds_s": metric(bounds_stage("sparse.estimate_spectral_bounds"), "s"),
        "sparse.bounds_matvecs": metric(
            bounds_stage("sparse.estimate_spectral_bounds", "matvecs"), "count", counts_gone
        ),
        "sparse.lambda_lo_over_min": metric(lo_ratio, "ratio"),
        "sparse.lambda_hi_over_max": metric(hi_ratio, "ratio"),
        "sparse.matvec_calls": metric(sum(r.matvecs for _, r in roots) / n, "count", counts_gone),
        "sparse.matvec_s": metric(product_s / n, "s", counts_gone),
        "sparse.matvec_gbps_computed": metric(
            product_bytes / product_s / 1e9 if product_s > 0 else None, "GB/s", counts_gone
        ),
        "quadrature.select_s": metric(per_action("quadrature.select_node_count"), "s"),
        "quadrature.m": metric(mean_over_replicas(p.replica.rule.m for p in replicas), "count"),
        "quadrature.probe_err_over_budget": metric(
            max((p.probe_err_over_budget for p in replicas), default=None), "ratio"
        ),
        "quadrature.dense_err_over_budget": metric(
            max((p.dense_err_over_budget for p in replicas), default=None), "ratio"
        ),
        "shifted_cg.solve_s": metric(solve_s, "s"),
        "shifted_cg.matvec_s": metric(solve_matvec_s, "s", counts_gone),
        "shifted_cg.update_s": metric(solve_s - solve_matvec_s, "s", counts_gone),
        "shifted_cg.iterations": metric(mean_over_replicas(r.total_matvecs for r in reports), "count"),
        "shifted_cg.node_iterations": metric(
            mean_over_replicas(int(r.iterations_used.sum()) for r in reports), "count"
        ),
        "shifted_cg.verify_matvecs": metric(mean_over_replicas(r.verification_matvecs for r in reports), "count"),
        "shifted_cg.verify_hit_ratio": metric(hits / verified if verified else None, "ratio"),
        "shifted_cg.stagnated_nodes": metric(
            mean_over_replicas(int(np.sum(~r.converged)) for r in reports), "count"
        ),
        "error_control.assemble_s": metric(per_action("error_control.assemble"), "s"),
        "error_control.self_s": metric(self_s, "s"),
        "trace.overhead_s": metric(sum(p.traced_s - p.untraced_s for p in pairs) / n, "s"),
        "trace.replica_match": metric(float(all(p.match for p in pairs)), "flag"),
    }


def run(workload: Workload, seed: int, seconds: float, traced: bool, scratch: Path) -> dict:
    """One benchmark run; returns the full record of it."""
    sources = write_sources(workload, scratch)
    tracer = Tracer() if traced else None
    prepared, setup_s, records, pairs = measure(workload, sources, seed, seconds, tracer)

    if traced:
        metrics = layer_metrics(workload, prepared, tracer, pairs)
    else:
        metrics = end_to_end_metrics(records, len(workload.cells), setup_s)
    record = {
        "workload": workload.name,
        "definition": asdict(workload) | {"why": workload.why()},
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "correct": all(r.raised is not None or r.err_over_eps <= 1.0 for r in records),
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "passes": len(records) // len(workload.cells),
        "metrics": metrics,
        "diagnostics": diagnostics(records),
        "setup_s": setup_s,
        "actions": [asdict(r) | {"failed": r.failed} for r in records],
    }
    if traced:
        record["pairs"] = [
            {k: v for k, v in asdict(p).items() if k != "replica"}
            | {"m": None if p.replica is None else p.replica.rule.m}
            for p in pairs
        ]
        origin = tracer.spans[0].start
        record["spans"] = [
            asdict(s) | {"start": s.start - origin, "end": s.end - origin} for s in tracer.spans
        ]
    record["environment"] = environment(seed)
    return record


def git_commit(root: Path) -> str | None:
    """Commit of a git checkout, read from its files; ``None`` outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": np.show_config(mode="dicts").get("Build Dependencies"),
        "thread_variables": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)),
        "process_threads": threads,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
        "seed": seed,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path(fracpow.__file__).resolve().is_relative_to(SRC):
        print(f"error: fracpow was imported from {fracpow.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="inputs-", dir=out_dir))
    try:
        record = run(workload, args.seed, args.seconds, args.trace == 1, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(
        f"# {workload.name} seed={args.seed} trace={args.trace}: {record['attempted']} actions "
        f"in {record['passes']} passes, {record['failed']} failed; record in {path.relative_to(ROOT)}"
    )
    for name, entry in (record["metrics"] | record["diagnostics"]).items():
        value = entry.get("unavailable") if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"{name:<36} {value} {entry['unit']}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
