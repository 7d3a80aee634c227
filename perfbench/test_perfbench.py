"""Tests of the benchmark's own code: the reference, the traced replay, the
metric plumbing and its agreement with ``BENCHMARK.json``.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from fracpow import (  # noqa: E402
    ErrorBudget,
    HermitianSparseMatrix,
    ToleranceFloorError,
    estimate_spectral_bounds,
    fracpow_action,
)
from fracpow.cli import build_matrix  # noqa: E402
from fracpow.oracle import dense_fracpow_action  # noqa: E402
from reference import laplacian_eigenvalues, laplacian_fracpow_action  # noqa: E402
from tracing import ROOT_SPAN, CountingMatrix, Tracer, traced_action  # noqa: E402
from workloads import WORKLOADS, Cell, Workload  # noqa: E402

CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("spec", ["lap1d:1", "lap1d:57", "lap2d:1x9", "lap2d:20x30", "lap2d:32x32"])
@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9])
def test_dst_reference_matches_dense_oracle(spec, alpha):
    A = build_matrix(spec)
    b = np.random.default_rng(3).standard_normal(A.n)
    expected = dense_fracpow_action(A, b, alpha)
    got = laplacian_fracpow_action(spec, b, alpha)
    assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)


@pytest.mark.parametrize("spec", ["lap1d:40", "lap2d:7x11"])
def test_laplacian_eigenvalues_are_the_spectrum(spec):
    dense = build_matrix(spec).to_dense()
    np.testing.assert_allclose(
        np.sort(laplacian_eigenvalues(spec).ravel()), np.linalg.eigvalsh(dense), rtol=0, atol=1e-13
    )


def test_dst_reference_rejects_other_matrices():
    with pytest.raises(ValueError):
        laplacian_fracpow_action("diag:1,2", np.ones(2), 0.5)


@pytest.mark.parametrize(
    "family,alpha,epsilon,reuse_bounds",
    [("de", 0.5, 1e-6, False), ("gj2", 0.2, 1e-9, True), ("gj1", 0.8, 1e-4, True)],
)
def test_traced_replay_matches_fracpow_action(family, alpha, epsilon, reuse_bounds):
    A = build_matrix("lap2d:12x10")
    b = np.random.default_rng(5).standard_normal(A.n)
    bounds = estimate_spectral_bounds(A) if reuse_bounds else None
    tracer = Tracer()
    replica = traced_action(
        CountingMatrix.wrap(A, tracer.meter), b, alpha, ErrorBudget(epsilon), family,
        bounds, tracer, "action:0",
    )
    result = fracpow_action(A, b, alpha, ErrorBudget(epsilon), family, bounds=bounds)

    assert np.array_equal(replica.y, result.y)
    assert replica.rule.m == result.rule.m
    assert np.array_equal(replica.report.iterations_used, result.report.iterations_used)
    assert replica.certified == result.certified

    root, *children = tracer.spans
    assert root.name == ROOT_SPAN and root.parent is None
    assert all(s.parent == 0 and s.action == "action:0" for s in children)
    stages = [s.name for s in children]
    assert stages == (["sparse.estimate_spectral_bounds"] if bounds is None else []) + [
        "error_control.check_tolerance",
        "error_control.scalar_probe",
        "quadrature.select_node_count",
        "error_control.residual_thresholds",
        "shifted_cg.shifted_cg_solve",
        "error_control.assemble",
        "error_control.certify",
    ]
    solve = children[stages.index("shifted_cg.shifted_cg_solve")]
    report = result.report
    assert solve.matvecs == report.total_matvecs + report.verification_matvecs
    assert root.matvecs == tracer.meter.calls


def test_replay_raises_like_fracpow_action():
    A = build_matrix("lap1d:30")
    b = np.ones(A.n)
    tracer = Tracer()
    with pytest.raises(ToleranceFloorError):
        fracpow_action(A, b, 0.5, ErrorBudget(1e-20), "de")
    with pytest.raises(ToleranceFloorError):
        traced_action(
            CountingMatrix.wrap(A, tracer.meter), b, 0.5, ErrorBudget(1e-20), "de",
            None, tracer, "action:0",
        )
    assert tracer.spans[0].name == ROOT_SPAN and tracer.spans[0].end >= tracer.spans[0].start


def test_contract_names_the_harness_workloads():
    assert {w["name"]: w["why"] for w in CONTRACT["workloads"]} == {
        name: w.why() for name, w in WORKLOADS.items()
    }
    assert all(len(w["why"]) <= 200 for w in CONTRACT["workloads"])


TINY = {
    "warm": Workload(
        "tiny_warm", (Cell("lap2d:8x9", 0.5, 1e-6, "de"), Cell("lap1d:30", 0.2, 1e-9, "gj2")),
        "normal", True, True, "dst", ("shifted_cg",), ("quadrature",), "test",
    ),
    "cold": Workload(
        "tiny_cold", (Cell("lap1d:40", 0.3, 1e-7, "gj1"), Cell("lap1d:40", 0.3, 1e-20, "de")),
        "ones", False, False, "dense_oracle", ("sparse.bounds",), ("quadrature",), "test",
    ),
}


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("tiny", sorted(TINY))
def test_run_reports_every_declared_metric(tmp_path, tiny, traced):
    workload = TINY[tiny]
    record = run.run(workload, seed=7, seconds=1e-9, traced=traced, scratch=tmp_path)
    declared = CONTRACT["per_layer" if traced else "end_to_end"]
    assert {k: v["unit"] for k, v in record["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert record["attempted"] == len(workload.cells) and record["correct"]
    assert len(record["setup_s"]) >= run.SETUP_MIN_REPEATS
    if traced:
        assert record["metrics"]["trace.replica_match"]["value"] == 1.0
        assert all(v["value"] is not None for v in record["metrics"].values())
    else:
        assert all(v["value"] > 0 for v in record["metrics"].values())


def test_failed_action_is_recorded_and_the_run_goes_on(tmp_path):
    record = run.run(TINY["cold"], seed=1, seconds=1e-9, traced=False, scratch=tmp_path)
    ok, refused = record["actions"]
    assert not ok["failed"] and ok["err_over_eps"] <= 1.0
    assert refused["raised"] == "ToleranceFloorError" and refused["failed"]
    assert refused["cell"]["epsilon"] == 1e-20 and refused["wall_s"] > 0
    assert record["failed"] == 1 and record["correct"]
    assert record["metrics"]["pass_share"]["value"] == 0.5
    assert record["diagnostics"]["fail_share"]["value"] == 0.5


def test_product_counts_marked_unavailable_when_matvec_is_bypassed(tmp_path, monkeypatch):
    monkeypatch.setattr(CountingMatrix, "matvec", HermitianSparseMatrix.matvec)
    record = run.run(TINY["warm"], seed=1, seconds=1e-9, traced=True, scratch=tmp_path)
    metrics = record["metrics"]
    for name in ("sparse.matvec_calls", "sparse.matvec_s", "shifted_cg.update_s"):
        assert metrics[name]["value"] is None and "fewer products" in metrics[name]["unavailable"]
    assert metrics["shifted_cg.iterations"]["value"] > 0
