import csv
import io
import json

import numpy as np
import pytest

import fracpow.cli as cli
from fracpow.cli import RunConfig, build_matrix, main
from fracpow.sparse import build_laplacian_1d, write_matrix_market


def run_cli(args):
    return main(args)


class TestMatrixGrammar:
    def test_lap1d(self):
        A = build_matrix("lap1d:5")
        assert A.n == 5

    def test_lap2d(self):
        A = build_matrix("lap2d:3x4")
        assert A.n == 12

    def test_diag(self):
        A = build_matrix("diag:1,2.5,4")
        np.testing.assert_array_equal(A.diagonal(), [1.0, 2.5, 4.0])

    def test_mm(self, tmp_path):
        path = tmp_path / "a.mtx"
        write_matrix_market(build_laplacian_1d(4), path)
        A = build_matrix(f"mm:{path}")
        assert A.n == 4

    @pytest.mark.parametrize(
        "spec",
        ["lap1d", "lap1d:", "lap1d:x", "lap2d:3", "lap2d:3y4", "diag:one", "nope:3", "3"],
    )
    def test_rejects_malformed(self, spec):
        with pytest.raises(ValueError):
            build_matrix(spec)


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(matrix="", alpha=0.5, epsilon=1e-6)
        with pytest.raises(ValueError):
            RunConfig(matrix="lap1d:4", alpha=1.5, epsilon=1e-6)
        with pytest.raises(ValueError):
            RunConfig(matrix="lap1d:4", alpha=0.5, epsilon=0.0)
        with pytest.raises(ValueError):
            RunConfig(matrix="lap1d:4", alpha=0.5, epsilon=1e-6, family="x")
        with pytest.raises(ValueError):
            RunConfig(matrix="lap1d:4", alpha=0.5, epsilon=1e-6, out_format="yaml")


class TestCompute:
    def test_json_artifact_and_exit_code(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        code = run_cli(
            ["compute", "--matrix", "diag:1,4", "--alpha", "0.5", "--eps", "1e-9",
             "--family", "gj2", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["certified"] is True
        assert payload["family"] == "gj2"
        assert payload["m"] == len(payload["per_node"])
        y = np.array(payload["y"])
        np.testing.assert_allclose(y, [1.0, 2.0], atol=1e-9)
        err = capsys.readouterr().err
        assert "m=" in err and "certified=yes" in err

    def test_csv_artifact(self, tmp_path):
        out = tmp_path / "y.csv"
        code = run_cli(
            ["compute", "--matrix", "diag:1,4", "--alpha", "0.5", "--eps", "1e-8",
             "--family", "gj2", "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0] == ["y"]
        assert len(rows) == 3
        assert float(rows[1][0]) == pytest.approx(1.0, abs=1e-8)

    def test_stdout_artifact(self, capsys):
        code = run_cli(
            ["compute", "--matrix", "diag:2", "--alpha", "0.5", "--eps", "1e-6",
             "--family", "gj1"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["y"][0] == pytest.approx(np.sqrt(2.0), abs=1e-6)

    def test_tolerance_floor_exits_1(self, capsys):
        code = run_cli(
            ["compute", "--matrix", "lap1d:4", "--alpha", "0.5", "--eps", "1e-40"]
        )
        assert code == 1
        assert "tolerance below double-precision floor" in capsys.readouterr().err

    def test_matrix_market_input(self, tmp_path):
        path = tmp_path / "a.mtx"
        write_matrix_market(build_laplacian_1d(6), path)
        out = tmp_path / "run.json"
        code = run_cli(
            ["compute", "--matrix", f"mm:{path}", "--alpha", "0.5", "--eps", "1e-6",
             "--out", str(out)]
        )
        assert code == 0

    def test_missing_matrix_file_exits_1(self, capsys, tmp_path):
        code = run_cli(
            ["compute", "--matrix", f"mm:{tmp_path}/none.mtx", "--alpha", "0.5",
             "--eps", "1e-6"]
        )
        assert code == 1

    def test_zero_diagonal_exits_1(self, tmp_path, capsys):
        # Only a_00 is stored; without the diagonal check the bounds stage
        # passes and the solve runs to an uncertified exit 2.
        path = tmp_path / "a.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n10 10 1\n1 1 2.0\n")
        code = run_cli(
            ["compute", "--matrix", f"mm:{path}", "--alpha", "0.5", "--eps", "1e-6",
             "--out", "-"]
        )
        assert code == 1
        assert "not positive definite" in capsys.readouterr().err

    def test_rhs_override(self, tmp_path):
        rhs = tmp_path / "b.txt"
        rhs.write_text("1.0\n0.0\n")
        out = tmp_path / "run.json"
        code = run_cli(
            ["compute", "--matrix", "diag:4,9", "--alpha", "0.5", "--eps", "1e-9",
             "--rhs", str(rhs), "--out", str(out)]
        )
        assert code == 0
        y = json.loads(out.read_text())["y"]
        assert y[0] == pytest.approx(2.0, abs=1e-9)
        assert abs(y[1]) <= 1e-9

    def test_rhs_length_mismatch_exits_1(self, tmp_path, capsys):
        rhs = tmp_path / "b.txt"
        rhs.write_text("1.0\n")
        code = run_cli(
            ["compute", "--matrix", "diag:4,9", "--alpha", "0.5", "--eps", "1e-6",
             "--rhs", str(rhs)]
        )
        assert code == 1

    def test_byte_stable_artifacts(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            run_cli(
                ["compute", "--matrix", "lap1d:12", "--alpha", "0.3", "--eps", "1e-7",
                 "--family", "de", "--out", str(p)]
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_uncertified_exits_2(self, capsys):
        # One CG iteration cannot meet these thresholds.
        code = run_cli(
            ["compute", "--matrix", "lap1d:60", "--alpha", "0.5", "--eps", "1e-9",
             "--family", "gj2", "--max-iter", "1", "--out", "-"]
        )
        assert code == 2


class TestThresholds:
    def test_csv_shape_and_values(self, tmp_path):
        out = tmp_path / "tau.csv"
        code = run_cli(
            ["thresholds", "--matrix", "lap1d:40", "--alpha", "0.5", "--eps", "1e-6",
             "--family", "gj2", "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0] == ["k", "sigma", "omega", "tau"]
        body = rows[1:]
        assert [int(r[0]) for r in body] == list(range(1, len(body) + 1))
        sigma = np.array([float(r[1]) for r in body])
        tau = np.array([float(r[3]) for r in body])
        assert np.all(np.diff(sigma) > 0)
        assert np.all(tau > 0)

    def test_matches_library_thresholds(self, tmp_path):
        from fracpow.error_control import ErrorBudget, residual_thresholds, scalar_probe
        from fracpow.quadrature import select_node_count
        from fracpow.sparse import estimate_spectral_bounds

        out = tmp_path / "tau.csv"
        run_cli(
            ["thresholds", "--matrix", "lap1d:40", "--alpha", "0.5", "--eps", "1e-6",
             "--family", "gj2", "--out", str(out)]
        )
        rows = list(csv.reader(io.StringIO(out.read_text())))[1:]
        A = build_matrix("lap1d:40")
        bounds = estimate_spectral_bounds(A, seed=0)
        budget = ErrorBudget(1e-6)
        probe = scalar_probe(budget, bounds, np.sqrt(40.0))
        rule = select_node_count("gj2", 0.5, bounds, probe)
        tau = residual_thresholds(rule, budget, bounds.lambda_hi)
        assert len(rows) == rule.m
        got = np.array([float(r[3]) for r in rows])
        np.testing.assert_array_equal(got, tau)

    def test_json_format(self, capsys):
        code = run_cli(
            ["thresholds", "--matrix", "diag:1,2", "--alpha", "0.5", "--eps", "1e-6",
             "--family", "gj1", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(set(row) == {"k", "sigma", "omega", "tau"} for row in payload)


class TestBoundTrace:
    def test_rows_satisfy_bound(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli(
            ["bound-trace", "--matrix", "lap2d:8x8", "--shifts", "0,1,10",
             "--eps", "1e-10", "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0] == ["iteration", "shift", "measured_error", "error_bound"]
        body = [(int(r[0]), float(r[1]), float(r[2]), float(r[3])) for r in rows[1:]]
        shifts_seen = {r[1] for r in body}
        assert shifts_seen == {0.0, 1.0, 10.0}
        for it, sigma, measured, bound in body:
            assert measured <= bound + 1e-12

    def test_zero_shift_bound_equals_residual(self, tmp_path):
        out = tmp_path / "trace.csv"
        run_cli(
            ["bound-trace", "--matrix", "lap1d:16", "--shifts", "0", "--eps", "1e-8",
             "--out", str(out)]
        )
        rows = list(csv.reader(io.StringIO(out.read_text())))[1:]
        # sigma = 0 makes the coefficient exactly 1, so at iteration 0 the
        # bound is ||b|| and the measured error is ||A A^{-1} b|| = ||b||.
        it0 = [r for r in rows if int(r[0]) == 0][0]
        assert float(it0[3]) == pytest.approx(4.0, rel=1e-12)
        assert float(it0[2]) == pytest.approx(4.0, rel=1e-9)

    def test_oversize_matrix_exits_1(self, capsys):
        code = run_cli(["bound-trace", "--matrix", "lap1d:1200", "--shifts", "1"])
        assert code == 1

    def test_negative_shift_exits_1(self, capsys):
        code = run_cli(["bound-trace", "--matrix", "lap1d:8", "--shifts", "-1"])
        assert code == 1

    def test_indefinite_matrix_exits_1(self, capsys):
        code = run_cli(["bound-trace", "--matrix", "diag:-1,2", "--shifts", "1"])
        assert code == 1
        assert "not positive definite" in capsys.readouterr().err


class TestVerify:
    def test_single_cell_grid(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = run_cli(
            ["verify", "--matrix", "diag:1,2,3", "--alpha", "0.3", "--eps", "1e-5",
             "--family", "gj2", "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0] == ["matrix", "alpha", "eps", "family", "m", "error", "pass"]
        assert len(rows) == 2
        assert rows[1][6] == "true"
        assert "1/1 cells passed" in capsys.readouterr().out

    def test_small_grid_all_families(self, capsys):
        code = run_cli(
            ["verify", "--matrix", "lap1d:30", "--alpha", "0.2,0.5", "--eps", "1e-4",
             "--family", "gj1,gj2,de", "--jobs", "2"]
        )
        assert code == 0
        assert "6/6 cells passed" in capsys.readouterr().out

    def test_failing_cell_exits_3(self, capsys, monkeypatch):
        def fake_cell(A, b, bounds, y_ref, alpha, epsilon, family, qs, ss):
            return 5, epsilon * 10.0, False

        monkeypatch.setattr(cli, "_verify_cell", fake_cell)
        code = run_cli(
            ["verify", "--matrix", "diag:1,2", "--alpha", "0.5", "--eps", "1e-5",
             "--family", "gj1"]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "failed cells:" in captured.err

    def test_unknown_family_exits_1(self, capsys):
        code = run_cli(
            ["verify", "--matrix", "diag:1,2", "--alpha", "0.5", "--eps", "1e-5",
             "--family", "vulcan"]
        )
        assert code == 1

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_nonpositive_jobs_exits_1(self, jobs, capsys):
        code = run_cli(
            ["verify", "--matrix", "diag:1,2", "--alpha", "0.5", "--eps", "1e-5",
             "--family", "gj1", "--jobs", jobs]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "--jobs" in captured.err
        assert "cells passed" not in captured.out

    def test_json_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            ["verify", "--matrix", "diag:1,2", "--alpha", "0.5", "--eps", "1e-5",
             "--family", "gj1", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload[0]["pass"] is True
        assert isinstance(payload[0]["error"], float)


class TestParsing:
    def test_usage_error_exits_1(self, capsys):
        assert run_cli(["compute", "--matrix", "lap1d:4"]) == 1  # missing required
        assert run_cli(["unknown-command"]) == 1
        assert run_cli(["compute", "--matrix", "lap1d:4", "--alpha", "0.5",
                        "--eps", "1e-6", "--family", "zeta"]) == 1

    def test_log_env(self, monkeypatch, capsys):
        monkeypatch.setenv("FRACPOW_LOG", "DEBUG")
        code = run_cli(
            ["compute", "--matrix", "diag:2", "--alpha", "0.5", "--eps", "1e-6",
             "--out", "-"]
        )
        assert code == 0
