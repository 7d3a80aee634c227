import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracpow.cli as cli
import fracpow.error_control as error_control
import fracpow.quadrature as quadrature
from fracpow.cli import build_matrix, main
from fracpow.error_control import ErrorBudget, fracpow_action
from fracpow.sparse import HermitianSparseMatrix, build_laplacian_1d, write_matrix_market


def run_cli(args):
    return main(args)


def _no_matrix(spec):
    raise AssertionError(f"matrix {spec!r} built for an invalid command line")


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
        assert "below the double-precision floor" in capsys.readouterr().err

    def test_unaffordable_solve_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr("fracpow.shifted_cg._available_memory", lambda: 1000)
        code = run_cli(["compute", "--matrix", "lap1d:50", "--alpha", "0.5", "--eps", "1e-6"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fracpow: error: the solve needs ")
        assert captured.err.endswith("more than the 1000 bytes of available memory\n")
        assert "Traceback" not in captured.err

    def test_entries_near_1e250(self, tmp_path, capsys):
        # The spectral bounds and gj2's scale are formed in units of the
        # matrix, so neither overflows on a matrix of this size.
        path = tmp_path / "big.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 5\n"
            "1 1 2e250\n2 1 -1e250\n2 2 2e250\n3 2 -1e250\n3 3 2e250\n"
        )
        code = run_cli(
            ["compute", "--matrix", f"mm:{path}", "--alpha", "0.5", "--eps", "1e120",
             "--family", "gj2", "--out", str(tmp_path / "run.json")]
        )
        assert code == 0
        assert "certified=yes" in capsys.readouterr().err

    def test_de_below_its_alpha_range_exits_1_without_warnings(self):
        # Run as a process so that numpy's warnings reach stderr as a user
        # sees them, not the test suite's warning filter.
        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "fracpow.cli", "compute", "--matrix", "lap1d:50",
             "--alpha", "0.01", "--eps", "1e-6"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120, check=False,
        )
        assert done.returncode == 1
        assert "alpha = 0.01" in done.stderr
        assert "Warning" not in done.stderr

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

    def test_non_finite_entry_exits_1(self, tmp_path, capsys):
        path = tmp_path / "a.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 2.0\n2 1 nan\n2 2 2.0\n"
        )
        code = run_cli(
            ["compute", "--matrix", f"mm:{path}", "--alpha", "0.5", "--eps", "1e-6",
             "--out", "-"]
        )
        assert code == 1
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_complex_matrix_market_output(self, tmp_path, fmt):
        # y is written as [re, im] pairs in JSON and as re,im rows in CSV,
        # each number round-tripping to the library's result.
        dense = 4.0 * np.eye(5, dtype=complex)
        dense[np.arange(1, 5), np.arange(4)] = 1.0 + 1.0j
        dense += np.triu(dense.conj().T, 1)
        A = HermitianSparseMatrix.from_dense(dense)
        path = tmp_path / "h.mtx"
        write_matrix_market(A, path)
        out = tmp_path / f"y.{fmt}"
        code = run_cli(
            ["compute", "--matrix", f"mm:{path}", "--alpha", "0.5", "--eps", "1e-8",
             "--family", "gj2", "--format", fmt, "--out", str(out)]
        )
        assert code == 0
        expected = fracpow_action(A, np.ones(5), 0.5, ErrorBudget(1e-8), "gj2").y
        assert np.iscomplexobj(expected)
        if fmt == "json":
            pairs = json.loads(out.read_text())["y"]
        else:
            rows = list(csv.reader(io.StringIO(out.read_text())))
            assert rows[0] == ["re", "im"]
            pairs = [[float(v) for v in row] for row in rows[1:]]
        pairs = np.array(pairs)
        assert pairs.shape == (5, 2)
        np.testing.assert_array_equal(pairs[:, 0] + 1j * pairs[:, 1], expected)

    def test_complex_matrix_market_oracle_commands(self, tmp_path, capsys):
        # verify and bound-trace take the complex Hermitian file that the
        # compute test above writes; the dense oracle is not real-only.
        path = tmp_path / "h.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate complex hermitian\n3 3 5\n"
            "1 1 4 0\n2 1 1 1\n2 2 4 0\n3 2 1 -1\n3 3 4 0\n"
        )
        assert run_cli(["verify", "--matrix", f"mm:{path}", "--alpha", "0.5", "--eps", "1e-6"]) == 0
        assert capsys.readouterr().out.endswith("3/3 cells passed, 3/3 certified\n")
        out = tmp_path / "trace.csv"
        assert run_cli(
            ["bound-trace", "--matrix", f"mm:{path}", "--shifts", "1", "--eps", "1e-10",
             "--out", str(out)]
        ) == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0] == ["iteration", "shift", "measured_error", "error_bound"]
        assert len(rows) > 2

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

    def test_uncertified_exits_2(self, tmp_path, capsys):
        # The smallest-shift nodes stagnate above their thresholds at this eps.
        code = run_cli(
            ["compute", "--matrix", "lap1d:1000", "--alpha", "0.2", "--eps", "1e-9",
             "--family", "gj2", "--out", str(tmp_path / "run.json")]
        )
        assert code == 2
        assert "certified=no failing=solve" in capsys.readouterr().err


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
        bounds = estimate_spectral_bounds(A)
        budget = ErrorBudget(1e-6)
        probe = scalar_probe(budget, bounds, np.sqrt(40.0))
        rule = select_node_count("gj2", 0.5, bounds, probe)
        tau = residual_thresholds(rule, budget, bounds.lambda_hi)
        assert len(rows) == rule.m
        got = np.array([float(r[3]) for r in rows])
        np.testing.assert_array_equal(got, tau)

    def test_unreachable_budget_exits_1_without_a_build(self, capsys, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("a rule was built")

        monkeypatch.setattr(quadrature, "build_rule", no_build)
        code = run_cli(
            ["thresholds", "--matrix", "diag:1e-8,1e-6,1e-4,1e-2,1", "--alpha", "0.5",
             "--eps", "1e-6", "--family", "gj1"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "fracpow: error: no gj1 rule with m <= 16384 is priced within scalar budget "
        )

    def test_json_format(self, capsys):
        code = run_cli(
            ["thresholds", "--matrix", "diag:1,2", "--alpha", "0.5", "--eps", "1e-6",
             "--family", "gj1", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(set(row) == {"k", "sigma", "omega", "tau"} for row in payload)


    def test_zero_rhs_matches_compute(self, tmp_path):
        # Every rule is exact on b = 0, so both commands use the 1-node rule.
        rhs = tmp_path / "b.txt"
        rhs.write_text("0\n" * 6)
        common = ["--matrix", "lap1d:6", "--alpha", "0.5", "--eps", "1e-6", "--rhs", str(rhs)]
        tau_out = tmp_path / "tau.json"
        run_out = tmp_path / "run.json"
        assert run_cli(["thresholds", *common, "--format", "json", "--out", str(tau_out)]) == 0
        assert run_cli(["compute", *common, "--out", str(run_out)]) == 0
        rows = json.loads(tau_out.read_text())
        node = json.loads(run_out.read_text())["per_node"][0]
        assert rows == [
            {"k": 1, "sigma": node["sigma"], "omega": node["omega"], "tau": node["threshold"]}
        ]


class TestNonFiniteRhs:
    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize(
        "command",
        [
            ["bound-trace", "--shifts", "1"],
            ["thresholds", "--alpha", "0.5", "--eps", "1e-6"],
        ],
        ids=["bound-trace", "thresholds"],
    )
    def test_exits_1_naming_the_file(self, tmp_path, capsys, command, value):
        rhs = tmp_path / "b.txt"
        rhs.write_text("1\n" * 4 + f"{value}\n" + "1\n" * 5)
        out = tmp_path / "out.csv"
        code = run_cli([*command, "--matrix", "lap1d:10", "--rhs", str(rhs), "--out", str(out)])
        assert code == 1
        assert f"{str(rhs)!r}: right-hand side must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestOverflowingRhs:
    def test_compute_exits_1_before_any_product(self, tmp_path, capsys):
        # ||b||^2 overflows above about 1.3e154, so b is rejected as input,
        # with no overflow warning and no tolerance floor of inf.
        rhs = tmp_path / "b.txt"
        rhs.write_text("1e200\n" * 5)
        out = tmp_path / "out.json"
        code = run_cli(["compute", "--matrix", "lap1d:5", "--alpha", "0.5", "--eps", "1e-8",
                        "--rhs", str(rhs), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{str(rhs)!r}: right-hand side is too large: its squared norm overflows" in err
        assert "overflow encountered" not in err
        assert not out.exists()


class TestEmptyRhs:
    @pytest.mark.parametrize("text", ["", "\n\n", "# no data\n"], ids=["empty", "blank", "comment"])
    @pytest.mark.parametrize(
        "command",
        [
            ["compute", "--alpha", "0.5", "--eps", "1e-6"],
            ["thresholds", "--alpha", "0.5", "--eps", "1e-6"],
        ],
        ids=["compute", "thresholds"],
    )
    def test_exits_1_with_shape_message(self, tmp_path, capsys, command, text):
        rhs = tmp_path / "b.txt"
        rhs.write_text(text)
        code = run_cli([*command, "--matrix", "lap1d:5", "--rhs", str(rhs)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{str(rhs)!r}: right-hand side has shape (0,), expected (5,)" in err
        assert "Warning" not in err


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
            assert measured <= bound

    @pytest.mark.parametrize("shifts", [[], ["--shifts", "0"]], ids=["default-shifts", "zero-shift"])
    @pytest.mark.parametrize("matrix", ["complex-mm", "lap1d:50"])
    def test_bound_holds_past_attainable_accuracy(self, tmp_path, matrix, shifts):
        # CG's recurrence residual keeps falling after the error stops; the
        # bound column, taken from the explicit residual and its rounding
        # allowance, stays above the measured error on every row.
        if matrix == "complex-mm":
            path = tmp_path / "h.mtx"
            path.write_text(
                "%%MatrixMarket matrix coordinate complex hermitian\n3 3 5\n"
                "1 1 4 0\n2 1 1 1\n2 2 4 0\n3 2 1 -1\n3 3 4 0\n"
            )
            matrix = f"mm:{path}"
        out = tmp_path / "trace.json"
        code = run_cli(["bound-trace", "--matrix", matrix, *shifts, "--format", "json", "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) >= 3
        bad = [row for row in rows if not row["error_bound"] >= row["measured_error"]]
        assert not bad, bad

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
        assert rows[0] == [
            "matrix", "alpha", "eps", "family", "m", "error", "pass", "certified", "failing"
        ]
        assert len(rows) == 2
        assert rows[1][6:] == ["true", "true", ""]
        assert "1/1 cells passed, 1/1 certified" in capsys.readouterr().out

    def test_small_grid_all_families(self, capsys):
        code = run_cli(
            ["verify", "--matrix", "lap1d:30", "--alpha", "0.2,0.5", "--eps", "1e-4",
             "--family", "gj1,gj2,de"]
        )
        assert code == 0
        assert "6/6 cells passed" in capsys.readouterr().out

    def test_failing_cell_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "absolute_error", lambda y, y_ref: 1e-4)
        code = run_cli(
            ["verify", "--matrix", "diag:1,2", "--alpha", "0.5", "--eps", "1e-5",
             "--family", "gj1"]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "FAIL certified=yes" in captured.out
        assert "0/1 cells passed, 1/1 certified" in captured.out
        assert "failed cells:" in captured.err

    def test_uncertified_cell_names_its_term_and_exits_0(self, tmp_path, capsys, monkeypatch):
        # Only an error over epsilon fails the grid; an uncertified cell within it does not.
        monkeypatch.setattr(error_control, "probe_error", lambda rule, values: math.inf)
        out = tmp_path / "report.json"
        code = run_cli(
            ["verify", "--matrix", "diag:1,2", "--alpha", "0.5", "--eps", "1e-5",
             "--family", "gj1", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        assert "PASS certified=no failing=quadrature" in capsys.readouterr().out
        (row,) = json.loads(out.read_text())
        assert (row["pass"], row["certified"], row["failing"]) == (True, False, "quadrature")

    def test_oversize_matrix_exits_1_before_bounds(self, capsys, monkeypatch):
        def no_bounds(*args, **kwargs):
            raise AssertionError("spectral bounds estimated for an oversize matrix")

        monkeypatch.setattr(cli, "estimate_spectral_bounds", no_bounds)
        code = run_cli(["verify", "--matrix", "lap1d:1200"])
        assert code == 1
        assert "capped at n = 1100" in capsys.readouterr().err

    def test_unknown_family_exits_1(self, capsys):
        code = run_cli(
            ["verify", "--matrix", "diag:1,2", "--alpha", "0.5", "--eps", "1e-5",
             "--family", "vulcan"]
        )
        assert code == 1

    @pytest.mark.parametrize("flag", ["alpha", "eps", "family"])
    def test_empty_list_exits_1(self, flag, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_matrix", _no_matrix)
        args = {"alpha": "0.5", "eps": "1e-5", "family": "gj1"}
        args[flag] = "" if flag == "alpha" else ","
        argv = ["verify", "--matrix", "diag:1,2"]
        for name, value in args.items():
            argv += [f"--{name}", value]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert f"--{flag}" in captured.err
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--matrix", "", "--alpha", "0.5", "--eps", "1e-6"],
            ["compute", "--matrix", "lap1d:4", "--alpha", "1.5", "--eps", "1e-6"],
            ["compute", "--matrix", "lap1d:4", "--alpha", "0.5", "--eps", "0"],
            ["compute", "--matrix", "lap1d:4", "--alpha", "0.5", "--eps", "nan"],
            ["compute", "--matrix", "lap1d:4", "--alpha", "0.5", "--eps", "1e-6", "--family", "x"],
            ["compute", "--matrix", "lap1d:4", "--alpha", "0.5", "--eps", "1e-6", "--format", "yaml"],
            ["compute", "--matrix", "lap1d:4", "--alpha", "half", "--eps", "1e-6"],
            ["compute", "--matrix", "lap1d:4", "--alpha", "0.5", "--eps", "1e-6x"],
            ["bound-trace", "--matrix", "lap1d:4", "--shifts", "1,two"],
            ["bound-trace", "--matrix", "lap1d:4", "--eps", ""],
            ["verify", "--alpha", "0.5,x"],
        ],
        ids=[
            "empty-matrix", "alpha", "eps-zero", "eps-nan", "family", "format",
            "alpha-not-a-number", "eps-not-a-number", "shift-not-a-number",
            "trace-eps-empty", "alpha-list-not-a-number",
        ],
    )
    def test_invalid_value_exits_1(self, argv, capsys):
        assert run_cli(argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--matrix", "lap1d:8", "--alpha", "0.5", "--eps", "1e-6"],
            ["thresholds", "--matrix", "lap1d:8", "--alpha", "0.5", "--eps", "1e-6"],
            ["bound-trace", "--matrix", "lap1d:8", "--shifts", "1"],
            ["verify", "--matrix", "lap1d:8"],
        ],
        ids=["compute", "thresholds", "bound-trace", "verify"],
    )
    def test_no_subcommand_takes_max_iter(self, argv, capsys, monkeypatch):
        # Each node stops on its threshold, on stagnation or at the solver's 10 n guard.
        monkeypatch.setattr(cli, "build_matrix", _no_matrix)
        assert run_cli([*argv, "--max-iter", "1"]) == 1
        assert "unrecognized arguments: --max-iter 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--quad-share", "--solve-share"], ids=["quad-share", "solve-share"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--matrix", "lap1d:8", "--alpha", "0.5", "--eps", "1e-6"],
            ["thresholds", "--matrix", "lap1d:8", "--alpha", "0.5", "--eps", "1e-6"],
            ["verify", "--matrix", "lap1d:8"],
        ],
        ids=["compute", "thresholds", "verify"],
    )
    def test_no_subcommand_takes_shares(self, argv, flag, capsys, monkeypatch):
        # The budget splits half-and-half by construction, so there is no share to set.
        monkeypatch.setattr(cli, "build_matrix", _no_matrix)
        assert run_cli([*argv, flag, "0.5"]) == 1
        assert f"unrecognized arguments: {flag} 0.5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--matrix", "lap1d:8", "--alpha", "0.5", "--eps", "1e-6"],
            ["thresholds", "--matrix", "lap1d:8", "--alpha", "0.5", "--eps", "1e-6"],
            ["bound-trace", "--matrix", "lap1d:8"],
            ["verify", "--matrix", "lap1d:8"],
        ],
        ids=["compute", "thresholds", "bound-trace", "verify"],
    )
    def test_no_subcommand_takes_seed(self, argv, capsys, monkeypatch):
        # The spectral-bounds start vector is fixed, so there is no seed to set.
        monkeypatch.setattr(cli, "build_matrix", _no_matrix)
        assert run_cli([*argv, "--seed", "0"]) == 1
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--matrix", "diag:1,4", "--alpha", "0.5", "--eps", "1e-6", "--out", "-"],
            ["thresholds", "--matrix", "diag:1,4", "--alpha", "0.5", "--eps", "1e-6"],
            ["verify", "--matrix", "diag:1,4", "--alpha", "0.5", "--eps", "1e-6", "--out", "-"],
        ],
        ids=["compute", "thresholds", "verify"],
    )
    def test_family_ignores_case(self, argv, capsys):
        # The library's rule: names are matched in lower case.
        outputs = []
        for family in ("gj2", "GJ2"):
            assert run_cli([*argv, "--family", family]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "GJ2" not in outputs[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--matrix", "lap1d:8", "--alpha", "0.5", "--eps", "1e-6"],
            ["thresholds", "--matrix", "lap1d:8", "--alpha", "0.5", "--eps", "1e-6"],
            ["verify", "--matrix", "lap1d:8"],
        ],
        ids=["compute", "thresholds", "verify"],
    )
    def test_unknown_family_exits_1_before_any_matrix(self, argv, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_matrix", _no_matrix)
        assert run_cli([*argv, "--family", "Zeta"]) == 1
        assert "unknown family 'zeta'" in capsys.readouterr().err

    def test_log_env(self, monkeypatch, capsys):
        monkeypatch.setenv("FRACPOW_LOG", "DEBUG")
        code = run_cli(
            ["compute", "--matrix", "diag:2", "--alpha", "0.5", "--eps", "1e-6",
             "--out", "-"]
        )
        assert code == 0


# Artifact, stdout and stderr of small runs, byte for byte.
GOLDEN = {
    "thresholds-csv": (
        ["thresholds", "--matrix", "diag:1,2,3", "--alpha", "0.5", "--eps", "1e-6", "--family", "gj2"],
        """\
k,sigma,omega,tau
1,0.043449587322660209,0.26981771198541427,3.7598836203498035e-07
2,0.449668420605214,0.33154962512778274,3.4682273372859089e-07
3,1.7320508075688401,0.52642960518099136,2.9963175582560667e-07
4,6.6715825762505983,1.277076106831825,2.5244077792262239e-07
5,69.045534948850602,10.755867080398794,2.2327514961623278e-07
""",
        "",
        "",
    ),
    "thresholds-json": (
        ["thresholds", "--matrix", "lap1d:40", "--alpha", "0.5", "--eps", "1e-1", "--family", "gj2", "--format", "json"],
        """\
[
  {
    "k": 1,
    "sigma": 0.0014862313344541447,
    "omega": 0.04940233653055296,
    "tau": 0.12655924143574315
  },
  {
    "k": 2,
    "sigma": 0.014098349249720274,
    "omega": 0.053429999799025366,
    "tau": 0.11738777268004218
  },
  {
    "k": 3,
    "sigma": 0.04377269414688709,
    "omega": 0.06290646281350701,
    "tau": 0.10044110814712433
  },
  {
    "k": 4,
    "sigma": 0.10318966013610817,
    "omega": 0.08188119275550912,
    "tau": 0.07829922389022978
  },
  {
    "k": 5,
    "sigma": 0.22748006436775856,
    "omega": 0.12157316987708877,
    "tau": 0.054333021070790216
  },
  {
    "k": 6,
    "sigma": 0.5362610409832028,
    "omega": 0.22018196864289263,
    "tau": 0.032191136813895724
  },
  {
    "k": 7,
    "sigma": 1.6649885822848909,
    "omega": 0.5806396244273514,
    "tau": 0.01524447228097784
  },
  {
    "k": 8,
    "sigma": 15.79403554862492,
    "omega": 5.092732190257818,
    "tau": 0.006073003525276814
  }
]
""",
        "",
        "",
    ),
    "bound-trace-csv": (
        ["bound-trace", "--matrix", "lap2d:8x8", "--shifts", "10", "--eps", "1e-3"],
        """\
iteration,shift,measured_error,error_bound
0,10,0.5254175519831239,3.5555555555555585
1,10,0.093365846151145612,0.20736421102927124
2,10,0.010192537223866961,0.018956895505348528
3,10,0.0015320419774958159,0.0022660898450020846
4,10,0.00018707964925296507,0.00026601144074428343
""",
        "",
        "",
    ),
    "bound-trace-json": (
        ["bound-trace", "--matrix", "diag:1,2,3", "--shifts", "1", "--eps", "1e-10", "--format", "json"],
        """\
[
  {
    "iteration": 0,
    "shift": 1.0,
    "measured_error": 1.1211353372561426,
    "error_bound": 1.2990381056766584
  },
  {
    "iteration": 1,
    "shift": 1.0,
    "measured_error": 0.3004626062886658,
    "error_bound": 0.35355339059327473
  },
  {
    "iteration": 2,
    "shift": 1.0,
    "measured_error": 0.06437735971942653,
    "error_bound": 0.07348469228349638
  },
  {
    "iteration": 3,
    "shift": 1.0,
    "measured_error": 0.0,
    "error_bound": 1.1662672576528939e-15
  }
]
""",
        "",
        "",
    ),
    "verify-csv": (
        ["verify", "--matrix", "diag:1,2,3", "--matrix", "lap1d:40", "--alpha", "0.5", "--eps", "1e-6", "--family", "gj1"],
        """\
matrix,alpha,eps,family,m,error,pass,certified,failing
"diag:1,2,3",0.5,9.9999999999999995e-07,gj1,7,3.4066341530656859e-08,true,true,
lap1d:40,0.5,9.9999999999999995e-07,gj1,48,3.5151464599906056e-07,true,true,
""",
        """\
diag:1,2,3   alpha=0.5  eps=1e-06  gj1  m=7      error=3.407e-08 PASS certified=yes
lap1d:40     alpha=0.5  eps=1e-06  gj1  m=48     error=3.515e-07 PASS certified=yes
2/2 cells passed, 2/2 certified
""",
        "",
    ),
    "verify-json": (
        ["verify", "--matrix", "diag:1,2,3", "--alpha", "0.2", "--eps", "1e-4", "--family", "gj2", "--format", "json"],
        """\
[
  {
    "matrix": "diag:1,2,3",
    "alpha": 0.2,
    "eps": 0.0001,
    "family": "gj2",
    "m": 3,
    "error": 1.2445436520252708e-05,
    "pass": true,
    "certified": true,
    "failing": ""
  }
]
""",
        """\
diag:1,2,3   alpha=0.2  eps=0.0001 gj2  m=3      error=1.245e-05 PASS certified=yes
1/1 cells passed, 1/1 certified
""",
        "",
    ),
    "compute-csv": (
        ["compute", "--matrix", "diag:1,2,3", "--alpha", "0.5", "--eps", "1e-8", "--format", "csv"],
        """\
y
0.99999999960742203
1.4142135631126389
1.7320508063396538
""",
        "",
        """\
m=45 matvecs=3 verification_matvecs=38 error_bound_sum=1.552e-10 certified=yes assumptions=interval:estimated,quadrature:probes,rounding:uncounted
""",
    ),
}


class TestGoldenArtifacts:
    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_bytes(self, name, tmp_path, capsys):
        argv, artifact, stdout, stderr = GOLDEN[name]
        out = tmp_path / "artifact"
        assert run_cli([*argv, "--out", str(out)]) == 0
        assert out.read_text() == artifact
        captured = capsys.readouterr()
        assert captured.out == stdout
        assert captured.err == stderr

    def test_bound_trace_runs_no_bounds_stage(self, tmp_path, capsys, monkeypatch):
        # bound-trace needs only lambda_hi, the Gershgorin bound: no Lanczos.
        def no_bounds(*args, **kwargs):
            raise AssertionError("spectral bounds estimated by bound-trace")

        monkeypatch.setattr(cli, "estimate_spectral_bounds", no_bounds)
        argv, artifact, _, _ = GOLDEN["bound-trace-csv"]
        out = tmp_path / "artifact"
        assert run_cli([*argv, "--out", str(out)]) == 0
        assert out.read_text() == artifact
