import csv
import io
import json

import numpy as np
import pytest

import fracpow.cli as cli
from fracpow.cli import build_matrix, main
from fracpow.sparse import build_laplacian_1d, write_matrix_market


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
             "--family", "gj1,gj2,de"]
        )
        assert code == 0
        assert "6/6 cells passed" in capsys.readouterr().out

    def test_failing_cell_exits_3(self, capsys, monkeypatch):
        def fake_cell(A, b, bounds, y_ref, alpha, budget, family):
            return 5, budget.epsilon * 10.0, False

        monkeypatch.setattr(cli, "_verify_cell", fake_cell)
        code = run_cli(
            ["verify", "--matrix", "diag:1,2", "--alpha", "0.5", "--eps", "1e-5",
             "--family", "gj1"]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "failed cells:" in captured.err

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
        ],
        ids=["empty-matrix", "alpha", "eps-zero", "eps-nan", "family", "format"],
    )
    def test_invalid_value_exits_1(self, argv, capsys):
        assert run_cli(argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--matrix", "lap1d:8", "--alpha", "0.5", "--eps", "1e-6"],
            ["bound-trace", "--matrix", "lap1d:8", "--shifts", "1"],
        ],
        ids=["compute", "bound-trace"],
    )
    def test_zero_max_iter_exits_1(self, argv, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_matrix", _no_matrix)
        assert run_cli([*argv, "--max-iter", "0"]) == 1
        assert "--max-iter" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["compute", "--matrix", "lap1d:8", "--alpha", "0.5", "--eps", "1e-6", "--seed", "-1"], "--seed"),
            (["thresholds", "--matrix", "lap1d:8", "--alpha", "0.5", "--eps", "1e-6", "--seed", "-1"], "--seed"),
            (["bound-trace", "--matrix", "lap1d:8", "--seed", "-1"], "--seed"),
            (["verify", "--matrix", "lap1d:8", "--seed", "-1"], "--seed"),
            (["compute", "--matrix", "lap1d:8", "--alpha", "0.5", "--eps", "1e-6", "--seed", "1.5"], "--seed"),
            (["compute", "--matrix", "lap1d:8", "--alpha", "0.5", "--eps", "1e-6", "--quad-share", "0"], "--quad-share"),
            (["compute", "--matrix", "lap1d:8", "--alpha", "0.5", "--eps", "1e-6", "--solve-share", "1"], "--solve-share"),
            (["thresholds", "--matrix", "lap1d:8", "--alpha", "0.5", "--eps", "1e-6", "--quad-share", "1.5"], "--quad-share"),
            (["verify", "--matrix", "lap1d:8", "--quad-share", "-0.5"], "--quad-share"),
            (["verify", "--matrix", "lap1d:8", "--solve-share", "nan"], "--solve-share"),
        ],
        ids=[
            "compute-seed", "thresholds-seed", "bound-trace-seed", "verify-seed", "compute-seed-float",
            "compute-quad-share", "compute-solve-share", "thresholds-quad-share",
            "verify-quad-share", "verify-solve-share",
        ],
    )
    def test_seed_and_shares_checked_at_parse_time(self, argv, flag, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_matrix", _no_matrix)
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {flag}" in err

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
1,0.04344958732266023,0.26981771198541432,3.7598836203498025e-07
2,0.44966842060521417,0.3315496251277828,3.4682273372859084e-07
3,1.7320508075688408,0.52642960518099147,2.9963175582560667e-07
4,6.6715825762506009,1.2770761068318253,2.5244077792262245e-07
5,69.04553494885063,10.755867080398795,2.232751496162328e-07
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
    "sigma": 0.0014862313344541928,
    "omega": 0.04940233653055377,
    "tau": 0.12655924143574107
  },
  {
    "k": 2,
    "sigma": 0.014098349249720732,
    "omega": 0.05342999979902623,
    "tau": 0.11738777268004026
  },
  {
    "k": 3,
    "sigma": 0.0437726941468885,
    "omega": 0.06290646281350804,
    "tau": 0.10044110814712269
  },
  {
    "k": 4,
    "sigma": 0.10318966013611151,
    "omega": 0.08188119275551045,
    "tau": 0.07829922389022857
  },
  {
    "k": 5,
    "sigma": 0.2274800643677659,
    "omega": 0.12157316987709074,
    "tau": 0.05433302107078943
  },
  {
    "k": 6,
    "sigma": 0.5362610409832201,
    "omega": 0.22018196864289624,
    "tau": 0.03219113681389532
  },
  {
    "k": 7,
    "sigma": 1.6649885822849448,
    "omega": 0.580639624427361,
    "tau": 0.015244472280977736
  },
  {
    "k": 8,
    "sigma": 15.794035548625434,
    "omega": 5.092732190257901,
    "tau": 0.006073003525276873
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
0,10,0.5254175519831239,3.5555555555555554
1,10,0.093365846151145612,0.20736421102926361
2,10,0.010192537223866961,0.018956895505340996
3,10,0.0015320419774958159,0.0022660898449946435
4,10,0.00018707964925296507,0.00026601144073663298
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
    "error_bound": 1.299038105676658
  },
  {
    "iteration": 1,
    "shift": 1.0,
    "measured_error": 0.3004626062886658,
    "error_bound": 0.35355339059327373
  },
  {
    "iteration": 2,
    "shift": 1.0,
    "measured_error": 0.06437735971942653,
    "error_bound": 0.07348469228349531
  },
  {
    "iteration": 3,
    "shift": 1.0,
    "measured_error": 0.0,
    "error_bound": 3.034526741783877e-17
  }
]
""",
        "",
        "",
    ),
    "verify-csv": (
        ["verify", "--matrix", "diag:1,2,3", "--matrix", "lap1d:40", "--alpha", "0.5", "--eps", "1e-6", "--family", "gj1"],
        """\
matrix,alpha,eps,family,m,error,pass
"diag:1,2,3",0.5,9.9999999999999995e-07,gj1,7,3.4066341752701186e-08,true
lap1d:40,0.5,9.9999999999999995e-07,gj1,48,3.5151464584215591e-07,true
""",
        """\
diag:1,2,3   alpha=0.5  eps=1e-06  gj1  m=7      error=3.407e-08 PASS
lap1d:40     alpha=0.5  eps=1e-06  gj1  m=48     error=3.515e-07 PASS
2/2 cells passed
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
    "error": 1.2445436519986306e-05,
    "pass": true
  }
]
""",
        """\
diag:1,2,3   alpha=0.2  eps=0.0001 gj2  m=3      error=1.245e-05 PASS
1/1 cells passed
""",
        "",
    ),
    "compute-csv": (
        ["compute", "--matrix", "diag:1,2,3", "--alpha", "0.5", "--eps", "1e-8", "--format", "csv"],
        """\
y
0.99999999960742214
1.4142135631126389
1.7320508063396534
""",
        "",
        """\
m=45 matvecs=3 verification_matvecs=38 error_bound_sum=1.552e-10 certified=yes
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
