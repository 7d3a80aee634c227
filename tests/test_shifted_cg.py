import dataclasses
import io
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest

import fracpow.error_control
import fracpow.shifted_cg
import fracpow.sparse
from fracpow import cli
from fracpow.error_control import ErrorBudget, fracpow_action, plan_action
from fracpow.errors import SolverBreakdownError, SolverMemoryError
from fracpow.oracle import absolute_error, dense_fracpow_action
from fracpow.shifted_cg import (
    ShiftedSolveReport,
    ShiftedSolveRequest,
    _active_rows,
    _flush,
    shifted_cg_solve,
    single_shift_cg,
)
from fracpow.sparse import (
    HermitianSparseMatrix,
    SpectralBounds,
    build_diagonal,
    build_laplacian_1d,
    build_laplacian_2d,
    estimate_spectral_bounds,
)

from conftest import random_hermitian


def capped_rows(A, b, shifts, iterations):
    """Rows of a solve capped at ``iterations``: every shift's iterate there."""
    X, rep = shifted_cg_solve(A, b, ShiftedSolveRequest(shifts, 1e-300, iterations))
    assert np.all(rep.iterations_used == iterations)
    return X


def plain_cg_history(A, b, sigma, iterations):
    """Iterates and recurrence residuals of plain CG on ``(sigma I + A) x = b``, by iteration."""
    xs, rs = {}, {}

    def keep(i, x, r):
        xs[i], rs[i] = x.copy(), r.copy()

    single_shift_cg(A, b, sigma, tol=1e-300, max_iterations=iterations, callback=keep)
    return xs, rs


class TestRequestValidation:
    def test_rejects_negative_shift(self):
        with pytest.raises(ValueError):
            ShiftedSolveRequest([-1.0], [1e-8])

    def test_rejects_empty_shifts(self):
        with pytest.raises(ValueError, match="non-empty"):
            ShiftedSolveRequest([], 1.0)

    def test_rejects_duplicate_shifts(self):
        with pytest.raises(ValueError):
            ShiftedSolveRequest([1.0, 1.0], [1e-8])

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            ShiftedSolveRequest([1.0], [0.0])

    def test_allows_infinite_threshold(self):
        req = ShiftedSolveRequest([1.0], [np.inf])
        assert np.isinf(req.thresholds[0])

    def test_threshold_broadcast(self):
        req = ShiftedSolveRequest([0.0, 1.0, 2.0], 1e-9)
        np.testing.assert_array_equal(req.thresholds, [1e-9, 1e-9, 1e-9])

    def test_rejects_bad_iteration_cap(self):
        # ``True`` is an int, but not an iteration count.
        for cap in (0, True):
            with pytest.raises(ValueError, match="max_iterations"):
                ShiftedSolveRequest([1.0], [1e-8], cap)

    @pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
    def test_rejects_non_finite_rhs(self, value):
        A = build_laplacian_2d(8, 8)
        b = np.ones(A.n)
        b[5] = value
        with pytest.raises(ValueError, match="right-hand side must be finite"):
            shifted_cg_solve(A, b, ShiftedSolveRequest([0.0, 1.0], 1e-8))


class TestExactCases:
    def test_identity_two_shifts_one_iteration(self):
        # (sigma I + I) x = b has the single eigenvalue sigma + 1, so CG is
        # exact after one step: x = b / (sigma + 1).
        A = build_diagonal(np.ones(6))
        b = np.arange(1.0, 7.0)
        req = ShiftedSolveRequest([0.0, 1.0], 1e-12)
        X, rep = shifted_cg_solve(A, b, req)
        np.testing.assert_allclose(X[0], b, rtol=1e-14)
        np.testing.assert_allclose(X[1], b / 2.0, rtol=1e-14)
        assert rep.all_converged
        assert rep.iterations_used.max() == 1

    def test_diagonal_exact_in_n_iterations(self, rng):
        d = np.array([1.0, 2.0, 5.0, 9.0])
        A = build_diagonal(d)
        b = rng.standard_normal(4)
        shifts = np.array([0.0, 0.3, 7.0])
        X, rep = shifted_cg_solve(A, b, ShiftedSolveRequest(shifts, 1e-13))
        for k, s in enumerate(shifts):
            np.testing.assert_allclose(X[k], b / (d + s), rtol=1e-11)
        assert rep.all_converged

    def test_zero_rhs_trivially_converged(self):
        A = build_laplacian_1d(5)
        X, rep = shifted_cg_solve(A, np.zeros(5), ShiftedSolveRequest([0.5], 1e-10))
        np.testing.assert_array_equal(X, np.zeros((1, 5)))
        assert rep.all_converged
        assert rep.iterations_used[0] == 0
        assert rep.total_matvecs == 0

    def test_infinite_threshold_zero_iterations(self):
        A = build_laplacian_1d(5)
        X, rep = shifted_cg_solve(A, np.ones(5), ShiftedSolveRequest([2.0], np.inf))
        np.testing.assert_array_equal(X, np.zeros((1, 5)))
        assert rep.converged[0]
        assert rep.final_residual_norms[0] == pytest.approx(np.sqrt(5.0))


class TestEquivalenceWithPlainCG:
    # A solve capped at i joint iterations returns every shift's iterate i,
    # so capping at each i in turn compares the multi-shift recurrences with
    # independent plain CG runs iteration by iteration.

    def test_iterates_match_per_shift(self, rng):
        A = build_laplacian_1d(50)
        b = rng.standard_normal(50)
        shifts = np.array([0.0, 0.37, 1.9, 4.4, 9.6])
        iters = 30
        plain = [plain_cg_history(A, b, sigma, iters)[0] for sigma in shifts]
        for i in range(1, iters + 1):
            X = capped_rows(A, b, shifts, i)
            for k in range(shifts.size):
                ref = plain[k][i]
                assert np.linalg.norm(X[k] - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_residuals_match_per_shift(self, rng):
        # Each returned row's explicit residual is the plain CG recurrence
        # residual of its shifted system.  Below the rounding floor of the
        # explicit residual (about 1e-15 ||b||) the two part, so the
        # tolerance has an absolute floor far above it.
        A = build_laplacian_1d(40)
        b = rng.standard_normal(40)
        shifts = np.array([0.1, 1.2, 5.0])
        iters = 25
        plain = [plain_cg_history(A, b, sigma, iters)[1] for sigma in shifts]
        for i in range(1, iters + 1):
            X = capped_rows(A, b, shifts, i)
            for k, sigma in enumerate(shifts):
                ref = plain[k][i]
                res = b - sigma * X[k] - A.matvec(X[k])
                assert np.linalg.norm(res - ref) <= 1e-8 * max(np.linalg.norm(ref), 1.0)

    def test_residuals_collinear_and_shrinking_with_the_shift(self, rng):
        # Every row's residual is zeta times the seed's (the smallest shift's)
        # with 0 < zeta <= 1, and a larger shift has the smaller factor, up to
        # the explicit residual's rounding floor.
        A = build_laplacian_1d(30)
        b = rng.standard_normal(30)
        shifts = np.array([0.0, 0.5, 2.0, 50.0])
        floor = 1e-12 * np.linalg.norm(b)
        for i in range(1, 21):
            X = capped_rows(A, b, shifts, i)
            res = b - shifts[:, None] * X - np.array([A.matvec(x) for x in X])
            seed = res[0]
            zeta = res @ seed / np.vdot(seed, seed)
            assert zeta[0] == pytest.approx(1.0, rel=1e-14)
            norms = np.linalg.norm(res, axis=1)
            apart = np.linalg.norm(res - zeta[:, None] * seed, axis=1)
            assert np.all(apart <= 1e-8 * norms + floor)
            assert np.all(zeta >= -floor) and np.all(zeta <= 1.0 + 1e-12)
            assert np.all(np.diff(norms) <= floor)


class TestConvergenceCertificates:
    def test_converged_flags_match_explicit_residuals(self, rng):
        A = build_laplacian_1d(60)
        b = rng.standard_normal(60)
        shifts = np.array([0.05, 0.8, 3.0, 20.0])
        thresholds = np.array([1e-8, 1e-9, 1e-10, 1e-10])
        X, rep = shifted_cg_solve(A, b, ShiftedSolveRequest(shifts, thresholds))
        assert rep.all_converged
        dense = A.to_dense()
        for k, sigma in enumerate(shifts):
            explicit = np.linalg.norm(b - sigma * X[k] - dense @ X[k])
            # Reported residuals are explicitly verified at freeze time.
            assert explicit <= thresholds[k] * (1.0 + 1e-9)
            assert rep.final_residual_norms[k] <= thresholds[k]

    def test_iteration_cap_leaves_unconverged(self, rng):
        A = build_laplacian_1d(80)
        b = rng.standard_normal(80)
        X, rep = shifted_cg_solve(A, b, ShiftedSolveRequest([1e-6], 1e-12, 3))
        assert not rep.converged[0]
        assert rep.iterations_used[0] == 3
        assert rep.final_residual_norms[0] > 1e-12

    def test_wide_shift_range(self, rng):
        A = build_laplacian_1d(40)
        b = rng.standard_normal(40)
        shifts = np.array([0.0, 1.0, 1e4, 1e8])
        X, rep = shifted_cg_solve(A, b, ShiftedSolveRequest(shifts, 1e-10))
        assert rep.all_converged
        dense = A.to_dense()
        for k, sigma in enumerate(shifts):
            x_ref = np.linalg.solve(dense + sigma * np.eye(40), b)
            np.testing.assert_allclose(X[k], x_ref, rtol=1e-8, atol=1e-14)

    def test_matvec_accounting(self, rng):
        A = build_laplacian_1d(30)
        b = rng.standard_normal(30)
        X, rep = shifted_cg_solve(A, b, ShiftedSolveRequest([0.1, 1.0], 1e-9))
        assert rep.total_matvecs == rep.iterations_used.max()
        assert rep.verification_matvecs >= 2  # one explicit check per freeze


class TestOutOfOrderFreezes:
    # Request index 2 stops first, then 4, then 3, and the smallest shift
    # (index 0) stops last; index 1 (threshold inf) never iterates.
    SHIFTS = np.array([0.01, 0.5, 2.0, 8.0, 30.0])
    THRESHOLDS = np.array([1e-8, np.inf, 1e-2, 1e-11, 1e-9])
    ITERATED = (0, 2, 3, 4)

    @pytest.fixture
    def solved(self, rng):
        A = build_laplacian_1d(80)
        b = rng.standard_normal(80)
        X, rep = shifted_cg_solve(A, b, ShiftedSolveRequest(self.SHIFTS, self.THRESHOLDS))
        return A, b, X, rep

    @pytest.fixture
    def capped(self, solved):
        # The same solve capped at every iteration up to its last.
        A, b, _, rep = solved
        return {
            cap: shifted_cg_solve(A, b, ShiftedSolveRequest(self.SHIFTS, self.THRESHOLDS, cap))
            for cap in range(1, rep.iterations_used.max() + 1)
        }

    def test_freeze_order(self, solved):
        _, _, _, rep = solved
        used = rep.iterations_used
        assert rep.all_converged
        assert used[1] == 0
        assert 0 < used[2] < used[4] < used[3] < used[0]
        assert rep.total_matvecs == used[0]

    def test_stopped_rows_stay_fixed(self, solved, capped):
        # A cap at or after a shift's stop returns that shift's row, residual
        # and stop iteration bit for bit; a cap before it stops the shift there.
        _, _, X, rep = solved
        for cap, (X_cap, rep_cap) in capped.items():
            done = rep.iterations_used <= cap
            np.testing.assert_array_equal(X_cap[done], X[done])
            for name in ("final_residual_norms", "iterations_used"):
                np.testing.assert_array_equal(
                    getattr(rep_cap, name)[done], getattr(rep, name)[done], err_msg=name
                )
            np.testing.assert_array_equal(rep_cap.iterations_used[~done], cap)
            np.testing.assert_array_equal(X_cap[1], 0.0)

    def test_returned_rows_match_plain_cg(self, solved):
        A, b, X, rep = solved
        for k in self.ITERATED:
            x, iterations, _ = single_shift_cg(
                A, b, self.SHIFTS[k], tol=1e-300, max_iterations=rep.iterations_used[k]
            )
            assert iterations == rep.iterations_used[k]
            assert np.linalg.norm(X[k] - x) <= 1e-8 * np.linalg.norm(x)

    def test_trivially_done_row(self, solved):
        _, b, X, rep = solved
        np.testing.assert_array_equal(X[1], 0.0)
        assert rep.iterations_used[1] == 0
        assert rep.converged[1]
        assert rep.final_residual_norms[1] == np.linalg.norm(b)

    def test_capped_rows_hold_request_indices(self, solved, capped):
        # Row k of the solve capped at i is shift k's plain CG iterate i, and
        # its reported residual is the norm of plain CG's residual there, up
        # to the explicit residual's rounding floor, far below the threshold.
        A, b, _, rep = solved
        for k in self.ITERATED:
            xs, rs = plain_cg_history(A, b, self.SHIFTS[k], rep.iterations_used[k])
            for i in range(1, rep.iterations_used[k] + 1):
                X_cap, rep_cap = capped[i]
                assert np.linalg.norm(X_cap[k] - xs[i]) <= 1e-8 * np.linalg.norm(xs[i])
                assert rep_cap.final_residual_norms[k] == pytest.approx(
                    np.linalg.norm(rs[i]), rel=1e-8, abs=1e-3 * self.THRESHOLDS[k]
                )


class TestWindowEdges:
    # With the default window the freezes land mid-window (iterations 10, 13,
    # 27, 82, 133 and 200); the caps stop the solve just before, at and just
    # after a window's end, and inside the third window.  Request index 3 is
    # trivially done.
    SHIFTS = np.array([0.003, 0.03, 0.1, 0.4, 1.5, 6.0, 25.0])
    THRESHOLDS = np.array([1e-9, 1e-9, 1e-10, np.inf, 1e-12, 1e-10, 1e-13])
    S = fracpow.shifted_cg._BLOCK
    CAPS = [None, S - 1, S, S + 1, 2 * S + 3]

    @pytest.fixture
    def problem(self, rng):
        return build_laplacian_1d(200), rng.standard_normal(200)

    def solve(self, A, b, cap):
        return shifted_cg_solve(A, b, ShiftedSolveRequest(self.SHIFTS, self.THRESHOLDS, cap))

    def test_freezes_land_mid_window(self, problem):
        _, rep = self.solve(*problem, None)
        used = rep.iterations_used
        assert rep.all_converged
        assert np.count_nonzero(used % self.S) >= 4

    @pytest.mark.parametrize("cap", CAPS, ids=str)
    def test_reported_residual_is_the_returned_rows(self, problem, cap):
        A, b = problem
        X, rep = self.solve(A, b, cap)
        for k, sigma in enumerate(self.SHIFTS):
            assert rep.final_residual_norms[k] == np.linalg.norm(b - sigma * X[k] - A.matvec(X[k]))

    @pytest.mark.parametrize("cap", CAPS, ids=str)
    def test_rows_match_plain_cg(self, problem, cap):
        A, b = problem
        X, rep = self.solve(A, b, cap)
        for k, sigma in enumerate(self.SHIFTS):
            if rep.iterations_used[k] == 0:
                np.testing.assert_array_equal(X[k], 0.0)
                continue
            x, iterations, _ = single_shift_cg(
                A, b, sigma, tol=1e-300, max_iterations=rep.iterations_used[k]
            )
            assert iterations == rep.iterations_used[k]
            assert np.linalg.norm(X[k] - x) <= 1e-8 * np.linalg.norm(x)

    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("cap", CAPS, ids=str)
    def test_window_length_keeps_decisions(self, problem, cap, block, monkeypatch):
        A, b = problem
        _, rep = self.solve(A, b, cap)
        monkeypatch.setattr(fracpow.shifted_cg, "_BLOCK", block)
        _, rep_b = self.solve(A, b, cap)
        np.testing.assert_array_equal(rep_b.iterations_used, rep.iterations_used)
        np.testing.assert_array_equal(rep_b.converged, rep.converged)
        assert rep_b.verification_matvecs == rep.verification_matvecs


class TestIterationCap:
    # The cap stops every shift still iterating in the same block as the
    # other stop reasons: each is checked once on its formed iterate.  Cap 32
    # ends a window, cap 35 falls inside one.
    SHIFTS = np.array([0.0, 0.05, 0.4, 2.0, 9.0])
    THRESHOLDS = np.full(5, 1e-14)
    CAPS = [fracpow.shifted_cg._BLOCK, 35]

    @pytest.fixture
    def problem(self):
        A = build_laplacian_2d(12, 10)
        return A, np.random.default_rng(7).standard_normal(A.n)

    def solve(self, A, b, cap):
        return shifted_cg_solve(A, b, ShiftedSolveRequest(self.SHIFTS, self.THRESHOLDS, cap))

    @pytest.mark.parametrize("cap", CAPS, ids=str)
    def test_active_rows_stop_at_the_cap(self, problem, cap):
        A, b = problem
        _, free = self.solve(A, b, None)
        _, rep = self.solve(A, b, cap)
        late = free.iterations_used > cap
        assert late.any()
        assert np.all(rep.iterations_used[late] == cap)
        np.testing.assert_array_equal(rep.iterations_used[~late], free.iterations_used[~late])
        np.testing.assert_array_equal(rep.converged[~late], free.converged[~late])

    @pytest.mark.parametrize("cap", CAPS, ids=str)
    def test_flags_and_residuals_are_the_returned_rows(self, problem, cap):
        A, b = problem
        X, rep = self.solve(A, b, cap)
        np.testing.assert_array_equal(rep.converged, rep.final_residual_norms <= self.THRESHOLDS)
        for k, sigma in enumerate(self.SHIFTS):
            assert rep.final_residual_norms[k] == np.linalg.norm(b - sigma * X[k] - A.matvec(X[k]))

    def test_one_check_per_capped_shift(self, problem, caplog):
        A, b = problem
        cap = self.CAPS[1]
        _, free = self.solve(A, b, None)
        with caplog.at_level("DEBUG", logger="fracpow.shifted_cg"):
            _, rep = self.solve(A, b, cap)
        capped = [r.getMessage() for r in caplog.records if "capped" in r.getMessage()]
        late = np.flatnonzero(free.iterations_used > cap)
        assert len(capped) == np.count_nonzero(~rep.converged[late])
        assert all(msg.startswith(f"shift {k} capped") for k, msg in zip(late, capped))


class TestFreezeDecisions:
    # Per-node stopping iterations, flags and verification counts of the
    # solves that fracpow_action makes with b = ones on a fixed interval, so
    # that a change to the bounds stage does not move them; a change to the
    # solver's arithmetic or freeze logic does.  Stopping iterations are
    # runs of (iteration, shifts) in request order.
    LAP2D = ("lap2d:32x32", (0.01811207274561117, 7.981887715479397))
    CASES = {
        (*LAP2D, "de", 0.5, 1e-6): (
            [(0, 3), (23, 1), (33, 1), (39, 1), (43, 1), (45, 1), (48, 1), (50, 1),
             (53, 1), (55, 1), (56, 1), (57, 1), (58, 2), (57, 1), (54, 1), (48, 1),
             (39, 1), (27, 1), (18, 1), (12, 1), (8, 1), (6, 1), (4, 1), (3, 2),
             (2, 3), (1, 8), (0, 2)],
            36,
        ),
        (*LAP2D, "gj2", 0.2, 1e-9): (
            [(70, 1), (69, 1), (68, 1), (67, 1), (66, 1), (65, 1), (63, 1), (62, 1),
             (60, 1), (58, 1), (57, 1), (54, 1), (51, 1), (49, 1), (46, 1), (43, 1),
             (41, 1), (38, 1), (35, 1), (31, 1), (28, 1), (25, 1), (22, 1), (19, 1),
             (16, 1), (13, 1), (10, 1), (8, 1), (5, 1)],
            29,
        ),
        # The seed residual is exactly 0 at step 100, where 53 shifts stop
        # together, and 362 checks fall in 93 iterations: the batched checks.
        ("lap1d:200", (0.00024428611863736434, 4.0), "gj1", 0.2, 1e-9): (
            [(100, 53), (99, 1), (98, 1), (97, 1), (96, 1), (94, 1), (93, 1), (91, 1),
             (90, 1), (88, 1), (87, 1), (85, 1), (84, 1), (82, 1), (81, 1), (80, 1),
             (79, 1), (77, 1), (76, 1), (75, 1), (74, 1), (73, 1), (72, 1), (71, 1),
             (70, 1), (69, 1), (68, 1), (67, 1), (66, 1), (65, 1), (64, 1), (63, 1),
             (62, 1), (61, 2), (60, 1), (59, 1), (58, 2), (57, 1), (56, 1), (55, 2),
             (54, 1), (53, 2), (52, 2), (51, 1), (50, 2), (49, 2), (48, 2), (47, 2),
             (46, 2), (45, 2), (44, 2), (43, 2), (42, 2), (41, 3), (40, 2), (39, 3),
             (38, 3), (37, 2), (36, 3), (35, 3), (34, 4), (33, 3), (32, 3), (31, 4),
             (30, 4), (29, 4), (28, 4), (27, 5), (26, 4), (25, 5), (24, 5), (23, 5),
             (22, 6), (21, 6), (20, 6), (19, 7), (18, 7), (17, 7), (16, 8), (15, 8),
             (14, 8), (13, 9), (12, 9), (11, 10), (10, 11), (9, 10), (8, 12), (7, 11),
             (6, 12), (5, 10), (4, 10), (3, 5), (2, 2)],
            362,
        ),
    }

    IDS = ["de", "gj2", "lap1d:200-gj1"]

    @staticmethod
    def stops(runs):
        return np.repeat(*np.array(runs).T)

    @pytest.mark.parametrize("case", list(CASES), ids=IDS)
    def test_pinned(self, case):
        spec, interval, family, alpha, epsilon = case
        runs, verification_matvecs = self.CASES[case]
        A = cli.build_matrix(spec)
        result = fracpow_action(
            A, np.ones(A.n), alpha, ErrorBudget(epsilon), family, bounds=SpectralBounds(*interval)
        )
        rep = result.report
        np.testing.assert_array_equal(rep.iterations_used, self.stops(runs))
        assert rep.converged.all()
        assert rep.verification_matvecs == verification_matvecs
        assert result.certified

    @pytest.mark.parametrize("case", list(CASES), ids=IDS)
    def test_iterating_shifts_are_contiguous(self, case):
        # The pinned stopping iterations (test_pinned ties them to the solver)
        # rise, then fall: at every iteration the shifts still iterating form
        # one run of request indices, so a flush over the span of active rows
        # touches no stopped row.
        steps = np.diff(self.stops(self.CASES[case][0]))
        falls = np.flatnonzero(steps < 0)
        assert falls.size and np.all(steps[falls[0] :] <= 0)


class TestStagnation:
    """A failed check below the cap freezes its shift only when the gap
    between the explicit and the recursive residual is at the threshold;
    a smaller gap re-checks the shift at half the trigger."""

    def test_stuck_nodes_stop_on_their_gap(self, caplog):
        # The two smallest shifts cannot reach their thresholds; each stops
        # at its first check on its gap, so no joint iteration runs past the
        # converged nodes and every node is checked once.  Shift 2 ends its
        # check 0.3% under its threshold.
        A = build_laplacian_1d(300)
        bounds = SpectralBounds(0.00010893383959318113, 4.0)
        with caplog.at_level("DEBUG", logger="fracpow.shifted_cg"):
            result = fracpow_action(A, np.ones(A.n), 0.2, ErrorBudget(1e-10), "gj2", bounds=bounds)
        rep = result.report
        assert np.flatnonzero(~rep.converged).tolist() == [0, 1]
        assert rep.total_matvecs == rep.iterations_used[rep.converged].max() == 150
        assert rep.verification_matvecs == result.rule.m == 94
        lines = [r.getMessage() for r in caplog.records if "stagnated" in r.getMessage()]
        assert len(lines) == 2
        pattern = r"shift (\d+) stagnated: explicit (\S+), gap (\S+) vs threshold (\S+)"
        for line in lines:
            _, explicit, gap, threshold = re.fullmatch(pattern, line).groups()
            assert float(explicit) > float(threshold)
            assert float(gap) >= float(threshold)

    # Cells where some shift fails a check with its gap under its threshold
    # and passes on the re-check at half the trigger: every shift converges
    # and there are more checks than shifts.
    RECHECKED = {
        "lap2d:40x40": (40, 0.2, 1e-10, 0.011736462967297249, 62, 63),
        "lap2d:64x64": (64, 0.2, 1e-9, 0.004645486034087669, 91, 92),
        "lap2d:100x100": (100, 0.5, 1e-10, 0.0019328366214641365, 148, 150),
    }

    @pytest.mark.parametrize("cell", list(RECHECKED))
    def test_small_gap_is_rechecked(self, cell):
        nx, alpha, epsilon, lambda_lo, m, checks = self.RECHECKED[cell]
        A = build_laplacian_2d(nx, nx)
        bounds = SpectralBounds(lambda_lo, 8.0)
        result = fracpow_action(A, np.ones(A.n), alpha, ErrorBudget(epsilon), "gj1", bounds=bounds)
        assert result.rule.m == m
        assert result.report.verification_matvecs == checks
        assert result.report.converged.all()
        assert result.certified

    def test_failed_check_then_passed_recheck(self, monkeypatch, caplog):
        # The witness of the halving path: one shift fails its first check,
        # is not frozen, and passes its second.  The failed check logs its
        # gap, under the threshold, in one line.
        nx, alpha, epsilon, lambda_lo, m, checks = self.RECHECKED["lap2d:40x40"]
        A = build_laplacian_2d(nx, nx)
        seen = {}
        check = fracpow.shifted_cg._check

        def spy(A, b, X, P, D, R, k, *args):
            x, res, explicit = check(A, b, X, P, D, R, k, *args)
            seen.setdefault(int(k), []).append(explicit)
            return x, res, explicit

        monkeypatch.setattr(fracpow.shifted_cg, "_check", spy)
        bounds = SpectralBounds(lambda_lo, 8.0)
        with caplog.at_level("DEBUG", logger="fracpow.shifted_cg"):
            result = fracpow_action(A, np.ones(A.n), alpha, ErrorBudget(epsilon), "gj1", bounds=bounds)
        thresholds = result.report.thresholds
        twice = [k for k, values in seen.items() if len(values) > 1]
        assert len(twice) == checks - m == 1
        [k] = twice
        first, second = seen[k]
        assert first > thresholds[k] >= second == result.report.final_residual_norms[k]
        lines = [r.getMessage() for r in caplog.records if "re-checked" in r.getMessage()]
        assert len(lines) == 1
        pattern = r"shift (\d+) re-checked: explicit (\S+), gap (\S+) vs threshold (\S+)"
        shift, explicit, gap, threshold = re.fullmatch(pattern, lines[0]).groups()
        assert (int(shift), explicit, threshold) == (k, f"{first:.3e}", f"{thresholds[k]:.3e}")
        assert float(gap) < thresholds[k]


class TestZeroIterateFallback:
    def test_stopped_shift_never_reports_more_than_b(self):
        # On a diagonal with kappa = 1e8 the tiniest shifts of a de rule stop,
        # capped or stagnated, with checked iterates whose residuals exceed
        # ||b||, the zero iterate's.  They return the zero iterate instead and
        # keep their stop iteration; the action's error falls from the 1.45
        # that keeping those iterates gave.
        A = build_diagonal(np.geomspace(1e-8, 1.0, 500))
        b = np.random.default_rng(5).standard_normal(A.n)
        result = fracpow_action(A, b, 0.2, ErrorBudget(1e-9), "de")
        rep = result.report
        bnorm = np.linalg.norm(b)
        late = ~rep.converged
        assert result.rule.m == 205 and rep.total_matvecs == 5000
        assert np.count_nonzero(late) == 68
        assert np.all(rep.final_residual_norms[late] <= bnorm)
        zero = late & (rep.final_residual_norms == bnorm)
        assert np.count_nonzero(zero) == 60
        assert np.all(rep.iterations_used[zero] >= 4854)
        assert not result.certified
        assert absolute_error(result.y, dense_fracpow_action(A, b, 0.2)) < 1.45


class TestActiveRows:
    def test_contiguous_rows_give_a_slice(self):
        rows, index = _active_rows(np.array([False, True, True, True, False]))
        np.testing.assert_array_equal(rows, [1, 2, 3])
        assert index == slice(1, 4)

    def test_gap_gives_the_index_array(self):
        rows, index = _active_rows(np.array([True, False, True, True]))
        np.testing.assert_array_equal(rows, [0, 2, 3])
        assert index is rows

    def test_no_active_row(self):
        rows, index = _active_rows(np.zeros(3, dtype=bool))
        assert rows.size == 0
        assert np.arange(3)[index].size == 0


class TestFusedUpdate:
    @pytest.fixture(params=["lap2d", "complex"])
    def problem(self, request, rng):
        # Request index 2 has an infinite threshold: trivially done, never
        # iterated.
        if request.param == "lap2d":
            A = build_laplacian_2d(6, 5)
            b = rng.standard_normal(A.n)
            shifts = np.array([0.01, 0.3, 1.0, 2.5, 9.0])
            thresholds = np.array([1e-10, 1e-9, np.inf, 1e-12, 1e-8])
        else:
            dense = random_hermitian(rng, 12, complex_valued=True)
            dense = dense @ dense.conj().T + 0.5 * np.eye(12)
            A = HermitianSparseMatrix.from_dense(dense)
            b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            shifts = np.array([0.0, 2.0, 0.7, 5.0])
            thresholds = np.array([1e-10, 1e-11, np.inf, 1e-9])
        return A, b, ShiftedSolveRequest(shifts, thresholds)

    @pytest.mark.parametrize(
        "tile",
        [lambda n: 1, lambda n: 7, lambda n: n - 1, lambda n: n + 1, lambda n: 3 * n + 5],
        ids=["1", "7", "n-1", "n+1", "3n+5"],
    )
    def test_tile_edges_bit_identical(self, problem, tile, monkeypatch):
        # 1, 7 and n - 1 cut rows into ragged column chunks; n + 1 and 3n + 5
        # give one- and three-row blocks, the last one ragged.
        A, b, req = problem
        n = A.n
        monkeypatch.setattr(fracpow.shifted_cg, "_TILE", req.shifts.size * n)
        X, rep = shifted_cg_solve(A, b, req)
        assert rep.converged.all() and rep.iterations_used[2] == 0
        monkeypatch.setattr(fracpow.shifted_cg, "_TILE", tile(n))
        X_t, rep_t = shifted_cg_solve(A, b, req)
        np.testing.assert_array_equal(X_t, X)
        for field in dataclasses.fields(ShiftedSolveReport):
            np.testing.assert_array_equal(
                getattr(rep_t, field.name), getattr(rep, field.name), err_msg=field.name
            )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_request_order(self, problem, seed):
        # Each row's arithmetic does not depend on its position, so a
        # permuted request gives the permuted rows and report bit for bit.
        A, b, req = problem
        perm = np.random.default_rng(seed).permutation(req.shifts.size)
        X, rep = shifted_cg_solve(A, b, req)
        X_p, rep_p = shifted_cg_solve(
            A, b, ShiftedSolveRequest(req.shifts[perm], req.thresholds[perm])
        )
        np.testing.assert_array_equal(X_p, X[perm])
        for name in ("iterations_used", "final_residual_norms", "converged"):
            np.testing.assert_array_equal(getattr(rep_p, name), getattr(rep, name)[perm])
        assert rep_p.verification_matvecs == rep.verification_matvecs
        assert rep_p.total_matvecs == rep.total_matvecs

    def test_solve_holds_two_blocks(self, monkeypatch):
        # X and P, one update tile, the residual window and a few n-vectors;
        # the solutions are X.
        A = build_laplacian_2d(100, 100)
        h = np.pi / (2 * 101)  # the exact extreme eigenvalues of this Laplacian
        bounds = SpectralBounds(8 * np.sin(h) ** 2, 8 * np.cos(h) ** 2)
        peaks = []

        def measured(A, b, req):
            tracemalloc.start()
            try:
                out = shifted_cg_solve(A, b, req)
                peaks.append((req.shifts.size, tracemalloc.get_traced_memory()[1]))
            finally:
                tracemalloc.stop()
            return out

        monkeypatch.setattr(fracpow.error_control, "shifted_cg_solve", measured)
        # The matrix builds its product operator on its first product; that
        # belongs to the matrix, not to the solve measured here.
        A.matvec(np.ones(A.n))
        fracpow_action(A, np.ones(A.n), 0.2, ErrorBudget(1e-9), "gj2", bounds=bounds)
        [(m, peak)] = peaks
        n = A.n
        assert peak <= (
            2 * m * n * 8 + 8 * fracpow.shifted_cg._TILE + fracpow.shifted_cg._BLOCK * n * 8
            + 16 * n * 8
        )


class TestBatchedChecks:
    # Each shift checked in an iteration is formed on its own, as the first
    # of a two-row product.  A row comes back bit for bit the same whichever
    # shifts are checked in the same iteration, contiguous or not, and
    # whether the flush tiles hold all rows or 2 or 3 (``_TILE`` patched).

    @pytest.mark.parametrize("gather", [None, 2, 3], ids=["default", "tile=2", "tile=3"])
    @pytest.mark.parametrize("extra", [1, 4, 9], ids=str)
    @pytest.mark.parametrize("contiguous", [True, False], ids=["contiguous", "gaps"])
    def test_row_independent_of_batch_mates(self, rng, monkeypatch, extra, gather, contiguous):
        A = build_laplacian_1d(200)
        b = rng.standard_normal(A.n)
        if gather is not None:
            monkeypatch.setattr(fracpow.shifted_cg, "_TILE", gather * 208)
        sigma, threshold = 0.5, 1e-8
        X, rep = shifted_cg_solve(A, b, ShiftedSolveRequest([sigma], threshold))
        stop = rep.iterations_used[0]
        # Large shifts with thresholds they cannot reach iterate until the
        # cap, the row's own stop iteration, and are checked there with it.
        # Trivially done shifts (threshold inf) between them leave gaps.
        large = np.geomspace(10.0, 1e3, extra)
        k = extra // 2
        shifts = np.concatenate([large[:k], [sigma], large[k:]])
        thresholds = np.full(extra + 1, 1e-300)
        thresholds[k] = threshold
        if not contiguous:
            shifts = np.concatenate([shifts, 1e4 + shifts])
            thresholds = np.stack([thresholds, np.full(extra + 1, np.inf)], axis=1).ravel()
            shifts = np.stack([shifts[: extra + 1], shifts[extra + 1 :]], axis=1).ravel()
            k = 2 * k
        X_b, rep_b = shifted_cg_solve(A, b, ShiftedSolveRequest(shifts, thresholds, stop))
        iterated = np.isfinite(thresholds)
        np.testing.assert_array_equal(rep_b.iterations_used[iterated], stop)
        assert rep_b.verification_matvecs == rep.verification_matvecs + extra
        np.testing.assert_array_equal(X_b[k], X[0])
        assert rep_b.final_residual_norms[k] == rep.final_residual_norms[0]
        assert rep_b.converged[k]

    def test_flush_passes_read_contiguous_tiles(self):
        # Rows padded to the tile width make every flush operand a whole
        # contiguous tile, so numpy's ufuncs buffer only the coefficient
        # column that scales each row (once, at its fixed buffer size), and
        # not the strided tiles as well.
        m, s, cb = 40, fracpow.shifted_cg._BLOCK, 608
        rng = np.random.default_rng(0)
        X, P = rng.standard_normal((2, m, cb))
        D, E = rng.standard_normal((2, s + 1, 2 * m - 1))
        R = rng.standard_normal((s, cb))
        work = np.empty((m, cb))
        _flush(X, P, D, E, R, 0, m, work)
        tracemalloc.start()
        try:
            _flush(X, P, D, E, R, 0, m, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= np.getbufsize() * 8 + 4096


class TestMemoryGuard:
    """Every array the solve allocates is checked against the available
    memory before any product.

    The limit is patched, so nothing large is allocated.  On these small
    problems one column tile spans ``n`` rounded up to a multiple of 16
    (``cb``), every row is padded to it, and one row tile holds all ``m``
    rows, so the solve allocates ``X`` and ``P`` (m x cb), the residual
    window ``R`` (``_BLOCK`` x cb), ``D`` and ``E`` ((2 m - 1) x (``_BLOCK``
    + 1)) and the flush tile (``kb x cb``, here max(2, m) x cb).
    """

    @staticmethod
    def entries(m, n):
        cb = 16 * -(-n // 16)
        assert m <= fracpow.shifted_cg._TILE // cb
        s = fracpow.shifted_cg._BLOCK
        scratch = max(2, m) * cb
        return 2 * m * cb + s * cb + 2 * (2 * m - 1) * (s + 1) + scratch

    def test_action_raises_before_any_product(self, monkeypatch):
        A = build_laplacian_1d(200)
        b = np.ones(A.n)
        bounds = SpectralBounds(2.4e-4, 4.0)
        plan = plan_action(A, b, 0.2, ErrorBudget(1e-6), "gj1", bounds=bounds)
        needed = self.entries(plan.rule.m, A.n) * 8
        assert needed > 2 * plan.rule.m * A.n * 8
        products = []
        matvec = HermitianSparseMatrix.matvec

        def counting(self, x):
            products.append(1)
            return matvec(self, x)

        monkeypatch.setattr(HermitianSparseMatrix, "matvec", counting)
        monkeypatch.setattr(fracpow.shifted_cg, "_available_memory", lambda: needed - 1)
        with pytest.raises(SolverMemoryError, match=f"needs {needed} bytes.* {needed - 1} bytes"):
            fracpow_action(A, b, 0.2, ErrorBudget(1e-6), "gj1", bounds=bounds)
        assert not products
        monkeypatch.setattr(fracpow.shifted_cg, "_available_memory", lambda: needed)
        assert fracpow_action(A, b, 0.2, ErrorBudget(1e-6), "gj1", bounds=bounds).certified
        assert products

    def test_counts_the_promoted_dtype(self, monkeypatch):
        # A complex right-hand side doubles the bytes per entry.
        A = build_laplacian_1d(50)
        request = ShiftedSolveRequest([0.5, 1.0, 2.0], 1e-8)
        entries = self.entries(3, A.n)
        monkeypatch.setattr(fracpow.shifted_cg, "_available_memory", lambda: entries * 8)
        shifted_cg_solve(A, np.ones(A.n), request)
        with pytest.raises(SolverMemoryError, match=f"needs {entries * 16} bytes"):
            shifted_cg_solve(A, np.ones(A.n, dtype=complex), request)

    def test_count_covers_the_traced_peak(self, monkeypatch):
        # The counted arrays are live together, and the rest of the solve is
        # a few n-vectors and numpy's fixed-size ufunc buffers.
        A = build_laplacian_2d(64, 64)
        request = ShiftedSolveRequest(np.geomspace(1e-2, 1e2, 12), 1e-8)
        needed = self.entries(12, A.n) * 8
        monkeypatch.setattr(fracpow.shifted_cg, "_available_memory", lambda: needed)
        A.matvec(np.ones(A.n))
        tracemalloc.start()
        try:
            shifted_cg_solve(A, np.ones(A.n), request)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert needed <= peak <= needed + 16 * A.n * 8

    def test_available_memory_reads_meminfo(self, monkeypatch):
        meminfo = "MemTotal:       8000 kB\nMemFree:        1000 kB\nMemAvailable:   3000 kB\n"
        monkeypatch.setattr(fracpow.shifted_cg, "open", lambda path: io.StringIO(meminfo), raising=False)
        assert fracpow.shifted_cg._available_memory() == 3000 * 1024

    @pytest.mark.parametrize("meminfo", [None, "MemTotal:       8000 kB\n"], ids=["missing", "no-field"])
    def test_available_memory_falls_back_to_physical(self, monkeypatch, meminfo):
        def fake_open(path):
            if meminfo is None:
                raise FileNotFoundError(path)
            return io.StringIO(meminfo)

        monkeypatch.setattr(fracpow.shifted_cg, "open", fake_open, raising=False)
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        assert fracpow.shifted_cg._available_memory() == physical


class TestBreakdown:
    def test_indefinite_matrix_raises(self):
        # sigma I + A stays positive definite for sigma >= 0 when A is, so the
        # matrices themselves are indefinite.  The second has a positive
        # diagonal, and its curvature at step 0 is b^T A b = -2.
        for dense, b in [
            ([[-1.0, 0.0], [0.0, 1.0]], [1.0, 1.0]),
            ([[1.0, 2.0], [2.0, 1.0]], [1.0, -1.0]),
        ]:
            B = HermitianSparseMatrix.from_dense(np.array(dense))
            with pytest.raises(SolverBreakdownError, match="at iteration 0"):
                shifted_cg_solve(B, np.array(b), ShiftedSolveRequest([0.0], 1e-10))
            with pytest.raises(SolverBreakdownError, match="at iteration 0"):
                single_shift_cg(B, np.array(b), 0.0, tol=1e-10)

    def test_underflowing_residual_is_not_a_breakdown(self, rng):
        # At tol 1e-300 the residuals on lap1d:50 shrink towards underflow:
        # plain CG's curvature p^H (sigma I + A) p falls under 1e-300 for
        # every sigma >= 0.1 (from step 368 at 0.1), and the multi-shift
        # seed's reaches 6e-298 at the 500-step cap.  Against the squared
        # residual it stays near lambda, so neither solver takes that for an
        # indefinite operator.
        A = build_laplacian_1d(50)
        b = rng.standard_normal(50)
        shifts = np.array([0.0, 0.1, 1.0, 10.0, 100.0])
        X, rep = shifted_cg_solve(A, b, ShiftedSolveRequest(shifts, 1e-300))
        assert rep.iterations_used.max() == 500
        for k, sigma in enumerate(shifts):
            x_ref = np.linalg.solve(A.to_dense() + sigma * np.eye(50), b)
            x, iterations, _ = single_shift_cg(A, b, sigma, tol=1e-300)
            assert iterations <= 500
            np.testing.assert_allclose(x, x_ref, rtol=1e-12)
            np.testing.assert_allclose(X[k], x_ref, rtol=1e-12)

    def test_exact_zero_seed_residual_freezes_every_shift(self):
        # On A = 2I the seed residual is exactly 0 after one iteration, so every
        # tracked residual is 0 and every shift is verified in that iteration:
        # the seed converges, the others stop at their rounding floor, and the
        # loop ends before any breakdown check could see a zero residual.
        A = build_diagonal([2.0] * 5)
        b = np.arange(1.0, 6.0)
        X, rep = shifted_cg_solve(A, b, ShiftedSolveRequest([0.0, 1.0, 3.0], 1e-300))
        assert rep.iterations_used.tolist() == [1, 1, 1]
        assert rep.converged.tolist() == [True, False, False]
        assert rep.verification_matvecs == 3
        np.testing.assert_array_equal(X[0], b / 2.0)
        # CG on lap1d:50 from the symmetric b = ones is exact after 25 steps,
        # where the seed residual is 0; every shift stops there.
        A = build_laplacian_1d(50)
        b = np.ones(50)
        shifts = np.array([0.1, 1.0, 10.0, 100.0])
        X, rep = shifted_cg_solve(A, b, ShiftedSolveRequest(shifts, 1e-300))
        assert rep.iterations_used.tolist() == [25, 25, 25, 25]
        for k, sigma in enumerate(shifts):
            x_ref = np.linalg.solve(A.to_dense() + sigma * np.eye(50), b)
            np.testing.assert_allclose(X[k], x_ref, rtol=1e-12)

    def test_complex_hermitian_system(self, rng):
        dense = random_hermitian(rng, 12, complex_valued=True)
        dense = dense @ dense.conj().T + 0.5 * np.eye(12)
        A = HermitianSparseMatrix.from_dense(dense)
        b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        shifts = np.array([0.0, 2.0])
        X, rep = shifted_cg_solve(A, b, ShiftedSolveRequest(shifts, 1e-10))
        assert rep.all_converged
        for k, sigma in enumerate(shifts):
            x_ref = np.linalg.solve(dense + sigma * np.eye(12), b)
            np.testing.assert_allclose(X[k], x_ref, rtol=1e-8, atol=1e-12)


class TestOneRecurrence:
    """Every Krylov step in the package is a step of ``fracpow.sparse._cg_steps``."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """Generators started, their shifts, steps taken and products made, counted."""
        counts = {"calls": 0, "sigmas": [], "steps": 0, "products": 0}
        cg_steps = fracpow.sparse._cg_steps
        product = HermitianSparseMatrix.matvec

        def counted_steps(*args):
            counts["calls"] += 1
            counts["sigmas"].append(args[2])
            for step in cg_steps(*args):
                counts["steps"] += 1
                yield step

        def counted_product(self, x):
            counts["products"] += 1
            return product(self, x)

        binders = [
            module for name, module in sys.modules.items()
            if name.startswith("fracpow") and getattr(module, "_cg_steps", None) is cg_steps
        ]
        assert {fracpow.sparse, fracpow.shifted_cg} <= set(binders)
        for module in binders:
            monkeypatch.setattr(module, "_cg_steps", counted_steps)
        monkeypatch.setattr(HermitianSparseMatrix, "matvec", counted_product)
        return counts

    @pytest.mark.parametrize("sigma", [0.0, 0.7])
    def test_coefficients_give_the_lanczos_tridiagonal(self, rng, sigma):
        # Checked against a dense Lanczos run with full reorthogonalization,
        # so a fault in the shared p/r recurrence shows here and not only
        # identically in both solvers.
        n, k = 12, 8
        B = random_hermitian(rng, n, complex_valued=True)
        dense = B @ B.conj().T + 0.5 * np.eye(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        M = dense + sigma * np.eye(n)
        Q = np.zeros((n, k + 1), dtype=complex)
        Q[:, 0] = b / np.linalg.norm(b)
        diagonal, off_diagonal = [], []
        for j in range(k):
            w = M @ Q[:, j]
            for _ in range(2):
                w -= Q[:, : j + 1] @ (Q[:, : j + 1].conj().T @ w)
            diagonal.append((Q[:, j].conj() @ M @ Q[:, j]).real)
            off_diagonal.append(np.linalg.norm(w))
            Q[:, j + 1] = w / off_diagonal[-1]
        steps = fracpow.sparse._cg_steps(HermitianSparseMatrix.from_dense(dense), b, sigma)
        carry, T_diagonal, T_off = 0.0, [], []
        for (alpha, beta, *_), _ in zip(steps, range(k)):
            T_diagonal.append(1.0 / alpha + carry)
            T_off.append(np.sqrt(beta) / alpha)
            carry = beta / alpha
        np.testing.assert_allclose(T_diagonal, diagonal, rtol=1e-10)
        np.testing.assert_allclose(T_off, off_diagonal, rtol=1e-10)

    def test_spectral_bounds(self, counts):
        estimate_spectral_bounds(build_laplacian_2d(32, 32))
        assert counts == {"calls": 1, "sigmas": [0.0], "steps": 50, "products": 50}

    def test_single_shift_cg(self, counts):
        _, iterations, _ = single_shift_cg(build_laplacian_2d(16, 16), np.ones(256), 0.5, tol=1e-10)
        assert iterations > 0
        assert counts == {"calls": 1, "sigmas": [0.5], "steps": iterations, "products": iterations}

    def test_shifted_cg_solve(self, counts):
        request = ShiftedSolveRequest([1e-3, 0.1, 1.0, 10.0], 1e-9)
        _, report = shifted_cg_solve(build_laplacian_2d(16, 16), np.ones(256), request)
        assert report.verification_matvecs > 0
        # The seed is CG on A itself, below every shift of the request.
        assert counts["calls"] == 1
        assert counts["sigmas"] == [0.0]
        assert counts["steps"] == report.total_matvecs
        assert counts["products"] == counts["steps"] + report.verification_matvecs


class TestSingleShiftCG:
    def test_solves_reference_problem(self, rng):
        A = build_laplacian_1d(25)
        b = rng.standard_normal(25)
        x, iterations, rnorm = single_shift_cg(A, b, 0.7, tol=1e-11)
        x_ref = np.linalg.solve(A.to_dense() + 0.7 * np.eye(25), b)
        np.testing.assert_allclose(x, x_ref, rtol=1e-9)
        assert rnorm <= 1e-11
        assert 0 < iterations <= 25

    def test_rejects_negative_shift(self):
        A = build_laplacian_1d(4)
        with pytest.raises(ValueError):
            single_shift_cg(A, np.ones(4), -0.1, tol=1e-8)

    @pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
    def test_rejects_non_finite_rhs(self, value):
        A = build_laplacian_2d(8, 8)
        b = np.ones(A.n)
        b[5] = value
        with pytest.raises(ValueError, match="right-hand side must be finite"):
            single_shift_cg(A, b, 1.0, tol=1e-8)

    def test_report_shapes(self):
        # converged, all_converged and total_matvecs follow from what the
        # solve measured.
        rep = ShiftedSolveReport(
            shifts=np.array([1.0, 2.0]),
            thresholds=np.array([1e-8, 1e-8]),
            iterations_used=np.array([3, 5]),
            final_residual_norms=np.array([1e-9, 1e-8]),
            verification_matvecs=2,
        )
        assert rep.converged.tolist() == [True, True]
        assert rep.all_converged
        assert rep.total_matvecs == 5

    @pytest.mark.parametrize("residual", [2e-8, np.nan], ids=["above", "nan"])
    def test_report_residual_not_at_threshold_is_unconverged(self, residual):
        rep = ShiftedSolveReport(
            shifts=np.array([1.0]),
            thresholds=np.array([1e-8]),
            iterations_used=np.array([4]),
            final_residual_norms=np.array([residual]),
            verification_matvecs=1,
        )
        assert rep.converged.tolist() == [False]
        assert not rep.all_converged
