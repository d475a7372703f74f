import math

import numpy as np
import pytest

from etchomo import krylov
from etchomo import (
    FctPreconditioner,
    PcgBreakdownError,
    apply_operator,
    build_rhs,
    build_system,
    coefficient_stats,
    identity_apply,
    pcg,
    solve_reference_lp,
)
from etchomo.oracles import assemble_dense, dense_solve

from conftest import condition_estimate, constant_field, random_field


def pcg_out_of_place(apply_A, apply_M_inv, b, rtol, max_iter=1024):
    """Reference CG with the textbook out-of-place vector updates: returns the
    iterate and the relative residual history."""
    t = b.dtype.type
    norm_b = float(np.linalg.norm(b))
    p = np.zeros_like(b)
    r = b.copy()
    z = apply_M_inv(r)
    w = z.copy()
    rho = float(np.dot(r, z))
    history = [float(np.linalg.norm(r)) / norm_b]
    while history[-1] > rtol and len(history) <= max_iter:
        z = apply_A(w)
        alpha = rho / float(np.dot(z, w))
        p += t(alpha) * w
        r -= t(alpha) * z
        history.append(float(np.linalg.norm(r)) / norm_b)
        if history[-1] <= rtol:
            break
        z = apply_M_inv(r)
        rho_next = float(np.dot(r, z))
        w = z + t(rho_next / rho) * w
        rho = rho_next
    return p, history


def spd_matrix(rng, n):
    q = rng.standard_normal((n, n))
    return q @ q.T + n * np.eye(n)


class TestPcg:
    def test_single_cell_one_iteration(self, boundary_z):
        sys = build_system(constant_field(1, 1, 1), boundary_z)
        b = np.array([3.0])
        p, rep = pcg(lambda u: apply_operator(sys, u), identity_apply, b, 1e-12)
        assert rep.converged and rep.iterations == 1
        assert np.allclose(apply_operator(sys, p), b, rtol=1e-14)

    def test_matched_reference_one_iteration(self, boundary_z):
        sys = build_system(constant_field(6, 5, 4, kx=2.0, ky=3.0, kz=0.7), boundary_z)
        refs = solve_reference_lp(coefficient_stats(sys))
        apply_m = FctPreconditioner(sys.grid, refs)
        b = build_rhs(sys)
        _, rep = pcg(lambda u: apply_operator(sys, u), apply_m, b, 1e-12)
        assert rep.converged and rep.iterations == 1
        assert rep.relative_residuals[-1] <= 1e-14

    def test_zero_rhs(self):
        p, rep = pcg(lambda u: u, identity_apply, np.zeros(5), 1e-10)
        assert rep.converged and rep.iterations == 0
        assert np.all(p == 0.0)

    def test_history_shape_invariants(self, boundary_z):
        rng = np.random.default_rng(0)
        sys = build_system(random_field(rng, 5, 5, 5, contrast=20.0), boundary_z)
        refs = solve_reference_lp(coefficient_stats(sys))
        apply_m = FctPreconditioner(sys.grid, refs)
        b = build_rhs(sys)
        _, rep = pcg(lambda u: apply_operator(sys, u), apply_m, b, 1e-9)
        assert rep.converged
        assert rep.iterations == len(rep.relative_residuals) - 1
        assert rep.relative_residuals[0] == 1.0
        assert rep.relative_residuals[-1] <= 1e-9

    def test_max_iter_reports_unconverged(self, boundary_z):
        rng = np.random.default_rng(1)
        sys = build_system(random_field(rng, 6, 6, 6, contrast=100.0), boundary_z)
        b = build_rhs(sys)
        _, rep = pcg(lambda u: apply_operator(sys, u), identity_apply, b, 1e-12, max_iter=3)
        assert not rep.converged
        assert rep.iterations == 3

    def test_reproducible_history(self, boundary_z):
        rng = np.random.default_rng(2)
        sys = build_system(random_field(rng, 6, 4, 5, contrast=30.0), boundary_z)
        refs = solve_reference_lp(coefficient_stats(sys))
        b = build_rhs(sys)
        hist = []
        for _ in range(2):
            apply_m = FctPreconditioner(sys.grid, refs)
            _, rep = pcg(lambda u: apply_operator(sys, u), apply_m, b, 1e-10)
            hist.append(rep.relative_residuals)
        assert hist[0] == hist[1]

    def test_aliasing_callables_match_out_of_place_updates(self):
        rng = np.random.default_rng(3)
        mat = spd_matrix(rng, 12)
        inv_diag = 1.0 / np.diag(mat)
        buffer = np.empty(12)

        def jacobi_into_buffer(r):
            return np.multiply(r, inv_diag, out=buffer)

        b = rng.standard_normal(12)
        cases = [
            (lambda u: u, lambda r: r),
            (lambda u: mat @ u, lambda r: r),
            (lambda u: mat @ u, jacobi_into_buffer),
        ]
        for apply_a, apply_m in cases:
            want_p, want_hist = pcg_out_of_place(apply_a, apply_m, b, 1e-12)
            p, rep = pcg(apply_a, apply_m, b, 1e-12)
            assert rep.relative_residuals == want_hist
            assert np.array_equal(p, want_p)
            assert rep.converged and rep.iterations == len(want_hist) - 1

    def test_overwrite_b_gives_the_same_iterates(self, boundary_z):
        rng = np.random.default_rng(4)
        sys = build_system(random_field(rng, 5, 4, 6, contrast=30.0), boundary_z)
        apply_m = FctPreconditioner(sys.grid, solve_reference_lp(coefficient_stats(sys)))
        b = build_rhs(sys)
        kept = b.copy()
        p, rep = pcg(lambda u: apply_operator(sys, u), apply_m, b, 1e-10)
        assert np.array_equal(b, kept)
        p_ow, rep_ow = pcg(lambda u: apply_operator(sys, u), apply_m, b, 1e-10, overwrite_b=True)
        assert np.array_equal(p_ow, p)
        assert rep_ow.relative_residuals == rep.relative_residuals
        # b now holds the final recursive residual
        assert np.linalg.norm(b) / np.linalg.norm(kept) == rep.relative_residuals[-1]

    def test_breakdown_on_indefinite_operator(self):
        mat = np.diag([1.0, -1.0])
        b = np.array([1.0, 1.0])
        with pytest.raises(PcgBreakdownError) as err:
            pcg(lambda u: mat @ u, identity_apply, b, 1e-12)
        assert err.value.iteration >= 0

    def test_breakdown_on_indefinite_preconditioner(self):
        minv = np.diag([1.0, -4.0])
        with pytest.raises(PcgBreakdownError):
            pcg(lambda u: u, lambda r: minv @ r, np.array([0.1, 1.0]), 1e-12)

    def test_breakdown_when_norm_of_b_overflows(self):
        b = np.full(4, 1e30, dtype=np.float32)
        with np.errstate(over="ignore"), pytest.raises(PcgBreakdownError):
            pcg(lambda u: u, identity_apply, b, 1e-6)

    def test_float32_path(self, boundary_z):
        from etchomo import gen_center_ball

        f = gen_center_ball(16, 10.0).astype(np.float32)
        sys = build_system(f, boundary_z)
        refs = solve_reference_lp(coefficient_stats(sys))
        apply_m = FctPreconditioner(sys.grid, refs, dtype=np.float32)
        b = build_rhs(sys)
        assert b.dtype == np.float32
        p, rep = pcg(lambda u: apply_operator(sys, u), apply_m, b, 1e-6)
        assert p.dtype == np.float32
        assert rep.converged
        assert np.all(np.isfinite(p))

    def test_direct_call_names_no_preconditioner_or_precision(self, boundary_z):
        from etchomo import gen_center_ball, homogenize
        from etchomo.preconditioner import JacobiPreconditioner

        f = gen_center_ball(8, 10.0).astype(np.float32)
        sys = build_system(f, boundary_z)
        _, rep = pcg(lambda u: apply_operator(sys, u), JacobiPreconditioner(sys),
                     build_rhs(sys), 1e-5)
        assert rep.converged
        assert (rep.preconditioner, rep.precision) == (None, None)
        rep = homogenize(f, boundary_z, 1e-5, "jacobi", precision="f32")
        assert (rep.preconditioner, rep.precision) == ("jacobi", "f32")

    def test_rejects_bad_controls(self):
        for rtol in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="rtol must be positive"):
                pcg(lambda u: u, identity_apply, np.ones(2), rtol)
        for max_iter in (0, 3.5):
            with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
                pcg(lambda u: u, identity_apply, np.ones(2), 1e-9, max_iter=max_iter)

    def test_takes_a_numpy_integer_max_iter(self):
        _, rep = pcg(lambda u: u, identity_apply, np.ones(2), 1e-30, max_iter=np.int64(1))
        assert rep.iterations == 1


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestPcgBreakdown:
    """Which inputs pcg rejects, and the iteration each rejection names. The
    operator guard rejects z.w <= 100 eps |z| |w| with eps of the working
    dtype; the preconditioner guard rejects r.M^-1 r <= 0."""

    @staticmethod
    def first_step(dtype, zw):
        """pcg on b = e0 with M = I, so w = e0, and an operator whose first
        product is z = (zw, 1): z.w = zw and |z| = |w| = 1 in either dtype."""
        mat = np.array([[zw, 1.0], [1.0, 1.0]], dtype=dtype)
        b = np.array([1.0, 0.0], dtype)
        return pcg(lambda u: mat @ u, identity_apply, b, 1e-12, max_iter=1)[1]

    def test_operator_product_just_above_the_guard_passes(self, dtype):
        guard = dtype(100.0 * float(np.finfo(dtype).eps))
        rep = self.first_step(dtype, np.nextafter(guard, dtype(np.inf)))
        assert (rep.iterations, rep.converged) == (1, False)

    @pytest.mark.parametrize("below", [0, 1])
    def test_operator_product_at_or_below_the_guard_breaks_down(self, dtype, below):
        guard = dtype(100.0 * float(np.finfo(dtype).eps))
        zw = np.nextafter(guard, dtype(0)) if below else guard
        with pytest.raises(PcgBreakdownError, match="lost positivity at iteration 1$") as err:
            self.first_step(dtype, zw)
        assert err.value.iteration == 1

    @pytest.mark.parametrize("mat", [np.zeros((2, 2)), -np.eye(2), np.diag([1.0, -1.0])],
                             ids=["zero", "negative", "indefinite"])
    def test_zero_or_negative_operator_product_breaks_down(self, dtype, mat):
        mat = mat.astype(dtype)
        with pytest.raises(PcgBreakdownError, match="lost positivity") as err:
            pcg(lambda u: mat @ u, identity_apply, np.ones(2, dtype), 1e-12)
        assert err.value.iteration == 1

    def test_indefinite_preconditioner_at_iteration_0(self, dtype):
        minv = np.diag([1.0, -4.0]).astype(dtype)
        with pytest.raises(PcgBreakdownError, match="inner product not positive") as err:
            pcg(lambda u: u, lambda r: minv @ r, np.array([0.1, 1.0], dtype), 1e-12)
        assert err.value.iteration == 0

    def test_indefinite_preconditioner_at_a_later_iteration(self, dtype):
        # r0 = (1, 0.1) gives r0.M^-1 r0 = 0.96 > 0; after one step with
        # A = diag(1, 2) the residual is (3/11, 15/22) and r.M^-1 r < 0
        mat = np.diag([1.0, 2.0]).astype(dtype)
        minv = np.diag([1.0, -4.0]).astype(dtype)
        with pytest.raises(PcgBreakdownError, match="inner product not positive") as err:
            pcg(lambda u: mat @ u, lambda r: minv @ r, np.array([1.0, 0.1], dtype), 1e-12)
        assert err.value.iteration == 1

    @pytest.mark.parametrize("at", [1, 2])
    def test_non_finite_residual_breaks_down(self, dtype, at):
        # a NaN product passes the operator guard (NaN compares false) and
        # then poisons the residual of that step
        mat = np.diag([1.0, 2.0, 3.0]).astype(dtype)
        calls = []

        def apply_a(u):
            calls.append(1)
            return mat @ u if len(calls) < at else np.full_like(u, np.nan)

        with pytest.raises(PcgBreakdownError, match="residual is not finite") as err:
            pcg(apply_a, identity_apply, np.ones(3, dtype), 1e-12)
        assert err.value.iteration == at


def _fct_case(dtype, boundary_z):
    """A mild 7x6x9 FCT system in `dtype` (378 cells): the operator, the
    preconditioner and the right-hand side."""
    rng = np.random.default_rng(5)
    sys = build_system(random_field(rng, 7, 6, 9, contrast=3.0, dtype=dtype), boundary_z)
    apply_m = FctPreconditioner(sys.grid, solve_reference_lp(coefficient_stats(sys)), dtype)
    return (lambda u: apply_operator(sys, u)), apply_m, build_rhs(sys)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestChunkedPhases:
    """pcg walks its vectors in chunks of `_BLOCK_BYTES` per vector; a small
    block makes the 378-cell system span many chunks, the last one partial."""

    @staticmethod
    def chunked(monkeypatch, dtype, entries):
        monkeypatch.setattr(krylov, "_BLOCK_BYTES", entries * np.dtype(dtype).itemsize)

    @pytest.mark.parametrize("entries", [1, 17, 50])
    def test_many_chunks_follow_the_one_chunk_run(self, dtype, entries, boundary_z, monkeypatch):
        apply_a, apply_m, b = _fct_case(dtype, boundary_z)
        rtol, tol = (1e-10, 1e-12) if dtype == np.float64 else (1e-5, 1e-5)
        assert b.size * b.itemsize <= krylov._BLOCK_BYTES  # one chunk
        p_one, rep_one = pcg(apply_a, apply_m, b, rtol)
        self.chunked(monkeypatch, dtype, entries)
        assert b.size % entries or entries == 1
        p, rep = pcg(apply_a, apply_m, b, rtol)
        assert p.dtype == dtype and rep.converged
        assert rep.iterations == rep_one.iterations
        assert np.allclose(rep.relative_residuals, rep_one.relative_residuals, rtol=tol, atol=0)
        assert np.linalg.norm(p - p_one) <= tol * np.linalg.norm(p_one)

    @pytest.mark.parametrize("entries", [1, 17, 50])
    def test_max_iter_stop_gives_the_p_of_an_rtol_stop(self, dtype, entries, boundary_z, monkeypatch):
        # the stopping iteration adds its last alpha w to p, whichever test stops it
        apply_a, apply_m, b = _fct_case(dtype, boundary_z)
        self.chunked(monkeypatch, dtype, entries)
        _, rep = pcg(apply_a, apply_m, b, 1e-30, max_iter=6)
        hist = rep.relative_residuals
        for k in (1, 2, 5):
            assert min(hist[:k]) > hist[k]
            p_rtol, rep_rtol = pcg(apply_a, apply_m, b, hist[k])
            p_max, rep_max = pcg(apply_a, apply_m, b, 1e-30, max_iter=k)
            assert rep_rtol.iterations == rep_max.iterations == k
            assert rep_rtol.converged and not rep_max.converged
            assert rep_rtol.relative_residuals == rep_max.relative_residuals == hist[:k + 1]
            assert p_rtol.tobytes() == p_max.tobytes()
            # p holds all k steps: its true residual is the recursive one
            true = np.linalg.norm(b - apply_a(p_max)) / np.linalg.norm(b)
            assert true == pytest.approx(hist[k], rel=1e-3)

    def test_overwritten_b_holds_the_final_residual(self, dtype, boundary_z, monkeypatch):
        apply_a, apply_m, b = _fct_case(dtype, boundary_z)
        self.chunked(monkeypatch, dtype, 50)
        kept = b.copy()
        p_kept, rep_kept = pcg(apply_a, apply_m, b, 1e-6)
        assert np.array_equal(b, kept)
        p, rep = pcg(apply_a, apply_m, b, 1e-6, overwrite_b=True)
        assert np.array_equal(p, p_kept)
        assert rep.relative_residuals == rep_kept.relative_residuals
        # each history entry is the root of the chunk-summed squares of r
        norm_b = float(np.linalg.norm(kept))
        squares = sum(float(np.dot(b[a:a + 50], b[a:a + 50])) for a in range(0, b.size, 50))
        assert rep.relative_residuals[-1] == math.sqrt(squares) / norm_b
        eps = float(np.finfo(dtype).eps)
        assert np.linalg.norm(b) / norm_b == pytest.approx(rep.relative_residuals[-1],
                                                          rel=10 * eps)

    def test_breakdowns_over_chunks(self, dtype, monkeypatch):
        self.chunked(monkeypatch, dtype, 1)
        mat = np.diag([1.0, -1.0, 1.0]).astype(dtype)
        with pytest.raises(PcgBreakdownError, match="lost positivity") as err:
            pcg(lambda u: mat @ u, identity_apply, np.array([0.1, 1.0, 0.1], dtype), 1e-12)
        assert err.value.iteration == 1
        with pytest.raises(PcgBreakdownError, match="residual is not finite"):
            pcg(lambda u: np.full_like(u, np.nan), identity_apply, np.ones(3, dtype), 1e-12)


class TestDenseSolve:
    def test_hand_case(self):
        x = dense_solve(np.array([[3.0, -1.0], [-1.0, 3.0]]), np.array([2.0, 2.0]))
        assert np.allclose(x, [1.0, 1.0], rtol=1e-14)

    def test_identity(self):
        b = np.arange(1.0, 6.0)
        assert np.allclose(dense_solve(np.eye(5), b), b)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            dense_solve(np.diag([1.0, -2.0]), np.ones(2))

    def test_pcg_matches_dense(self, boundary_z):
        rng = np.random.default_rng(3)
        f = random_field(rng, 5, 5, 5, contrast=100.0)
        sys = build_system(f, boundary_z)
        b = build_rhs(sys)
        direct = dense_solve(assemble_dense(sys), b)
        refs = solve_reference_lp(coefficient_stats(sys))
        apply_m = FctPreconditioner(sys.grid, refs)
        iterative, rep = pcg(lambda u: apply_operator(sys, u), apply_m, b, 1e-10)
        assert rep.converged
        assert np.linalg.norm(iterative - direct) <= 1e-8 * np.linalg.norm(direct)


class TestConditionEstimate:
    def test_neumann_free_chain_eigenvalues(self):
        # interior z-chain block with both Dirichlet contributions, N = 4
        n = 4
        mat = 2.0 * np.eye(n) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)
        vals = np.linalg.eigvalsh(mat)
        want = 2.0 - 2.0 * np.cos((np.arange(n) + 1) * np.pi / (n + 1))
        assert np.allclose(vals, np.sort(want), rtol=1e-12)

    def test_pencil_identity(self, boundary_z):
        rng = np.random.default_rng(4)
        mat = assemble_dense(build_system(random_field(rng, 3, 3, 3), boundary_z))
        _, _, cond = condition_estimate(mat, mat)
        assert cond == pytest.approx(1.0, rel=1e-10)

    def test_homogeneous_growth(self, boundary_z):
        conds = []
        for n in (4, 8):
            sys = build_system(constant_field(n, n, n), boundary_z)
            conds.append(condition_estimate(assemble_dense(sys))[2])
        assert 3.0 <= conds[1] / conds[0] <= 5.0

    def test_rejects_singular_reference(self):
        with pytest.raises(ValueError):
            condition_estimate(np.eye(3), np.zeros((3, 3)))
