import math
import os
import subprocess
import tracemalloc
import warnings
from pathlib import Path
from sys import executable

import numpy as np
import pytest

import etchomo
from etchomo import (
    CoefficientStats,
    ConfigError,
    FctPreconditioner,
    GridSpec,
    OrthotropicField,
    ReferenceParams,
    apply_operator,
    build_rhs,
    build_system,
    coefficient_stats,
    fct_backward_batch,
    fct_forward_batch,
    gen_random_balls,
    identity_apply,
    ones_reference,
    pcg,
    solve_reference_lp,
    thomas_solve_batch,
)
from etchomo.oracles import assemble_dense, reference_system
from etchomo.preconditioner import JacobiPreconditioner, SsorPreconditioner, _reduce
from etchomo.tpfa import operator_diagonal

from conftest import (
    band_views, condition_estimate, constant_field, dense_block, random_field, scale_field,
)


def random_stats(rng) -> CoefficientStats:
    vals = np.sort(np.exp(rng.uniform(-4, 4, 10)).reshape(5, 2), axis=1)
    return CoefficientStats(*vals.ravel())


class TestCoefficientStats:
    def test_homogeneous(self, boundary_z):
        sys = build_system(constant_field(4, 4, 4), boundary_z)
        s = coefficient_stats(sys)
        for lo, hi in s.groups().values():
            assert lo == hi == 16.0

    def test_brute_force_scan(self, boundary_z):
        rng = np.random.default_rng(11)
        f = random_field(rng, 4, 4, 4, contrast=100.0)
        sys = build_system(f, boundary_z)
        s = coefficient_stats(sys)
        sx, sy, sz = scale_field(f)
        harm = lambda a, b: 2.0 / (1.0 / a + 1.0 / b)
        faces_x = [
            harm(sx[k, j, i - 1], sx[k, j, i])
            for k in range(4) for j in range(4) for i in range(1, 4)
        ]
        faces_y = [
            harm(sy[k, j - 1, i], sy[k, j, i])
            for k in range(4) for j in range(1, 4) for i in range(4)
        ]
        faces_z = [
            harm(sz[k - 1, j, i], sz[k, j, i])
            for k in range(1, 4) for j in range(4) for i in range(4)
        ]
        assert s.kx_min == pytest.approx(min(faces_x), rel=1e-14)
        assert s.kx_max == pytest.approx(max(faces_x), rel=1e-14)
        assert s.ky_min == pytest.approx(min(faces_y), rel=1e-14)
        assert s.ky_max == pytest.approx(max(faces_y), rel=1e-14)
        assert s.kz_min == pytest.approx(min(faces_z), rel=1e-14)
        assert s.kz_max == pytest.approx(max(faces_z), rel=1e-14)
        assert s.kin_min == pytest.approx(sz[0].min(), rel=1e-14)
        assert s.kin_max == pytest.approx(sz[0].max(), rel=1e-14)
        assert s.kout_min == pytest.approx(sz[-1].min(), rel=1e-14)
        assert s.kout_max == pytest.approx(sz[-1].max(), rel=1e-14)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("dims", [(5, 4, 3), (1, 4, 3), (4, 1, 3), (3, 4, 1), (1, 1, 1)])
    def test_equals_fresh_scan_bit_for_bit(self, dims, dtype, boundary_z):
        rng = np.random.default_rng(sum(dims))
        sys = build_system(random_field(rng, *dims, contrast=1e3, dtype=dtype), boundary_z)

        def scan(arr):
            return (float(arr.min()), float(arr.max())) if arr.size else (1.0, 1.0)

        faces = (band_views(sys.grid, name, getattr(sys, name))[0] for name in ("tx", "ty", "tz"))
        fresh = CoefficientStats(*(v for t in faces for v in scan(t)),
                                 *scan(sys.t_in / 2.0), *scan(sys.t_out / 2.0))
        got = coefficient_stats(sys)
        for name in ("kx", "ky", "kz", "kin", "kout"):
            for end in ("min", "max"):
                a, b = getattr(got, f"{name}_{end}"), getattr(fresh, f"{name}_{end}")
                assert type(a) is float and a.hex() == b.hex()

    def test_stored_arrays_are_read_only(self, boundary_z):
        sys = build_system(random_field(np.random.default_rng(13), 3, 3, 3), boundary_z)
        for name in ("tx", "ty", "tz", "t_in", "t_out"):
            with pytest.raises(ValueError):
                getattr(sys, name)[0] = 1e9

    def test_mirror_invariance(self, boundary_z):
        rng = np.random.default_rng(12)
        f = random_field(rng, 4, 3, 5)
        mirrored = OrthotropicField(
            f.grid,
            f.cube("kx")[:, :, ::-1].copy(),
            f.cube("ky")[:, :, ::-1].copy(),
            f.cube("kz")[:, :, ::-1].copy(),
        )
        a = coefficient_stats(build_system(f, boundary_z))
        b = coefficient_stats(build_system(mirrored, boundary_z))
        assert a == b


class TestReferenceLp:
    def test_contrast_free(self):
        s = CoefficientStats(*(1.0,) * 10)
        refs = solve_reference_lp(s)
        assert refs == ReferenceParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert refs.objective == 1.0

    def test_isotropic_two_phase(self):
        c = 3.7
        s = CoefficientStats(*([0.01 * c, 1.0 * c] * 5))
        refs = solve_reference_lp(s)
        for v in (refs.kx_ref, refs.ky_ref, refs.kz_ref, refs.kin_ref, refs.kout_ref):
            assert v == pytest.approx(0.1 * c, rel=1e-14)
        assert refs.objective == pytest.approx(100.0, rel=1e-12)

    def test_all_ten_constraints_feasible(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            s = random_stats(rng)
            refs = solve_reference_lp(s)
            lo = math.log(refs.lambda_lo)
            hi = math.log(refs.lambda_hi)
            by_group = {
                "x": refs.kx_ref, "y": refs.ky_ref, "z": refs.kz_ref,
                "in": refs.kin_ref, "out": refs.kout_ref,
            }
            for d, (mn, mx) in s.groups().items():
                c = math.log(by_group[d])
                assert c + lo <= math.log(mn) + 1e-12
                assert c + hi >= math.log(mx) - 1e-12

    def test_against_linprog_oracle(self):
        from scipy.optimize import linprog

        rng = np.random.default_rng(14)
        for _ in range(10):
            s = random_stats(rng)
            refs = solve_reference_lp(s)
            # variables [cx cy cz cin cout lo hi]; minimize hi - lo
            rows, rhs = [], []
            for gi, (mn, mx) in enumerate(s.groups().values()):
                row = np.zeros(7)
                row[gi], row[5] = 1.0, 1.0
                rows.append(row)
                rhs.append(math.log(mn))
                row = np.zeros(7)
                row[gi], row[6] = -1.0, -1.0
                rows.append(row)
                rhs.append(-math.log(mx))
            res = linprog(
                np.array([0, 0, 0, 0, 0, -1.0, 1.0]),
                A_ub=np.array(rows), b_ub=np.array(rhs),
                bounds=[(None, None)] * 7, method="highs",
            )
            assert res.success
            assert math.log(refs.objective) == pytest.approx(res.fun, abs=1e-9)

    def test_objective_is_max_log_ratio(self):
        rng = np.random.default_rng(15)
        s = random_stats(rng)
        refs = solve_reference_lp(s)
        want = max(mx / mn for mn, mx in s.groups().values())
        assert refs.objective == pytest.approx(want, rel=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(16)
        s = random_stats(rng)
        scaled = CoefficientStats(*(7.5 * np.array(
            [s.kx_min, s.kx_max, s.ky_min, s.ky_max, s.kz_min, s.kz_max,
             s.kin_min, s.kin_max, s.kout_min, s.kout_max])))
        a, b = solve_reference_lp(s), solve_reference_lp(scaled)
        assert b.kx_ref == pytest.approx(7.5 * a.kx_ref, rel=1e-12)
        assert b.kout_ref == pytest.approx(7.5 * a.kout_ref, rel=1e-12)
        assert b.objective == pytest.approx(a.objective, rel=1e-12)

    def test_ones_reference(self):
        homo = ones_reference(CoefficientStats(*(1.0,) * 10))
        assert (homo.kx_ref, homo.ky_ref, homo.kz_ref, homo.kin_ref, homo.kout_ref) == (1.0,) * 5
        assert homo.objective == 1.0

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_reference_constants_must_be_finite(self, value):
        with pytest.raises(ConfigError, match="kx_ref must be positive and finite"):
            ReferenceParams(value, 1, 1, 1, 1)

    @pytest.mark.parametrize("group", range(5))
    def test_statistics_must_be_ordered(self, group):
        vals = [1.0, 2.0] * 5
        vals[2 * group] = 3.0  # min > max in one group
        with pytest.raises(ConfigError, match=r"^stats must satisfy 0 < min <= max < inf$"):
            CoefficientStats(*vals)

    def test_bounds_must_be_ordered(self):
        with pytest.raises(ConfigError, match="^need 0 < lambda_lo <= lambda_hi$"):
            ReferenceParams(1, 1, 1, 1, 1, lambda_lo=2.0, lambda_hi=1.0)

    def test_ones_reference_bounds_come_from_statistics(self):
        spread = ones_reference(CoefficientStats(0.5, 2.0, 1.0, 1.0, 1.0, 4.0, 1.0, 1.0, 1.0, 1.0))
        assert (spread.lambda_lo, spread.lambda_hi) == (0.5, 4.0)
        with pytest.raises(TypeError):
            ones_reference()


class TestTridiag:
    def test_dense_block_ones(self):
        want = np.array([[3.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 3.0]])
        block = dense_block(GridSpec(4, 4, 3), ReferenceParams(1, 1, 1, 1, 1), 0, 0)
        assert np.array_equal(block, want)

    def test_high_mode_shift_approaches_four(self):
        nx = 100
        grid, refs = GridSpec(nx, 4, 2), ReferenceParams(2.0, 1, 1, 1, 1)
        shift = dense_block(grid, refs, nx - 1, 0)[0, 0] - dense_block(grid, refs, 0, 0)[0, 0]
        assert shift == pytest.approx(4.0 * 2.0, rel=1e-3)

    def test_blocks_positive_definite(self):
        grid, refs = GridSpec(3, 3, 4), ReferenceParams(1, 1, 1, 1, 1)
        for iq in range(3):
            for jq in range(3):
                vals = np.linalg.eigvalsh(dense_block(grid, refs, iq, jq))
                assert vals[0] > 0.0

    def test_thomas_single_layer(self):
        grid, refs = GridSpec(2, 2, 1), ReferenceParams(1, 1, 1, 0.5, 0.25)
        fac = FctPreconditioner(grid, refs)
        rhs = np.arange(1.0, 5.0).reshape(1, 2, 2)
        got = thomas_solve_batch(fac, rhs.copy())
        for j in range(2):
            for i in range(2):
                t = dense_block(grid, refs, i, j)
                assert got[0, j, i] == pytest.approx(rhs[0, j, i] / t[0, 0], rel=1e-14)

    def test_thomas_multiply_back(self):
        grid, refs = GridSpec(1, 1, 3), ReferenceParams(1, 1, 1, 1, 1)
        fac = FctPreconditioner(grid, refs)
        rhs = np.array([1.0, 0.0, 0.0]).reshape(3, 1, 1)
        got = thomas_solve_batch(fac, rhs.copy())
        t = dense_block(grid, refs, 0, 0)
        assert np.max(np.abs(t @ got.ravel() - rhs.ravel())) <= 1e-14

    def test_thomas_batch_determinism(self):
        grid, refs = GridSpec(3, 3, 5), ReferenceParams(1, 1, 1, 1, 1)
        fac = FctPreconditioner(grid, refs)
        rng = np.random.default_rng(17)
        column = rng.standard_normal(5)
        rhs = np.broadcast_to(column[:, None, None], (5, 3, 3)).copy()
        got = thomas_solve_batch(fac, rhs)
        # plane shift differs per (i', j'), so compare each against its block
        for j in range(3):
            for i in range(3):
                want = np.linalg.solve(dense_block(grid, refs, i, j), column)
                assert np.allclose(got[:, j, i], want, rtol=1e-12)
        again = thomas_solve_batch(fac, np.broadcast_to(column[:, None, None], (5, 3, 3)).copy())
        assert np.array_equal(got, again)

    def test_thomas_random_batch_vs_dense(self):
        rng = np.random.default_rng(18)
        grid, refs = GridSpec(4, 3, 6), ReferenceParams(0.3, 2.0, 1.5, 0.8, 1.1)
        fac = FctPreconditioner(grid, refs)
        rhs = rng.standard_normal((6, 3, 4))
        got = thomas_solve_batch(fac, rhs.copy())
        for j in range(3):
            for i in range(4):
                want = np.linalg.solve(dense_block(grid, refs, i, j), rhs[:, j, i])
                assert np.allclose(got[:, j, i], want, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("nz", [1, 2, 3, 6, 7, 8, 129, 1536])
    def test_levels_are_a_few_planes_each(self, nz, dtype):
        # no array with one plane per layer: each level keeps at most two
        # (g, 1/D) pairs of planes, over ceil(log2(nz)) levels
        fac = FctPreconditioner(GridSpec(5, 4, nz), ReferenceParams(1.3, 0.7, 2.0, 0.5, 0.9), dtype)
        rhs = np.ones((nz, 4, 5), dtype=dtype)
        assert thomas_solve_batch(fac, rhs).dtype == dtype
        levels, final = fac.levels, fac.final
        assert len(levels) == math.ceil(math.log2(nz))
        planes = [final] + [p for level in levels for pair in level if pair for p in pair]
        assert len(planes) <= 4 * len(levels) + 1
        for p in planes:
            assert p.shape == (4, 5) and p.dtype == dtype

    @pytest.mark.parametrize("nz, block, rows", [
        (1, None, 0), (5, None, 2), (129, None, 16), (129, 16000, 1), (129, 40000, 2),
    ])
    def test_scratch_is_one_chunk(self, nz, block, rows, monkeypatch):
        # one buffer per solve, of at most _BLOCK_BYTES (by default 16 of
        # these 16000-byte planes) and at most half the chain
        if block is not None:
            monkeypatch.setattr(etchomo.preconditioner, "_BLOCK_BYTES", block)
        fac = FctPreconditioner(GridSpec(50, 40, nz), ReferenceParams(1.3, 0.7, 1.7, 0.5, 0.9))
        rhs = np.ones((nz, 40, 50))
        empty, shapes = np.empty, []

        def recording_empty(shape, *args, **kwargs):
            shapes.append(shape)
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", recording_empty)
        thomas_solve_batch(fac, rhs)
        assert shapes == [(rows, 40, 50)]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("nz", [*range(1, 41), 63, 64, 65, 127, 128, 129])
    @pytest.mark.parametrize("plane", [(4, 5), (3, 70)], ids=["narrow", "wide"])
    def test_every_mode_against_its_dense_block(self, plane, nz, dtype):
        # every odd/even remainder of the chain length, on a plane of either
        # transform branch; the reference is an f64 solve of the same rhs,
        # and each mode's error is bounded by 4 eps times its condition
        rng = np.random.default_rng(nz)
        ny, nx = plane
        grid, refs = GridSpec(nx, ny, nz), ReferenceParams(1.3, 0.7, 1.7, 0.5, 0.9)
        fac = FctPreconditioner(grid, refs, dtype)
        rhs = rng.standard_normal((nz,) + plane).astype(dtype)
        got = thomas_solve_batch(fac, rhs.copy())
        assert got.dtype == dtype
        blocks = np.stack([dense_block(grid, refs, i, j, dtype)
                           for j in range(ny) for i in range(nx)])
        want = np.linalg.solve(blocks, rhs.astype(np.float64).reshape(nz, -1).T[..., None])[..., 0].T
        err = np.abs(got.reshape(nz, -1) - want).max(axis=0) / np.abs(want).max(axis=0)
        eig = np.linalg.eigvalsh(blocks)
        assert np.all(err <= 4 * np.finfo(dtype).eps * eig[:, -1] / eig[:, 0])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("nz", [2, 5, 8, 37, 64, 129])
    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_chunks_keep_the_bits_of_one_chunk(self, rows, nz, dtype, monkeypatch):
        # left neighbour first in every chunk, so the chunk edges do not
        # show in the bits
        rng = np.random.default_rng(40 + nz)
        refs = ReferenceParams(1.3, 0.7, 1.7, 0.5, 0.9)
        rhs = rng.standard_normal((nz, 4, 5)).astype(dtype)
        whole = FctPreconditioner(GridSpec(5, 4, nz), refs, dtype)
        want = thomas_solve_batch(whole, rhs.copy())  # one chunk per level
        monkeypatch.setattr(etchomo.preconditioner, "_BLOCK_BYTES", rows * 4 * 5 * rhs.itemsize)
        chunked = FctPreconditioner(GridSpec(5, 4, nz), refs, dtype)
        mine = rhs.copy()
        bufsize = np.getbufsize()
        got = thomas_solve_batch(chunked, mine)
        assert np.getbufsize() == bufsize  # numpy's ufunc buffer is restored
        assert np.array_equal(got, want)
        assert np.shares_memory(got, mine)

    @pytest.mark.parametrize("nz, layer, value, level", [
        (6, 0, 0.0, 0), (6, 0, -1.0, 0), (6, -1, np.nan, 0), (6, 1, 0.0, 0),
        (6, 1, -2.0, 0), (8, 1, np.nan, 0), (1, 0, -1.0, 0),
        # inner diagonal kept positive but too small: level 1's goes negative
        (6, 1, 0.5, 1),
        # an eliminated last layer with a small diagonal spoils level 1
        (4, -1, 0.25, 1),
        # mode (0, 0) of the all-ones chain: the first diagonal c only
        # falls with each level, by 1/2, 3/4, 7/8 and so on
        (9, 0, 0.6, 2), (8, 0, 0.8, 3), (9, 0, 0.8, 3),
    ])
    def test_first_bad_level_is_named_without_warnings(self, nz, layer, value, level):
        # the all-ones chain of a 3x2 plane with its first (layer 0),
        # interior (1) or last (-1) diagonal set to `value` before the
        # shift of each mode is added
        shift = 2.0 * (1.0 - np.cos(np.arange(3) * np.pi / 3)) + 2.0 * (
            1.0 - np.cos(np.arange(2) * np.pi / 2))[:, None]
        diags = [3.0, 2.0, 3.0] if nz > 1 else [4.0] * 3
        diags[layer] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match=f"non-positive pivot .* at level {level}$"):
                _reduce(*(d + shift for d in diags), np.float64(-1.0), nz)

    def test_pivot_error_comes_at_set_up(self):
        # 1e-46 underflows to 0 in f32, so every diagonal plane is 0
        with pytest.raises(FloatingPointError, match="non-positive pivot .* at level 0$"):
            FctPreconditioner(GridSpec(4, 3, 5), ReferenceParams(*[1e-46] * 5), np.float32)

    @pytest.mark.parametrize("refs", [ReferenceParams(1.3, 0.7, 1.7, 0.5, 0.9),
                                      ReferenceParams(1, 1, 1, 1, 1)], ids=["mixed", "ones"])
    def test_long_f32_chain_of_the_zero_mode(self, refs):
        # the 1536-layer chain of the column benchmark's mode (0, 0), the
        # worst-conditioned one, in f32 against an f64 banded solve of the
        # same rhs; a sequential Thomas sweep reads a few 1e-4 here
        from scipy.linalg import solve_banded

        nz = 1536
        grid = GridSpec(1, 1, nz)
        fac = FctPreconditioner(grid, refs, np.float32)
        b = np.random.default_rng(3).standard_normal(nz).astype(np.float32)
        got = thomas_solve_batch(fac, b.reshape(nz, 1, 1).copy()).ravel()
        block = dense_block(grid, refs, 0, 0, np.float32)
        bands = np.zeros((3, nz))
        bands[0, 1:] = bands[2, :-1] = block[0, 1]
        bands[1] = np.diag(block)
        want = solve_banded((1, 1), bands, b.astype(np.float64))
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()

    def test_tiny_kz_reference_in_f32(self):
        # kz_ref / kx_ref = 1e-40: the couplings underflow in the high modes,
        # where the solve is then the diagonal scaling it should be
        grid, refs = GridSpec(4, 4, 3), ReferenceParams(1e10, 1e10, 1e-30, 1, 1)
        fac = FctPreconditioner(grid, refs, np.float32)
        rhs = np.ones((3, 4, 4), dtype=np.float32)
        got = thomas_solve_batch(fac, rhs.copy())
        assert np.all(np.isfinite(got))
        for j in range(4):
            for i in range(4):
                want = np.linalg.solve(dense_block(grid, refs, i, j, np.float32), np.ones(3))
                assert np.allclose(got[:, j, i], want, rtol=1e-6)


class TestFctPreconditioner:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(5, 6, 7), (4, 3, 70)], ids=["products", "pocketfft"])
    def test_apply_has_the_bits_of_the_normalized_pair(self, shape, dtype):
        # the apply runs the transforms unscaled; the normalized public pair
        # around the tridiagonal stage is the reference
        rng = np.random.default_rng(29)
        nz, ny, nx = shape
        apply_m = FctPreconditioner(GridSpec(nx, ny, nz), ReferenceParams(1.3, 0.7, 1.7, 0.5, 0.9), dtype)
        r = rng.standard_normal(shape).astype(dtype)
        want = fct_backward_batch(thomas_solve_batch(apply_m, fct_forward_batch(r)))
        got = apply_m(r.ravel())
        assert got.dtype == dtype
        assert np.array_equal(got, want.ravel())

    def test_degenerate_single_column(self):
        grid, refs = GridSpec(1, 1, 5), ReferenceParams(1.3, 0.7, 2.0, 0.5, 0.9)
        apply_m = FctPreconditioner(grid, refs)
        rng = np.random.default_rng(19)
        r = rng.standard_normal(5)
        got = apply_m(r)
        want = np.linalg.solve(dense_block(grid, refs, 0, 0), r)
        assert np.allclose(got, want, rtol=1e-13)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_leaves_residual_unmodified(self, dtype):
        rng = np.random.default_rng(22)
        grid = GridSpec(6, 5, 4)
        apply_m = FctPreconditioner(grid, ReferenceParams(1.3, 0.7, 2.0, 0.5, 0.9), dtype)
        r = rng.standard_normal(grid.n_cells).astype(dtype)
        kept = r.copy()
        z = apply_m(r)
        assert np.array_equal(r, kept)
        assert z.dtype == dtype and z.shape == r.shape

    def test_apply_allocates_one_grid_array(self):
        rng = np.random.default_rng(27)
        grid = GridSpec(32, 32, 32)
        apply_m = FctPreconditioner(grid, ReferenceParams(1.3, 0.7, 2.0, 0.5, 0.9))
        r = rng.standard_normal(grid.n_cells)
        apply_m(r)  # the first apply allocates the workspace
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            z = apply_m(r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert z.nbytes == r.nbytes
        assert (peak - before) / r.nbytes <= 1.1

    @pytest.mark.parametrize("shape", [(3, 4, 5), (2, 3, 70)])
    def test_applies_return_the_workspace(self, shape):
        # both transform branches run inside the one workspace; an apply
        # of the workspace itself gives the bits of an apply of its copy
        rng = np.random.default_rng(28)
        nz, ny, nx = shape
        apply_m = FctPreconditioner(GridSpec(nx, ny, nz), ReferenceParams(1.3, 0.7, 2.0, 0.5, 0.9))
        r = rng.standard_normal(nx * ny * nz)
        z = apply_m(r)
        assert np.shares_memory(z, apply_m.workspace)
        first = z.copy()
        again = apply_m(apply_m.workspace)
        assert np.shares_memory(again, apply_m.workspace)
        assert np.array_equal(again, apply_m(first))

    def test_apply_back_identity(self):
        rng = np.random.default_rng(20)
        grid = GridSpec(9, 7, 5)
        stats = CoefficientStats(*np.sort(rng.uniform(0.1, 10.0, 10).reshape(5, 2), axis=1).ravel())
        refs = solve_reference_lp(stats)
        apply_m = FctPreconditioner(grid, refs)
        ref_sys = reference_system(grid, refs)
        r = rng.standard_normal(grid.n_cells)
        back = apply_operator(ref_sys, apply_m(r))
        assert np.linalg.norm(back - r) <= 1e-11 * np.linalg.norm(r)

    def test_oracle_runs_every_chain_length(self, monkeypatch):
        # `etc oracle` adds one grid per nz in 1..2*max_n+1 to its 8 random ones
        from etchomo import oracles

        real, seen = oracles.FctPreconditioner, []

        def recording(grid, refs):
            seen.append(grid.nz)
            return real(grid, refs)

        monkeypatch.setattr(oracles, "FctPreconditioner", recording)
        ok, _ = oracles.check_precond_exactness(3, np.random.default_rng(5))
        assert ok and len(seen) == 15 and seen[8:] == list(range(1, 8))

    def test_matched_reference_is_exact_operator(self, boundary_z):
        sys = build_system(constant_field(5, 4, 3, kx=2.0, ky=0.5, kz=1.5), boundary_z)
        refs = solve_reference_lp(coefficient_stats(sys))
        ref_sys = reference_system(sys.grid, refs)
        rng = np.random.default_rng(21)
        u = rng.standard_normal(sys.grid.n_cells)
        assert np.allclose(apply_operator(sys, u), apply_operator(ref_sys, u), rtol=1e-13)

    def test_reference_bounds_condition_number(self, boundary_z):
        # spectral-equivalence estimate on small random pencils, both modes
        rng = np.random.default_rng(22)
        for _ in range(5):
            dims = [int(d) for d in rng.integers(2, 7, 3)]
            f = random_field(rng, *dims, contrast=100.0)
            sys = build_system(f, boundary_z)
            stats = coefficient_stats(sys)
            dense = assemble_dense(sys)
            for refs in (solve_reference_lp(stats), ones_reference(stats)):
                dense_ref = assemble_dense(reference_system(sys.grid, refs))
                _, _, cond = condition_estimate(dense, dense_ref)
                assert cond <= refs.objective * (1.0 + 1e-8)


class TestClassicalBaselines:
    def test_single_cell_all_coincide(self, boundary_z):
        sys = build_system(constant_field(1, 1, 1), boundary_z)
        dense = assemble_dense(sys)
        r = np.array([2.5])
        want = r / dense[0, 0]
        assert np.allclose(JacobiPreconditioner(sys)(r), want)
        assert np.allclose(SsorPreconditioner(sys, 1.0)(r), want)
        assert np.allclose(identity_apply(r), r)

    def test_jacobi_against_dense_diagonal(self, boundary_z):
        rng = np.random.default_rng(23)
        sys = build_system(random_field(rng, 4, 4, 4), boundary_z)
        r = rng.standard_normal(64)
        z = JacobiPreconditioner(sys)(r)
        assert np.allclose(z * np.diag(assemble_dense(sys)), r, rtol=1e-13)

    def test_ssor_omega_validation(self, boundary_z):
        sys = build_system(constant_field(2, 2, 2), boundary_z)
        with pytest.raises(ConfigError):
            SsorPreconditioner(sys, omega=2.0)

    def test_ssor_matches_dense_formula(self, boundary_z):
        rng = np.random.default_rng(24)
        sys = build_system(random_field(rng, 3, 3, 3), boundary_z)
        omega = 1.5
        mat = assemble_dense(sys)
        diag = np.diag(np.diag(mat))
        lower = np.tril(mat, -1)
        upper = np.triu(mat, 1)
        m = (np.tril(mat, 0) + (1.0 / omega - 1.0) * diag) @ np.linalg.inv(diag) @ (
            np.triu(mat, 0) + (1.0 / omega - 1.0) * diag
        ) * (omega / (2.0 - omega))
        r = rng.standard_normal(27)
        assert np.allclose(SsorPreconditioner(sys, omega)(r), np.linalg.solve(m, r), rtol=1e-10)

    def test_pcg_with_ssor_converges(self, boundary_z):
        rng = np.random.default_rng(25)
        f = random_field(rng, 8, 8, 8, contrast=50.0)
        sys = build_system(f, boundary_z)
        b = build_rhs(sys)
        apply_m = SsorPreconditioner(sys, 1.0)
        _, rep = pcg(lambda u: apply_operator(sys, u), apply_m, b, 1e-8, max_iter=400)
        assert rep.converged
        assert rep.relative_residuals[-1] <= 1e-8

    def test_ssor_one_keeps_the_iterates_of_the_two_pass_form(self, boundary_z):
        # at omega = 1 the stored diagonal times (2 - omega)/omega is the
        # diagonal, so dropping the apply's final scaling pass keeps every bit
        rng = np.random.default_rng(25)
        sys = build_system(random_field(rng, 8, 8, 8, contrast=50.0), boundary_z)
        m = SsorPreconditioner(sys, 1.0)
        d = operator_diagonal(sys).astype(np.float64)

        def two_pass(r):
            y = m._lu.solve(np.asarray(r, dtype=np.float64))
            y *= d
            y = m._lu.solve(y, trans="T")
            y *= (2.0 - 1.0) / 1.0
            return y

        runs = [pcg(lambda u: apply_operator(sys, u), apply_m, build_rhs(sys), 1e-10, max_iter=400)
                for apply_m in (m, two_pass)]
        (u_one, rep_one), (u_two, rep_two) = runs
        assert rep_one.relative_residuals == rep_two.relative_residuals
        assert np.array_equal(u_one, u_two)

    def test_ssor_setup_peak(self, boundary_z):
        # the seed-11 48^3 pack: one triangle is built from the bands
        # without a full matrix and factored once, so set-up stays below 24
        # f64 grid arrays
        sys = build_system(gen_random_balls(48, 40, 0.05, 0.15, 10.0, 11), boundary_z)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            SsorPreconditioner(sys, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - before) / (48**3 * 8) <= 24


class TestSsorBits:
    @pytest.mark.parametrize("omega", [0.7, 1.0, 1.5, 1.9])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("dims", [(1, 1, 1), (1, 1, 5), (3, 1, 1), (1, 4, 1), (7, 6, 1), (4, 3, 5)])
    def test_triangles_and_factors_equal_dense_reference(
        self, dims, dtype, omega, boundary_z, monkeypatch
    ):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        splu, seen = spla.splu, []

        def recording_splu(mat, **kwargs):
            seen.append((mat, kwargs))
            return splu(mat, **kwargs)

        monkeypatch.setattr(spla, "splu", recording_splu)
        rng = np.random.default_rng(sum(dims) + int(10 * omega))
        sys = build_system(random_field(rng, *dims, contrast=math.exp(4), dtype=dtype), boundary_z)
        m = SsorPreconditioner(sys, omega)
        dense = assemble_dense(sys)
        d = operator_diagonal(sys).astype(np.float64)
        lower = np.tril(dense, -1) + np.diag(d / omega)
        # the lower triangle is built and factored once, and only its factor is kept
        [(got, kwargs)] = seen
        assert kwargs == {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0, "panel_size": 1}
        assert got.format == "csc" and got.dtype == np.float64
        assert got.nnz == np.count_nonzero(lower)
        assert np.array_equal(got.toarray(), lower)
        ref_lu = splu(sp.csc_matrix(lower), **kwargs)
        n = sys.grid.n_cells
        # diagonal pivots: no row swaps and no fill, U is the diagonal
        assert np.array_equal(m._lu.perm_r, np.arange(n))
        assert m._lu.U.nnz == n
        refs = [ref_lu]
        if omega <= 1.0:
            # the diagonal wins every default threshold test: same bits
            refs.append(splu(sp.csc_matrix(lower), permc_spec="NATURAL"))
        for ref in refs:
            for mine, theirs in ((m._lu.L, ref.L), (m._lu.U, ref.U)):
                mine, theirs = mine.tocsc(), theirs.tocsc()
                for attr in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(mine, attr), getattr(theirs, attr))
            assert np.array_equal(m._lu.perm_r, ref.perm_r)
            assert np.array_equal(m._lu.perm_c, ref.perm_c)
        assert [k for k, v in vars(m).items() if isinstance(v, spla.SuperLU)] == ["_lu"]
        r = rng.standard_normal(sys.grid.n_cells).astype(dtype)
        forward = ref_lu.solve(r.astype(np.float64))
        # the factor (2 - omega)/omega rides on the diagonal scaling
        y = ref_lu.solve(forward * (d * ((2.0 - omega) / omega)), trans="T")
        got = m(r)
        assert got.dtype == dtype
        assert np.array_equal(got, y.astype(dtype))
        # the two-pass form, which scales the result by (2 - omega)/omega
        # after the transposed solve, has the same bits at omega = 1 (the
        # stored product is the diagonal) and rounds once more elsewhere
        two_pass = ref_lu.solve(forward * d, trans="T")
        two_pass *= (2.0 - omega) / omega
        if omega == 1.0:
            assert np.array_equal(y, two_pass)
        assert np.linalg.norm(y - two_pass) <= 1e-13 * np.linalg.norm(two_pass)
        # the two-factor form, whose backward sweep uses a factor of the upper
        # triangle D/omega - U, gives the same f64 apply to rounding
        upper = np.triu(dense, 1) + np.diag(d / omega)
        two = splu(sp.csc_matrix(upper), permc_spec="NATURAL").solve(forward * d)
        two *= (2.0 - omega) / omega
        assert np.linalg.norm(y - two) <= 1e-13 * np.linalg.norm(two)

    def test_setup_peak_memory(self):
        # ru_maxrss is per process, so the set-up runs in a fresh one, after
        # the pack's assembly and scipy's import have set their own peaks
        code = """
import resource
import scipy.sparse.linalg
from etchomo import Axis, BoundaryConfig, build_system
from etchomo.pipeline import make_field
from etchomo.preconditioner import SsorPreconditioner
field = make_field("random-balls", {"preset": "a", "n": 48})
system = build_system(field, BoundaryConfig(Axis.Z, 1.0, 0.0))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
SsorPreconditioner(system, 1.0)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) * 1024 / (8 * system.grid.n_cells))
"""
        src = str(Path(etchomo.__file__).resolve().parents[1])
        out = subprocess.run(
            [executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout
        # growth in f64 grid arrays: about 29, and 67 with SuperLU's default panels
        assert float(out) <= 40
