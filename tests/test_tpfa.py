import tracemalloc
import warnings

import numpy as np
import pytest

from etchomo import (
    Axis,
    BoundaryConfig,
    ConfigError,
    DiscreteSystem,
    FctPreconditioner,
    GridSpec,
    OrthotropicField,
    add_source,
    apply_operator,
    build_rhs,
    build_system,
    coefficient_stats,
    effective_conductivity,
    l2_error_midpoint,
    pcg,
    reconstruct_boundary_flux,
    solve_reference_lp,
)
from etchomo.oracles import assemble_dense, dense_solve
from etchomo import tpfa
from etchomo.tpfa import operator_diagonal

from conftest import band_views, cell_centers, constant_field, random_field, scale_field


def two_cell_system():
    # 1x1x2 grid, unit spacing on every axis, kappa = 1 -> A = [[3,-1],[-1,3]]
    field = constant_field(1, 1, 2, lengths=(1.0, 1.0, 2.0))
    return build_system(field, BoundaryConfig(Axis.Z, 1.0, 0.0))


class TestScaleField:
    def test_unit_spacing_identity(self):
        f = constant_field(3, 3, 3, lengths=(3.0, 3.0, 3.0))
        sx, sy, sz = scale_field(f)
        assert np.all(sx == 1.0) and np.all(sy == 1.0) and np.all(sz == 1.0)

    def test_half_spacing(self):
        f = constant_field(2, 2, 2, kz=4.0)
        _, _, sz = scale_field(f)
        assert np.all(sz == 16.0)

    def test_homogeneity(self):
        rng = np.random.default_rng(1)
        f = random_field(rng, 3, 4, 5)
        g = OrthotropicField(f.grid, 2.5 * f.kx, 2.5 * f.ky, 2.5 * f.kz)
        for a, b in zip(scale_field(g), scale_field(f)):
            assert np.allclose(a, 2.5 * b, rtol=1e-15)


class TestBuildSystem:
    def test_homogeneous_values(self, boundary_z):
        n = 4
        sys = build_system(constant_field(n, n, n), boundary_z)
        for name in ("tx", "ty", "tz"):
            faces, wraps = band_views(sys.grid, name, getattr(sys, name))
            assert np.all(faces == n**2)
            assert np.all(wraps == 0.0) and not np.any(np.signbit(wraps))
        assert np.all(sys.t_in == 2 * n**2)
        assert np.all(sys.t_out == 2 * n**2)

    def test_harmonic_mean_value(self, boundary_z):
        g = GridSpec(2, 1, 1, 2.0, 1.0, 1.0)
        f = OrthotropicField(g, [0.01, 1.0], [1.0, 1.0], [1.0, 1.0])
        sys = build_system(f, boundary_z)
        assert sys.tx[0] == pytest.approx(2.0 / 101.0, rel=1e-14)

    def test_harmonic_between_neighbors(self, boundary_z):
        rng = np.random.default_rng(2)
        f = random_field(rng, 5, 4, 3, contrast=100.0)
        sys = build_system(f, boundary_z)
        sx, _, _ = scale_field(f)
        left, right = sx[:, :, :-1].ravel(), sx[:, :, 1:].ravel()
        tx = band_views(f.grid, "tx", sys.tx)[0].ravel()
        assert np.all(tx >= np.minimum(left, right) - 1e-14)
        assert np.all(tx <= np.maximum(left, right) + 1e-14)
        assert np.all(tx <= 2 * np.minimum(left, right) + 1e-14)

    def test_large_f32_coefficients_do_not_overflow(self, boundary_z):
        f = constant_field(3, 3, 3, kx=1e20, ky=1e20, kz=1e20).astype(np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sys = build_system(f, boundary_z)
        assert np.all(np.isfinite(sys.tx)) and sys.tx.dtype == np.float32
        assert sys.tx[0] == pytest.approx(9e20, rel=1e-6)

    def test_requires_canonical_axis(self):
        from etchomo import ConfigError

        with pytest.raises(ConfigError):
            build_system(constant_field(2, 2, 2), BoundaryConfig(Axis.X, 1.0, 0.0))


class TestApplyOperator:
    def test_constant_vector(self, boundary_z):
        rng = np.random.default_rng(3)
        f = random_field(rng, 4, 3, 5)
        sys = build_system(f, boundary_z)
        out = apply_operator(sys, np.full(f.grid.n_cells, 2.5)).reshape(f.grid.shape)
        _, _, sz = scale_field(f)
        assert np.allclose(out[0], 2 * sz[0] * 2.5, rtol=1e-13)
        assert np.allclose(out[-1], 2 * sz[-1] * 2.5, rtol=1e-13)
        assert np.allclose(out[1:-1], 0.0, atol=1e-11)

    def test_two_cell_matrix(self):
        sys = two_cell_system()
        assert np.allclose(apply_operator(sys, np.array([1.0, 0.0])), [3.0, -1.0])
        assert np.allclose(apply_operator(sys, np.array([0.0, 1.0])), [-1.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_operator(two_cell_system(), np.ones(3))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_out_takes_the_product_with_the_same_bits(self, dtype, boundary_z):
        rng = np.random.default_rng(8)
        f = random_field(rng, 6, 5, 7, dtype=dtype)
        sys = build_system(f, boundary_z)
        u = rng.standard_normal(f.grid.n_cells).astype(dtype)
        want = apply_operator(sys, u)
        buf = np.full(f.grid.shape, np.nan, dtype=dtype)
        got = apply_operator(sys, u, out=buf)
        assert got.shape == u.shape and np.shares_memory(got, buf)
        assert np.array_equal(got, want)

    def test_out_must_fit_and_stay_apart_from_u(self, boundary_z):
        sys = build_system(random_field(np.random.default_rng(9), 4, 3, 5), boundary_z)
        u = np.ones(sys.grid.n_cells)
        for bad in (u, u.reshape(sys.grid.shape), np.empty(u.size - 1),
                    np.empty(u.size, dtype=np.float32), np.empty(2 * u.size)[::2]):
            with pytest.raises(ValueError):
                apply_operator(sys, u, out=bad)

    @pytest.mark.parametrize("dims", [(5, 4, 3), (8, 8, 8), (17, 9, 5), (1, 6, 4)])
    def test_symmetry(self, dims, boundary_z):
        rng = np.random.default_rng(hash(dims) % 2**32)
        f = random_field(rng, *dims, contrast=50.0)
        sys = build_system(f, boundary_z)
        u = rng.standard_normal(f.grid.n_cells)
        w = rng.standard_normal(f.grid.n_cells)
        au, aw = apply_operator(sys, u), apply_operator(sys, w)
        gap = abs(np.dot(au, w) - np.dot(u, aw))
        assert gap <= 1e-13 * np.linalg.norm(au) * np.linalg.norm(w)

    def test_positive_definite(self, boundary_z):
        rng = np.random.default_rng(5)
        for dims in [(2, 3, 4), (5, 5, 5), (4, 2, 3)]:
            f = random_field(rng, *dims, contrast=100.0)
            sys = build_system(f, boundary_z)
            vals = np.linalg.eigvalsh(assemble_dense(sys))
            assert vals[0] > 0.0


def slice_stencil(sys, u):
    """Per-axis slice form of the stencil, the reference for the flat-offset
    kernel: fluxes over the bands' (nz, ny, nx) face views, applied in the
    same order."""
    v = u.reshape(sys.grid.shape)
    out = np.zeros_like(v)
    for name, hi, lo in (
        ("tx", np.s_[:, :, 1:], np.s_[:, :, :-1]),
        ("ty", np.s_[:, 1:, :], np.s_[:, :-1, :]),
        ("tz", np.s_[1:, :, :], np.s_[:-1, :, :]),
    ):
        faces = band_views(sys.grid, name, getattr(sys, name))[0]
        flux = np.subtract(v[hi], v[lo])
        flux *= faces
        out[hi] += flux
        out[lo] -= flux
    out[0] += sys.layer_in() * v[0]
    out[-1] += sys.layer_out() * v[-1]
    return out.reshape(-1)


class TestStencilBits:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "dims",
        [(1, 1, 1), (1, 1, 5), (3, 1, 1), (1, 4, 1), (2, 3, 4), (5, 1, 7), (7, 6, 1), (6, 5, 4)],
    )
    def test_equals_slice_stencil(self, dims, dtype, boundary_z):
        rng = np.random.default_rng(sum(dims) + 7 * dims[0])
        sys = build_system(random_field(rng, *dims, dtype=dtype), boundary_z)
        n = sys.grid.n_cells
        signed_zeros = rng.standard_normal(n).astype(dtype)
        signed_zeros[::3] = -0.0
        signed_zeros[1::4] = 0.0
        for u in (rng.standard_normal(n).astype(dtype), signed_zeros):
            got, want = apply_operator(sys, u), slice_stencil(sys, u)
            assert got.dtype == want.dtype == dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("dims", [(4, 3, 1), (3, 5, 2), (1, 4, 5), (5, 1, 6), (4, 3, 7)])
    @pytest.mark.parametrize("layers", [0, 1, 2, 3, "all", "more"])
    def test_slabs_equal_slice_stencil(self, dims, dtype, layers, boundary_z, monkeypatch):
        # 0 asks for less than one layer, 2 and 3 leave a ragged last slab on
        # most nz, "all" is one slab and "more" a slab larger than the grid
        nx, ny, nz = dims
        layers = {"all": nz, "more": nz + 4}.get(layers, layers)
        layer_bytes = nx * ny * np.dtype(dtype).itemsize
        monkeypatch.setattr(tpfa, "_BLOCK_BYTES", max(1, layers * layer_bytes))
        rng = np.random.default_rng(sum(dims) + layers)
        sys = build_system(random_field(rng, *dims, dtype=dtype), boundary_z)
        n = sys.grid.n_cells
        signed_zeros = rng.standard_normal(n).astype(dtype)
        signed_zeros[::3] = -0.0
        signed_zeros[1::4] = 0.0
        for u in (rng.standard_normal(n).astype(dtype), signed_zeros, np.full(n, -0.0, dtype)):
            got, want = apply_operator(sys, u), slice_stencil(sys, u)
            assert got.dtype == want.dtype == dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_apply_over_slabs_keeps_no_full_flux_array(self, boundary_z):
        rng = np.random.default_rng(29)
        sys = build_system(random_field(rng, 64, 64, 64), boundary_z)
        u = rng.standard_normal(sys.grid.n_cells)
        assert tpfa._BLOCK_BYTES < u.nbytes // 4  # several slabs at this size
        apply_operator(sys, u)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            apply_operator(sys, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - before) / u.nbytes <= 1.25

    def test_apply_allocates_out_and_one_flux_array(self, boundary_z):
        rng = np.random.default_rng(28)
        sys = build_system(random_field(rng, 32, 32, 32), boundary_z)
        u = rng.standard_normal(sys.grid.n_cells)
        apply_operator(sys, u)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = apply_operator(sys, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes == u.nbytes
        assert (peak - before) / u.nbytes <= 2.6


class TestDiscreteSystemChecks:
    # band and layer array sizes on a 3x2x4 grid
    GRID = GridSpec(3, 2, 4)
    SIZES = {"tx": 24, "ty": 24, "tz": 24, "t_in": 6, "t_out": 6}
    BANDS = ("tx", "ty", "tz")

    def arrays(self):
        """Valid arrays: ones, with the bands' wrap entries 0."""
        arrays = {k: np.ones(n) for k, n in self.SIZES.items()}
        for name in self.BANDS:
            band_views(self.GRID, name, arrays[name])[1][...] = 0.0
        return arrays

    def make(self, boundary, name, values):
        arrays = self.arrays()
        arrays[name] = values
        return DiscreteSystem(self.GRID, *arrays.values(), boundary)

    def test_accepts_valid_arrays(self, boundary_z):
        DiscreteSystem(self.GRID, *self.arrays().values(), boundary_z)

    @pytest.mark.parametrize("name", list(SIZES))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0, -np.inf])
    def test_rejects_bad_entry(self, name, bad, boundary_z):
        values = self.arrays()[name]
        # the last face of a band (its last entry is a wrap), or of a layer
        target = band_views(self.GRID, name, values)[0] if name in self.BANDS else values
        target[(-1,) * target.ndim] = bad
        with pytest.raises(ConfigError, match=f"^{name} must be strictly positive$"):
            self.make(boundary_z, name, values)

    @pytest.mark.parametrize("name", list(SIZES))
    def test_rejects_wrong_size(self, name, boundary_z):
        want = self.SIZES[name]
        with pytest.raises(ConfigError, match=f"^{name} has {want + 1} entries, expected {want}$"):
            self.make(boundary_z, name, np.ones(want + 1))

    @pytest.mark.parametrize("name", BANDS)
    @pytest.mark.parametrize("where", [0, -1])
    @pytest.mark.parametrize("bad", [1.0, np.nan, -np.inf])
    def test_rejects_nonzero_wrap(self, name, where, bad, boundary_z):
        values = self.arrays()[name]
        band_views(self.GRID, name, values)[1][(where,) * 3] = bad
        with pytest.raises(ConfigError, match=f"^{name} must be 0 at its wrap entries$"):
            self.make(boundary_z, name, values)


class TestRhs:
    def test_homogeneous_values(self, boundary_z):
        n = 4
        sys = build_system(constant_field(n, n, n), boundary_z)
        b = build_rhs(sys).reshape(n, n, n)
        assert np.all(b[0] == 32.0)
        assert np.all(b[1:] == 0.0)

    def test_linear_profile_is_exact(self, boundary_z):
        n = 6
        sys = build_system(constant_field(n, n, n), boundary_z)
        b = build_rhs(sys)
        k = np.arange(n)
        profile = 1.0 - (k + 0.5) / n
        p = np.broadcast_to(profile[:, None, None], (n, n, n)).reshape(-1)
        assert np.linalg.norm(apply_operator(sys, p) - b) <= 1e-12 * np.linalg.norm(b)


class TestSource:
    def test_zero_source(self, boundary_z):
        sys = build_system(constant_field(3, 3, 3), boundary_z)
        b = build_rhs(sys)
        assert np.array_equal(add_source(sys, b, lambda x, y, z: np.zeros_like(x)), b)

    def test_constant_source(self, boundary_z):
        sys = build_system(constant_field(3, 3, 3), boundary_z)
        b = build_rhs(sys)
        b2 = add_source(sys, b, lambda x, y, z: np.ones_like(x))
        assert np.allclose(b2 - b, 1.0)

    def test_samplers_may_ignore_coordinates(self, boundary_z):
        # samplers get broadcast coordinate vectors; what they return is
        # spread over the grid, as if sampled on full cell-centre grids
        sys = build_system(constant_field(4, 3, 5), boundary_z)
        b = build_rhs(sys)
        X, Y, Z = cell_centers(sys.grid)
        for source in (lambda x, y, z: np.sin(x) * y + np.exp(z), lambda x, y, z: 2.0 * z,
                       lambda x, y, z: np.cos(x), lambda x, y, z: 1.5):
            want = b + np.broadcast_to(source(X, Y, Z), X.shape).reshape(-1)
            assert np.array_equal(add_source(sys, b, source), want)


    def test_non_finite_samples_rejected(self, boundary_z):
        sys = build_system(constant_field(3, 3, 3), boundary_z)
        with pytest.raises(ValueError, match="^source sampler returned non-finite values$"):
            add_source(sys, build_rhs(sys), lambda x, y, z: np.where(z > 0.5, np.nan, 1.0))


class TestDenseAssembly:
    def test_two_cell(self):
        assert np.array_equal(assemble_dense(two_cell_system()), [[3.0, -1.0], [-1.0, 3.0]])

    def test_symmetric(self, boundary_z):
        rng = np.random.default_rng(6)
        mat = assemble_dense(build_system(random_field(rng, 4, 3, 4), boundary_z))
        assert np.array_equal(mat, mat.T)

    def test_columns_match_operator(self, boundary_z):
        rng = np.random.default_rng(7)
        f = random_field(rng, 4, 4, 4)
        sys = build_system(f, boundary_z)
        mat = assemble_dense(sys)
        for j in rng.choice(f.grid.n_cells, size=20, replace=False):
            basis = np.zeros(f.grid.n_cells)
            basis[j] = 1.0
            assert np.allclose(mat[:, j], apply_operator(sys, basis), atol=1e-14)

    def test_sparse_matches_dense(self, boundary_z):
        rng = np.random.default_rng(8)
        sys = build_system(random_field(rng, 3, 4, 5), boundary_z)
        dense = assemble_dense(sys)
        for s, t in sys.bands():
            assert np.array_equal(np.diagonal(dense, s), -t)
            assert np.array_equal(np.diagonal(dense, -s), -t)

    def test_diagonal_helper(self, boundary_z):
        rng = np.random.default_rng(9)
        sys = build_system(random_field(rng, 3, 3, 3), boundary_z)
        assert np.allclose(operator_diagonal(sys), np.diag(assemble_dense(sys)))

    def test_size_guard(self, boundary_z):
        sys = build_system(constant_field(17, 17, 17), boundary_z)
        with pytest.raises(ValueError):
            assemble_dense(sys)


class TestStencilBands:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "dims",
        [(1, 1, 1), (1, 1, 5), (3, 1, 1), (1, 4, 1), (2, 3, 4), (5, 1, 7), (7, 6, 1), (6, 5, 4)],
    )
    def test_bands_are_the_dense_off_diagonals(self, dims, dtype, boundary_z):
        rng = np.random.default_rng(sum(dims) + 11 * dims[1])
        sys = build_system(random_field(rng, *dims, dtype=dtype), boundary_z)
        nx, ny, nz = dims
        n = sys.grid.n_cells
        dense = assemble_dense(sys)
        rebuilt = np.diag(np.diag(dense))
        steps = []
        for s, t in sys.bands():
            steps.append(s)
            assert t.dtype == dtype and t.shape == (n - s,)
            assert np.array_equal(np.diagonal(dense, s), -t)
            assert np.array_equal(np.diagonal(dense, -s), -t)
            rebuilt += np.diag(-t.astype(np.float64), s) + np.diag(-t.astype(np.float64), -s)
        want = [s for s, m in ((1, nx), (nx, ny), (nx * ny, nz)) if m > 1]
        assert steps == want
        # no coupling lies off the bands
        assert np.array_equal(rebuilt, dense)


class TestFluxAndEffective:
    def test_equilibrated_face_flux_zero(self, boundary_z):
        sys = build_system(constant_field(3, 3, 3), boundary_z)
        p = np.zeros(27)  # equals p_out on the outflow layer
        assert np.allclose(reconstruct_boundary_flux(sys, p, side="out"), 0.0)

    def test_homogeneous_unit_flux(self, boundary_z):
        n = 5
        sys = build_system(constant_field(n, n, n), boundary_z)
        p = dense_solve(assemble_dense(sys), build_rhs(sys))
        assert np.allclose(reconstruct_boundary_flux(sys, p, side="out"), 1.0, rtol=1e-12)
        assert np.allclose(reconstruct_boundary_flux(sys, p, side="in"), 1.0, rtol=1e-12)

    def test_unknown_side_rejected(self, boundary_z):
        sys = build_system(constant_field(3, 3, 3), boundary_z)
        with pytest.raises(ValueError, match="^side must be 'in' or 'out', got 'up'$"):
            reconstruct_boundary_flux(sys, np.zeros(27), side="up")

    def test_conservation_random_fields(self, boundary_z):
        rng = np.random.default_rng(10)
        for trial in range(4):
            f = random_field(rng, 6, 5, 7, contrast=30.0)
            sys = build_system(f, boundary_z)
            p = dense_solve(assemble_dense(sys), build_rhs(sys))
            fin = reconstruct_boundary_flux(sys, p, side="in").sum()
            fout = reconstruct_boundary_flux(sys, p, side="out").sum()
            assert abs(fin - fout) <= 1e-10 * abs(fout)

    def test_homogeneous_effective(self, boundary_z):
        sys = build_system(constant_field(4, 4, 4, kx=2.0, ky=5.0, kz=3.25), boundary_z)
        p = dense_solve(assemble_dense(sys), build_rhs(sys))
        keff = effective_conductivity(sys, reconstruct_boundary_flux(sys, p))
        assert keff == pytest.approx(3.25, abs=1e-12)

    def test_series_layers_harmonic_mean(self, boundary_z):
        layers = np.array([1.0, 2.0, 0.5, 4.0, 1.5, 3.0])
        n, nz = 3, layers.size
        g = GridSpec(n, n, nz)
        kz = np.repeat(layers, n * n)
        ones = np.ones(g.n_cells)
        sys = build_system(OrthotropicField(g, ones, ones, kz), boundary_z)
        p = dense_solve(assemble_dense(sys), build_rhs(sys))
        keff = effective_conductivity(sys, reconstruct_boundary_flux(sys, p))
        assert keff == pytest.approx(nz / np.sum(1.0 / layers), rel=1e-10)


class TestL2Error:
    def test_exact_samples(self):
        g = GridSpec(4, 4, 4)
        X, Y, Z = cell_centers(g)
        p = (X + 2 * Y - Z).reshape(-1)
        assert l2_error_midpoint(g, p, lambda x, y, z: x + 2 * y - z) == 0.0

    def test_samplers_may_ignore_coordinates(self):
        g = GridSpec(4, 3, 5)
        X, Y, Z = cell_centers(g)
        assert l2_error_midpoint(g, Z.reshape(-1), lambda x, y, z: z) == 0.0
        assert l2_error_midpoint(g, (X * Y).reshape(-1), lambda x, y, z: x * y) == 0.0

    def test_constant_offset(self):
        g = GridSpec(5, 5, 5)
        p = np.full(g.n_cells, 0.25)
        assert l2_error_midpoint(g, p, lambda x, y, z: np.zeros_like(x)) == pytest.approx(0.25)


class TestSmoothDiscretization:
    def test_pcg_matches_dense_on_smooth_miniature(self, boundary_z):
        # assembles the full manufactured problem at a tiny size and checks the
        # iterative path against direct factorization
        from etchomo import gen_smooth_problem

        field, exact, source = gen_smooth_problem(6)
        sys = build_system(field, boundary_z)
        X, Y, _ = cell_centers(field.grid)
        b = build_rhs(
            sys,
            dirichlet_in=exact(X[0], Y[0], 0.0),
            dirichlet_out=exact(X[0], Y[0], 1.0),
        )
        b = add_source(sys, b, source)
        direct = dense_solve(assemble_dense(sys), b)
        refs = solve_reference_lp(coefficient_stats(sys))
        apply_m = FctPreconditioner(field.grid, refs)
        iterative, rep = pcg(lambda u: apply_operator(sys, u), apply_m, b, 1e-12)
        assert rep.converged
        assert np.linalg.norm(iterative - direct) <= 1e-9 * np.linalg.norm(direct)
