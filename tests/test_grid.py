import re
import struct
import tracemalloc

import numpy as np
import pytest

from etchomo import (
    ConfigError,
    GridSpec,
    OrthotropicField,
    VoxFormatError,
    gen_center_ball,
    gen_channels,
    gen_random_balls,
    gen_smooth_problem,
    read_vox,
    write_vox,
)

from conftest import cell_centers, linear_index


class TestGridSpec:
    def test_spacings(self):
        g = GridSpec(4, 5, 6, 2.0, 1.0, 3.0)
        assert g.hx * g.nx == pytest.approx(g.lx, rel=1e-15)
        assert g.hy * g.ny == pytest.approx(g.ly, rel=1e-15)
        assert g.hz * g.nz == pytest.approx(g.lz, rel=1e-15)
        assert g.shape == (6, 5, 4)

    @pytest.mark.parametrize("bad", [dict(nx=0), dict(lz=-1.0), dict(ly=0.0)])
    def test_rejects_bad_parameters(self, bad):
        kw = dict(nx=2, ny=2, nz=2, lx=1.0, ly=1.0, lz=1.0)
        kw.update(bad)
        with pytest.raises(ConfigError):
            GridSpec(**kw)


class TestLinearIndex:
    def test_origin(self):
        assert linear_index(0, 0, 0, GridSpec(3, 3, 3)) == 0

    def test_x_fastest(self):
        assert linear_index(1, 0, 0, GridSpec(4, 4, 4)) == 1

    def test_mixed(self):
        # (3*5 + 2)*4 + 1
        assert linear_index(1, 2, 3, GridSpec(4, 5, 6)) == 69

    def test_bijective(self):
        g = GridSpec(3, 4, 5)
        seen = {
            linear_index(i, j, k, g)
            for k in range(5)
            for j in range(4)
            for i in range(3)
        }
        assert seen == set(range(g.n_cells))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            linear_index(4, 0, 0, GridSpec(4, 4, 4))


class TestField:
    def test_rejects_nonpositive(self):
        g = GridSpec(2, 2, 2)
        k = np.ones(8)
        bad = k.copy()
        bad[3] = 0.0
        with pytest.raises(ConfigError):
            OrthotropicField(g, bad, k, k)

    @pytest.mark.parametrize("kx, ky, want", [
        (np.ones(7), np.ones(8), "kx has 7 entries, expected 8"),
        (np.ones(8), np.ones(9), "ky has 9 entries, expected 8"),
        (np.ones(8), np.ones(8, dtype=np.float32), "kx, ky, kz must share one scalar dtype"),
    ])
    def test_rejects_bad_components(self, kx, ky, want):
        with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
            OrthotropicField(GridSpec(2, 2, 2), kx, ky, np.ones(8))

    def test_arrays_frozen(self):
        g = GridSpec(2, 2, 2)
        f = OrthotropicField(g, np.ones(8), np.ones(8), np.ones(8))
        with pytest.raises(ValueError):
            f.kx[0] = 2.0

    def test_caller_array_is_taken_without_a_copy(self):
        # the field's view is read-only; the caller's array is not
        k = np.ones(8)
        f = OrthotropicField(GridSpec(2, 2, 2), k, k, k)
        assert np.shares_memory(f.kx, k) and k.flags.writeable


class TestSmoothProblem:
    def test_coefficient_samples(self):
        field, _, _ = gen_smooth_problem(8)
        _, Y, _ = cell_centers(field.grid)
        assert np.allclose(field.cube("kx"), np.cos(np.pi * Y) + 2.0)

    def test_exact_at_origin(self):
        _, exact, _ = gen_smooth_problem(4)
        assert exact(0.0, 0.0, 0.0) == pytest.approx(1.0)

    def test_source_against_finite_differences(self):
        field, exact, source = gen_smooth_problem(4)
        kx = lambda x, y, z: np.cos(np.pi * y) + 2.0
        ky = lambda x, y, z: 2.0 * np.exp(z)
        kz = lambda x, y, z: 3.0 * np.cos(np.pi * x) + 4.0
        d = 1e-5

        def div_flux(x, y, z):
            # nested central differences of each flux component
            def fx(xx):
                return kx(xx, y, z) * (exact(xx + d, y, z) - exact(xx - d, y, z)) / (2 * d)

            def fy(yy):
                return ky(x, yy, z) * (exact(x, yy + d, z) - exact(x, yy - d, z)) / (2 * d)

            def fz(zz):
                return kz(x, y, zz) * (exact(x, y, zz + d) - exact(x, y, zz - d)) / (2 * d)

            return (
                (fx(x + d) - fx(x - d)) / (2 * d)
                + (fy(y + d) - fy(y - d)) / (2 * d)
                + (fz(z + d) - fz(z - d)) / (2 * d)
            )

        rng = np.random.default_rng(0)
        for _ in range(10):
            x, y, z = rng.uniform(0.2, 0.8, 3)
            want = -div_flux(x, y, z)
            assert source(x, y, z) == pytest.approx(want, rel=1e-6)


class TestCenterBall:
    def test_inclusion_cell(self):
        f = gen_center_ball(64, 10.0)
        cube = f.cube("kx")
        assert cube[31, 31, 31] == 10.0
        assert f.cube("ky")[31, 31, 31] == 10.0
        assert f.cube("kz")[31, 31, 31] == 10.0

    def test_corner_is_matrix(self):
        f = gen_center_ball(64, 123.0)
        assert f.cube("kx")[0, 0, 0] == 1.0

    def test_volume_fraction(self):
        f = gen_center_ball(64, 10.0)
        frac = np.mean(f.kx == 10.0)
        assert frac == pytest.approx(4.0 / 3.0 * np.pi * 0.25**3, abs=3e-3)


class TestRandomBalls:
    def test_deterministic(self):
        a = gen_random_balls(16, 5, 0.05, 0.2, 10.0, seed=99)
        b = gen_random_balls(16, 5, 0.05, 0.2, 10.0, seed=99)
        assert np.array_equal(a.kx, b.kx)
        assert np.array_equal(a.ky, b.ky)
        assert np.array_equal(a.kz, b.kz)

    def test_contrast_free(self):
        f = gen_random_balls(8, 3, 0.1, 0.2, 1.0, seed=5)
        assert np.all(f.kx == 1.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            gen_random_balls(6, 4, 0.1, 0.3, 7.5, seed=-1)

    @pytest.mark.parametrize("n, r_min, r_max, kappa_inc, want", [
        (1, 0.1, 0.2, 10.0, "random-balls needs n >= 2"),
        (8, 0.0, 0.2, 10.0, "radii must satisfy 0 < r_min <= r_max < 1/2"),
        (8, 0.3, 0.2, 10.0, "radii must satisfy 0 < r_min <= r_max < 1/2"),
        (8, 0.1, 0.5, 10.0, "radii must satisfy 0 < r_min <= r_max < 1/2"),
        (8, 0.1, 0.2, 0.0, "kappa_inc must be positive"),
        (8, 0.1, 0.2, -1.0, "kappa_inc must be positive"),
    ])
    def test_rejects_bad_arguments(self, n, r_min, r_max, kappa_inc, want):
        with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
            gen_random_balls(n, 4, r_min, r_max, kappa_inc, seed=1)

    def test_count_zero_rejected(self):
        with pytest.raises(ConfigError):
            gen_random_balls(8, 0, 0.1, 0.2, 10.0, seed=1)

    @pytest.mark.parametrize("count, seed, want", [
        (2.5, 1, "count must be an integer, got 2.5"),
        (2, 1.5, "seed must be an integer, got 1.5"),
        (2, np.float64(1.0), "seed must be an integer, got np.float64(1.0)"),
    ])
    def test_non_integral_count_or_seed_rejected(self, count, seed, want):
        with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
            gen_random_balls(8, count, 0.1, 0.2, 10.0, seed)

    def test_numpy_integer_count_and_seed(self):
        got = gen_random_balls(np.int32(8), np.int64(3), 0.1, 0.2, 10.0, np.uint64(5))
        assert np.array_equal(got.kx, gen_random_balls(8, 3, 0.1, 0.2, 10.0, 5).kx)

    def test_matches_center_ball_away_from_shell(self):
        # seed 686 puts the first ball center within 1/32 of the cube center
        n, seed = 32, 686
        rng = np.random.default_rng(np.uint64(seed))
        center = rng.random(3)
        shift = float(np.linalg.norm(center - 0.5))
        assert shift <= 1.0 / n
        rand = gen_random_balls(n, 1, 0.25, 0.25, 10.0, seed=seed)
        exact = gen_center_ball(n, 10.0)
        X, Y, Z = cell_centers(exact.grid)
        dist = np.sqrt((X - 0.5) ** 2 + (Y - 0.5) ** 2 + (Z - 0.5) ** 2)
        # membership can only flip within a shell of width `shift` around r=1/4
        decisive = np.abs(dist - 0.25) > shift
        assert np.array_equal(
            rand.cube("kx")[decisive], exact.cube("kx")[decisive]
        )
        assert np.any(decisive)


class TestChannels:
    def test_channel_values(self):
        f = gen_channels(8, 1, 1.0)
        # x-channel: any i, j and k in the 3/8..5/8 band (cells 3 and 4 of 8)
        assert f.cube("kx")[3, 4, 0] == 2.0
        assert f.cube("ky")[3, 4, 0] == 5.0
        assert f.cube("kz")[3, 4, 0] == 10.0

    def test_matrix_values(self):
        f = gen_channels(8, 1, 3.0)
        assert f.cube("kx")[0, 0, 0] == 0.01
        assert f.cube("ky")[0, 0, 0] == 0.1
        assert f.cube("kz")[0, 0, 0] == 1.0

    def test_anisotropy_exponent(self):
        f = gen_channels(8, 1, 2.0)
        assert f.cube("kz")[3, 4, 0] == 100.0

    def test_periodicity(self):
        f = gen_channels(8, 4, 1.0)
        for comp in ("kx", "ky", "kz"):
            cube = f.cube(comp)
            for axis in range(3):
                assert np.array_equal(np.roll(cube, 8, axis=axis), cube)

    def test_misaligned_rejected(self):
        with pytest.raises(ConfigError):
            gen_channels(12, 2, 1.0)

    def test_zero_periods_rejected(self):
        with pytest.raises(ConfigError, match="^periods must be >= 1$"):
            gen_channels(8, 0, 1.0)

    @pytest.mark.parametrize("psi, want", [
        (float("nan"), "psi must be positive"),
        (float("inf"), "psi must be finite"),
        (400.0, "psi must be below 308.25471555991675, where 10**psi overflows float64, "
                "got 400.0"),
        (308.25471555991675, "psi must be below 308.25471555991675, where 10**psi "
                             "overflows float64, got 308.25471555991675"),
    ])
    def test_psi_refused_before_10_to_the_psi(self, psi, want):
        with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
            gen_channels(8, 1, psi)

    def test_largest_psi_gives_a_finite_field(self):
        psi = np.nextafter(np.log10(np.finfo(np.float64).max), 0.0)
        assert gen_channels(8, 1, float(psi)).cube("kz")[3, 4, 0] == 10.0**psi < np.inf


class TestVoxFormat:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_round_trip_bit_exact(self, tmp_path, dtype):
        f = gen_random_balls(6, 4, 0.1, 0.3, 7.5, seed=3).astype(dtype)
        path = tmp_path / "pack.vox"
        write_vox(f, path)
        back = read_vox(path)
        assert back.dtype == np.dtype(dtype)
        assert back.grid == f.grid
        for comp in ("kx", "ky", "kz"):
            assert np.array_equal(getattr(back, comp), getattr(f, comp))

    def test_header_magic(self, tmp_path):
        f = gen_center_ball(4, 2.0)
        path = tmp_path / "ball.vox"
        write_vox(f, path)
        assert path.read_bytes()[:8] == b"ETCVOX01"

    def test_file_size(self, tmp_path):
        f = gen_center_ball(4, 2.0)
        path = tmp_path / "ball.vox"
        write_vox(f, path)
        # 8 magic + 12 counts + 24 lengths + 1 dtype + 3*64 doubles
        assert path.stat().st_size == 8 + 12 + 24 + 1 + 3 * 64 * 8 == 1581

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.vox"
        f = gen_center_ball(4, 2.0)
        write_vox(f, path)
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTAVOX!"
        path.write_bytes(bytes(raw))
        with pytest.raises(VoxFormatError) as err:
            read_vox(path)
        assert err.value.offset == 0

    def test_unknown_dtype_code(self, tmp_path):
        path = tmp_path / "bad.vox"
        write_vox(gen_center_ball(4, 2.0), path)
        raw = bytearray(path.read_bytes())
        raw[44] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(VoxFormatError) as err:
            read_vox(path)
        assert err.value.offset == 44

    @pytest.mark.parametrize("axis", range(3))
    def test_zero_cell_count(self, tmp_path, axis):
        # the three cell counts follow the 8-byte magic; the defect is the
        # header's dimensions, at their first byte
        path = tmp_path / "bad.vox"
        write_vox(gen_center_ball(4, 2.0), path)
        raw = bytearray(path.read_bytes())
        raw[8 + 4 * axis:12 + 4 * axis] = struct.pack("<I", 0)
        path.write_bytes(bytes(raw))
        name = "nx ny nz".split()[axis]
        with pytest.raises(VoxFormatError, match=re.escape(
                f"bad dimensions: {name} must be a positive integer, got 0 (byte offset 8)")) as err:
            read_vox(path)
        assert err.value.offset == 8

    @pytest.mark.parametrize("axis, value", [(0, float("nan")), (2, -1.0), (1, float("inf"))])
    def test_bad_length(self, tmp_path, axis, value):
        # the three f64 lengths follow the counts; the defect is at their
        # first byte
        path = tmp_path / "bad.vox"
        write_vox(gen_center_ball(4, 2.0), path)
        raw = bytearray(path.read_bytes())
        raw[20 + 8 * axis:28 + 8 * axis] = struct.pack("<d", value)
        path.write_bytes(bytes(raw))
        name = "lx ly lz".split()[axis]
        with pytest.raises(VoxFormatError, match=re.escape(
                f"bad dimensions: {name} must be positive and finite, got {value!r} "
                "(byte offset 20)")) as err:
            read_vox(path)
        assert err.value.offset == 20

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.vox"
        write_vox(gen_center_ball(4, 2.0), path)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(VoxFormatError):
            read_vox(path)

    def test_nonpositive_entry(self, tmp_path):
        path = tmp_path / "bad.vox"
        write_vox(gen_center_ball(4, 2.0), path)
        raw = bytearray(path.read_bytes())
        offset = 45 + 5 * 8  # sixth kx entry
        raw[offset:offset + 8] = np.float64(-1.0).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(VoxFormatError) as err:
            read_vox(path)
        assert err.value.offset == offset

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_first_bad_entry_in_file_order(self, tmp_path, dtype):
        # a bad ky entry is named before an earlier cell's bad kz entry
        path = tmp_path / "bad.vox"
        write_vox(gen_channels(8, 1, 1.0).astype(dtype), path)
        raw = bytearray(path.read_bytes())
        size = np.dtype(dtype).itemsize
        ky, kz = 45 + (512 + 7) * size, 45 + (1024 + 2) * size
        raw[ky:ky + size] = np.array(np.nan, dtype).tobytes()
        raw[kz:kz + size] = np.array(-1.0, dtype).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(VoxFormatError, match=re.escape(
                f"non-positive ky entry at cell 7 (byte offset {ky})")):
            read_vox(path)

    @pytest.mark.parametrize("field, calls", [
        (gen_random_balls(6, 4, 0.1, 0.3, 7.5, seed=3), 1),
        (gen_channels(8, 1, 1.0), 3),
    ])
    def test_values_checked_once_per_distinct_array(self, tmp_path, monkeypatch, field, calls):
        # read_vox leaves the value check to OrthotropicField, which makes
        # it once per distinct array
        import etchomo.grid

        seen = []
        check = etchomo.grid._positive_finite
        monkeypatch.setattr(etchomo.grid, "_positive_finite",
                            lambda a: seen.append(a) or check(a))
        path = tmp_path / "field.vox"
        write_vox(field, path)
        seen.clear()
        back = read_vox(path)
        assert len(seen) == calls
        assert len({id(a) for a in (back.kx, back.ky, back.kz)}) == calls

    def test_read_peak_memory_near_payload(self, tmp_path):
        rng = np.random.default_rng(8)
        grid = GridSpec(40, 30, 20)
        k = rng.uniform(0.5, 2.0, (3, grid.n_cells)).astype(np.float32)
        path = tmp_path / "aniso.vox"
        write_vox(OrthotropicField(grid, *k), path)
        payload = k.nbytes
        tracemalloc.start()
        try:
            back = read_vox(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.kx is not back.ky and back.ky is not back.kz
        assert peak <= 1.25 * payload


def _full_grid_smooth(n):
    X, Y, Z = cell_centers(GridSpec(n, n, n))
    return np.cos(np.pi * Y) + 2.0, 2.0 * np.exp(Z), 3.0 * np.cos(np.pi * X) + 4.0


def _full_grid_center_ball(n, kappa_inc):
    X, Y, Z = cell_centers(GridSpec(n, n, n))
    inside = (X - 0.5) ** 2 + (Y - 0.5) ** 2 + (Z - 0.5) ** 2 <= 0.25**2
    return np.where(inside, float(kappa_inc), 1.0)


def _full_grid_random_balls(n, count, r_min, r_max, kappa_inc, seed):
    rng = np.random.default_rng(np.uint64(seed))
    X, Y, Z = cell_centers(GridSpec(n, n, n))
    inside = np.zeros(X.shape, dtype=bool)
    for _ in range(count):
        cx, cy, cz = rng.random(3)
        r = r_min + (r_max - r_min) * rng.random()
        inside |= (X - cx) ** 2 + (Y - cy) ** 2 + (Z - cz) ** 2 <= r * r
    return np.where(inside, float(kappa_inc), 1.0)


class TestGeneratorBits:
    """Each generator gives the bits of its formula on full coordinate grids."""

    @staticmethod
    def _same_bits(field, want):
        for got, ref in zip((field.kx, field.ky, field.kz), want):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [2, 5, 16, 24])
    def test_smooth(self, n):
        self._same_bits(gen_smooth_problem(n)[0], _full_grid_smooth(n))

    @pytest.mark.parametrize("n", [2, 5, 16, 24])
    def test_center_ball(self, n):
        k = _full_grid_center_ball(n, 7.5)
        self._same_bits(gen_center_ball(n, 7.5), (k, k, k))

    @pytest.mark.parametrize("n", [2, 5, 16, 24])
    @pytest.mark.parametrize("seed", [11, 686])
    def test_random_balls(self, n, seed):
        args = (n, 40, 0.05, 0.15, 10.0, seed)
        k = _full_grid_random_balls(*args)
        self._same_bits(gen_random_balls(*args), (k, k, k))


class TestGeneratorMemory:
    """Peak traced memory of a generator at 64^3, in f64 grid arrays. The
    fields themselves take 1 (an isotropic pack) or 3 (the smooth problem)."""

    @staticmethod
    def _peak_arrays(make, n=64):
        make(2)  # lazy imports (numpy.random) are not the generator's
        tracemalloc.start()
        try:
            make(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (8 * n**3)

    def test_random_balls(self):
        assert self._peak_arrays(lambda n: gen_random_balls(n, 40, 0.05, 0.15, 10.0, 11)) <= 1.5

    def test_center_ball(self):
        assert self._peak_arrays(lambda n: gen_center_ball(n, 10.0)) <= 1.25

    def test_smooth(self):
        assert self._peak_arrays(gen_smooth_problem) <= 3.25


class TestSharedComponents:
    """An isotropic field keeps one coefficient array through the pipeline;
    an anisotropic one keeps three."""

    def _stages(self, field, tmp_path):
        from etchomo import Axis, axis_permute

        path = tmp_path / "field.vox"
        write_vox(field, path)
        back = read_vox(path)
        yield back
        yield back.astype(np.float32)
        yield axis_permute(back, Axis.X)
        yield axis_permute(back.astype(np.float32), Axis.Y)

    def test_isotropic_shares_one_array(self, tmp_path):
        for f in self._stages(gen_random_balls(6, 4, 0.1, 0.3, 7.5, seed=3), tmp_path):
            assert f.kx is f.ky is f.kz

    def test_anisotropic_keeps_distinct_arrays(self, tmp_path):
        for f in self._stages(gen_channels(8, 1, 1.0), tmp_path):
            assert f.kx is not f.ky and f.ky is not f.kz and f.kx is not f.kz
