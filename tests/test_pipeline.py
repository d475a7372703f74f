import dataclasses
import inspect
import json
import time
import tracemalloc

import numpy as np
import pytest

from etchomo import (
    Axis,
    BoundaryConfig,
    ConfigError,
    ExperimentPlan,
    GridSpec,
    OrthotropicField,
    axis_permute,
    build_system,
    channels_study,
    compare_preconditioners,
    gen_center_ball,
    gen_channels,
    gen_random_balls,
    gen_smooth_problem,
    homogenize,
    precision_study,
    run_convergence_study,
    solve_smooth,
)
from etchomo import pipeline
from etchomo.cli import main
from etchomo.pipeline import report_to_dict, write_history, write_report
from etchomo.preconditioner import SsorPreconditioner

from conftest import constant_field, random_field


class TestAxisPermute:
    def test_z_is_identity(self):
        f = constant_field(3, 4, 5)
        assert axis_permute(f, Axis.Z) is f

    def test_x_golden_convention(self):
        f = constant_field(3, 4, 5, kx=2.0, ky=3.0, kz=4.0)
        p = axis_permute(f, Axis.X)
        assert (p.grid.nx, p.grid.ny, p.grid.nz) == (5, 4, 3)
        # Diag(a, b, c) -> Diag(c, b, a)
        assert np.all(p.kx == 4.0) and np.all(p.ky == 3.0) and np.all(p.kz == 2.0)

    def test_y_golden_convention(self):
        f = constant_field(3, 4, 5, kx=2.0, ky=3.0, kz=4.0)
        p = axis_permute(f, Axis.Y)
        assert (p.grid.nx, p.grid.ny, p.grid.nz) == (3, 5, 4)
        assert np.all(p.kx == 2.0) and np.all(p.ky == 4.0) and np.all(p.kz == 3.0)

    @pytest.mark.parametrize("axis", [Axis.X, Axis.Y])
    def test_involution(self, axis):
        rng = np.random.default_rng(0)
        f = random_field(rng, 3, 4, 5)
        back = axis_permute(axis_permute(f, axis), axis)
        assert back.grid == f.grid
        for comp in ("kx", "ky", "kz"):
            assert np.array_equal(getattr(back, comp), getattr(f, comp))

    def test_effective_conductivity_per_axis(self):
        f = constant_field(4, 5, 6, kx=2.0, ky=3.0, kz=4.0)
        for axis, want in ((Axis.X, 2.0), (Axis.Y, 3.0), (Axis.Z, 4.0)):
            rep = homogenize(f, BoundaryConfig(axis, 1.0, 0.0), 1e-10)
            assert rep.kappa_eff == pytest.approx(want, abs=1e-12)


class TestHomogenize:
    def test_homogeneous_one_iteration(self, boundary_z):
        rep = homogenize(constant_field(6, 5, 7, kx=3.7, ky=3.7, kz=3.7), boundary_z, 1e-9)
        assert rep.kappa_eff == pytest.approx(3.7, abs=1e-12)
        assert rep.iterations == 1

    def test_series_layers(self, boundary_z):
        layers = np.array([1.0, 2.0, 0.5, 4.0])
        g = GridSpec(3, 3, 4)
        ones = np.ones(g.n_cells)
        f = OrthotropicField(g, ones, ones, np.repeat(layers, 9))
        rep = homogenize(f, boundary_z, 1e-13)
        assert rep.kappa_eff == pytest.approx(4.0 / np.sum(1.0 / layers), rel=1e-10)

    def test_two_sided_cell_bounds(self, boundary_z):
        rng = np.random.default_rng(1)
        f = random_field(rng, 8, 8, 8, contrast=10.0)
        rep = homogenize(f, boundary_z, 1e-10)
        assert f.kz.min() <= rep.kappa_eff <= f.kz.max()

    def test_report_metadata(self, boundary_z):
        rep = homogenize(gen_center_ball(8, 10.0), boundary_z, 1e-7,
                         precond="ssor:1.5", precision="f64")
        assert rep.preconditioner == "ssor:1.5"
        assert rep.precision == "f64"
        assert rep.converged
        assert rep.ref_params is not None

    def test_rejects_unknown_settings(self, boundary_z):
        f = constant_field(2, 2, 2)
        with pytest.raises(ConfigError):
            homogenize(f, boundary_z, precond="ilu")
        with pytest.raises(ConfigError):
            homogenize(f, boundary_z, precision="f16")
        with pytest.raises(ConfigError):
            homogenize(f, boundary_z, ref_mode="auto")

    @pytest.mark.parametrize(
        "tag", ["ssor1.5", "ssorfoo", "ssor:", "ssor:fast", "ssor:1.5:2", "fct:1"]
    )
    def test_rejects_malformed_precond_tags(self, boundary_z, tag):
        with pytest.raises(ConfigError, match="^unknown preconditioner tag"):
            homogenize(constant_field(2, 2, 2), boundary_z, precond=tag)
        with pytest.raises(ConfigError, match="^unknown preconditioner tag"):
            ExperimentPlan("center-ball", preconds=("fct", tag))

    @pytest.mark.parametrize("tag, bad", [
        ("ssor:3", 3.0), ("ssor:0", 0.0), ("ssor:-1", -1.0), ("ssor:2", 2.0),
        ("ssor:nan", float("nan")), ("ssor:2.5", 2.5), ("ssor:0.0", 0.0),
    ])
    def test_rejects_omega_outside_open_interval_before_solving(
        self, boundary_z, monkeypatch, tag, bad
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(pipeline, "pcg", no_solve)
        message = f"^omega must lie in \\(0, 2\\), got {bad}$"
        with pytest.raises(ConfigError, match=message):
            ExperimentPlan("center-ball", preconds=("fct", tag))
        with pytest.raises(ConfigError, match=message):
            homogenize(constant_field(2, 2, 2), boundary_z, precond=tag)
        sys = build_system(constant_field(2, 2, 2), boundary_z)
        with pytest.raises(ConfigError, match=message):
            SsorPreconditioner(sys, bad)

    def test_only_ssor_tags_carry_omega(self, boundary_z):
        # the tag is the one spelling of omega: no driver or plan takes it apart
        assert "omega" not in inspect.signature(homogenize).parameters
        assert "omega" not in {f.name for f in dataclasses.fields(ExperimentPlan)}
        plan = ExperimentPlan("center-ball", preconds=("fct", "jacobi", "none", "ssor:1.9"))
        assert plan.preconds == ("fct", "jacobi", "none", "ssor:1.9")
        with pytest.raises(ConfigError, match="^unknown preconditioner tag 'jacobi:1.5'"):
            homogenize(constant_field(2, 2, 2), boundary_z, precond="jacobi:1.5")

    @pytest.mark.parametrize("tag, want", [
        ("ssor", "ssor:1"), ("ssor:1.0", "ssor:1"), ("ssor:1.5", "ssor:1.5"),
        ("ssor:0.8", "ssor:0.8"),
    ])
    def test_ssor_tags(self, boundary_z, tag, want):
        rep = homogenize(gen_center_ball(6, 10.0), boundary_z, 1e-7, precond=tag)
        assert rep.preconditioner == want and rep.converged

    @pytest.mark.parametrize("rtol", [1.0, 1.5, 0.0, -1e-9, float("nan")])
    def test_rejects_rtol_outside_unit_interval(self, boundary_z, rtol):
        with pytest.raises(ConfigError, match="rtol must lie in"):
            homogenize(constant_field(2, 2, 2), boundary_z, rtol)

    @pytest.mark.parametrize("rtol", [5.0, 0.0])
    def test_rejects_rtol_before_any_setup(self, boundary_z, monkeypatch, rtol):
        def unreachable(*args, **kwargs):
            raise AssertionError("set-up ran before rtol was checked")

        monkeypatch.setattr(pipeline, "build_system", unreachable)
        monkeypatch.setattr(pipeline, "axis_permute", unreachable)
        with pytest.raises(ConfigError, match="rtol must lie in"):
            homogenize(constant_field(2, 2, 2), boundary_z, rtol)

    @pytest.mark.parametrize("max_iter", [0, -3, 2.5, float("inf")])
    def test_rejects_max_iter_before_any_setup(self, boundary_z, monkeypatch, max_iter):
        # pcg stops on iteration == max_iter: any bound but an integer >= 1
        # would never apply, or would fail only after the whole set-up
        def unreachable(*args, **kwargs):
            raise AssertionError("set-up ran before max_iter was checked")

        monkeypatch.setattr(pipeline, "_prepare", unreachable)
        match = f"^max_iter must be an integer >= 1, got {max_iter!r}$"
        with pytest.raises(ConfigError, match=match):
            ExperimentPlan("center-ball", {"n": 8}, max_iter=max_iter)
        with pytest.raises(ConfigError, match=match):
            homogenize(gen_center_ball(8, 10.0), boundary_z, 1e-30, max_iter=max_iter)
        with pytest.raises(ConfigError, match=match):
            solve_smooth(8, max_iter=max_iter)

    def test_takes_a_numpy_integer_max_iter(self, boundary_z):
        plan = ExperimentPlan("center-ball", {"n": 8}, rtols=(1e-30,), max_iter=np.int64(3))
        (row,) = run_convergence_study(plan)
        assert row["iterations"] == 3
        rep = homogenize(gen_center_ball(8, 10.0), boundary_z, 1e-30, max_iter=np.int64(3))
        assert (rep.iterations, rep.converged) == (3, False)

    def test_solve_smooth_rejects_unknown_settings(self):
        with pytest.raises(ConfigError):
            solve_smooth(8, precision="f16")
        with pytest.raises(ConfigError):
            solve_smooth(8, ref_mode="auto")
        with pytest.raises(ConfigError):
            solve_smooth(8, rtol=1.0)

    def test_permuted_field_is_freed_before_the_solve(self):
        # Solving f along x is the z-solve of its permuted copy, bit for bit,
        # so their peaks differ only by what the x-solve keeps of that copy.
        rng = np.random.default_rng(30)
        f = random_field(rng, 32, 32, 32)
        permuted = axis_permute(f, Axis.X)
        cases = {"x": (f, Axis.X), "z": (permuted, Axis.Z)}
        homogenize(permuted, BoundaryConfig(Axis.Z, 1.0, 0.0), 1e-6)  # warm-up
        peaks, reports = {}, {}
        for name, (field, axis) in cases.items():
            tracemalloc.start()
            try:
                reports[name] = homogenize(field, BoundaryConfig(axis, 1.0, 0.0), 1e-6)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert reports["x"].kappa_eff == reports["z"].kappa_eff
        assert abs(peaks["x"] - peaks["z"]) <= 0.1 * f.kx.nbytes

    @pytest.mark.parametrize("precision, itemsize, bound", [("f64", 8, 8.1), ("f32", 4, 8.4)])
    def test_solve_peak(self, precision, itemsize, bound, boundary_z):
        # one warm solve of the seed-11 48^3 pack, counted in grid arrays of
        # the solve vectors' dtype above the caller's field: assembly, the
        # preconditioner and pcg's vectors (7.83 in f64, 8.13 in f32). The
        # tridiagonal stage keeps O(log nz) planes and one chunk of scratch;
        # a factor array of nz - 1 planes read 8.39 and 8.70
        field = gen_random_balls(48, 40, 0.05, 0.15, 10.0, 11)
        homogenize(field, boundary_z, precision=precision)  # warm-up
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            homogenize(field, boundary_z, precision=precision)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - before) / (48**3 * itemsize) <= bound

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    @pytest.mark.parametrize("dims", [(24, 24, 1536), (96, 96, 96)], ids=["products", "pocketfft"])
    def test_fct_iteration_allocates_no_grid_array(self, precision, dims, boundary_z, monkeypatch):
        # from the second iteration on, the operator writes into the FCT
        # workspace and each transform into it, so an iteration allocates
        # only slab-sized buffers: the stencil's fluxes, the products' scratch
        rng = np.random.default_rng(31)
        field = random_field(rng, *dims)
        grid_bytes = field.grid.n_cells * np.dtype(pipeline._DTYPES[precision]).itemsize
        calls, marks = [], {}

        def apply(sys, u, out=None):
            calls.append(1)
            if len(calls) == 2:
                tracemalloc.reset_peak()
                marks["start"] = tracemalloc.get_traced_memory()[0]
            return real_apply(sys, u, out=out)

        def traced_pcg(*args, **kwargs):
            result = real_pcg(*args, **kwargs)
            marks["peak"] = tracemalloc.get_traced_memory()[1]
            return result

        real_apply, real_pcg = pipeline.apply_operator, pipeline.pcg
        monkeypatch.setattr(pipeline, "apply_operator", apply)
        monkeypatch.setattr(pipeline, "pcg", traced_pcg)
        tracemalloc.start()
        try:
            rep = homogenize(field, boundary_z, 1e-12, precision=precision, max_iter=4)
        finally:
            tracemalloc.stop()
        assert rep.iterations == 4 and len(calls) == 4
        assert (marks["peak"] - marks["start"]) / grid_bytes < 0.1

    def test_solve_smooth_builds_no_coordinate_grids(self):
        # the source and the exact solution are sampled on broadcast
        # coordinate vectors, not on three full cell-centre grids
        solve_smooth(8)  # warm-up
        tracemalloc.start()
        try:
            solve_smooth(32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (32**3 * 8) <= 9.6


class TestBench:
    def test_times_warm_applies_only(self, monkeypatch):
        # stand-ins whose first call carries one-off work, like the first FCT
        # apply that factors the blocks and imports scipy.fft
        calls = {"precond": 0, "operator": 0}

        def first_call_slow(name):
            def kernel(*args):
                calls[name] += 1
                if calls[name] == 1:
                    time.sleep(0.3)
            return kernel

        real_prepare = pipeline._prepare

        def prepare(*args, **kwargs):
            sys, _, stub = real_prepare(*args, **kwargs)
            return sys, first_call_slow("precond"), stub

        monkeypatch.setattr(pipeline, "_prepare", prepare)
        monkeypatch.setattr(pipeline, "apply_operator", first_call_slow("operator"))
        doc = pipeline.bench(4)
        runs = pipeline._BENCH_ROUNDS + 1
        assert calls == {"precond": runs, "operator": runs}
        assert doc["precond_apply_seconds"] < 0.1
        assert doc["operator_apply_seconds"] < 0.1


class TestExperimentPlan:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentPlan("center-ball", rtols=())
        with pytest.raises(ConfigError):
            ExperimentPlan("center-ball", rtols=(2.0,))
        with pytest.raises(ConfigError, match="p_in must differ from p_out"):
            ExperimentPlan("center-ball", boundary=BoundaryConfig(Axis.Z, 1.0, 1.0))
        with pytest.raises(ConfigError, match="must be finite"):
            ExperimentPlan("center-ball", boundary=BoundaryConfig(Axis.Z, float("nan"), 0.0))
        with pytest.raises(ConfigError):
            ExperimentPlan("center-ball", precision="f16")

    def test_rejects_empty_preconds(self):
        with pytest.raises(ConfigError, match="^plan needs at least one preconditioner$"):
            ExperimentPlan("center-ball", {"n": 4}, preconds=())

    @pytest.mark.parametrize("preconds", [
        ("fct", "fct"), ("ssor", "ssor:1"), ("ssor:1.5", "jacobi", "ssor:1.50"),
    ])
    def test_rejects_repeated_preconditioners(self, preconds):
        # compared by (kind, omega): each would be solved twice, reported once
        with pytest.raises(ConfigError, match="repeated preconditioner"):
            ExperimentPlan("center-ball", preconds=preconds)
        ExperimentPlan("center-ball", preconds=preconds[1:])

    @pytest.mark.parametrize("flags", [
        ["--precond", "fct", "--precond", "fct"],
        ["--precond", "ssor", "--precond", "ssor:1.5", "--omega", "1.5"],
    ])
    def test_cli_compare_repeated_preconditioner_exit_2(self, tmp_path, capsys, flags):
        out = tmp_path / "cmp"
        code = main(["compare", "--config", "center-ball", "--n", "6", *flags, "-o", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "repeated preconditioner" in err
        assert not out.exists()


class TestPlanBoundary:
    """The plan's boundary is one BoundaryConfig: checked when the plan is
    built, and refused by a study that cannot honour it."""

    @pytest.mark.parametrize("name", ["x", "z", "q"])
    def test_axis_given_by_name(self, name):
        # a known name becomes its Axis: the report writes its value and
        # assembly's identity check on z passes; an unknown one is refused
        if name == "q":
            with pytest.raises(ConfigError, match="axis must be one of x, y, z, got 'q'"):
                BoundaryConfig(name, 1.0, 0.0)
            return
        boundary = BoundaryConfig(name, 1.0, 0.0)
        assert boundary.axis is Axis(name)
        field = constant_field(3, 3, 3)
        if name == "z":
            build_system(field, boundary)
        rep = homogenize(field, boundary, 1e-6)
        assert report_to_dict(rep, {}, field.grid, boundary, 1e-6)["boundary"]["axis"] == name

    @pytest.mark.parametrize("boundary", [
        BoundaryConfig(Axis.X, 1.0, 0.0), BoundaryConfig(Axis.Z, 7.0, 0.0),
        BoundaryConfig(Axis.Z, 0.0, 1.0),
    ])
    def test_smooth_convergence_refuses_other_boundaries(self, monkeypatch, tmp_path, boundary):
        def unreachable(*args, **kwargs):
            raise AssertionError("a smooth solve started")

        monkeypatch.setattr(pipeline, "solve_smooth", unreachable)
        plan = ExperimentPlan("smooth", {"n_values": [8]}, boundary=boundary, out_dir=tmp_path)
        with pytest.raises(ConfigError, match="takes only the default boundary"):
            run_convergence_study(plan)
        assert list(tmp_path.iterdir()) == []

    def test_convergence_refuses_other_generators(self, monkeypatch, tmp_path):
        def unreachable(*args, **kwargs):
            raise AssertionError("a field was built")

        monkeypatch.setattr(pipeline, "make_field", unreachable)
        plan = ExperimentPlan("channels", {"n_values": [8]}, out_dir=tmp_path)
        with pytest.raises(ConfigError, match="^convergence study supports smooth or center-ball$"):
            run_convergence_study(plan)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [["--axis", "x"], ["--axis", "z", "--p-in", "7"]])
    def test_cli_smooth_convergence_off_default_boundary_exit_2(self, tmp_path, capsys, flags):
        out = tmp_path / "conv"
        code = main(["convergence", "--config", "smooth", "--n", "8", *flags, "-o", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "takes only the default boundary" in err
        assert not out.exists()

    def test_cli_compare_nan_potential_exit_2_before_any_field(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("make_field ran before the boundary was checked")

        monkeypatch.setattr(pipeline, "make_field", unreachable)
        out = tmp_path / "cmp"
        code = main(["compare", "--config", "center-ball", "--n", "6", "--p-in", "nan",
                     "-o", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "etc: configuration error: p_in and p_out must be finite\n"
        assert not out.exists()


def _no_solve(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a solve started")

    monkeypatch.setattr(pipeline, "homogenize", unreachable)
    monkeypatch.setattr(pipeline, "solve_smooth", unreachable)


_CONV = {"n_values": [8], "kappa_inc": 10.0}
_CHAN = {"psi_values": [1.0], "cells_per_period": 8, "periods": 1}


def _generator_arguments():
    """(generator, argument, bad value) for every argument of every
    generator: NaN and both infinities for a float, 2.5 for an integer."""
    for name, (_, _, defaults) in pipeline._GENERATORS.items():
        preset = pipeline.RANDOM_BALL_PRESETS["a"] if name == "random-balls" else {}
        for key, value in {**defaults, **preset}.items():
            assert type(value) in (int, float), (name, key)
            bads = [float("nan"), float("inf"), -float("inf")] if type(value) is float else [2.5]
            for bad in bads:
                yield name, key, bad


class TestGeneratorArguments:
    """Every generator argument is refused by its check, before the build."""

    @staticmethod
    def _unreachable_builders(monkeypatch):
        def unreachable(**kwargs):
            raise AssertionError("a field build started")

        for name, (_, check, defaults) in list(pipeline._GENERATORS.items()):
            monkeypatch.setitem(pipeline._GENERATORS, name, (unreachable, check, defaults))

    @pytest.mark.parametrize("generator, key, bad", list(_generator_arguments()))
    def test_bad_value_refused_by_the_check(self, monkeypatch, generator, key, bad):
        self._unreachable_builders(monkeypatch)
        params = {"preset": "a"} if generator == "random-balls" else {}
        want = "radii" if key in ("r_min", "r_max") else key
        with pytest.raises(ConfigError, match=f"^{want} must"):
            pipeline.make_field(generator, {**params, key: bad})

    def test_every_generator_is_covered(self, monkeypatch):
        # the default arguments pass every check and reach the build
        assert {g for g, _, _ in _generator_arguments()} == set(pipeline._GENERATORS)
        self._unreachable_builders(monkeypatch)
        for generator in pipeline._GENERATORS:
            params = {"preset": "a"} if generator == "random-balls" else {}
            with pytest.raises(AssertionError, match="a field build started"):
                pipeline.make_field(generator, params)


class TestRefusedSettings:
    """A study reads every plan field and params key it accepts, or refuses it
    with a ConfigError that names it, before any solve or file write."""

    @pytest.mark.parametrize("study, generator, params, fields, name", [
        (run_convergence_study, "center-ball", _CONV, {"preconds": ("jacobi",)}, "preconds"),
        (run_convergence_study, "center-ball", _CONV, {"rtols": (1e-6, 1e-9)}, "rtols"),
        (run_convergence_study, "smooth", {"n_values": [8]}, {"preconds": ("ssor",)}, "preconds"),
        (run_convergence_study, "smooth", {"n_values": [8]}, {"rtols": (1e-6, 1e-9)}, "rtols"),
        (compare_preconditioners, "center-ball", {"n": 6}, {"rtols": (1e-6, 1e-9)}, "rtols"),
        (precision_study, "center-ball", {"n": 6}, {"precision": "f32"}, "precision"),
        (precision_study, "center-ball", {"n": 6}, {"preconds": ("jacobi",)}, "preconds"),
        (channels_study, "channels", _CHAN, {"ref_mode": "one"}, "ref_mode"),
        (channels_study, "channels", _CHAN, {"preconds": ("fct", "jacobi")}, "preconds"),
        (channels_study, "channels", _CHAN, {"rtols": (1e-5, 1e-6)}, "rtols"),
    ])
    def test_plan_fields(self, monkeypatch, tmp_path, study, generator, params, fields, name):
        _no_solve(monkeypatch)
        plan = ExperimentPlan(generator, params, out_dir=tmp_path, **fields)
        with pytest.raises(ConfigError, match=f"study .*{name}"):
            study(plan)
        assert list(tmp_path.iterdir()) == []

    def test_convergence_probe_from_the_loose_ends(self, monkeypatch):
        # this plan once solved with FCT at 1e-6: 9 iterations, jacobi takes 29
        _no_solve(monkeypatch)
        plan = ExperimentPlan("center-ball", {"n_values": [8]}, rtols=(1e-6, 1e-9),
                              preconds=("jacobi",))
        with pytest.raises(ConfigError, match="rtols"):
            run_convergence_study(plan)

    @pytest.mark.parametrize("study, generator, params, name", [
        (compare_preconditioners, "center-ball", {"n": 6, "kapa_inc": 1000.0}, "kapa_inc"),
        (compare_preconditioners, "center-ball", {"n_values": [6]}, "n_values"),
        (compare_preconditioners, "smooth", {"n": 6, "kappa_inc": 5.0}, "kappa_inc"),
        (compare_preconditioners, "random-balls", {"preset": "a", "psi": 2.0}, "psi"),
        (compare_preconditioners, "channels", {"n": 8}, "n"),
        (precision_study, "center-ball", {"n": 6, "seed": 3}, "seed"),
        (precision_study, "channels", {"psi_values": [1.0, 2.0]}, "psi_values"),
        (run_convergence_study, "center-ball", {"n_values": [6], "count": 5}, "count"),
        (run_convergence_study, "smooth", {"n_values": [6], "kappa_inc": 5.0}, "kappa_inc"),
        (run_convergence_study, "center-ball", {"psi_values": [1.0]}, "psi_values"),
        (channels_study, "channels", {"n_values": [8]}, "n_values"),
        (channels_study, "channels", {"psi_values": [1.0], "kappa_inc": 5.0}, "kappa_inc"),
    ])
    def test_params_keys(self, monkeypatch, tmp_path, study, generator, params, name):
        _no_solve(monkeypatch)
        plan = ExperimentPlan(generator, params, out_dir=tmp_path)
        with pytest.raises(ConfigError, match=f"the {generator} generator takes no {name}$"):
            study(plan)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("study, generator, params, pair", [
        (run_convergence_study, "center-ball", {"n": 8, "n_values": [8, 16]}, "n or n_values"),
        (run_convergence_study, "smooth", {"n": 8, "n_values": [8]}, "n or n_values"),
        (channels_study, "channels", {"psi": 1.0, "psi_values": [2.0]}, "psi or psi_values"),
    ])
    def test_single_value_beside_its_sweep(self, monkeypatch, tmp_path, study, generator,
                                           params, pair):
        _no_solve(monkeypatch)
        with pytest.raises(ConfigError, match=f"give {pair}, not both"):
            study(ExperimentPlan(generator, params, out_dir=tmp_path))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("study, generator, params", [
        (run_convergence_study, "center-ball", {"n_values": []}),
        (channels_study, "channels", {"psi_values": []}),
    ])
    def test_empty_sweep(self, monkeypatch, study, generator, params):
        _no_solve(monkeypatch)
        with pytest.raises(ConfigError, match="_values is empty"):
            study(ExperimentPlan(generator, params))

    @pytest.mark.parametrize("study, generator, params, match", [
        (run_convergence_study, "center-ball", {"n_values": [8, 1]}, "center-ball needs n >= 2"),
        (run_convergence_study, "smooth", {"n_values": [8, 16, 1]}, "smooth problem needs n >= 2"),
        (run_convergence_study, "center-ball", {"n_values": [8], "kappa_inc": -1.0},
         "kappa_inc must be positive"),
        (channels_study, "channels", {**_CHAN, "psi_values": [1.0, -1.0]}, "psi must be positive"),
        (channels_study, "channels", {**_CHAN, "cells_per_period": 12}, "multiple of 8"),
    ])
    def test_every_sweep_value_before_the_first_solve(self, monkeypatch, tmp_path, study,
                                                      generator, params, match):
        _no_solve(monkeypatch)
        plan = ExperimentPlan(generator, params, out_dir=tmp_path)
        with pytest.raises(ConfigError, match=match):
            study(plan)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("psi_values", [[1.0, 1.0000001], [2.5, 2.5], [1.0, 2.0, 1.0]])
    def test_channels_psi_values_sharing_a_history_name(self, monkeypatch, tmp_path, psi_values):
        _no_solve(monkeypatch)
        plan = ExperimentPlan("channels", {**_CHAN, "psi_values": psi_values}, out_dir=tmp_path)
        with pytest.raises(ConfigError, match="share a history file name"):
            channels_study(plan)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("generator, params, match", [
        ("spheres", {}, "unknown generator 'spheres'"),
        ("random-balls", {"preset": "z"}, "unknown random-balls preset 'z'"),
        ("random-balls", {"count": 3}, "needs r_min, r_max$"),
        ("center-ball", {"preset": "a"}, "takes no preset$"),
    ])
    def test_make_field_refusals(self, generator, params, match):
        with pytest.raises(ConfigError, match=match):
            pipeline.make_field(generator, params)

    @pytest.mark.parametrize("generator, params, direct", [
        ("smooth", {}, lambda: gen_smooth_problem(32)[0]),
        ("center-ball", {"n": 6, "kappa_inc": 3.0}, lambda: gen_center_ball(6, 3.0)),
        ("random-balls", {"preset": "b", "n": 8, "seed": 5},
         lambda: gen_random_balls(8, 80, 0.04, 0.10, 10.0, 5)),
        ("random-balls", {"n": 8, "count": 3, "r_min": 0.1, "r_max": 0.2},
         lambda: gen_random_balls(8, 3, 0.1, 0.2, 10.0, 0)),
        ("channels", {"psi": 2.0, "periods": 1}, lambda: gen_channels(8, 1, 2.0)),
    ])
    def test_make_field_defaults_and_presets(self, generator, params, direct):
        got, want = pipeline.make_field(generator, params), direct()
        assert got.grid == want.grid
        for comp in ("kx", "ky", "kz"):
            assert np.array_equal(getattr(got, comp), getattr(want, comp))

    def test_plan_takes_lists_for_tuples(self, tmp_path):
        plan = ExperimentPlan("channels", _CHAN, rtols=[1e-5], preconds=["fct"])
        assert (plan.rtols, plan.preconds) == ((1e-5,), ("fct",))
        assert len(channels_study(plan)) == 2


class TestStudies:
    def test_convergence_smooth_rows(self, tmp_path):
        plan = ExperimentPlan(
            "smooth", {"n_values": [8, 16]}, rtols=(1e-9,), out_dir=tmp_path
        )
        rows = run_convergence_study(plan)
        assert [r["n"] for r in rows] == [8, 16]
        assert rows[0]["l2_error"] > rows[1]["l2_error"]
        header = (tmp_path / "convergence.csv").read_text().splitlines()[0]
        assert header == "n,dof,l2_error,kappa_eff,iterations,prep_seconds,exec_seconds"

    def test_smooth_iterations_stable_in_n(self):
        reports = [solve_smooth(n, 1e-9) for n in (16, 32)]
        iters = [r.iterations for r in reports]
        assert max(iters) - min(iters) <= 2
        assert 3.8 <= reports[0].l2_error / reports[1].l2_error <= 4.3

    def test_convergence_center_ball_rows(self, tmp_path):
        plan = ExperimentPlan(
            "center-ball",
            {"n_values": [8, 16], "kappa_inc": 10.0},
            rtols=(1e-9,),
            out_dir=tmp_path,
        )
        rows = run_convergence_study(plan)
        assert all(r["kappa_eff"] is not None for r in rows)
        assert all(r["l2_error"] is None for r in rows)

    def test_compare_histories_and_determinism(self, tmp_path):
        plan = ExperimentPlan(
            "center-ball",
            {"n": 8, "kappa_inc": 50.0},
            rtols=(1e-6,),
            preconds=("fct", "jacobi", "none"),
            out_dir=tmp_path / "one",
        )
        first = compare_preconditioners(plan)
        assert first["fct"].iterations < first["jacobi"].iterations
        plan_again = ExperimentPlan(
            "center-ball",
            {"n": 8, "kappa_inc": 50.0},
            rtols=(1e-6,),
            preconds=("fct", "jacobi", "none"),
            out_dir=tmp_path / "two",
        )
        compare_preconditioners(plan_again)
        for name in ("history_fct.csv", "history_jacobi.csv", "history_none.csv"):
            a = (tmp_path / "one" / name).read_text()
            b = (tmp_path / "two" / name).read_text()
            assert a == b
            assert a.splitlines()[0] == "iter,relres"
            assert a.splitlines()[1].startswith("0,")

    def test_precision_rows(self, tmp_path):
        plan = ExperimentPlan(
            "center-ball",
            {"n": 8, "kappa_inc": 10.0},
            rtols=(1e-5, 1e-7),
            out_dir=tmp_path,
        )
        rows = precision_study(plan)
        assert rows[0]["precision"] == "f64" and rows[0]["rel_diff"] == 0.0
        f32_rows = [r for r in rows if r["precision"] == "f32"]
        assert len(f32_rows) == 2
        assert all(abs(r["rel_diff"]) < 1e-2 for r in f32_rows)
        assert (tmp_path / "precision.csv").exists()

    def test_channels_rows(self, tmp_path):
        plan = ExperimentPlan(
            "channels",
            {"psi_values": [1.0], "cells_per_period": 8, "periods": 1},
            rtols=(1e-6,),
            out_dir=tmp_path,
        )
        rows = channels_study(plan)
        assert {r["ref_mode"] for r in rows} == {"opt", "one"}
        assert (tmp_path / "history_psi1_opt.csv").exists()
        assert (tmp_path / "channels.csv").exists()

    def test_channels_csv_header_and_history_names(self, tmp_path):
        plan = ExperimentPlan(
            "channels",
            {"psi_values": [1.0, 2.5], "cells_per_period": 8, "periods": 1},
            rtols=(1e-5,),
            out_dir=tmp_path,
        )
        rows = channels_study(plan)
        assert [(r["psi"], r["ref_mode"]) for r in rows] == [
            (1.0, "opt"), (1.0, "one"), (2.5, "opt"), (2.5, "one")
        ]
        assert {p.name for p in tmp_path.iterdir()} == {
            "channels.csv", "history_psi1_opt.csv", "history_psi1_one.csv",
            "history_psi2.5_opt.csv", "history_psi2.5_one.csv",
        }
        header = (tmp_path / "channels.csv").read_text().splitlines()[0]
        assert header == "psi,ref_mode,iterations,converged,kappa_eff,exec_seconds"

    def test_channels_study_follows_the_plan_axis(self):
        plan = ExperimentPlan(
            "channels", {"psi": 1.0, "cells_per_period": 8, "periods": 1},
            boundary=BoundaryConfig(Axis.X, 1.0, 0.0), rtols=(1e-6,),
        )
        opt = channels_study(plan)[0]
        want = homogenize(gen_channels(8, 1, 1.0), BoundaryConfig(Axis.X, 1.0, 0.0), 1e-6)
        assert (opt["ref_mode"], opt["kappa_eff"]) == ("opt", want.kappa_eff)

    def test_channels_study_needs_the_channels_generator(self):
        with pytest.raises(ConfigError):
            channels_study(ExperimentPlan("center-ball", {"n": 6}))

    def test_precision_csv_header(self, tmp_path):
        plan = ExperimentPlan(
            "center-ball", {"n": 6, "kappa_inc": 10.0}, rtols=(1e-5,), out_dir=tmp_path
        )
        precision_study(plan)
        header = (tmp_path / "precision.csv").read_text().splitlines()[0]
        assert header == "precision,rtol,kappa_eff,rel_diff,iterations,converged,exec_seconds"

    def test_compare_history_names(self, tmp_path):
        plan = ExperimentPlan(
            "center-ball", {"n": 6, "kappa_inc": 10.0}, rtols=(1e-5,),
            preconds=("fct", "ssor:1.5", "jacobi"), out_dir=tmp_path,
        )
        compare_preconditioners(plan)
        assert {p.name for p in tmp_path.iterdir()} == {
            "history_fct.csv", "history_ssor_w1.5.csv", "history_jacobi.csv"
        }


class TestReportSerialization:
    def test_schema_and_determinism(self, tmp_path, boundary_z):
        f = gen_center_ball(8, 10.0)
        docs = []
        for run in range(2):
            rep = homogenize(f, boundary_z, 1e-8)
            doc = report_to_dict(rep, {"generator": "center-ball", "n": 8},
                                 f.grid, boundary_z, 1e-8)
            path = tmp_path / f"report{run}.json"
            write_report(path, doc)
            docs.append(json.loads(path.read_text()))
        for doc in docs:
            assert set(doc) == {
                "config", "grid", "boundary", "precond", "ref_params", "rtol",
                "iterations", "converged", "kappa_eff", "prep_seconds",
                "exec_seconds", "precision",
            }
            assert set(doc["grid"]) == {"nx", "ny", "nz", "lx", "ly", "lz"}
            assert set(doc["boundary"]) == {"axis", "p_in", "p_out"}
            assert set(doc["ref_params"]) == {
                "kx", "ky", "kz", "kin", "kout", "lambda_lo", "lambda_hi"
            }
        for doc in docs:
            doc.pop("prep_seconds")
            doc.pop("exec_seconds")
        assert docs[0] == docs[1]

    def test_smooth_report_includes_error(self, tmp_path):
        rep = solve_smooth(8, 1e-9)
        doc = report_to_dict(rep, {"generator": "smooth", "n": 8},
                             GridSpec(8, 8, 8), BoundaryConfig(Axis.Z, 1.0, 0.0), 1e-9)
        assert "l2_error" in doc and doc["l2_error"] > 0.0

    def test_rows_take_the_header_from_the_first_row(self, tmp_path):
        pipeline._write_rows(tmp_path / "t.csv", [{"b": 1, "a": None}, {"b": 2.5, "a": "x"}])
        assert (tmp_path / "t.csv").read_text() == "b,a\n1,\n2.5,'x'\n"

    def test_history_rows_include_initial(self, tmp_path):
        write_history(tmp_path / "h.csv", [1.0, 0.5, 0.1])
        lines = (tmp_path / "h.csv").read_text().splitlines()
        assert lines[0] == "iter,relres"
        assert lines[1] == "0,1.0"
        assert len(lines) == 4
