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

    @pytest.mark.parametrize("precision, itemsize, bound", [("f64", 8, 8.7), ("f32", 4, 9.0)])
    def test_solve_peak(self, precision, itemsize, bound, boundary_z):
        # one warm solve of the seed-11 48^3 pack, counted in grid arrays of
        # the solve vectors' dtype above the caller's field: assembly, the
        # preconditioner and pcg's vectors (8.41 in f64, 8.72 in f32)
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


class TestPlanBoundary:
    """The plan's boundary is one BoundaryConfig: checked when the plan is
    built, and refused by a study that cannot honour it."""

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
