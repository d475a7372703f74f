"""End-to-end homogenization runs and the desk-scale experiment drivers.

Each solver setting has one spelling and one check. SSOR's omega is named only
by its tag (`ssor:1.5`; a bare `ssor` is 1). `_check_settings` runs when a plan
is built, and in `homogenize`, `solve_smooth` and `bench` before any set-up.
Every solve then goes through one core: `_prepare` moves the Dirichlet axis to
z, casts, assembles, picks the reference constants and builds the
preconditioner; `_solve` runs `pcg`, times it and fills the report.
`homogenize`, `solve_smooth` and the dense-solver oracle differ only in the
field and the right-hand side they hand over; `bench` times the operator and
the preconditioner that `_prepare` built. The permuted or cast copy of the
field lives only inside `_prepare`, so it is freed before the solve starts.

The four studies each take an `ExperimentPlan`, whose `boundary` is the
`BoundaryConfig` that `homogenize` takes; they build every field through
`make_field` and solve every run through `_run`. The smooth convergence study
fixes its own z-face data, so it refuses any other boundary. Each CSV table
takes its header from the keys of its first row.

Axis handling works by physically permuting the voxel data so the requested
Dirichlet direction becomes the canonical z; the discretization and the
preconditioner never change orientation. Every driver emits deterministic
artifacts (JSON reports, iteration-history CSVs); wall times are recorded but
are the only non-reproducible fields.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .grid import (
    Axis,
    BoundaryConfig,
    ConfigError,
    GridSpec,
    OrthotropicField,
    RANDOM_BALL_PRESETS,
    _center_vectors,
    gen_center_ball,
    gen_channels,
    gen_random_balls,
    gen_smooth_problem,
    map_shared,
)
from .krylov import SolveReport, pcg
from .preconditioner import (
    FctPreconditioner,
    JacobiPreconditioner,
    SsorPreconditioner,
    _check_omega,
    coefficient_stats,
    identity_apply,
    ones_reference,
    solve_reference_lp,
)
from .tpfa import (
    add_source,
    apply_operator,
    build_rhs,
    build_system,
    effective_conductivity,
    l2_error_midpoint,
    reconstruct_boundary_flux,
)

_DTYPES = {"f64": np.float64, "f32": np.float32}
# the boundary of a plan that names none, and the one the smooth problem fixes
_Z_BOUNDARY = BoundaryConfig(Axis.Z, 1.0, 0.0)
# timed applies per kernel in `bench`, after one untimed warm-up call
_BENCH_ROUNDS = 10


@dataclass
class ExperimentPlan:
    """Declarative description of one experiment family."""

    generator: str
    params: dict = dc_field(default_factory=dict)
    boundary: BoundaryConfig = _Z_BOUNDARY
    rtols: tuple = (1e-9,)
    preconds: tuple = ("fct",)
    ref_mode: str = "opt"
    precision: str = "f64"
    max_iter: int = 1024
    out_dir: Path | None = None

    def __post_init__(self):
        if not self.rtols:
            raise ConfigError("plan needs at least one rtol")
        _check_settings(self.precision, self.ref_mode, self.rtols, self.preconds)
        if self.out_dir is not None:
            self.out_dir = Path(self.out_dir)


def _check_settings(precision: str, ref_mode: str, rtols, preconds) -> None:
    """The one check of precision, reference mode, rtols and precond tags."""
    for rt in rtols:
        if not 0.0 < rt < 1.0:
            raise ConfigError(f"rtol must lie in (0, 1), got {rt}")
    if precision not in _DTYPES:
        raise ConfigError(f"precision must be f64 or f32, got {precision!r}")
    if ref_mode not in ("opt", "one"):
        raise ConfigError(f"ref mode must be opt or one, got {ref_mode!r}")
    for tag in preconds:
        _parse_precond(tag)


def axis_permute(field: OrthotropicField, axis: Axis) -> OrthotropicField:
    """Transpose the voxel data so `axis` becomes the canonical z direction.

    Convention: the requested axis and z are swapped (an involution), so a
    constant Diag(a, b, c) becomes Diag(c, b, a) under axis=x and
    Diag(a, c, b) under axis=y; the array holding the requested direction's
    conductivity always lands on kz.
    """
    axis = Axis(axis)
    if axis is Axis.Z:
        return field
    g = field.grid
    if axis is Axis.X:
        swapped, new_grid = (0, 2), GridSpec(g.nz, g.ny, g.nx, g.lz, g.ly, g.lx)
    else:
        swapped, new_grid = (0, 1), GridSpec(g.nx, g.nz, g.ny, g.lx, g.lz, g.ly)

    def swap(a):
        return np.ascontiguousarray(np.swapaxes(a.reshape(g.shape), *swapped))

    kx, ky, kz = map_shared(swap, (field.kx, field.ky, field.kz))
    if axis is Axis.X:
        return OrthotropicField(new_grid, kz, ky, kx)
    return OrthotropicField(new_grid, kx, kz, ky)


def _parse_precond(tag: str) -> tuple[str, float]:
    """Split a tag fct|jacobi|none|ssor|ssor:<omega> into kind and SSOR
    omega (1 for a bare ssor), and check that omega."""
    if tag in ("fct", "jacobi", "none", "ssor"):
        return tag, 1.0
    kind, _, value = tag.partition(":")
    if kind == "ssor":
        try:
            omega = float(value)
        except ValueError:
            pass
        else:
            _check_omega(omega)
            return kind, omega
    raise ConfigError(f"unknown preconditioner tag {tag!r}")


def _prepare(field, boundary, precond="fct", ref_mode="opt", precision="f64"):
    """Shared set-up of every solve, on settings that its caller has checked:
    permute, cast, assemble, pick the reference constants and build the
    preconditioner.

    Returns the system, the preconditioner and a report stub carrying the
    set-up time, precision, preconditioner tag and reference constants,
    which `_solve` completes. The permuted or cast field is a local here, so
    it is gone once the system is built.
    """
    kind, omega = _parse_precond(precond)
    dtype = _DTYPES[precision]
    t0 = time.perf_counter()
    canon = BoundaryConfig(Axis.Z, boundary.p_in, boundary.p_out)
    sys = build_system(axis_permute(field, boundary.axis).astype(dtype), canon)
    stats = coefficient_stats(sys)
    refs = solve_reference_lp(stats) if ref_mode == "opt" else ones_reference(stats)
    if kind == "fct":
        apply_m = FctPreconditioner(sys.grid, refs, dtype)
    elif kind == "ssor":
        apply_m = SsorPreconditioner(sys, omega)
    elif kind == "jacobi":
        apply_m = JacobiPreconditioner(sys)
    else:
        apply_m = identity_apply
    stub = SolveReport(
        0, False,
        prep_seconds=time.perf_counter() - t0,
        precision=precision,
        preconditioner=f"ssor:{omega:g}" if kind == "ssor" else kind,
        ref_params=refs,
    )
    return sys, apply_m, stub


def _solve(sys, apply_m, stub, b, rtol, max_iter, exact=None):
    """The one `pcg` call site: solve with `b` as scratch, then measure the
    L2 error against `exact` when given, else `kappa_eff`. Returns the
    solution and the completed report."""
    t1 = time.perf_counter()
    solution, report = pcg(
        lambda u: apply_operator(sys, u), apply_m, b, rtol, max_iter,
        overwrite_b=True,
    )
    if exact is None:
        flux = reconstruct_boundary_flux(sys, solution)
        report.kappa_eff = effective_conductivity(sys, flux)
    else:
        report.l2_error = l2_error_midpoint(sys.grid, solution.astype(np.float64), exact)
    report.exec_seconds = time.perf_counter() - t1
    for name in ("prep_seconds", "precision", "preconditioner", "ref_params"):
        setattr(report, name, getattr(stub, name))
    return solution, report


def homogenize(
    field: OrthotropicField,
    boundary: BoundaryConfig,
    rtol: float = 1e-9,
    precond: str = "fct",
    ref_mode: str = "opt",
    precision: str = "f64",
    max_iter: int = 1024,
) -> SolveReport:
    """Full effective-conductivity run: permute, assemble, pick reference
    constants, solve, reconstruct the outflow flux, average."""
    _check_settings(precision, ref_mode, (rtol,), (precond,))
    sys, apply_m, stub = _prepare(field, boundary, precond, ref_mode, precision)
    return _solve(sys, apply_m, stub, build_rhs(sys), rtol, max_iter)[1]


def solve_smooth(
    n: int,
    rtol: float = 1e-9,
    ref_mode: str = "opt",
    precision: str = "f64",
    max_iter: int = 1024,
) -> SolveReport:
    """Manufactured-solution run: Dirichlet data sampled from the closed-form
    solution on the z faces, volumetric source added, error measured against
    the exact samples."""
    _check_settings(precision, ref_mode, (rtol,), ())
    field, exact, source = gen_smooth_problem(n)
    # boundary constants are placeholders; the actual data is sampled below
    sys, apply_m, stub = _prepare(field, _Z_BOUNDARY, "fct", ref_mode, precision)
    del field
    grid = sys.grid
    x, y, _ = _center_vectors(grid)
    b = build_rhs(
        sys,
        dirichlet_in=np.asarray(exact(x[0], y[0], 0.0), dtype=sys.dtype),
        dirichlet_out=np.asarray(exact(x[0], y[0], grid.lz), dtype=sys.dtype),
    )
    b = add_source(sys, b, source)
    return _solve(sys, apply_m, stub, b, rtol, max_iter, exact)[1]


def make_field(generator: str, params: dict) -> OrthotropicField:
    """Instantiate a named test-case generator from plain parameters."""
    if generator == "smooth":
        return gen_smooth_problem(params.get("n", 32))[0]
    if generator == "center-ball":
        return gen_center_ball(params.get("n", 64), params.get("kappa_inc", 10.0))
    if generator == "random-balls":
        preset = params.get("preset")
        merged = dict(RANDOM_BALL_PRESETS[preset]) if preset else {}
        merged.update({k: v for k, v in params.items() if k != "preset"})
        return gen_random_balls(
            merged.get("n", 64),
            merged["count"],
            merged["r_min"],
            merged["r_max"],
            merged.get("kappa_inc", 10.0),
            merged.get("seed", 0),
        )
    if generator == "channels":
        return gen_channels(
            params.get("cells_per_period", 8),
            params.get("periods", 8),
            params.get("psi", 1.0),
        )
    raise ConfigError(f"unknown generator {generator!r}")


# ----------------------------------------------------------------------------
# artifacts
# ----------------------------------------------------------------------------

def report_to_dict(
    report: SolveReport,
    config: dict,
    grid: GridSpec,
    boundary: BoundaryConfig,
    rtol: float,
) -> dict:
    doc = {
        "config": config,
        "grid": {
            "nx": grid.nx, "ny": grid.ny, "nz": grid.nz,
            "lx": grid.lx, "ly": grid.ly, "lz": grid.lz,
        },
        "boundary": {
            "axis": boundary.axis.value,
            "p_in": boundary.p_in,
            "p_out": boundary.p_out,
        },
        "precond": report.preconditioner,
        "ref_params": report.ref_params.as_dict() if report.ref_params else None,
        "rtol": rtol,
        "iterations": report.iterations,
        "converged": report.converged,
        "kappa_eff": report.kappa_eff,
        "prep_seconds": report.prep_seconds,
        "exec_seconds": report.exec_seconds,
        "precision": report.precision,
    }
    if report.l2_error is not None:
        doc["l2_error"] = report.l2_error
    return doc


def write_report(path, doc: dict) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_history(path, residuals) -> None:
    _write_rows(path, [{"iter": i, "relres": res} for i, res in enumerate(residuals)])


def _write_rows(path, rows: list) -> None:
    """CSV table whose header is the first row's keys; None is an empty cell."""
    header = list(rows[0])
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = ["" if row[key] is None else repr(row[key]) for key in header]
            fh.write(",".join(cells) + "\n")


# ----------------------------------------------------------------------------
# experiment drivers
# ----------------------------------------------------------------------------

def _run(plan: ExperimentPlan, field: OrthotropicField, **settings) -> SolveReport:
    """One study solve: `homogenize` on the plan's boundary and settings, with
    the study's own `settings` (rtol, precond, ref_mode, precision) on top."""
    kwargs = dict(rtol=plan.rtols[0], precond="fct", ref_mode=plan.ref_mode,
                  precision=plan.precision, max_iter=plan.max_iter)
    kwargs.update(settings)
    return homogenize(field, plan.boundary, **kwargs)


def run_convergence_study(plan: ExperimentPlan) -> list:
    """Mesh sweep: per-resolution error (smooth case) or effective
    conductivity (inclusion cases), with iteration counts and timings."""
    if plan.generator not in ("smooth", "center-ball"):
        raise ConfigError("convergence study supports smooth or center-ball")
    if plan.generator == "smooth" and plan.boundary != _Z_BOUNDARY:
        raise ConfigError("the smooth problem fixes its own z-face data; "
                          "it takes only the default boundary (z, 1, 0)")
    n_values = plan.params.get("n_values") or [plan.params.get("n", 32)]
    rows = []
    for n in n_values:
        if plan.generator == "smooth":
            rep = solve_smooth(n, plan.rtols[0], plan.ref_mode, plan.precision, plan.max_iter)
        else:
            rep = _run(plan, make_field(plan.generator, {**plan.params, "n": n}))
        rows.append(
            {
                "n": n,
                "dof": n**3,
                "l2_error": rep.l2_error,
                "kappa_eff": rep.kappa_eff,
                "iterations": rep.iterations,
                "prep_seconds": rep.prep_seconds,
                "exec_seconds": rep.exec_seconds,
            }
        )
    if plan.out_dir is not None:
        _write_rows(plan.out_dir / "convergence.csv", rows)
    return rows


def compare_preconditioners(plan: ExperimentPlan) -> dict:
    """Residual histories for each requested preconditioner on one
    configuration, aligned for plotting; max_iter pinned by the plan."""
    field = make_field(plan.generator, plan.params)
    out = {}
    for tag in plan.preconds:
        rep = out[tag] = _run(plan, field, precond=tag)
        if plan.out_dir is not None:
            stem = tag.replace(":", "_w")
            write_history(plan.out_dir / f"history_{stem}.csv", rep.relative_residuals)
    return out


def precision_study(plan: ExperimentPlan) -> list:
    """Single-vs-double comparison: a tight double-precision run anchors the
    table, the single-precision sweep and the loosest double run are reported
    as relative differences against it."""
    field = make_field(plan.generator, plan.params)
    # the tight f64 run comes first and anchors rel_diff (0.0 on its own row)
    sweep = ([("f64", 1e-9)] + [("f32", rt) for rt in plan.rtols]
             + [("f64", max(plan.rtols))])
    rows = []
    for precision, rt in sweep:
        rep = _run(plan, field, rtol=rt, precision=precision)
        if not rows:
            base = rep
        rows.append(
            {
                "precision": precision,
                "rtol": rt,
                "kappa_eff": rep.kappa_eff,
                "rel_diff": (rep.kappa_eff - base.kappa_eff) / base.kappa_eff,
                "iterations": rep.iterations,
                "converged": rep.converged,
                "exec_seconds": rep.exec_seconds,
            }
        )
    if plan.out_dir is not None:
        _write_rows(plan.out_dir / "precision.csv", rows)
    return rows


def channels_study(plan: ExperimentPlan) -> list:
    """Anisotropy sweep over the channel tiling, one field per value of
    `params["psi_values"]`, comparing the two reference-parameter choices;
    emits one history per (psi, mode) plus a summary table."""
    if plan.generator != "channels":
        raise ConfigError("channels study needs the channels generator")
    rows = []
    for psi in plan.params.get("psi_values") or [plan.params.get("psi", 1.0)]:
        field = make_field(plan.generator, {**plan.params, "psi": psi})
        for mode in ("opt", "one"):
            rep = _run(plan, field, ref_mode=mode)
            rows.append(
                {
                    "psi": psi,
                    "ref_mode": mode,
                    "iterations": rep.iterations,
                    "converged": rep.converged,
                    "kappa_eff": rep.kappa_eff,
                    "exec_seconds": rep.exec_seconds,
                }
            )
            if plan.out_dir is not None:
                path = plan.out_dir / f"history_psi{psi:g}_{mode}.csv"
                write_history(path, rep.relative_residuals)
    if plan.out_dir is not None:
        _write_rows(plan.out_dir / "channels.csv", rows)
    return rows


def bench(n: int, precision: str = "f64") -> dict:
    """Preparation/execution timing split for the core kernels at one size."""
    _check_settings(precision, "opt", (), ())
    sys, apply_m, stub = _prepare(gen_center_ball(n, 10.0), _Z_BOUNDARY, precision=precision)
    r = build_rhs(sys)
    # untimed first calls: the first FCT apply factors the tridiagonal blocks
    # and imports scipy.fft, which no later apply pays again
    apply_m(r)
    apply_operator(sys, r)
    t0 = time.perf_counter()
    for _ in range(_BENCH_ROUNDS):
        apply_m(r)
    precond_time = (time.perf_counter() - t0) / _BENCH_ROUNDS
    t0 = time.perf_counter()
    for _ in range(_BENCH_ROUNDS):
        apply_operator(sys, r)
    operator_time = (time.perf_counter() - t0) / _BENCH_ROUNDS
    return {
        "n": n,
        "precision": precision,
        "prep_seconds": stub.prep_seconds,
        "precond_apply_seconds": precond_time,
        "operator_apply_seconds": operator_time,
    }
