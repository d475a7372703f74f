"""One repeat of a workload's job, and the correctness gate on its solves.

Two paths reach `kappa_eff`:

* `homogenize_job` is what a user runs: `read_vox`, then
  `pipeline.homogenize` for every solve. The end-to-end timings use it.
* `composed_job` rebuilds the same computation from the public pieces
  (`axis_permute`, `build_system`, `coefficient_stats`,
  `solve_reference_lp`, the preconditioner classes, `build_rhs`, `pcg`,
  `reconstruct_boundary_flux`, `effective_conductivity`). It returns the
  solution vector, which `homogenize` does not, so the true residual and the
  flux balance can be checked, and it lets the traced run put a span around
  every layer call. Each call goes through `tracer.call`, which records a
  span when tracing and is a plain call otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import etchomo.grid
import etchomo.krylov
import etchomo.pipeline
import etchomo.preconditioner
import etchomo.tpfa
import numpy as np

P_IN, P_OUT = 1.0, 0.0
MAX_ITER = 1024  # homogenize's default
DTYPES = {"f64": np.float64, "f32": np.float32}


@dataclass
class Outcome:
    """What one solve returned, and whether it passed the gate."""

    iterations: int
    kappa_eff: float
    converged: bool
    true_relres: float | None = None
    flux_mismatch: float | None = None
    problems: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def make_preconditioner(sys, refs, precond: str, dtype):
    pre = etchomo.preconditioner
    if precond == "fct":
        return pre.FctPreconditioner(sys.grid, refs, dtype)
    if precond == "jacobi":
        return pre.JacobiPreconditioner(sys)
    if precond.startswith("ssor:"):
        return pre.SsorPreconditioner(sys, float(precond.split(":", 1)[1]))
    raise ValueError(f"unsupported preconditioner {precond!r}")


def setup_solve(tracer, field, solve):
    """File-to-ready-to-iterate part of one solve, in homogenize's order."""
    dtype = DTYPES[solve.precision]
    axis = etchomo.grid.Axis(solve.axis)
    work = tracer.call("pipeline.axis_permute", etchomo.pipeline.axis_permute, field, axis)
    work = work.astype(dtype)
    canon = etchomo.grid.BoundaryConfig(etchomo.grid.Axis.Z, P_IN, P_OUT)
    sys = tracer.call("tpfa.build_system", etchomo.tpfa.build_system, work, canon)
    pre = etchomo.preconditioner
    stats = tracer.call("preconditioner.stats", pre.coefficient_stats, sys)
    refs = tracer.call("preconditioner.stats", pre.solve_reference_lp, stats)
    apply_m = tracer.call(
        "preconditioner.setup", make_preconditioner, sys, refs, solve.precond, dtype
    )
    b = tracer.call("tpfa.build_rhs", etchomo.tpfa.build_rhs, sys)
    return work, sys, apply_m, b


def setup_job(tracer, path, workload) -> None:
    field = tracer.call("grid.read_vox", etchomo.grid.read_vox, path)
    for solve in workload.solves:
        setup_solve(tracer, field, solve)


def homogenize_job(path, workload) -> list:
    """The user path: one unchecked Outcome per solve."""
    field = etchomo.grid.read_vox(path)
    out = []
    for solve in workload.solves:
        boundary = etchomo.grid.BoundaryConfig(etchomo.grid.Axis(solve.axis), P_IN, P_OUT)
        rep = etchomo.pipeline.homogenize(
            field, boundary, solve.rtol, solve.precond, "opt", solve.precision,
            max_iter=MAX_ITER,
        )
        out.append(Outcome(rep.iterations, rep.kappa_eff, rep.converged))
    return out


def composed_job(tracer, path, workload) -> list:
    """Every solve of the job through the public pieces, unchecked:
    (work field, solution, Outcome) per solve."""
    tpfa = etchomo.tpfa
    field = tracer.call("grid.read_vox", etchomo.grid.read_vox, path)
    out = []
    for solve in workload.solves:
        work, sys, apply_m, b = setup_solve(tracer, field, solve)
        apply_a = tracer.wrap("tpfa.apply_operator", lambda u: tpfa.apply_operator(sys, u))
        apply_m = tracer.wrap("preconditioner.apply", apply_m)
        p, rep = tracer.call(
            "krylov.pcg", etchomo.krylov.pcg, apply_a, apply_m, b, solve.rtol, MAX_ITER
        )
        flux = tracer.call("tpfa.flux", tpfa.reconstruct_boundary_flux, sys, p)
        kappa = tracer.call("tpfa.flux", tpfa.effective_conductivity, sys, flux)
        out.append((work, p, Outcome(rep.iterations, kappa, rep.converged)))
    return out


def check_composed(results, workload, bounds) -> list:
    """The full gate on composed solves: convergence, Wiener bounds, true
    residual and flux balance. Returns the Outcomes."""
    for (work, p, outcome), solve, bnd in zip(results, workload.solves, bounds):
        check_outcome(outcome, solve, bnd)
        check_solution(work, p, solve, outcome)
    return [outcome for _, _, outcome in results]


def check_solution(work, p, solve, outcome: Outcome) -> None:
    """True residual and flux balance, both evaluated in f64.

    The f64 system is assembled from the same field, so the residual measures
    how well `p` solves the problem the file states, whatever precision the
    solve ran in.
    """
    tpfa = etchomo.tpfa
    canon = etchomo.grid.BoundaryConfig(etchomo.grid.Axis.Z, P_IN, P_OUT)
    sys64 = tpfa.build_system(work.astype(np.float64), canon)
    b64 = tpfa.build_rhs(sys64)
    p64 = np.asarray(p, dtype=np.float64)
    resid = b64 - tpfa.apply_operator(sys64, p64)
    relres = float(np.linalg.norm(resid) / np.linalg.norm(b64))
    f_in = float(np.sum(tpfa.reconstruct_boundary_flux(sys64, p64, side="in")))
    f_out = float(np.sum(tpfa.reconstruct_boundary_flux(sys64, p64, side="out")))
    mismatch = abs(f_in - f_out) / abs(f_out)
    outcome.true_relres = relres
    outcome.flux_mismatch = mismatch
    if not relres <= 10.0 * solve.rtol:
        outcome.problems.append(f"true residual {relres:.3g} > 10*rtol")
    # Interior fluxes cancel when the residual is summed over all cells, so
    # f_in - f_out = hz * sum(r), and |sum(r)| <= sqrt(N) * |r|. With the
    # residual gate |r| <= 10*rtol*|b| this bounds the relative imbalance.
    g = work.grid
    limit = g.hz * math.sqrt(g.n_cells) * 10.0 * solve.rtol * float(np.linalg.norm(b64))
    limit /= abs(f_out)
    if not mismatch <= limit:
        outcome.problems.append(f"flux in/out mismatch {mismatch:.3g} > {limit:.3g}")


def wiener_bounds(field, solve) -> tuple:
    """Harmonic and arithmetic means of the conductivity along the solve's
    axis, which bound any discrete kappa_eff."""
    k = np.asarray(getattr(field, "k" + solve.axis), dtype=np.float64)
    return float(1.0 / np.mean(1.0 / k)), float(np.mean(k))


def check_outcome(outcome: Outcome, solve, bounds) -> None:
    """Converged, and kappa_eff within the Wiener bounds (up to the solver
    tolerance)."""
    lo, hi = bounds
    slack = 10.0 * solve.rtol
    if not outcome.converged:
        outcome.problems.append("not converged")
    if not lo * (1.0 - slack) <= outcome.kappa_eff <= hi * (1.0 + slack):
        outcome.problems.append(
            f"kappa_eff {outcome.kappa_eff!r} outside Wiener [{lo!r}, {hi!r}]"
        )


def check_repeat(outcome: Outcome, reference: Outcome) -> None:
    """A repeat must reproduce the reference solve bit for bit."""
    if (outcome.iterations, outcome.kappa_eff) != (reference.iterations, reference.kappa_eff):
        outcome.problems.append(
            f"repeat gave ({outcome.iterations}, {outcome.kappa_eff!r}), reference "
            f"({reference.iterations}, {reference.kappa_eff!r})"
        )
