"""Acceptance gate: reference-value tables at desk scale plus the oracle
and property suites, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines.
"""

import time
from functools import lru_cache

import numpy as np

from etchomo import (
    Axis,
    BoundaryConfig,
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
    gen_center_ball,
    gen_random_balls,
    homogenize,
    ones_reference,
    pcg,
    read_vox,
    reconstruct_boundary_flux,
    solve_reference_lp,
    solve_smooth,
    write_vox,
)
from etchomo.oracles import assemble_dense, dense_solve, reference_system
from etchomo.grid import RANDOM_BALL_PRESETS

from conftest import condition_estimate

BND = BoundaryConfig(Axis.Z, 1.0, 0.0)


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@lru_cache(maxsize=None)
def ball_report(n: int, kinc: float, rtol: float, precision: str = "f64"):
    return homogenize(gen_center_ball(n, kinc), BND, rtol, "fct", "opt", precision)


@lru_cache(maxsize=None)
def compare_report(kind: str, n: int, precond: str):
    if kind == "center":
        field = gen_center_ball(n, 100.0)
    else:
        preset = dict(RANDOM_BALL_PRESETS["a"])
        field = gen_random_balls(n, preset["count"], preset["r_min"],
                                 preset["r_max"], 100.0, preset["seed"])
    return homogenize(field, BND, 1e-5, precond, "opt", "f64", 1024)


def test_criterion_01_smooth_table():
    t0 = time.perf_counter()
    r32 = solve_smooth(32, 1e-9)
    r64 = solve_smooth(64, 1e-9)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(r32.l2_error - 3.85e-4) <= 0.03 * 3.85e-4
        and abs(r64.l2_error - 9.61e-5) <= 0.03 * 9.61e-5
        and 3.8 <= r32.l2_error / r64.l2_error <= 4.3
        and 23 <= r32.iterations <= 27
        and 23 <= r64.iterations <= 27
        and elapsed < 60.0
    )
    _criterion(
        1, ok,
        f"L2(32)={r32.l2_error:.3e} L2(64)={r64.l2_error:.3e} "
        f"ratio={r32.l2_error / r64.l2_error:.3f} "
        f"iters=({r32.iterations},{r64.iterations}) runtime={elapsed:.1f}s",
    )


def test_criterion_02_transform_oracle():
    sizes = list(range(1, 10)) + [16, 17, 32, 64]
    tables = {
        n: np.cos(np.pi * (2 * np.arange(n)[None, :] + 1) * np.arange(n)[:, None] / (2 * n))
        for n in sizes
    }
    rng = np.random.default_rng(2024)
    worst_fwd = worst_rt = 0.0
    for nx in sizes:
        for ny in sizes:
            for nz in (1, 3):
                data = rng.standard_normal((nz, ny, nx))
                coeff = fct_forward_batch(data)
                want = np.einsum("ja,kab,ib->kji", tables[ny], data, tables[nx])
                scale = max(float(np.max(np.abs(want))), 1e-30)
                worst_fwd = max(worst_fwd, float(np.max(np.abs(coeff - want))) / scale)
                back = fct_backward_batch(coeff)
                worst_rt = max(
                    worst_rt,
                    float(np.max(np.abs(back - data))) / float(np.max(np.abs(data))),
                )
    ok = worst_fwd <= 1e-12 and worst_rt <= 1e-12
    _criterion(2, ok, f"worst forward dev {worst_fwd:.2e}, round trip {worst_rt:.2e}")


def test_criterion_03_preconditioner_exactness():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        grid = GridSpec(
            int(rng.integers(1, 34)), int(rng.integers(1, 18)), int(rng.integers(1, 10))
        )
        refs = ReferenceParams(*np.exp(rng.uniform(-2.0, 2.0, 5)))
        apply_m = FctPreconditioner(grid, refs)
        r = rng.standard_normal(grid.n_cells)
        z = apply_m(r)
        back = apply_operator(reference_system(grid, refs), z)
        worst = max(worst, float(np.linalg.norm(back - r) / np.linalg.norm(r)))
    _criterion(3, worst <= 1e-11, f"worst apply-back residual {worst:.2e} over 50 runs")


def test_criterion_04_dense_oracle_equivalence():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        grid = GridSpec(*(int(v) for v in rng.integers(2, 7, 3)))
        # cell values span a 1e3 ratio (the contrast), centered on 1
        k = np.exp(rng.uniform(-np.log(1e3) / 2, np.log(1e3) / 2, (3, grid.n_cells)))
        field = OrthotropicField(grid, *k)
        sys = build_system(field, BND)
        b = build_rhs(sys)
        direct = dense_solve(assemble_dense(sys), b)
        apply_m = FctPreconditioner(grid, solve_reference_lp(coefficient_stats(sys)))
        iterative, rep = pcg(lambda u: apply_operator(sys, u), apply_m, b, 1e-10)
        assert rep.converged
        worst = max(worst, float(np.linalg.norm(iterative - direct) / np.linalg.norm(direct)))
    _criterion(4, worst <= 1e-8, f"worst PCG-vs-direct deviation {worst:.2e} over 20 grids")


def test_criterion_05_spectral_equivalence_bound():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(20):
        grid = GridSpec(*(int(v) for v in rng.integers(2, 7, 3)))
        k = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), (3, grid.n_cells)))
        sys = build_system(OrthotropicField(grid, *k), BND)
        stats = coefficient_stats(sys)
        dense = assemble_dense(sys)
        for refs in (solve_reference_lp(stats), ones_reference(stats)):
            dense_ref = assemble_dense(reference_system(grid, refs))
            _, _, cond = condition_estimate(dense, dense_ref)
            worst = max(worst, cond / refs.objective)
    ok = worst <= 1.0 + 1e-8
    _criterion(5, ok, f"worst cond/(bound) = {worst:.6f} over 20 grids x 2 modes")


def test_criterion_06_condition_growth():
    conds = []
    for n in (4, 8, 16):
        ones = np.ones(n**3)
        sys = build_system(OrthotropicField(GridSpec(n, n, n), ones, ones, ones), BND)
        conds.append(condition_estimate(assemble_dense(sys))[2])
    factors = [conds[i + 1] / conds[i] for i in range(2)]
    ok = all(3.0 <= f <= 5.0 for f in factors)
    _criterion(6, ok, f"cond growth per doubling: {factors[0]:.2f}, {factors[1]:.2f}")


def test_criterion_07_exact_physics():
    details = []
    ok = True

    rep = homogenize(
        OrthotropicField(GridSpec(6, 5, 7), *(np.full(210, 3.7),) * 3), BND, 1e-9
    )
    ok &= abs(rep.kappa_eff - 3.7) <= 1e-12 and rep.iterations == 1
    details.append(f"homogeneous err={abs(rep.kappa_eff - 3.7):.1e} iters={rep.iterations}")

    layers = np.array([1.0, 2.0, 0.5, 4.0, 1.5, 3.0])
    grid = GridSpec(4, 4, layers.size)
    ones = np.ones(grid.n_cells)
    field = OrthotropicField(grid, ones, ones, np.repeat(layers, 16))
    rep = homogenize(field, BND, 1e-13)
    want = layers.size / np.sum(1.0 / layers)
    ok &= abs(rep.kappa_eff - want) <= 1e-10 * want
    details.append(f"series err={abs(rep.kappa_eff - want) / want:.1e}")

    # conservation on tightly converged solves
    rng = np.random.default_rng(29)
    worst = 0.0
    cases = [
        OrthotropicField(GridSpec(5, 5, 5), *(np.ones(125),) * 3),
        field,
        gen_center_ball(16, 10.0),
        OrthotropicField(
            GridSpec(10, 9, 8),
            *np.exp(rng.uniform(-2, 2, (3, 720))),
        ),
    ]
    for f in cases:
        sys = build_system(f, BND)
        b = build_rhs(sys)
        apply_m = FctPreconditioner(f.grid, solve_reference_lp(coefficient_stats(sys)))
        p, rep = pcg(lambda u: apply_operator(sys, u), apply_m, b, 1e-13)
        assert rep.converged
        fin = float(reconstruct_boundary_flux(sys, p, side="in").sum())
        fout = float(reconstruct_boundary_flux(sys, p, side="out").sum())
        worst = max(worst, abs(fin - fout) / abs(fout))
    ok &= worst <= 1e-10
    details.append(f"conservation worst={worst:.1e}")
    _criterion(7, ok, "; ".join(details))


RTOLS = (1e-5, 1e-6, 1e-7, 1e-8, 1e-9)
KINCS = (0.01, 0.1, 10.0, 100.0)


def test_criterion_08_rtol_insensitivity():
    ok = True
    details = []
    iters = {}
    for kinc in KINCS:
        reports = [ball_report(64, kinc, rt) for rt in RTOLS]
        iters[kinc] = [r.iterations for r in reports]
        keffs = [r.kappa_eff for r in reports]
        # stable to four significant digits against the tightest run
        dev = max(abs(k - keffs[-1]) / abs(keffs[-1]) for k in keffs)
        ok &= dev <= 5e-4
        increasing = all(a < b for a, b in zip(iters[kinc], iters[kinc][1:]))
        ok &= increasing
        details.append(f"kinc={kinc:g} dev={dev:.1e} iters={iters[kinc]}")
    contrast_growth = all(
        iters[100.0][i] > iters[10.0][i] for i in range(len(RTOLS))
    )
    ok &= contrast_growth
    details.append(f"contrast growth={contrast_growth}")
    _criterion(8, ok, "; ".join(details))


def test_criterion_09_mesh_trend():
    rising = [ball_report(n, 0.1, 1e-9).kappa_eff for n in (16, 32, 64)]
    falling = [ball_report(n, 10.0, 1e-9).kappa_eff for n in (16, 32, 64)]
    ok = all(a < b for a, b in zip(rising, rising[1:])) and all(
        a > b for a, b in zip(falling, falling[1:])
    )
    _criterion(
        9, ok,
        f"kinc=0.1: {[f'{v:.5f}' for v in rising]} rising; "
        f"kinc=10: {[f'{v:.5f}' for v in falling]} falling",
    )


def test_criterion_10_preconditioner_stability():
    ok = True
    details = []
    for kind in ("center", "random"):
        fct = compare_report(kind, 64, "fct")
        ssor = compare_report(kind, 64, "ssor:1.0")
        nopc = compare_report(kind, 64, "none")
        chain = fct.iterations < ssor.iterations and (
            not nopc.converged or ssor.iterations < nopc.iterations
        )
        ok &= chain
        details.append(
            f"{kind}: fct={fct.iterations} ssor={ssor.iterations} "
            f"none={'DNC' if not nopc.converged else nopc.iterations}"
        )
    fct32 = compare_report("center", 32, "fct")
    fct64 = compare_report("center", 64, "fct")
    ssor32 = compare_report("center", 32, "ssor:1.0")
    ssor64 = compare_report("center", 64, "ssor:1.0")
    ok &= abs(fct64.iterations - fct32.iterations) <= 5
    ok &= ssor64.iterations > ssor32.iterations
    details.append(
        f"fct 32->64: {fct32.iterations}->{fct64.iterations}; "
        f"ssor 32->64: {ssor32.iterations}->{ssor64.iterations}"
    )
    _criterion(10, ok, "; ".join(details))


def test_criterion_11_reference_parameter_effectiveness():
    from etchomo import gen_channels

    ok = True
    details = []
    iters = {}
    for psi in (1.0, 2.0, 3.0):
        field = gen_channels(8, 8, psi)
        for mode in ("opt", "one"):
            rep = homogenize(field, BND, 1e-5, "fct", mode)
            iters[(psi, mode)] = rep.iterations
        details.append(f"psi={psi:g}: opt={iters[(psi, 'opt')]} one={iters[(psi, 'one')]}")
    ok &= iters[(2.0, "opt")] < iters[(2.0, "one")]
    ok &= iters[(3.0, "opt")] < iters[(3.0, "one")]
    ok &= iters[(1.0, "opt")] <= iters[(1.0, "one")] + 2
    _criterion(11, ok, "; ".join(details))


def test_criterion_12_precision_study():
    f32_eps = float(np.finfo(np.float32).eps)
    ok = True
    details = []
    for kinc in KINCS:
        base = ball_report(64, kinc, 1e-9, "f64").kappa_eff
        diffs = {}
        for rt in RTOLS:
            rep = ball_report(64, kinc, rt, "f32")
            diffs[rt] = abs(rep.kappa_eff - base) / abs(base)
        ok &= all(d < 1e-2 for d in diffs.values())
        # plateau: the 1e-8 difference sits within 2x of the 1e-9 one, up to
        # single-precision resolution on kappa_eff itself
        plateau = diffs[1e-8] <= 2.0 * diffs[1e-9] + f32_eps
        ok &= plateau
        details.append(
            f"kinc={kinc:g} max={max(diffs.values()):.1e} "
            f"d8={diffs[1e-8]:.1e} d9={diffs[1e-9]:.1e}"
        )
    _criterion(12, ok, "; ".join(details))


def test_criterion_13_format_and_cli(tmp_path):
    import json

    from etchomo.cli import main

    ok = True
    details = []

    rng = np.random.default_rng(41)
    grid = GridSpec(5, 4, 3, 2.0, 1.0, 1.5)
    k = np.exp(rng.uniform(-1, 1, (3, grid.n_cells)))
    for dtype in (np.float64, np.float32):
        field = OrthotropicField(grid, *k).astype(dtype)
        path = tmp_path / f"f_{np.dtype(dtype).name}.vox"
        write_vox(field, path)
        back = read_vox(path)
        exact = all(
            np.array_equal(getattr(back, c), getattr(field, c))
            for c in ("kx", "ky", "kz")
        ) and back.grid == field.grid and back.dtype == field.dtype
        ok &= exact
    details.append("vox round trip bit-exact (f64, f32)")

    vox = tmp_path / "ball.vox"
    write_vox(gen_center_ball(8, 10.0), vox)
    docs = []
    for name in ("one.json", "two.json"):
        report = tmp_path / name
        code = main(["solve", str(vox), "--rtol", "1e-8", "--report", str(report)])
        ok &= code == 0
        docs.append(json.loads(report.read_text()))
    schema = {
        "config": dict, "grid": dict, "boundary": dict, "precond": str,
        "ref_params": dict, "rtol": float, "iterations": int,
        "converged": bool, "kappa_eff": float,
        "prep_seconds": float, "exec_seconds": float, "precision": str,
    }
    for doc in docs:
        ok &= set(doc) == set(schema)
        ok &= all(isinstance(doc[key], kind) for key, kind in schema.items())
    details.append("report schema valid")
    for doc in docs:
        doc.pop("prep_seconds")
        doc.pop("exec_seconds")
    ok &= docs[0] == docs[1]
    details.append("identical invocations deterministic")
    _criterion(13, ok, "; ".join(details))
