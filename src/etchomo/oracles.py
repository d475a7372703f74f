"""Slow reference paths and the self-contained verification suites behind
the `oracle` CLI command.

Each suite checks the fast path against an independent slow path: direct
cosine summation for the transforms, dense assembly and Cholesky for the
solver, stencil application of the reference system for the preconditioner,
and a general-purpose LP solver for the closed-form reference parameters.
The slow paths live here, apart from the solve modules, and the tests reuse
them.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import ConfigError, GridSpec, OrthotropicField
from .pipeline import _Z_BOUNDARY, _prepare, _solve
from .preconditioner import (
    CoefficientStats,
    FctPreconditioner,
    ReferenceParams,
    solve_reference_lp,
)
from .tpfa import DiscreteSystem, _layout, _split, apply_operator, build_rhs
from .transforms import fct_backward_batch, fct_forward_batch

DENSE_GUARD = 4096


def dct1d_ref_forward(u: np.ndarray) -> np.ndarray:
    """Direct-summation forward transform (oracle; O(N^2))."""
    u = np.asarray(u, dtype=np.float64)
    n = u.size
    i = np.arange(n)
    table = np.cos(np.pi * (2 * i[None, :] + 1) * i[:, None] / (2 * n))
    return table @ u


def assemble_dense(sys: DiscreteSystem) -> np.ndarray:
    """Explicit symmetric matrix of the stencil; small-grid oracle only."""
    g = sys.grid
    n = g.n_cells
    if n > DENSE_GUARD:
        raise ValueError(f"dense assembly capped at {DENSE_GUARD} cells, got {n}")
    mat = np.zeros((n, n))
    for s, t in sys.bands():
        lo = np.arange(n - s)
        hi = lo + s
        mat[hi, hi] += t
        mat[lo, lo] += t
        mat[lo, hi] -= t
        mat[hi, lo] -= t
    nxy = g.nx * g.ny
    diag_bnd = np.zeros(n)
    diag_bnd[:nxy] += sys.t_in
    diag_bnd[n - nxy:] += sys.t_out
    mat[np.arange(n), np.arange(n)] += diag_bnd
    return mat


def dense_solve(mat: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct Cholesky solve of a dense SPD system (oracle path)."""
    import scipy.linalg as sla

    mat = np.asarray(mat, dtype=np.float64)
    if mat.shape[0] > DENSE_GUARD:
        raise ValueError(f"dense solves capped at {DENSE_GUARD} unknowns")
    try:
        factor = sla.cho_factor(mat)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"matrix is not positive definite: {exc}") from exc
    return sla.cho_solve(factor, np.asarray(b, dtype=np.float64))


def reference_system(grid: GridSpec, refs: ReferenceParams) -> DiscreteSystem:
    """The reference operator realized as a stencil system on the canonical z
    problem in f64: constant interior transmissibilities and 2*k_ref
    Dirichlet terms. Lets every stencil oracle apply to the preconditioner."""
    n, nxy = grid.n_cells, grid.nx * grid.ny
    bands = []
    for k_ref, (s, line) in zip((refs.kx_ref, refs.ky_ref, refs.kz_ref), _layout(grid)):
        t = np.full(n, k_ref, dtype=np.float64)
        _split(t, s, line)[1][...] = 0
        bands.append(t)
    return DiscreteSystem(
        grid,
        *bands,
        np.full(nxy, 2.0 * refs.kin_ref, dtype=np.float64),
        np.full(nxy, 2.0 * refs.kout_ref, dtype=np.float64),
        _Z_BOUNDARY,
    )


def _random_field(rng, nx, ny, nz, contrast=100.0) -> OrthotropicField:
    grid = GridSpec(nx, ny, nz)
    shape = (3, grid.n_cells)
    k = np.exp(rng.uniform(np.log(1.0 / contrast), np.log(contrast), shape))
    return OrthotropicField(grid, k[0], k[1], k[2])


def _ref2d(v: np.ndarray) -> np.ndarray:
    out = np.apply_along_axis(dct1d_ref_forward, 1, v)
    return np.apply_along_axis(dct1d_ref_forward, 0, out)


def check_transforms(max_n: int, rng) -> tuple[bool, str]:
    sizes = sorted(set(list(range(1, max_n + 1)) + [8, 9]))
    worst = 0.0
    for nx in sizes:
        for ny in sizes:
            for nz in (1, 3):
                original = rng.standard_normal((nz, ny, nx))
                coeff = fct_forward_batch(original)
                for k in range(nz):
                    want = _ref2d(original[k])
                    scale = max(float(np.max(np.abs(want))), 1e-30)
                    worst = max(worst, float(np.max(np.abs(coeff[k] - want))) / scale)
                back = fct_backward_batch(coeff)
                scale = float(np.max(np.abs(original)))
                worst = max(worst, float(np.max(np.abs(back - original))) / scale)
    return worst <= 1e-12, f"worst relative deviation {worst:.3e}"


def check_dense_solver(max_n: int, rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(5):
        dims = rng.integers(2, max_n + 1, 3)
        field = _random_field(rng, *map(int, dims), contrast=100.0)
        sys, apply_m, stub = _prepare(field, _Z_BOUNDARY)
        b = build_rhs(sys)
        direct = dense_solve(assemble_dense(sys), b)
        iterative, _ = _solve(sys, apply_m, stub, b, 1e-12, 1024)
        worst = max(
            worst,
            float(np.linalg.norm(iterative - direct) / np.linalg.norm(direct)),
        )
    return worst <= 1e-8, f"worst relative deviation {worst:.3e}"


def check_precond_exactness(max_n: int, rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(8):
        dims = rng.integers(1, 2 * max_n + 1, 3)
        grid = GridSpec(*map(int, dims))
        stats = CoefficientStats(*np.sort(rng.uniform(0.1, 10.0, 10).reshape(5, 2), axis=1).ravel())
        refs = solve_reference_lp(stats)
        apply_m = FctPreconditioner(grid, refs)
        ref_sys = reference_system(grid, refs)
        r = rng.standard_normal(grid.n_cells)
        back = apply_operator(ref_sys, apply_m(r))
        worst = max(worst, float(np.linalg.norm(back - r) / np.linalg.norm(r)))
    return worst <= 1e-11, f"worst apply-back residual {worst:.3e}"


def check_reference_lp(rng) -> tuple[bool, str]:
    from scipy.optimize import linprog

    worst = 0.0
    for _ in range(5):
        vals = np.sort(np.exp(rng.uniform(-4, 4, 10)).reshape(5, 2), axis=1)
        stats = CoefficientStats(*vals.ravel())
        refs = solve_reference_lp(stats)
        got = math.log(refs.objective)
        # variables: cx, cy, cz, cin, cout, lo, hi
        groups = list(stats.groups().values())
        cost = np.array([0, 0, 0, 0, 0, -1.0, 1.0])
        rows, rhs = [], []
        for gi, (mn, mx) in enumerate(groups):
            row = np.zeros(7)
            row[gi] = 1.0
            row[5] = 1.0
            rows.append(row)
            rhs.append(math.log(mn))
            row = np.zeros(7)
            row[gi] = -1.0
            row[6] = -1.0
            rows.append(row)
            rhs.append(-math.log(mx))
        res = linprog(cost, A_ub=np.array(rows), b_ub=np.array(rhs),
                      bounds=[(None, None)] * 7, method="highs")
        if not res.success:
            return False, "reference LP solver failed"
        worst = max(worst, abs(got - res.fun))
    return worst <= 1e-9, f"worst objective gap {worst:.3e}"


def run_all(max_n: int = 5) -> list:
    # the dense-solver suite draws each dimension from [2, max_n]
    if max_n < 2 or max_n**3 > DENSE_GUARD:
        raise ConfigError(
            f"--max-n must lie in [2, 16], got {max_n}: the dense oracle draws "
            f"each dimension from [2, max-n] and caps a problem at {DENSE_GUARD} cells"
        )
    rng = np.random.default_rng(0)
    return [
        ("transform-vs-direct-sum", *check_transforms(max_n, rng)),
        ("pcg-vs-dense-solve", *check_dense_solver(max_n, rng)),
        ("preconditioner-exactness", *check_precond_exactness(max_n, rng)),
        ("reference-parameters-lp", *check_reference_lp(rng)),
    ]
