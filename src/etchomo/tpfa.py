"""Finite-volume two-point flux discretization of the mixed problem.

The operator is kept matrix-free: a DiscreteSystem stores the h-scaled face
transmissibilities (harmonic means of adjacent scaled cells) plus the
Dirichlet-face terms. Each axis is one n-long band over the flat x-fastest
cell order: t[p] couples cells p and p+s, with flat step s = 1, nx or nx*ny,
and is 0 where p+s leaves p's x-line, xy-plane or the grid. The stencil,
its diagonal, the SSOR triangles and the dense oracle all read these bands
through `DiscreteSystem.bands`; only this module writes them.

`apply_operator` evaluates the 7-point stencil directly on the flat vector.
It walks the grid in slabs of whole z-layers, about `_BLOCK_BYTES` per
array, so the fluxes of one slab live in one small buffer instead of a
full-grid array. Boundary potentials enter through the right-hand side with
ghost values fixed at zero outside the domain.
"""

from __future__ import annotations

import numpy as np

from .grid import (
    Axis,
    BoundaryConfig,
    ConfigError,
    GridSpec,
    OrthotropicField,
    _BLOCK_BYTES,
    _center_vectors,
)


def _layout(grid: GridSpec) -> tuple:
    """(s, line) of the x, y and z bands: the flat step s, and the run of
    `line` cells (an x-line, an xy-plane, the grid) that the last s entries
    of each run leave."""
    nxy = grid.nx * grid.ny
    return (1, grid.nx), (grid.nx, nxy), (nxy, grid.n_cells)


def _split(t: np.ndarray, s: int, line: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the band `t` with one row per run of `line` cells: the faces
    (the first line-s columns) and the wrap entries (the last s)."""
    rows = t.reshape(-1, line)
    return rows[:, : line - s], rows[:, line - s:]


def _harmonic(inv_a: np.ndarray, inv_b: np.ndarray, h: float, out: np.ndarray) -> None:
    """Scaled harmonic means 2/(1/a + 1/b) / h^2 from the reciprocals of a
    and b, written into `out`.

    The reciprocal form cannot overflow where 2*a*b would, and it is bitwise
    symmetric in (a, b).
    """
    np.add(inv_a, inv_b, out=out)
    np.divide(2.0, out, out=out)
    out /= out.dtype.type(h) ** 2


class DiscreteSystem:
    """Assembled transmissibilities for the canonical z-oriented problem.

    tx, ty, tz are n-long bands: t[p] couples cells p and p+s (s = 1, nx,
    nx*ny) and is 0 where p+s leaves p's x-line, xy-plane or the grid, that
    is at i = nx-1, j = ny-1 and k = nz-1. t_in and t_out hold 2*kz/hz^2 on
    the k=0 and k=nz-1 layers (size nx*ny each). The system's own views of
    them are read-only, so the (min, max) over the faces of each axis that
    has faces, kept from the positivity check, stays valid for
    `coefficient_stats`. A C-contiguous argument is taken without a copy, so
    a write to the caller's array afterwards bypasses the check and leaves
    those extremes stale.
    """

    __slots__ = ("grid", "tx", "ty", "tz", "t_in", "t_out", "boundary", "_extremes")

    def __init__(self, grid, tx, ty, tz, t_in, t_out, boundary):
        self.grid = grid
        self.tx = np.ascontiguousarray(tx).reshape(-1)
        self.ty = np.ascontiguousarray(ty).reshape(-1)
        self.tz = np.ascontiguousarray(tz).reshape(-1)
        self.t_in = np.ascontiguousarray(t_in).reshape(-1)
        self.t_out = np.ascontiguousarray(t_out).reshape(-1)
        self.boundary = boundary
        n, nxy = grid.n_cells, grid.nx * grid.ny
        checks = [(name, getattr(self, name), n, sl)
                  for name, sl in zip(("tx", "ty", "tz"), _layout(grid))]
        checks += [("t_in", self.t_in, nxy, None), ("t_out", self.t_out, nxy, None)]
        self._extremes = {}
        for name, arr, want, sl in checks:
            if arr.size != want:
                raise ConfigError(f"{name} has {arr.size} entries, expected {want}")
            faces = arr
            if sl is not None:
                faces, wraps = _split(arr, *sl)
                if np.any(wraps):
                    raise ConfigError(f"{name} must be 0 at its wrap entries")
            if faces.size:
                # the wraps are 0, so once the faces' minimum is positive the
                # band's maximum is theirs, read contiguously
                lo, hi = faces.min(), arr.max()
                if not (lo > 0 and hi < np.inf):
                    raise ConfigError(f"{name} must be strictly positive")
                self._extremes[name] = (lo, hi)
            arr.setflags(write=False)

    @property
    def dtype(self) -> np.dtype:
        return self.tx.dtype

    def bands(self) -> list:
        """(s, t[:n-s]) for each axis of length > 1: the flat step and the
        couplings of cells p and p+s. The operator's off-diagonals are -t at
        offsets -s and +s."""
        n = self.grid.n_cells
        return [(s, t[: n - s])
                for t, (s, line) in zip((self.tx, self.ty, self.tz), _layout(self.grid))
                if line > s]

    def layer_in(self) -> np.ndarray:
        g = self.grid
        return self.t_in.reshape(g.ny, g.nx)

    def layer_out(self) -> np.ndarray:
        g = self.grid
        return self.t_out.reshape(g.ny, g.nx)


def build_system(field: OrthotropicField, boundary: BoundaryConfig) -> DiscreteSystem:
    """Assemble the canonical system (Dirichlet faces on the z axis).

    Other orientations are handled upstream by permuting the field data, never
    by reorienting the formulas here.
    """
    if boundary.axis is not Axis.Z:
        raise ConfigError(
            "build_system expects axis z; permute the field first (pipeline.axis_permute)"
        )
    g = field.grid
    n = g.n_cells
    bands = []
    inv, inv_of = None, None
    for name, h, (s, line) in zip(("kx", "ky", "kz"), (g.hx, g.hy, g.hz), _layout(g)):
        # one reciprocal array alive at a time (the old one is dropped before
        # the next is made), reused while the components share an array
        k = getattr(field, name)
        if k is not inv_of:
            inv = None
            inv, inv_of = np.reciprocal(k), k
        t = np.empty(n, dtype=field.dtype)
        _harmonic(inv[: n - s], inv[s:], h, t[: n - s])
        _split(t, s, line)[1][...] = 0
        bands.append(t)
    del inv
    kz = field.cube("kz")
    hz2 = field.dtype.type(g.hz) ** 2
    t_in = 2.0 * (kz[0] / hz2)
    t_out = 2.0 * (kz[-1] / hz2)
    return DiscreteSystem(g, *bands, t_in, t_out, boundary)


def apply_operator(
    sys: DiscreteSystem, u: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Matrix-free stencil product: difference fluxes over interior faces plus
    the Dirichlet-face contributions on the k=0 and k=nz-1 layers.

    Returns a new flat array, or the flat view of `out` when it is given: a
    contiguous array of u's size and dtype that does not overlap `u`.

    Works on the flat x-fastest vector, one slab [a, b) of whole z-layers at
    a time (`_BLOCK_BYTES` per array, at least one layer; a grid smaller than
    one slab runs as one slab), so the fluxes of a
    slab sit in one small buffer that stays in cache. A slab writes only its
    own cells of `out`, and zeroes them as it starts. For each band (s, t) the
    faces p in [a-s, b) within [0, n-s) touch the slab; their fluxes
    t[p] * (u[p+s] - u[p]) are formed in one contiguous pass, added to the
    slab's cells p+s and then subtracted from its cells p. A face below the
    slab is formed again, with the same bits, by the slab that holds its
    lower cell.

    Each cell gets its terms in the order of the per-axis slice form (low
    face, then high face, for x, y and z, then the Dirichlet layers), so the
    result equals that form bit for bit. The wrap fluxes are t = 0 times a
    difference, so they change no bit of `out` while `u` is finite: `out` is
    never -0, since it starts at +0 and a sum or difference is -0 only where
    its first operand is. A non-finite `u` next to a wrap gives NaN there.
    """
    g = sys.grid
    n = g.n_cells
    if u.size != n:
        raise ValueError(f"vector has {u.size} entries, expected {n}")
    u = u.reshape(-1)
    nxy = g.nx * g.ny
    if out is None:
        out = np.empty(n, dtype=u.dtype)
    elif (out.size != n or out.dtype != u.dtype or not out.flags.c_contiguous
          or np.may_share_memory(out, u)):
        raise ValueError("out must be a contiguous array of u's size and dtype, apart from u")
    else:
        out = out.reshape(-1)
    slab = max(1, _BLOCK_BYTES // (nxy * u.itemsize)) * nxy
    # a slab's faces: its own and at most one layer below it
    flux = np.empty(min(slab + nxy, n), dtype=u.dtype)
    bands = sys.bands()
    for a in range(0, n, slab):
        b = min(a + slab, n)
        out[a:b] = 0
        for s, t in bands:
            p0, p1 = max(a - s, 0), min(b, n - s)
            f = flux[: p1 - p0]
            np.subtract(u[p0 + s:p1 + s], u[p0:p1], out=f)
            f *= t[p0:p1]
            out[p0 + s:b] += f[: b - s - p0]
            out[a:p1] -= f[a - p0:]
    # the Dirichlet terms are formed in the flux buffer, at least a plane long,
    # so they allocate no plane temporary
    f = flux[:nxy]
    out[:nxy] += np.multiply(sys.t_in, u[:nxy], out=f)
    out[n - nxy:] += np.multiply(sys.t_out, u[n - nxy:], out=f)
    return out


def operator_diagonal(sys: DiscreteSystem) -> np.ndarray:
    """Diagonal of the stencil operator (used by Jacobi and SSOR)."""
    n, nxy = sys.grid.n_cells, sys.grid.nx * sys.grid.ny
    d = np.zeros(n, dtype=sys.dtype)
    for s, t in sys.bands():
        d[s:] += t
        d[:-s] += t
    d[:nxy] += sys.t_in
    d[n - nxy:] += sys.t_out
    return d


def build_rhs(
    sys: DiscreteSystem,
    dirichlet_in=None,
    dirichlet_out=None,
) -> np.ndarray:
    """Right-hand side carrying the Dirichlet data.

    Defaults to the constant potentials of the boundary config; pass (ny, nx)
    arrays to impose spatially varying data (face-center samples), as the
    manufactured-solution study does.
    """
    g = sys.grid
    b = np.zeros(g.shape, dtype=sys.dtype)
    p_in = sys.boundary.p_in if dirichlet_in is None else dirichlet_in
    p_out = sys.boundary.p_out if dirichlet_out is None else dirichlet_out
    b[0] = sys.layer_in() * p_in
    b[-1] += sys.layer_out() * p_out
    return b.reshape(-1)


def add_source(sys: DiscreteSystem, b: np.ndarray, source) -> np.ndarray:
    """Add midpoint-rule source samples; the h^3 cell volume cancels against
    the scaling already applied to the bilinear form."""
    grid = sys.grid
    samples = np.asarray(source(*_center_vectors(grid)), dtype=sys.dtype)
    if not np.all(np.isfinite(samples)):
        raise ValueError("source sampler returned non-finite values")
    return (b.reshape(grid.shape) + np.broadcast_to(samples, grid.shape)).reshape(-1)


def reconstruct_boundary_flux(
    sys: DiscreteSystem, p: np.ndarray, side: str = "out"
) -> np.ndarray:
    """Unscaled z-flux through the Dirichlet faces, one value per (i, j) column.

    With the zero-ghost convention the outflow face flux reduces to
    2*kz*(p_cell - p_out)/hz, and symmetrically 2*kz*(p_in - p_cell)/hz on the
    inflow side. The unscaled kz is recovered from the stored boundary term.
    """
    g = sys.grid
    v = p.reshape(g.shape)
    hz = sys.dtype.type(g.hz)
    if side == "out":
        # t_out = 2*kz/hz^2  ->  2*kz/hz = t_out*hz
        return (sys.layer_out() * hz * (v[-1] - sys.dtype.type(sys.boundary.p_out))).reshape(-1)
    if side == "in":
        return (sys.layer_in() * hz * (sys.dtype.type(sys.boundary.p_in) - v[0])).reshape(-1)
    raise ValueError(f"side must be 'in' or 'out', got {side!r}")


def effective_conductivity(sys: DiscreteSystem, fluxes: np.ndarray) -> float:
    """Homogenized conductivity along z from the outflow face fluxes."""
    g = sys.grid
    drop = sys.boundary.p_in - sys.boundary.p_out
    return float(g.lz * np.sum(fluxes, dtype=np.float64) / (g.nx * g.ny * drop))


def l2_error_midpoint(grid: GridSpec, p: np.ndarray, exact) -> float:
    """Midpoint-quadrature L2 distance between a cell vector and a sampler."""
    diff = p.reshape(grid.shape) - np.broadcast_to(exact(*_center_vectors(grid)), grid.shape)
    return float(np.sqrt(np.sum(diff.astype(np.float64) ** 2) * grid.hx * grid.hy * grid.hz))
