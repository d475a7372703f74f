"""Finite-volume two-point flux discretization of the mixed problem.

The operator is kept matrix-free: a DiscreteSystem stores only the
h-scaled face transmissibilities (harmonic means of adjacent scaled cells)
plus the Dirichlet-face terms, and `apply_operator` evaluates the 7-point
stencil directly on the flat x-fastest vector. It walks the grid in slabs of
whole z-layers, about `_SLAB_BYTES` per array, so the fluxes of one slab live
in one small buffer instead of a full-grid array: within a slab each axis is
a flat offset (1, nx or nx*ny), its face fluxes are formed in one contiguous
pass, and the fluxes that would wrap from the end of one grid line into the
next are zeroed. The z-fluxes of a slab include the face-layer just below
it. `stencil_bands` yields the same couplings as whole bands, one per flat
offset, from which the SSOR baseline builds its triangles. Boundary
potentials enter through the right-hand side with ghost values fixed at zero
outside the domain.
"""

from __future__ import annotations

import numpy as np

from .grid import (
    Axis,
    BoundaryConfig,
    ConfigError,
    GridSpec,
    OrthotropicField,
    _center_vectors,
    _positive_finite_extremes,
)

# bytes of one slab per array in `apply_operator`; a slab is never less than
# one z-layer, and a grid smaller than one slab runs as one slab
_SLAB_BYTES = 256 * 1024


def _harmonic(inv_a: np.ndarray, inv_b: np.ndarray, h: float) -> np.ndarray:
    """Scaled harmonic means 2/(1/a + 1/b) / h^2 from the reciprocals of a
    and b, in one new array.

    The reciprocal form cannot overflow where 2*a*b would, and it is bitwise
    symmetric in (a, b).
    """
    t = np.add(inv_a, inv_b)
    np.divide(2.0, t, out=t)
    t /= t.dtype.type(h) ** 2
    return t


class DiscreteSystem:
    """Assembled transmissibilities for the canonical z-oriented problem.

    tx, ty, tz hold interior-face harmonic means, flat in x-fastest face
    order with sizes (nx-1)*ny*nz, nx*(ny-1)*nz, nx*ny*(nz-1). t_in and
    t_out hold 2*kz/hz^2 on the k=0 and k=nz-1 layers (size nx*ny each).
    The stored arrays are frozen read-only, so the (min, max) of each
    non-empty one, kept from the positivity check, stays valid for
    `coefficient_stats`.
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
        nx, ny, nz = grid.nx, grid.ny, grid.nz
        sizes = {
            "tx": (self.tx, (nx - 1) * ny * nz),
            "ty": (self.ty, nx * (ny - 1) * nz),
            "tz": (self.tz, nx * ny * (nz - 1)),
            "t_in": (self.t_in, nx * ny),
            "t_out": (self.t_out, nx * ny),
        }
        self._extremes = {}
        for name, (arr, want) in sizes.items():
            if arr.size != want:
                raise ConfigError(f"{name} has {arr.size} entries, expected {want}")
            if arr.size:
                extremes = _positive_finite_extremes(arr)
                if extremes is None:
                    raise ConfigError(f"{name} must be strictly positive")
                self._extremes[name] = extremes
            arr.setflags(write=False)

    @property
    def dtype(self) -> np.dtype:
        return self.tx.dtype

    # (nz, ny, nx-1) etc. views used by the stencil kernels
    def faces_x(self) -> np.ndarray:
        g = self.grid
        return self.tx.reshape(g.nz, g.ny, g.nx - 1)

    def faces_y(self) -> np.ndarray:
        g = self.grid
        return self.ty.reshape(g.nz, g.ny - 1, g.nx)

    def faces_z(self) -> np.ndarray:
        g = self.grid
        return self.tz.reshape(g.nz - 1, g.ny, g.nx)

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
    faces = []
    inv, inv_of = None, None
    for name, h, lo, hi in (
        ("kx", g.hx, np.s_[:, :, :-1], np.s_[:, :, 1:]),
        ("ky", g.hy, np.s_[:, :-1, :], np.s_[:, 1:, :]),
        ("kz", g.hz, np.s_[:-1, :, :], np.s_[1:, :, :]),
    ):
        # one reciprocal cube alive at a time (the old one is dropped before
        # the next is made), reused while the components share an array
        k = getattr(field, name)
        if k is not inv_of:
            inv = None
            inv, inv_of = np.reciprocal(k.reshape(g.shape)), k
        faces.append(_harmonic(inv[lo], inv[hi], h))
    del inv
    kz = field.cube("kz")
    hz2 = field.dtype.type(g.hz) ** 2
    t_in = 2.0 * (kz[0] / hz2)
    t_out = 2.0 * (kz[-1] / hz2)
    return DiscreteSystem(g, *faces, t_in, t_out, boundary)


def apply_operator(sys: DiscreteSystem, u: np.ndarray) -> np.ndarray:
    """Matrix-free stencil product: difference fluxes over interior faces plus
    the Dirichlet-face contributions on the k=0 and k=nz-1 layers.

    Works on the flat x-fastest vector, one slab of whole z-layers at a time
    (`_SLAB_BYTES` per array, at least one layer), so the fluxes of a slab sit
    in one small buffer that stays in cache. Along an axis with flat step s
    (1, nx or nx*ny) the flux over the face between cells p and p+s is
    t * (u[p+s] - u[p]), formed for every p of the slab in one contiguous pass.
    The x- and y-lines lie inside a layer: where p is among the last s cells
    of its line, p+s lies in the next line, so that flux is set to zero and
    the others are scaled by the face array viewed as (lines, line - s). Then
    out[s:] += flux and out[:-s] -= flux over the slab. The z-fluxes of slab
    layers [k0, k1) cover the faces from layer k0-1 up to layer k1, so the
    face-layer below the slab, which the slab before formed too, is formed
    again with the same bits.

    Each cell gets its terms in the order of the per-axis slice form (low
    face, then high face, for x, y and z, then the Dirichlet layers), so the
    result equals that form bit for bit. Adding or subtracting the zero wrap
    fluxes changes no bit of `out`, because `out` is never -0: it starts at
    +0, and a sum or difference is -0 only where its first operand is.
    """
    g = sys.grid
    n = g.n_cells
    if u.size != n:
        raise ValueError(f"vector has {u.size} entries, expected {n}")
    u = u.reshape(-1)
    nx, nxy, nz = g.nx, g.nx * g.ny, g.nz
    out = np.zeros(n, dtype=u.dtype)
    layers = max(1, _SLAB_BYTES // (nxy * u.itemsize))
    # layers + 1 face-layers for z; never more than the grid
    flux = np.empty(min((layers + 1) * nxy, n), dtype=u.dtype)
    inplane = [
        (faces.reshape(-1, line - s), s, line)
        for faces, s, line in ((sys.tx, 1, nx), (sys.ty, nx, nxy))
        if faces.size
    ]
    for k0 in range(0, nz, layers):
        k1 = min(k0 + layers, nz)
        a, b = k0 * nxy, k1 * nxy
        o = out[a:b]
        for faces, s, line in inplane:
            f = flux[: b - a - s]
            np.subtract(u[a + s:b], u[a:b - s], out=f)
            lines = flux[: b - a].reshape(-1, line)
            lines[:, line - s:] = 0
            lines[:, : line - s] *= faces[a // line:b // line]
            o[s:] += f
            o[:-s] -= f
        if nz > 1:
            # face-layers [j0, j1): the one below the slab and those inside it
            j0, j1 = max(k0 - 1, 0), min(k1, nz - 1)
            f = flux[: (j1 - j0) * nxy]
            np.subtract(u[(j0 + 1) * nxy:(j1 + 1) * nxy], u[j0 * nxy:j1 * nxy], out=f)
            f *= sys.tz[j0 * nxy:j1 * nxy]
            lo = max(k0, 1) * nxy
            out[lo:b] += f[: b - lo]
            out[a:j1 * nxy] -= f[(k0 - j0) * nxy:]
    out[:nxy] += sys.t_in * u[:nxy]
    out[n - nxy:] += sys.t_out * u[n - nxy:]
    return out


def operator_diagonal(sys: DiscreteSystem) -> np.ndarray:
    """Diagonal of the stencil operator (used by Jacobi and SSOR)."""
    g = sys.grid
    d = np.zeros(g.shape, dtype=sys.dtype)
    tx, ty, tz = sys.faces_x(), sys.faces_y(), sys.faces_z()
    d[:, :, 1:] += tx
    d[:, :, :-1] += tx
    d[:, 1:, :] += ty
    d[:, :-1, :] += ty
    d[1:, :, :] += tz
    d[:-1, :, :] += tz
    d[0] += sys.layer_in()
    d[-1] += sys.layer_out()
    return d.reshape(-1)


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


def stencil_bands(sys: DiscreteSystem):
    """Yield (s, t) for each axis that has faces: the flat step s (1, nx or
    nx*ny) and the n-s couplings t[p] between cells p and p+s, zero where
    p+s wraps into the next grid line, as in `apply_operator`.

    The operator's off-diagonals are -t at offsets -s and +s.
    """
    g = sys.grid
    n, nx, nxy = g.n_cells, g.nx, g.nx * g.ny
    for faces, s, line in ((sys.tx, 1, nx), (sys.ty, nx, nxy)):
        if faces.size:
            t = np.zeros(n, dtype=sys.dtype)
            t.reshape(-1, line)[:, : line - s] = faces.reshape(-1, line - s)
            yield s, t[: n - s]
    if sys.tz.size:
        yield nxy, sys.tz


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
