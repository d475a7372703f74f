import numpy as np
import pytest

from etchomo import Axis, BoundaryConfig, GridSpec, OrthotropicField
from etchomo.grid import _center_vectors
from etchomo.oracles import DENSE_GUARD


@pytest.fixture
def boundary_z() -> BoundaryConfig:
    return BoundaryConfig(Axis.Z, 1.0, 0.0)


def random_field(rng, nx, ny, nz, contrast=10.0, dtype=np.float64) -> OrthotropicField:
    """Log-uniform coefficients in [1/contrast, contrast], one stream per call."""
    grid = GridSpec(nx, ny, nz)
    k = np.exp(rng.uniform(-np.log(contrast), np.log(contrast), (3, grid.n_cells)))
    return OrthotropicField(grid, *(k.astype(dtype)))


def constant_field(nx, ny, nz, kx=1.0, ky=1.0, kz=1.0, lengths=(1.0, 1.0, 1.0)) -> OrthotropicField:
    grid = GridSpec(nx, ny, nz, *lengths)
    n = grid.n_cells
    return OrthotropicField(grid, np.full(n, kx), np.full(n, ky), np.full(n, kz))


def cell_centers(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinate arrays (X, Y, Z), each shaped (nz, ny, nx)."""
    return tuple(np.broadcast_to(c, grid.shape).copy() for c in _center_vectors(grid))


def linear_index(i: int, j: int, k: int, grid: GridSpec) -> int:
    """Flat offset of cell (i, j, k) in the x-fastest layout."""
    if not (0 <= i < grid.nx and 0 <= j < grid.ny and 0 <= k < grid.nz):
        raise IndexError(
            f"cell ({i}, {j}, {k}) outside grid {grid.nx}x{grid.ny}x{grid.nz}"
        )
    return (k * grid.ny + j) * grid.nx + i


def scale_field(field: OrthotropicField):
    """Per-cell scaled coefficients k/h^2, one (nz, ny, nx) array per axis."""
    g = field.grid
    dtype = field.dtype
    sx = field.cube("kx") / dtype.type(g.hx) ** 2
    sy = field.cube("ky") / dtype.type(g.hy) ** 2
    sz = field.cube("kz") / dtype.type(g.hz) ** 2
    return sx, sy, sz


def band_views(grid: GridSpec, name: str, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(faces, wraps) of the n-long band `name` ("tx", "ty" or "tz") as views
    of its (nz, ny, nx) cube: the faces below the last index of the band's
    axis, shaped (nz, ny, nx-1), (nz, ny-1, nx) or (nz-1, ny, nx), and the
    wrap entries at i = nx-1, j = ny-1 or k = nz-1."""
    lead = (slice(None),) * "zyx".index(name[1])
    v = t.reshape(grid.shape)
    return v[lead + (slice(None, -1),)], v[lead + (slice(-1, None),)]


def dct1d_ref_backward(uh: np.ndarray) -> np.ndarray:
    """Direct-summation backward transform (oracle; O(N^2))."""
    uh = np.asarray(uh, dtype=np.float64)
    n = uh.size
    i = np.arange(n)
    weights = np.where(i == 0, 0.5, 1.0)
    table = np.cos(np.pi * (2 * i[:, None] + 1) * i[None, :] / (2 * n))
    return (2.0 / n) * (table @ (weights * uh))


def dense_block(grid: GridSpec, refs, i: int, j: int, dtype=np.float64) -> np.ndarray:
    """Explicit (nz, nz) matrix of transformed mode (i, j) of the reference
    operator with constants `refs`, each entry rounded to `dtype` as
    FctPreconditioner rounds it: the shift kx*wx[i] + ky*wy[j] and the
    z-chain's diagonal apart, then their sum."""
    nx, ny, nz = grid.nx, grid.ny, grid.nz
    r = np.dtype(dtype).type
    wx = 2.0 * (1.0 - np.cos(np.arange(nx) * np.pi / nx))
    wy = 2.0 * (1.0 - np.cos(np.arange(ny) * np.pi / ny))
    shift = r(wx[i] * refs.kx_ref + wy[j] * refs.ky_ref)
    diag = np.full(nz, 2.0 * refs.kz_ref)
    if nz == 1:
        diag[0] = 2.0 * refs.kin_ref + 2.0 * refs.kout_ref
    else:
        diag[0] = refs.kz_ref + 2.0 * refs.kin_ref
        diag[-1] = refs.kz_ref + 2.0 * refs.kout_ref
    t = np.diag((diag.astype(dtype) + shift).astype(np.float64))
    off = np.full(nz - 1, float(r(-refs.kz_ref)))
    return t + np.diag(off, 1) + np.diag(off, -1)


def condition_estimate(
    mat: np.ndarray, mat_ref: np.ndarray | None = None
) -> tuple[float, float, float]:
    """Extreme eigenvalues and condition number of a dense SPD matrix, or of
    the pencil (mat, mat_ref) when a reference matrix is supplied."""
    import scipy.linalg as sla

    mat = np.asarray(mat, dtype=np.float64)
    if mat.shape[0] > DENSE_GUARD:
        raise ValueError(f"eigen estimates capped at {DENSE_GUARD} unknowns")
    if mat_ref is None:
        vals = sla.eigh(mat, eigvals_only=True)
    else:
        try:
            vals = sla.eigh(mat, np.asarray(mat_ref, dtype=np.float64), eigvals_only=True)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"reference matrix is singular or indefinite: {exc}") from exc
    lam_min, lam_max = float(vals[0]), float(vals[-1])
    return lam_min, lam_max, lam_max / lam_min
