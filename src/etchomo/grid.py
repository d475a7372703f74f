"""Voxel grid geometry, orthotropic conductivity fields, test-case generators,
and the ETCVOX binary container.

Cell data is laid out x-fastest: the flat offset of cell (i, j, k) is
(k*ny + j)*nx + i, so a flat array reshaped to (nz, ny, nx) indexes as
[k, j, i] with contiguous (x, y) planes per k-slice.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

VOX_MAGIC = b"ETCVOX01"
_VOX_HEADER = struct.Struct("<8s3I3dB")  # magic, nx ny nz, lx ly lz, dtype code
_DTYPE_BY_CODE = {0: np.dtype("<f8"), 1: np.dtype("<f4")}
_CODE_BY_KIND = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}
# bytes of each array that one block of a cache-blocked pass holds: the
# stencil's slabs of z-layers (`tpfa`), the product transforms' chunks of
# layers (`transforms`) and the chunks of the PCG vector phases (`krylov`)
_BLOCK_BYTES = 256 * 1024


class ConfigError(ValueError):
    """Raised when generator or solver parameters violate their contracts."""


class VoxFormatError(ValueError):
    """Malformed ETCVOX payload; carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class Axis(str, Enum):
    X = "x"
    Y = "y"
    Z = "z"


@dataclass(frozen=True)
class GridSpec:
    """Structured voxel grid: cell counts and physical edge lengths per axis."""

    nx: int
    ny: int
    nz: int
    lx: float = 1.0
    ly: float = 1.0
    lz: float = 1.0

    def __post_init__(self):
        for name in ("nx", "ny", "nz"):
            n = getattr(self, name)
            if not isinstance(n, (int, np.integer)) or n < 1:
                raise ConfigError(f"{name} must be a positive integer, got {n!r}")
        for name in ("lx", "ly", "lz"):
            length = float(getattr(self, name))
            if not np.isfinite(length) or length <= 0.0:
                raise ConfigError(f"{name} must be positive and finite, got {length!r}")

    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @property
    def hz(self) -> float:
        return self.lz / self.nz

    @property
    def shape(self) -> tuple[int, int, int]:
        """Array shape (nz, ny, nx) matching the x-fastest flat layout."""
        return (self.nz, self.ny, self.nx)

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny * self.nz


def _center_vectors(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell-centre coordinates (x, y, z) as vectors shaped (1, 1, nx),
    (1, ny, 1) and (nz, 1, 1): they broadcast to the coordinates of every
    cell without three full grids."""
    cx = (np.arange(grid.nx) + 0.5) * grid.hx
    cy = (np.arange(grid.ny) + 0.5) * grid.hy
    cz = (np.arange(grid.nz) + 0.5) * grid.hz
    return cx.reshape(1, 1, -1), cy.reshape(1, -1, 1), cz.reshape(-1, 1, 1)


def _positive_finite(a: np.ndarray) -> bool:
    """Whether every entry of a non-empty `a` is strictly positive and finite."""
    # min/max need no temporary arrays; a NaN makes both comparisons false
    return bool(a.min() > 0 and a.max() < np.inf)


def map_shared(fn, arrays) -> list:
    """Apply `fn` once per distinct array object, so components that share
    one array (an isotropic field) still share one array afterwards."""
    done = {}
    for a in arrays:
        if id(a) not in done:
            done[id(a)] = fn(a)
    return [done[id(a)] for a in arrays]


class OrthotropicField:
    """Per-cell conductivities (kx, ky, kz), strictly positive and finite.

    This is the one value check of a conductivity array. Arrays are flat
    (length grid.n_cells, x-fastest), and the field's own views are
    read-only, so a field can be shared across threads. A C-contiguous
    float64 or float32 argument is taken without a copy: the caller's array
    stays writable, and a write to it after construction reaches the field
    unchecked. Components passed as one array object
    (`OrthotropicField(grid, k, k, k)`) stay one array.
    """

    __slots__ = ("grid", "kx", "ky", "kz")

    def __init__(self, grid: GridSpec, kx, ky, kz):
        self.grid = grid
        named = (("kx", kx), ("ky", ky), ("kz", kz))

        def checked(arr):
            name = next(n for n, x in named if x is arr)
            a = np.ascontiguousarray(arr).reshape(-1)
            if a.size != grid.n_cells:
                raise ConfigError(
                    f"{name} has {a.size} entries, expected {grid.n_cells}"
                )
            if a.dtype not in (np.float64, np.float32):
                a = a.astype(np.float64)
            if not _positive_finite(a):
                raise ConfigError(f"{name} must be strictly positive and finite")
            a.setflags(write=False)
            return a

        arrays = map_shared(checked, (kx, ky, kz))
        if len({a.dtype for a in arrays}) != 1:
            raise ConfigError("kx, ky, kz must share one scalar dtype")
        self.kx, self.ky, self.kz = arrays

    @property
    def dtype(self) -> np.dtype:
        return self.kx.dtype

    def cube(self, component: str) -> np.ndarray:
        """Read-only (nz, ny, nx) view of one coefficient array."""
        return getattr(self, component).reshape(self.grid.shape)

    def astype(self, dtype) -> "OrthotropicField":
        dtype = np.dtype(dtype)
        if dtype == self.dtype:
            return self
        arrays = map_shared(lambda a: a.astype(dtype), (self.kx, self.ky, self.kz))
        return OrthotropicField(self.grid, *arrays)


@dataclass(frozen=True)
class BoundaryConfig:
    """Dirichlet direction and the two applied potentials; the four remaining
    faces are zero-flux by construction."""

    axis: Axis
    p_in: float
    p_out: float

    def __post_init__(self):
        try:
            object.__setattr__(self, "axis", Axis(self.axis))
        except ValueError:
            raise ConfigError(f"axis must be one of x, y, z, got {self.axis!r}") from None
        if not (np.isfinite(self.p_in) and np.isfinite(self.p_out)):
            raise ConfigError("p_in and p_out must be finite")
        if self.p_in == self.p_out:
            raise ConfigError("p_in must differ from p_out")


# ----------------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------------

# The argument checks of the generators, apart from the field builds so that
# a study can check every value of its sweep before the first solve.

# 10.0**psi overflows float64 from here on
_PSI_LIMIT = float(np.log10(np.finfo(np.float64).max))


def _check_integer(name: str, value) -> None:
    if not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def _check_positive_real(name: str, value) -> None:
    # a NaN fails both comparisons
    if not 0.0 < value < np.inf:
        raise ConfigError(f"{name} must be positive" if not value > 0.0
                          else f"{name} must be finite")


def _check_smooth(n: int) -> None:
    _check_integer("n", n)
    if n < 2:
        raise ConfigError("smooth problem needs n >= 2")


def _check_center_ball(n: int, kappa_inc: float) -> None:
    _check_integer("n", n)
    if n < 2:
        raise ConfigError("center-ball needs n >= 2")
    _check_positive_real("kappa_inc", kappa_inc)


def _check_random_balls(n, count, r_min, r_max, kappa_inc, seed) -> None:
    _check_integer("n", n)
    if n < 2:
        raise ConfigError("random-balls needs n >= 2")
    _check_integer("count", count)
    if count < 1:
        raise ConfigError("count must be >= 1")
    if not (0.0 < r_min <= r_max < 0.5):
        raise ConfigError("radii must satisfy 0 < r_min <= r_max < 1/2")
    _check_positive_real("kappa_inc", kappa_inc)
    _check_integer("seed", seed)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")


def _check_channels(cells_per_period: int, periods: int, psi: float) -> None:
    _check_integer("cells_per_period", cells_per_period)
    if cells_per_period < 8 or cells_per_period % 8 != 0:
        raise ConfigError("cells_per_period must be a positive multiple of 8")
    _check_integer("periods", periods)
    if periods < 1:
        raise ConfigError("periods must be >= 1")
    _check_positive_real("psi", psi)
    if not psi < _PSI_LIMIT:
        raise ConfigError(f"psi must be below {_PSI_LIMIT!r}, where 10**psi "
                          f"overflows float64, got {psi!r}")


def gen_smooth_problem(n: int):
    """Smooth verification problem on the unit cube.

    Coefficients K(x,y,z) = Diag(cos(pi*y)+2, 2*exp(z), 3*cos(pi*x)+4) sampled
    at cell centers, with the closed-form solution

        p(x, y, z) = cos(pi*x) * cos(pi*y) * exp(z).

    The matching volumetric source is f = -Div(K grad p). Derivation, term by
    term (each coefficient is constant along its own axis):

        d/dx [ kx * dp/dx ] = -pi^2 (cos(pi*y)+2) cos(pi*x) cos(pi*y) e^z
        d/dy [ ky * dp/dy ] = -2 pi^2 cos(pi*x) cos(pi*y) e^{2z}
        d/dz [ kz * dp/dz ] =  (3 cos(pi*x)+4) cos(pi*x) cos(pi*y) e^z

        f = pi^2 (cos(pi*y)+2) cos(pi*x) cos(pi*y) e^z
            + 2 pi^2 cos(pi*x) cos(pi*y) e^{2z}
            - (3 cos(pi*x)+4) cos(pi*x) cos(pi*y) e^z

    p has zero normal derivative on the four lateral faces, so the problem fits
    the mixed boundary setup with Dirichlet data sampled on the z-faces.

    Returns (field, exact, source); `exact` and `source` are vectorized
    callables of (x, y, z).
    """
    _check_smooth(n)
    grid = GridSpec(n, n, n)
    x, y, z = _center_vectors(grid)
    k = (np.cos(np.pi * y) + 2.0, 2.0 * np.exp(z), 3.0 * np.cos(np.pi * x) + 4.0)
    field = OrthotropicField(grid, *(np.broadcast_to(c, grid.shape) for c in k))

    def exact(x, y, z):
        return np.cos(np.pi * x) * np.cos(np.pi * y) * np.exp(z)

    def source(x, y, z):
        cc = np.cos(np.pi * x) * np.cos(np.pi * y)
        return (
            np.pi**2 * (np.cos(np.pi * y) + 2.0) * cc * np.exp(z)
            + 2.0 * np.pi**2 * cc * np.exp(2.0 * z)
            - (3.0 * np.cos(np.pi * x) + 4.0) * cc * np.exp(z)
        )

    return field, exact, source


def gen_center_ball(n: int, kappa_inc: float) -> OrthotropicField:
    """Unit cube with an isotropic spherical inclusion of radius 1/4 centered
    at (1/2, 1/2, 1/2); membership decided by the cell-center position."""
    _check_center_ball(n, kappa_inc)
    grid = GridSpec(n, n, n)
    x, y, z = _center_vectors(grid)
    inside = (x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2 <= 0.25**2
    k = np.where(inside, float(kappa_inc), 1.0)
    return OrthotropicField(grid, k, k, k)


def gen_random_balls(
    n: int,
    count: int,
    r_min: float,
    r_max: float,
    kappa_inc: float,
    seed: int,
) -> OrthotropicField:
    """Random isotropic ball pack on the unit cube; overlaps allowed.

    Deterministic in `seed`: for each ball the generator draws the center
    (three uniforms in (0,1)) then the radius (uniform in [r_min, r_max]),
    in that order, from a PCG64 stream.
    """
    _check_random_balls(n, count, r_min, r_max, kappa_inc, seed)
    rng = np.random.default_rng(np.uint64(seed))
    grid = GridSpec(n, n, n)
    x, y, z = _center_vectors(grid)
    inside = np.zeros(grid.shape, dtype=bool)
    for _ in range(count):
        cx, cy, cz = rng.random(3)
        r = r_min + (r_max - r_min) * rng.random()
        inside |= (x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2 <= r * r
    k = np.where(inside, float(kappa_inc), 1.0)
    return OrthotropicField(grid, k, k, k)


# Bundled random-pack configurations used by the comparison and precision
# studies; seeds fixed so every run regenerates identical geometry.
RANDOM_BALL_PRESETS = {
    "a": dict(count=40, r_min=0.05, r_max=0.15, kappa_inc=10.0, seed=11),
    "b": dict(count=80, r_min=0.04, r_max=0.10, kappa_inc=10.0, seed=23),
    "c": dict(count=16, r_min=0.10, r_max=0.20, kappa_inc=10.0, seed=37),
}


def gen_channels(cells_per_period: int, periods: int, psi: float) -> OrthotropicField:
    """Periodic tiling of a cube cell carrying three orthogonal square channels.

    Within the unit periodic cell the channels occupy the band (3/8, 5/8) in
    the two transverse directions and run the full length of the third; there
    the coefficients are Diag(2^psi, 5^psi, 10^psi), elsewhere
    Diag(0.01, 0.1, 1). The field tiles `periods` copies per axis, so the grid
    is (cells_per_period * periods)^3. cells_per_period must be a multiple of
    8 so the band edges coincide with cell boundaries.
    """
    _check_channels(cells_per_period, periods, psi)
    cpp = cells_per_period
    n = cpp * periods
    grid = GridSpec(n, n, n)
    local = np.arange(n) % cpp
    band = (local >= 3 * cpp // 8) & (local < 5 * cpp // 8)
    bi = band[None, None, :]  # x index
    bj = band[None, :, None]  # y index
    bk = band[:, None, None]  # z index
    in_channel = (bj & bk) | (bi & bk) | (bi & bj)
    kx = np.where(in_channel, 2.0**psi, 0.01)
    ky = np.where(in_channel, 5.0**psi, 0.1)
    kz = np.where(in_channel, 10.0**psi, 1.0)
    return OrthotropicField(grid, kx, ky, kz)


# ----------------------------------------------------------------------------
# binary container
# ----------------------------------------------------------------------------

def write_vox(field: OrthotropicField, destination) -> None:
    """Serialize a field to the ETCVOX container (single little-endian file)."""
    code = _CODE_BY_KIND[field.dtype]
    g = field.grid
    header = _VOX_HEADER.pack(
        VOX_MAGIC, g.nx, g.ny, g.nz, g.lx, g.ly, g.lz, code
    )
    scalar = _DTYPE_BY_CODE[code]
    with open(Path(destination), "wb") as fh:
        fh.write(header)
        for arr in (field.kx, field.ky, field.kz):
            fh.write(np.ascontiguousarray(arr, dtype=scalar).tobytes())


def read_vox(source) -> OrthotropicField:
    """Parse an ETCVOX container; raises VoxFormatError naming the byte offset
    of the first defect.

    Each array is read straight into its final buffer, so the peak memory is
    about the payload size. Components equal to kx share its array. The
    values are checked once, by `OrthotropicField`; only when it refuses
    them is the first bad entry in file order looked for.
    """
    with open(Path(source), "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_VOX_HEADER.size)
        if len(head) < _VOX_HEADER.size:
            raise VoxFormatError("truncated header", len(head))
        magic, nx, ny, nz, lx, ly, lz, code = _VOX_HEADER.unpack(head)
        if magic != VOX_MAGIC:
            raise VoxFormatError(f"bad magic {magic!r}", 0)
        if code not in _DTYPE_BY_CODE:
            raise VoxFormatError(f"unknown dtype code {code}", _VOX_HEADER.size - 1)
        try:
            grid = GridSpec(int(nx), int(ny), int(nz), lx, ly, lz)
        except ConfigError as exc:
            # the unsigned counts (from byte 8) can only be refused for a 0;
            # else a length (from byte 20) was refused
            raise VoxFormatError(f"bad dimensions: {exc}",
                                 8 if 0 in (nx, ny, nz) else 20) from exc
        scalar = _DTYPE_BY_CODE[code]
        count = grid.n_cells
        expected = _VOX_HEADER.size + 3 * count * scalar.itemsize
        if size != expected:
            raise VoxFormatError(
                f"payload holds {size} bytes, expected {expected}",
                min(size, expected),
            )
        names, arrays = ("kx", "ky", "kz"), []
        for idx, name in enumerate(names):
            start = _VOX_HEADER.size + idx * count * scalar.itemsize
            a = np.empty(count, dtype=scalar)
            got = fh.readinto(a)
            if got != a.nbytes:
                raise VoxFormatError(f"{name} payload ends early", start + got)
            a = a.astype(np.float64 if code == 0 else np.float32, copy=False)
            if arrays and np.array_equal(a, arrays[0]):
                a = arrays[0]
            arrays.append(a)
    try:
        return OrthotropicField(grid, *arrays)
    except ConfigError:
        # the arrays have the grid's size and one dtype, so a value was refused
        for idx, (name, a) in enumerate(zip(names, arrays)):
            bad = ~(np.isfinite(a) & (a > 0))
            if bad.any():
                first = int(np.argmax(bad))
                raise VoxFormatError(
                    f"non-positive {name} entry at cell {first}",
                    _VOX_HEADER.size + (idx * count + first) * scalar.itemsize,
                ) from None
        raise
