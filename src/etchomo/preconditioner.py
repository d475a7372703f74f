"""Reference-medium preconditioner and classical baselines.

The reference operator replaces the heterogeneous transmissibilities with
five homogeneous constants (one per interior axis plus the two Dirichlet
layers). Under the plane-wise cosine transform it block-diagonalizes into
independent tridiagonal systems along z, one per transformed (x, y) mode.
`FctPreconditioner` solves all of them at once by odd-even cyclic reduction
(Hockney, J. ACM 12(1), 1965; Swarztrauber, SIAM Review 19(3), 1977): each
level eliminates every other layer of the chain through strided layer views,
so a solve takes O(log nz) vectorized steps instead of nz per-layer ones.
With five constants every reduced chain keeps a first, an interior and a
last diagonal, so the levels, built at set-up from the five constants, hold
a few planes each and no factor array; diagonal dominance keeps every
level's pivots positive.

Reference constants come either from a closed-form solution of the
log-domain min-max program over the coefficient statistics ("opt") or are
all ones ("one"). SSOR (one factored triangle of the stencil's bands),
Jacobi, and the identity round out the baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import _BLOCK_BYTES, ConfigError, GridSpec
from .tpfa import DiscreteSystem, operator_diagonal
from .transforms import fct_backward_batch, fct_forward_batch


@dataclass(frozen=True)
class CoefficientStats:
    """Extremes of the scaled face transmissibilities (interior, per axis) and
    of the scaled boundary-layer coefficients (without the stencil's factor 2,
    which the reference operator carries explicitly)."""

    kx_min: float
    kx_max: float
    ky_min: float
    ky_max: float
    kz_min: float
    kz_max: float
    kin_min: float
    kin_max: float
    kout_min: float
    kout_max: float

    def __post_init__(self):
        for lo, hi in self.groups().values():
            if not (0.0 < lo <= hi) or not math.isfinite(hi):
                raise ConfigError("stats must satisfy 0 < min <= max < inf")

    def groups(self) -> dict:
        return {
            "x": (self.kx_min, self.kx_max),
            "y": (self.ky_min, self.ky_max),
            "z": (self.kz_min, self.kz_max),
            "in": (self.kin_min, self.kin_max),
            "out": (self.kout_min, self.kout_max),
        }


@dataclass(frozen=True)
class ReferenceParams:
    """The five homogeneous reference constants plus the spectral-equivalence
    bounds they induce on the heterogeneous operator."""

    kx_ref: float
    ky_ref: float
    kz_ref: float
    kin_ref: float
    kout_ref: float
    lambda_lo: float = 1.0
    lambda_hi: float = 1.0

    def __post_init__(self):
        for name in ("kx_ref", "ky_ref", "kz_ref", "kin_ref", "kout_ref"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite")
        if not (0.0 < self.lambda_lo <= self.lambda_hi):
            raise ConfigError("need 0 < lambda_lo <= lambda_hi")

    @property
    def objective(self) -> float:
        return self.lambda_hi / self.lambda_lo

    def as_dict(self) -> dict:
        return {
            "kx": self.kx_ref,
            "ky": self.ky_ref,
            "kz": self.kz_ref,
            "kin": self.kin_ref,
            "kout": self.kout_ref,
            "lambda_lo": self.lambda_lo,
            "lambda_hi": self.lambda_hi,
        }


def coefficient_stats(sys: DiscreteSystem) -> CoefficientStats:
    """Exact extremes over the faces of the stored bands (their wrap entries
    excluded) and over the Dirichlet layers.

    They are the extremes the DiscreteSystem check found, so no array is
    scanned again. Degenerate axes (no faces) contribute a neutral group. The
    boundary extremes are halved in the arrays' dtype, which gives the bits of
    the extremes of t/2, because rounding is monotone.
    """
    ext = sys._extremes
    values = []
    for name in ("tx", "ty", "tz"):
        values += ext.get(name, (1.0, 1.0))
    for name in ("t_in", "t_out"):
        values += (v / 2.0 for v in ext[name])
    return CoefficientStats(*map(float, values))


def _bounds(stats: CoefficientStats, refs: dict) -> tuple[float, float]:
    lo = min(mn / refs[d] for d, (mn, mx) in stats.groups().items())
    hi = max(mx / refs[d] for d, (mn, mx) in stats.groups().items())
    return lo, hi


def solve_reference_lp(stats: CoefficientStats) -> ReferenceParams:
    """Optimal reference constants for the log-domain program

        min (hi - lo)  s.t.  c_d + lo <= log(min_d),  c_d + hi >= log(max_d)

    over the five direction groups d. Any feasible point has
    hi - lo >= log(max_d/min_d) for every d, and the per-group geometric mean
    c_d = log(sqrt(min_d*max_d)) with lo/hi = -/+ (max log-ratio)/2 attains the
    bound, so the optimum is available in closed form. A general-purpose LP
    solver in the tests guards this claim.
    """
    refs = {d: math.sqrt(mn * mx) for d, (mn, mx) in stats.groups().items()}
    lo, hi = _bounds(stats, refs)
    return ReferenceParams(refs["x"], refs["y"], refs["z"], refs["in"], refs["out"], lo, hi)


def ones_reference(stats: CoefficientStats) -> ReferenceParams:
    """All-ones reference constants with the bounds they induce on `stats`."""
    lo, hi = _bounds(stats, dict.fromkeys(("x", "y", "z", "in", "out"), 1.0))
    return ReferenceParams(1.0, 1.0, 1.0, 1.0, 1.0, lo, hi)


class FctPreconditioner:
    """The inverse reference operator: a forward cosine transform of each
    k-slice, one tridiagonal solve per transformed column, and the backward
    transform.

    Mode (q_x, q_y) has the z-chain of the five constants shifted by
    kx_ref*wx[q_x] + ky_ref*wy[q_y], with the eigen-weights
    w[q] = 2*(1-cos(q*pi/N)): one first, one interior and one last diagonal
    around the off-diagonal -kz_ref. Set-up reduces all the chains at once
    with `_reduce`, so it raises on a non-positive pivot before any apply,
    and keeps only the `levels` and `final` planes: O(log nz) planes in all.

    Every apply runs in one grid array, `workspace`, allocated on first use
    and returned as the result; each apply overwrites it. The transforms run
    unscaled: the forward leaves 4x the normalized coefficients, the solve is
    linear, and the backward takes the 4 back out, so the result has the
    bits of the normalized pair without its two scaling passes.
    """

    __slots__ = ("grid", "dtype", "levels", "final", "_work")

    def __init__(self, grid: GridSpec, refs: ReferenceParams, dtype=np.float64):
        self.grid = grid
        self.dtype = np.dtype(dtype)
        nx, ny, nz = grid.nx, grid.ny, grid.nz
        weights_x = 2.0 * (1.0 - np.cos(np.arange(nx) * np.pi / nx))
        weights_y = 2.0 * (1.0 - np.cos(np.arange(ny) * np.pi / ny))
        shift = weights_x[None, :] * refs.kx_ref + weights_y[:, None] * refs.ky_ref
        shift = shift.astype(self.dtype)
        kz = refs.kz_ref
        if nz == 1:
            diags = (2.0 * refs.kin_ref + 2.0 * refs.kout_ref,) * 3
        else:
            diags = (kz + 2.0 * refs.kin_ref, 2.0 * kz, kz + 2.0 * refs.kout_ref)
        first, inner, last = (self.dtype.type(d) + shift for d in diags)
        self.levels, self.final = _reduce(first, inner, last, self.dtype.type(-kz), nz)
        self._work = None

    @property
    def workspace(self) -> np.ndarray:
        """The (nz, ny, nx) array every apply writes its result into. A caller
        may use it as scratch between applies, e.g. for the operator's output
        in PCG, since its contents are dead once the next apply starts."""
        if self._work is None:
            self._work = np.empty(self.grid.shape, dtype=self.dtype)
        return self._work

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """`r` is left untouched unless it is the workspace; the result is the
        flat workspace, valid until the next apply."""
        r = np.asarray(r, dtype=self.dtype).reshape(self.grid.shape)
        work = fct_forward_batch(r, out=self.workspace, unscaled=True)
        thomas_solve_batch(self, work)
        return fct_backward_batch(work, out=work, unscaled=True).reshape(-1)


def _reduce(first, inner, last, off, nz: int) -> tuple[list, np.ndarray]:
    """The odd-even cyclic reduction of the nz-long chains with first
    diagonal `first`, interior diagonal `inner`, last diagonal `last` (one
    plane each, over every mode) and constant off-diagonal `off`:
    `(levels, final)`.

    Level l reduces the chain of layers 0, 2**l, 2*2**l, ... by
    eliminating its odd members. A chain with first diagonal F, interior
    diagonal D, last diagonal L and off-diagonal E keeps that form: with
    g = E/D, the survivors get F - gE, D - 2gE and E' = -gE, and the last
    one L - gE, or D - gE - (E/L)E if the eliminated layers include the
    last. So `levels[l]` is a pair `(mid, end)`: mid = (g, 1/D) for the
    interior odd layers, and end = (E/L, 1/L) for an eliminated last
    layer, each None when the level has no such layer. `final` is 1/F
    of the one layer left.

    Raises FloatingPointError, naming the first level whose diagonal
    planes hold a value that is not positive (NaN included).
    """
    n, levels = nz, []
    with np.errstate(all="ignore"):
        while True:
            diags = [first] + [inner] * (n >= 3) + [last] * (n >= 2)
            if not all(d.min() > 0 for d in diags):
                raise FloatingPointError(
                    f"non-positive pivot in tridiagonal solve at level {len(levels)}"
                )
            if n == 1:
                break
            mid = (off / inner, 1 / inner) if n >= 3 else None
            end = (off / last, 1 / last) if n % 2 == 0 else None
            levels.append((mid, end))
            if mid is None:  # n == 2: only the first layer is left
                first = first - end[0] * off
            else:
                ge = mid[0] * off
                if end is None:
                    last = last - ge
                else:  # the new last layer is an interior one
                    last = (inner - ge) - end[0] * off
                first, inner, off = first - ge, inner - 2 * ge, -ge
            n -= n // 2
    return levels, 1 / first


def thomas_solve_batch(pre: FctPreconditioner, rhs: np.ndarray) -> np.ndarray:
    """Solve every (i', j') z-column against its tridiagonal block, in place
    in `rhs` (a contiguous grid array); returns the solution in its shape.

    Runs odd-even cyclic reduction (Hockney 1965) with the levels that
    `pre` built at set-up, over the whole (ny, nx) plane at once. Level l works
    on the strided layer views x[::2**l]: the reduction takes g times each
    odd layer off its two even neighbours, left neighbour first, and the
    back-substitution sets each odd layer to x/D - g*(left + right) once its
    neighbours are solved. Each level walks its odd layers in chunks of one
    scratch buffer, of at most `_BLOCK_BYTES` and at most half the chain,
    and the result has the bits of a single chunk. A solve makes a few ufunc
    calls per level and chunk, not a few per layer.
    """
    levels, final = pre.levels, pre.final
    x = rhs.reshape(pre.grid.shape)
    plane = x[0]
    step = min(max(1, _BLOCK_BYTES // plane.nbytes), len(x) // 2)
    scratch = np.empty((step,) + plane.shape, dtype=x.dtype)
    # numpy copies the operands of a strided layer view through its ufunc
    # buffers whenever a plane holds fewer entries than the buffer; with the
    # buffer at most one plane (a multiple of 16, as numpy asks) the loops
    # run on the views directly, at about half the cost
    bufsize = np.setbufsize(max(16, min(np.getbufsize(), plane.size) // 16 * 16))
    try:
        for l, (mid, end) in enumerate(levels):
            even, odd = x[:: 2 << l], x[1 << l :: 2 << l]
            inner = len(odd) - (end is not None)
            if mid is not None:
                for a in range(0, inner, step):
                    b = min(a + step, inner)
                    t = np.multiply(mid[0], odd[a:b], out=scratch[: b - a])
                    right, left = even[a + 1 : b + 1], even[a:b]
                    np.subtract(right, t, out=right)
                    np.subtract(left, t, out=left)
            if end is not None:
                t = np.multiply(end[0], odd[-1], out=scratch[0])
                np.subtract(even[inner], t, out=even[inner])
        plane *= final
        for l, (mid, end) in reversed(list(enumerate(levels))):
            even, odd = x[:: 2 << l], x[1 << l :: 2 << l]
            inner = len(odd) - (end is not None)
            if end is not None:
                tail = odd[-1]
                tail *= end[1]
                tail -= np.multiply(end[0], even[inner], out=scratch[0])
            if mid is not None:
                for a in range(0, inner, step):
                    b = min(a + step, inner)
                    o = odd[a:b]
                    o *= mid[1]
                    t = np.add(even[a:b], even[a + 1 : b + 1], out=scratch[: b - a])
                    t *= mid[0]
                    o -= t
    finally:
        np.setbufsize(bufsize)
    return x.reshape(rhs.shape)


def _check_omega(omega: float) -> None:
    if not 0.0 < omega < 2.0:
        raise ConfigError(f"omega must lie in (0, 2), got {omega}")


class SsorPreconditioner:
    """Symmetric over-relaxation sweeps. The operator is symmetric, so the
    upper triangle D/omega - U is the transpose of D/omega - L: only that lower
    triangle is built (in f64, from the diagonal and the bands) and
    LU-factorized once with natural ordering, and each apply is a solve, a
    diagonal scaling and a transposed solve with the one factor. The scaling
    carries the factor (2 - omega)/omega of the SSOR inverse, stored with
    the diagonal, so no pass scales the result; at omega = 1 the stored
    product is the diagonal itself.

    The factorization takes diagonal pivots (`diag_pivot_thresh=0`). The
    triangle's diagonal d/omega is positive, and each of its columns is
    untouched by the columns before it, so SuperLU's default threshold
    pivoting would swap rows only where d/omega < |t| for a band entry t
    below the diagonal. Since d is at least every |t| of its row, that
    happens only at omega > 1, and the swaps create fill. With diagonal
    pivots the factor is plain substitution: no row swaps, no fill, and U is
    the diagonal. At omega <= 1 the diagonal wins every threshold test
    anyway, so the factor and every apply keep the default's bits. Panels
    are one column wide (`panel_size=1`): the triangle has no fill to batch,
    and wider panels only add dense n x panel work arrays to the set-up's
    peak memory."""

    def __init__(self, sys: DiscreteSystem, omega: float = 1.0):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        _check_omega(omega)
        diag = operator_diagonal(sys).astype(np.float64)
        offsets, bands = [0], [diag / omega]
        for s, t in sys.bands():
            offsets.append(-s)
            bands.append(np.negative(t, dtype=np.float64))
        lower = sp.diags(bands, offsets, format="csc")
        del bands  # the CSC triangle holds copies; free these before splu
        diag *= (2.0 - omega) / omega  # in place: no second diagonal at splu's peak
        self._diag = diag
        self._lu = spla.splu(lower, permc_spec="NATURAL", diag_pivot_thresh=0.0, panel_size=1)
        self._dtype = sys.dtype

    def __call__(self, r: np.ndarray) -> np.ndarray:
        y = self._lu.solve(np.asarray(r, dtype=np.float64))
        y *= self._diag
        y = self._lu.solve(y, trans="T")
        return y.astype(self._dtype, copy=False)


class JacobiPreconditioner:
    def __init__(self, sys: DiscreteSystem):
        self._inv_diag = 1.0 / operator_diagonal(sys)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return r * self._inv_diag


def identity_apply(r: np.ndarray) -> np.ndarray:
    return r.copy()
