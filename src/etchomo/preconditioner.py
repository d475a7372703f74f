"""Reference-medium preconditioner and classical baselines.

The reference operator replaces the heterogeneous transmissibilities with
five homogeneous constants (one per interior axis plus the two Dirichlet
layers). Under the plane-wise cosine transform it block-diagonalizes into
independent tridiagonal systems along z, one per transformed (x, y) mode.
`FctPreconditioner` factors each block once, by non-pivoting symmetric
elimination T = U^T D U (diagonal dominance makes that safe), and every
apply reuses the factors: a unit-lower sweep, a pivot scaling (folded into
the lower sweep on wide planes) and a unit-upper sweep.

Reference constants come either from a closed-form solution of the
log-domain min-max program over the coefficient statistics ("opt") or are
all ones ("one"). SSOR (one factored triangle of the stencil's bands),
Jacobi, and the identity round out the baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import ConfigError, GridSpec
from .tpfa import DiscreteSystem, operator_diagonal
from .transforms import _narrow, fct_backward_batch, fct_forward_batch


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
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
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

    Stores the plane shift kx_ref*wx[q_x] + ky_ref*wy[q_y] of every mode,
    with the eigen-weights w[q] = 2*(1-cos(q*pi/N)), the z-chain diagonal and
    the off-diagonal, plus the elimination factors of every block, computed
    on first use by `elimination`. With the factors it keeps a list of their
    (ny, nx) plane views, one per layer, so the sweeps of
    `thomas_solve_batch` index no array per layer. The views share the
    factors' memory.

    Every apply runs in one grid array, `workspace`, allocated on first use
    and returned as the result; each apply overwrites it. The transforms run
    unscaled: the forward leaves 4x the normalized coefficients, the solve is
    linear, and the backward takes the 4 back out, so the result has the
    bits of the normalized pair without its two scaling passes on wide
    planes.
    """

    __slots__ = ("grid", "dtype", "plane_shift", "z_diag", "off", "_upper",
                 "_last_pivot", "_upper_planes", "_work")

    def __init__(self, grid: GridSpec, refs: ReferenceParams, dtype=np.float64):
        self.grid = grid
        self.dtype = np.dtype(dtype)
        nx, ny, nz = grid.nx, grid.ny, grid.nz
        weights_x = 2.0 * (1.0 - np.cos(np.arange(nx) * np.pi / nx))
        weights_y = 2.0 * (1.0 - np.cos(np.arange(ny) * np.pi / ny))
        shift = weights_x[None, :] * refs.kx_ref + weights_y[:, None] * refs.ky_ref
        self.plane_shift = shift.astype(self.dtype)
        zd = np.full(nz, 2.0 * refs.kz_ref)
        if nz == 1:
            zd[0] = 0.0
        else:
            zd[0] = refs.kz_ref
            zd[-1] = refs.kz_ref
        zd[0] += 2.0 * refs.kin_ref
        zd[-1] += 2.0 * refs.kout_ref
        self.z_diag = zd.astype(self.dtype)
        self.off = self.dtype.type(-refs.kz_ref)
        self._upper = None
        self._last_pivot = None
        self._upper_planes = None
        self._work = None

    @property
    def workspace(self) -> np.ndarray:
        """The (nz, ny, nx) array every apply writes its result into. A caller
        may use it as scratch between applies, e.g. for the operator's output
        in PCG, since its contents are dead once the next apply starts."""
        if self._work is None:
            self._work = np.empty(self.grid.shape, dtype=self.dtype)
        return self._work

    def elimination(self) -> tuple[np.ndarray, np.ndarray]:
        """The factors T = U^T D U of every block, computed once and cached.

        Returns `upper`, shape (nz-1, ny, nx), the superdiagonal of the unit
        upper factor U (off / pivot of layers 0..nz-2), and the last pivot
        plane, shape (ny, nx). The other pivots are off / upper. Raises
        FloatingPointError if a pivot is not positive (NaN included) or a
        multiplier is too small for the pivots to be recovered from it.
        The plane views `list(upper)` are cached alongside.
        """
        if self._upper is None:
            shift, off = self.plane_shift, self.off
            nz = self.grid.nz
            # `upper` holds the pivots of layers 0..nz-2 until every pivot is
            # checked, then the multipliers off / pivot. A bad pivot spoils
            # only the layers after it, and the check names the first one.
            upper = np.empty((nz - 1,) + shift.shape, dtype=self.dtype)
            pivot = self.z_diag[0] + shift
            scratch = np.empty_like(pivot)
            with np.errstate(all="ignore"):
                for k in range(nz - 1):
                    # pivot <- (z_diag[k+1] + shift) - off * (off / pivot)
                    upper[k] = pivot
                    np.divide(off, pivot, out=scratch)
                    scratch *= off
                    np.add(self.z_diag[k + 1], shift, out=pivot)
                    pivot -= scratch
            _check_pivots(upper, pivot)
            np.divide(off, upper, out=upper)
            # off < 0 < pivot, so every multiplier is negative
            if upper.size and not upper.max() <= -np.finfo(self.dtype).tiny:
                raise FloatingPointError(
                    "tridiagonal multiplier underflows the working precision"
                )
            self._upper, self._last_pivot = upper, pivot
            self._upper_planes = list(upper)
        return self._upper, self._last_pivot

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """`r` is left untouched unless it is the workspace; the result is the
        flat workspace, valid until the next apply."""
        r = np.asarray(r, dtype=self.dtype).reshape(self.grid.shape)
        work = fct_forward_batch(r, out=self.workspace, unscaled=True)
        thomas_solve_batch(self, work)
        return fct_backward_batch(work, out=work, unscaled=True).reshape(-1)


def _check_pivots(pivots: np.ndarray, last_pivot: np.ndarray) -> None:
    """Raise on the first layer whose pivot plane holds a value that is not
    positive (NaN included): one minimum per layer, over the (nz-1, ny, nx)
    pivots and the last plane."""
    lows = np.append(pivots.min(axis=(1, 2)), last_pivot.min())
    bad = np.flatnonzero(~(lows > 0))
    if bad.size:
        raise FloatingPointError(f"non-positive pivot in tridiagonal solve at layer {bad[0]}")


def thomas_solve_batch(pre: FctPreconditioner, rhs: np.ndarray) -> np.ndarray:
    """Solve every (i', j') z-column against its tridiagonal block, in place
    in `rhs` (a contiguous grid array); returns the solution in its shape.

    Uses the cached factors T = U^T D U over the whole (ny, nx) plane at once:
    a unit-lower sweep, a scaling by the inverse pivots and a unit-upper
    sweep. The sweeps walk the factors' cached plane views alongside a list
    of the right-hand side's layer views, with two ufunc calls into one
    plane of scratch per layer. On planes that the transforms treat as wide
    (see `transforms._narrow`), the lower sweep scales each layer right after
    it has fed the next one, while the layer is still in cache; on narrow
    planes, where two more calls per layer would cost more than they save,
    one whole-array pass scales all layers after the sweep. Both forms run
    the same operations in the same order. The first call on `pre` also
    factors the blocks.
    """
    upper, last_pivot = pre.elimination()
    planes, off = pre._upper_planes, pre.off
    x = rhs.reshape(pre.grid.shape)
    xs = list(x)
    scratch = np.empty(x.shape[1:], dtype=x.dtype)
    # 1/pivot_k = upper_k / off for every layer but the last
    if _narrow(*x.shape[1:]):
        for l, prev, xk in zip(planes, xs, xs[1:]):
            np.multiply(l, prev, scratch)
            np.subtract(xk, scratch, xk)
        x[:-1] *= upper
        x[:-1] /= off
    else:
        for l, prev, xk in zip(planes, xs, xs[1:]):
            np.multiply(l, prev, scratch)
            np.subtract(xk, scratch, xk)
            prev *= l
            prev /= off
    x[-1] /= last_pivot
    for l, nxt, xk in zip(reversed(planes), reversed(xs[1:]), reversed(xs[:-1])):
        np.multiply(l, nxt, scratch)
        np.subtract(xk, scratch, xk)
    return x.reshape(rhs.shape)


def _check_omega(omega: float) -> None:
    if not 0.0 < omega < 2.0:
        raise ConfigError(f"omega must lie in (0, 2), got {omega}")


class SsorPreconditioner:
    """Symmetric over-relaxation sweeps. The operator is symmetric, so the
    upper triangle D/omega - U is the transpose of D/omega - L: only that lower
    triangle is built (in f64, from the diagonal and the bands) and
    LU-factorized once with natural ordering, and each apply is a solve, a
    diagonal scaling and a transposed solve with the one factor.

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
        self.omega = float(omega)
        diag = operator_diagonal(sys).astype(np.float64)
        offsets, bands = [0], [diag / omega]
        for s, t in sys.bands():
            offsets.append(-s)
            bands.append(np.negative(t, dtype=np.float64))
        lower = sp.diags(bands, offsets, format="csc")
        del bands  # the CSC triangle holds copies; free these before splu
        self._diag = diag
        self._lu = spla.splu(lower, permc_spec="NATURAL", diag_pivot_thresh=0.0, panel_size=1)
        self._dtype = sys.dtype

    def __call__(self, r: np.ndarray) -> np.ndarray:
        w = self.omega
        y = self._lu.solve(np.asarray(r, dtype=np.float64))
        y *= self._diag
        y = self._lu.solve(y, trans="T")
        y *= (2.0 - w) / w
        return y.astype(self._dtype, copy=False)


class JacobiPreconditioner:
    def __init__(self, sys: DiscreteSystem):
        self._inv_diag = 1.0 / operator_diagonal(sys)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return r * self._inv_diag


def identity_apply(r: np.ndarray) -> np.ndarray:
    return r.copy()
