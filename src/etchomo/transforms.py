"""Cosine transforms over the (x, y) planes of a slab.

The batched 2D pair applies a type-2 DCT to every k-slice of a (nz, ny, nx)
slab, along x and along y, by one of two branches chosen by the plane shape:

* Planes whose sides are both at most `_MATRIX_MAX_SIDE` are transformed as
  two matrix products per slab of layers, `u[k] @ Mx.T` and then `My @ .`,
  with the (n, n) transform matrix of each axis. The slab is walked in
  chunks of about `_BLOCK_BYTES`, so the half-transformed layers sit in one
  small scratch buffer and a chunk may be written back over its own input.
* Wider planes go to scipy's pocketfft (an FFT-based fast cosine transform
  after Makhoul, IEEE Trans. ASSP 28(1), 1980), copied into the output
  buffer and transformed there with `overwrite_x=True`. This gives the bits
  of the allocating `dctn`/`idctn` call.

pocketfft's overhead per line dominates on short lines. The product branch
does O(n) work per entry against pocketfft's O(log n), so it wins only on
narrow planes. Forward transforms of slabs of about 885k cells, product time
over pocketfft time, f32/f64, with OpenBLAS on one thread of a 2-vCPU
shared Intel Xeon host: 0.34/0.34 at 24-wide planes (1536x24x24 in f32:
2.5 -> 0.9 ms), 0.59/0.60 at 64, 0.82/1.01 at 96 and 1.16/1.33 at 128. The
limit stays at 64, well below the f64 crossover.

Conventions, fixed once for every consumer in the package:

    forward:   u_hat[q] = sum_i u[i] * cos(pi*(2i+1)*q / (2N))
    backward:  u[i] = (2/N) * sum_q u_hat[q] * a[q] * cos(pi*(2i+1)*q / (2N))

with a[0] = 1/2 and a[q] = 1 otherwise, so backward(forward(u)) == u.
Both branches compute scipy's unnormalized DCT-II (or its inverse), which
carries a factor 2 per axis: the matrices are scipy's own transforms of the
identity, so both branches share one definition of the convention. One rule
then normalizes either result: a 1/4 pass after the forward and a 4 pass
after the backward. Both are powers of two and cost no rounding, away from
subnormals and overflow. `oracles.dct1d_ref_forward` is the O(N^2)
direct-summation check of the convention.

`unscaled=True` skips that pass: the forward result is 4x, the backward
result 1/4x the normalized one, bit for bit, and the pair still inverts. A
caller that runs the pair around a linear solve, as the FCT preconditioner
does, gets the bits of the normalized pair with two fewer full-grid passes.

An `out` must have the dtype of the (float-promoted) data, and its memory
bounds must not overlap the data's unless it is the same memory: the same
start, shape and strides, which transforms in place. The product branch
writes each chunk of `out` before it reads the input of the next, so any
other overlap would corrupt its result; both branches refuse it, at O(1)
cost per call.

`scipy.fft` is imported on first use: it also loads `scipy.special`, which
costs every `import etchomo` about 27 MB of RSS and a quarter of a second.
Both branches import it, the product branch when it builds its matrices.
That placement is deliberate: when the first solve did not load it, the set-up
of later solves in the process ran in a slower heap layout.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import _BLOCK_BYTES

_PLANE = (1, 2)
# planes with both sides at most this wide are transformed by matrix products
_MATRIX_MAX_SIDE = 64


def _narrow(ny: int, nx: int) -> bool:
    """Whether (ny, nx) planes are transformed by matrix products."""
    return max(ny, nx) <= _MATRIX_MAX_SIDE


@lru_cache(maxsize=None)
def _axis_matrix(n: int, dtype: np.dtype, forward: bool) -> np.ndarray:
    """The (n, n) matrix of the transform along one axis in `dtype`: scipy's
    unnormalized DCT-II (forward) or its inverse (backward) applied to the
    identity. Built in f64 and rounded once; read-only, since the cache hands
    the same array to every caller. Only sides up to `_MATRIX_MAX_SIDE` are
    built, so the cache stays small."""
    import scipy.fft

    eye = np.eye(n)
    if forward:
        mat = scipy.fft.dct(eye, type=2, axis=0)
    else:
        mat = scipy.fft.idct(eye, type=2, axis=0)
    mat = mat.astype(dtype)
    mat.setflags(write=False)
    return mat


def _same_memory(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays are views of the same elements in the same order."""
    return (a.__array_interface__["data"][0] == b.__array_interface__["data"][0]
            and a.shape == b.shape and a.strides == b.strides)


def _transform(data: np.ndarray, out, forward: bool, unscaled: bool) -> np.ndarray:
    data = np.asarray(data)
    if data.dtype not in (np.float32, np.float64):
        data = data.astype(np.float64)
    if out is None:
        out = np.empty(data.shape, dtype=data.dtype)
    elif out.dtype != data.dtype:
        raise ValueError(f"out has dtype {out.dtype}, expected {data.dtype}")
    elif np.may_share_memory(out, data) and not _same_memory(out, data):
        raise ValueError("out overlaps the data without being the same memory")
    nz, ny, nx = data.shape
    if _narrow(ny, nx):
        my = _axis_matrix(ny, data.dtype, forward)
        mx_t = _axis_matrix(nx, data.dtype, forward).T
        # the half-transformed layers of one chunk, at least one layer, in scratch
        layers = max(1, _BLOCK_BYTES // (ny * nx * data.itemsize))
        scratch = np.empty((min(layers, nz) * ny, nx), dtype=data.dtype)
        for a in range(0, nz, layers):
            b = min(a + layers, nz)
            half = scratch[: (b - a) * ny]
            np.matmul(data[a:b].reshape(-1, nx), mx_t, out=half)
            np.matmul(my, half.reshape(b - a, ny, nx), out=out[a:b])
    else:
        import scipy.fft

        if out is not data:
            np.copyto(out, data)
        if forward:
            got = scipy.fft.dctn(out, type=2, axes=_PLANE, overwrite_x=True)
        else:
            got = scipy.fft.idctn(out, type=2, axes=_PLANE, overwrite_x=True)
        # overwrite_x permits, but does not promise, a result in out's memory;
        # pocketfft hands that memory back as a new array object
        if not np.may_share_memory(got, out):
            np.copyto(out, got)
    if not unscaled:
        out *= 0.25 if forward else 4.0
    return out


def fct_forward_batch(
    data: np.ndarray, out: np.ndarray | None = None, *, unscaled: bool = False
) -> np.ndarray:
    """Forward-transform every k-slice of a (nz, ny, nx) slab.

    Returns the cosine coefficients [k, q_y, q_x] in `out`, a contiguous
    array of the slab's shape and float dtype, or in a new one when `out` is
    None. `out` must have that dtype and may be `data`'s own memory, which
    transforms in place, but must not overlap it otherwise; `data` is left
    untouched unless it is `out`. `unscaled=True` returns exactly 4x the
    coefficients, for use with the unscaled backward.
    """
    return _transform(data, out, True, unscaled)


def fct_backward_batch(
    coeff: np.ndarray, out: np.ndarray | None = None, *, unscaled: bool = False
) -> np.ndarray:
    """Backward-transform every k-slice of a (nz, ny, nx) coefficient slab.

    Inverse of fct_forward_batch including all normalization weights. Takes
    and fills `out` as fct_forward_batch does; `out` may be `coeff` itself,
    which transforms it in place. `unscaled=True` returns exactly 1/4x the
    result, the inverse of the unscaled forward.
    """
    return _transform(coeff, out, False, unscaled)
