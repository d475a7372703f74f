"""Cosine transforms over the (x, y) planes of a slab.

The batched 2D pair applies scipy's type-2 DCT (pocketfft, an FFT-based
fast cosine transform after Makhoul, IEEE Trans. ASSP 28(1), 1980) to every
k-slice of a (nz, ny, nx) slab. `oracles.dct1d_ref_forward` is the O(N^2)
direct-summation check of the same convention.

Conventions, fixed once for every consumer in the package:

    forward:   u_hat[q] = sum_i u[i] * cos(pi*(2i+1)*q / (2N))
    backward:  u[i] = (2/N) * sum_q u_hat[q] * a[q] * cos(pi*(2i+1)*q / (2N))

with a[0] = 1/2 and a[q] = 1 otherwise, so backward(forward(u)) == u.
scipy's unnormalized DCT-II carries a factor 2 per axis, hence the 1/4 and 4
below; both are powers of two and cost no rounding.

`scipy.fft` is imported on first use: it also loads `scipy.special`, which
costs every `import etchomo` about 27 MB of RSS and a quarter of a second.
"""

from __future__ import annotations

import numpy as np

_PLANE = (1, 2)


def fct_forward_batch(data: np.ndarray) -> np.ndarray:
    """Forward-transform every k-slice of a (nz, ny, nx) slab.

    Returns a new array of the same float dtype holding the cosine
    coefficients [k, q_y, q_x]; `data` is left untouched.
    """
    import scipy.fft

    out = scipy.fft.dctn(data, type=2, axes=_PLANE)
    out *= 0.25
    return out


def fct_backward_batch(coeff: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Backward-transform every k-slice of a (nz, ny, nx) coefficient slab.

    Inverse of fct_forward_batch including all normalization weights. Returns
    a new array and leaves `coeff` untouched unless `overwrite` is true; then
    `coeff` is destroyed, and for a contiguous float slab the result is
    computed in its buffer, so no new grid array is allocated.
    """
    import scipy.fft

    out = scipy.fft.idctn(coeff, type=2, axes=_PLANE, overwrite_x=overwrite)
    out *= 4.0
    return out
