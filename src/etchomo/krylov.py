"""Preconditioned conjugate-gradient driver and its solve report.

The dense Cholesky oracle that checks it lives in `oracles`."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import _BLOCK_BYTES, ConfigError
from .preconditioner import ReferenceParams


class PcgBreakdownError(RuntimeError):
    """Loss of positive definiteness detected mid-iteration."""

    def __init__(self, message: str, iteration: int):
        super().__init__(f"{message} at iteration {iteration}")
        self.iteration = iteration


def _check_max_iter(max_iter) -> None:
    """`max_iter` must be an integer >= 1: pcg stops on iteration ==
    max_iter, so any other bound would never apply."""
    if not (isinstance(max_iter, (int, np.integer)) and max_iter >= 1):
        raise ConfigError(f"max_iter must be an integer >= 1, got {max_iter!r}")


@dataclass
class SolveReport:
    """Outcome of one solve: iteration history plus pipeline metadata. `pcg`
    leaves `precision` and `preconditioner` None; the pipeline fills them in."""

    iterations: int
    converged: bool
    relative_residuals: list[float] = field(default_factory=list)
    kappa_eff: float | None = None
    prep_seconds: float = 0.0
    exec_seconds: float = 0.0
    precision: str | None = None
    preconditioner: str | None = None
    ref_params: ReferenceParams | None = None
    l2_error: float | None = None


def pcg(
    apply_A,
    apply_M_inv,
    b: np.ndarray,
    rtol: float,
    max_iter: int = 1024,
    overwrite_b: bool = False,
) -> tuple[np.ndarray, SolveReport]:
    """Conjugate gradients on A p = b with a fixed SPD preconditioner.

    One operator and one preconditioner application per iteration; exits when
    the 2-norm of the running residual drops below rtol relative to |b|, or at
    max_iter. The history records the relative residual at every step starting
    from the initial one, so iterations == len(history) - 1. Starts from the
    zero vector.

    The vector updates run in place, so an iteration allocates no grid array
    beyond the results of apply_A and apply_M_inv. pcg scales the array that
    apply_A returns (after copying it if it shares memory with a work vector)
    and only reads the one apply_M_inv returns, so either may hand back its
    argument or an internal buffer that it reuses on the next call. The two
    may even share one buffer, since each result is dead before the other
    callback runs. `b` is left untouched unless `overwrite_b` is true; then
    it holds the running residual, which saves a grid array for callers that
    no longer need b.

    Outside the callbacks an iteration runs three vector phases, each over
    chunks of `_BLOCK_BYTES` per vector, so that all the ops of a phase find
    a chunk in cache and each vector is read from memory once per phase:
    (A) after z = A w, the sums z.w, |z|^2 and |w|^2 of the breakdown guard;
    (B) z *= alpha; r -= z, and |r|^2, in the operator's output z;
    (D) t = alpha w; p += t; w = beta w + z' with z' = M^-1 r, where t is
    one chunk of scratch, so w is read once per iteration. rho' = r.z' is
    one whole-vector dot, since beta needs it before (D). The iteration that
    stops, on rtol or on max_iter, skips M^-1 and runs (D) as t = alpha w;
    p += t alone. The partial sums are added in Python floats, so a history
    entry is the square root of the chunk-summed squares of r over |b|; the
    first entry is 1 exactly, since r = b there. The updates give the bits
    of whole-vector updates; an f64 system of at most one chunk (32768
    cells) also keeps the bits of whole-vector reductions.
    """
    if not rtol > 0.0:
        raise ValueError("rtol must be positive")
    _check_max_iter(max_iter)
    b = np.asarray(b)
    eps = float(np.finfo(b.dtype).eps)
    norm_b = float(np.linalg.norm(b))
    if not np.isfinite(norm_b):
        raise PcgBreakdownError("norm of b overflows the working precision", 0)
    p = np.zeros_like(b)
    if norm_b == 0.0:
        return p, SolveReport(0, True, [0.0])

    r = b if overwrite_b else b.copy()
    w = apply_M_inv(r).copy()
    rho = float(np.dot(r, w))
    if rho <= 0.0:
        raise PcgBreakdownError("preconditioned inner product not positive", 0)
    step = max(1, _BLOCK_BYTES // b.itemsize)
    # each chunk's slice and its views of the three work vectors
    chunks = [(slice(a, a + step), r[a:a + step], p[a:a + step], w[a:a + step])
              for a in range(0, b.size, step)]
    history = [1.0]
    iteration = 0
    while history[-1] > rtol:
        z = apply_A(w)
        if any(np.may_share_memory(z, v) for v in (w, r, p)):
            z = z.copy()
        zw = zz = ww = 0.0
        for s, _, _, wc in chunks:
            zc = z[s]
            zw += float(np.dot(zc, wc))
            zz += float(np.dot(zc, zc))
            ww += float(np.dot(wc, wc))
        if zw <= 100.0 * eps * math.sqrt(zz) * math.sqrt(ww):
            raise PcgBreakdownError("operator inner product lost positivity", iteration + 1)
        alpha = b.dtype.type(rho / zw)
        rr = 0.0
        for s, rc, _, _ in chunks:
            zc = z[s]
            zc *= alpha
            rc -= zc
            rr += float(np.dot(rc, rc))
        del z, zc
        relres = math.sqrt(rr) / norm_b
        if not np.isfinite(relres):
            raise PcgBreakdownError("residual is not finite", iteration + 1)
        history.append(relres)
        iteration += 1
        stop = relres <= rtol or iteration == max_iter
        if not stop:
            z = apply_M_inv(r)
            rho_next = float(np.dot(r, z))
            if rho_next <= 0.0:
                raise PcgBreakdownError("preconditioned inner product not positive", iteration)
            beta = b.dtype.type(rho_next / rho)
            rho = rho_next
        # allocated per phase, so the scratch is not live while a callback
        # runs and adds nothing to the solve's peak memory
        scratch = np.empty(min(step, b.size), dtype=b.dtype)
        for s, _, pc, wc in chunks:
            tc = scratch[:pc.size]
            np.multiply(wc, alpha, out=tc)
            pc += tc
            if not stop:
                wc *= beta
                wc += z[s]
        del scratch, tc
        if stop:
            break
        del z
    return p, SolveReport(iteration, history[-1] <= rtol, history)
