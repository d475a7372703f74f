"""Preconditioned conjugate-gradient driver and its solve report.

The dense Cholesky oracle that checks it lives in `oracles`."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .preconditioner import ReferenceParams


class PcgBreakdownError(RuntimeError):
    """Loss of positive definiteness detected mid-iteration."""

    def __init__(self, message: str, iteration: int):
        super().__init__(f"{message} at iteration {iteration}")
        self.iteration = iteration


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
    argument or an internal buffer that it reuses on the next call. `b` is
    left untouched unless `overwrite_b` is true; then it holds the running
    residual, which saves a grid array for callers that no longer need b.
    """
    if not rtol > 0.0:
        raise ValueError("rtol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
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
    history = [float(np.linalg.norm(r)) / norm_b]
    iteration = 0
    while history[-1] > rtol and iteration < max_iter:
        z = apply_A(w)
        if any(np.may_share_memory(z, v) for v in (w, r, p)):
            z = z.copy()
        zw = float(np.dot(z, w))
        if zw <= 100.0 * eps * float(np.linalg.norm(z)) * float(np.linalg.norm(w)):
            raise PcgBreakdownError("operator inner product lost positivity", iteration + 1)
        alpha = b.dtype.type(rho / zw)
        z *= alpha
        r -= z
        np.multiply(w, alpha, out=z)
        p += z
        del z
        relres = float(np.linalg.norm(r)) / norm_b
        if not np.isfinite(relres):
            raise PcgBreakdownError("residual is not finite", iteration + 1)
        history.append(relres)
        iteration += 1
        if relres <= rtol:
            break
        z = apply_M_inv(r)
        rho_next = float(np.dot(r, z))
        if rho_next <= 0.0:
            raise PcgBreakdownError("preconditioned inner product not positive", iteration)
        w *= b.dtype.type(rho_next / rho)
        w += z
        del z
        rho = rho_next
    return p, SolveReport(iteration, history[-1] <= rtol, history)

