"""Central finite-difference oracle used across the test suite.

Kept independent of the autodiff engine: it only reads and writes raw
parameter arrays and re-evaluates a loss callable.
"""

from __future__ import annotations

import numpy as np


def finite_difference_grad(loss_fn, param, eps: float = 1e-5) -> np.ndarray:
    """Central differences of loss_fn() w.r.t. every entry of param.data.

    loss_fn must be deterministic (re-seed any rng inside it) and must read
    the current value of param.data on each call.
    """
    base = param.data
    fd = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    for _ in it:
        ij = it.multi_index
        orig = base[ij]
        base[ij] = orig + eps
        up = loss_fn()
        base[ij] = orig - eps
        down = loss_fn()
        base[ij] = orig
        fd[ij] = (up - down) / (2.0 * eps)
    return fd


def max_rel_error(analytic: np.ndarray, fd: np.ndarray, floor: float = 1e-6) -> float:
    """Largest elementwise relative error.

    Elements where both sides are below `floor` count as matching: central
    differences carry ~1e-10 cancellation noise, so a relative criterion is
    meaningless for true zeros.
    """
    diff = np.abs(analytic - fd)
    scale = np.maximum(np.abs(analytic), np.abs(fd))
    rel = np.where(scale > floor, diff / np.maximum(scale, floor), 0.0)
    return float(rel.max())


def assert_grad_matches(loss_fn, params, backward_fn, tol: float = 1e-4, eps: float = 1e-5):
    """Check analytic gradients of every parameter in `params` against central differences.

    backward_fn() must populate param.grad for the same loss loss_fn() evaluates.
    The gradients are read before loss_fn first runs, so loss_fn may be a
    training step that adds to .grad itself. Returns the worst relative error.
    """
    for p in params:
        p.grad[...] = 0.0
    backward_fn()
    analytic = [p.grad.copy() for p in params]
    worst = 0.0
    for p, g in zip(params, analytic):
        fd = finite_difference_grad(loss_fn, p, eps=eps)
        err = max_rel_error(g, fd)
        worst = max(worst, err)
        assert err < tol, f"gradient mismatch: rel err {err:.3e} >= {tol:g}"
    for p in params:
        p.grad[...] = 0.0
    return worst
