"""Adam updates with bias correction, one network (`ParamGroup`) at a time."""

from __future__ import annotations

import numpy as np

from .autodiff import BLOCK, ParamGroup
from .errors import ConfigError

BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


def adam_step(params: ParamGroup, lr: float) -> None:
    """One Adam update of a network from its accumulated gradient.

    The group holds one step count for the bias correction. Its buffers are
    walked in blocks of `BLOCK` elements, in place, with one scratch block:
    the spent gradient holds the denominator, and is zeroed afterwards. The
    float operations are the textbook ones, in order:
    m = β1·m + (1−β1)·g, v = β2·v + (1−β2)·g², then
    θ −= lr·(m / (1−β1ᵗ)) / (√(v / (1−β2ᵗ)) + ε).
    """
    if lr <= 0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    params.step_count += 1
    t = params.step_count
    correct1, correct2 = 1.0 - BETA1**t, 1.0 - BETA2**t
    size = params.data.size
    scratch = np.empty(min(size, BLOCK))
    for start in range(0, size, BLOCK):
        theta, g, m, v = (
            buf[start : start + BLOCK] for buf in (params.data, params.grad, params.adam_m, params.adam_v)
        )
        tmp = np.multiply(g, g, out=scratch[: g.size])
        tmp *= 1.0 - BETA2
        v *= BETA2
        v += tmp
        g *= 1.0 - BETA1
        m *= BETA1
        m += g
        # g is spent: it becomes sqrt(v_hat) + eps, and tmp the scaled m_hat
        np.divide(v, correct2, out=g)
        np.sqrt(g, out=g)
        g += EPS
        np.divide(m, correct1, out=tmp)
        tmp *= lr
        tmp /= g
        theta -= tmp
        g.fill(0.0)


def zero_grads(params: ParamGroup) -> None:
    """Zero a network's gradients: one fill of its gradient buffer."""
    params.grad.fill(0.0)
