"""Adam parameter updates with bias correction."""

from __future__ import annotations

import numpy as np

from .autodiff import Parameter
from .errors import ConfigError

BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


def adam_step(params: list[Parameter], lr: float) -> None:
    """One Adam update per parameter from its accumulated gradient.

    Gradients are zeroed afterwards; each parameter keeps its own step count
    so freshly added parameters bias-correct from their first step. Works in
    place with one temporary per parameter: the spent gradient buffer holds
    the denominator. The float operations are the textbook ones, in order:
    m = β1·m + (1−β1)·g, v = β2·v + (1−β2)·g², then
    θ −= lr·(m / (1−β1ᵗ)) / (√(v / (1−β2ᵗ)) + ε).
    """
    if lr <= 0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    for p in params:
        p.step_count += 1
        t = p.step_count
        g, m, v = p.grad, p.adam_m, p.adam_v
        tmp = g * g
        tmp *= 1.0 - BETA2
        v *= BETA2
        v += tmp
        g *= 1.0 - BETA1
        m *= BETA1
        m += g
        # g is spent: it becomes sqrt(v_hat) + eps, and tmp the scaled m_hat
        np.divide(v, 1.0 - BETA2**t, out=g)
        np.sqrt(g, out=g)
        g += EPS
        np.divide(m, 1.0 - BETA1**t, out=tmp)
        tmp *= lr
        tmp /= g
        p.data -= tmp
        g[...] = 0.0


def zero_grads(params: list[Parameter]) -> None:
    for p in params:
        p.grad[...] = 0.0
