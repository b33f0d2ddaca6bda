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
    so freshly added parameters bias-correct from their first step.
    """
    if lr <= 0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    for p in params:
        p.step_count += 1
        t = p.step_count
        g = p.grad
        p.adam_m *= BETA1
        p.adam_m += (1.0 - BETA1) * g
        p.adam_v *= BETA2
        p.adam_v += (1.0 - BETA2) * (g * g)
        m_hat = p.adam_m / (1.0 - BETA1**t)
        v_hat = p.adam_v / (1.0 - BETA2**t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + EPS)
        p.grad[...] = 0.0


def zero_grads(params: list[Parameter]) -> None:
    for p in params:
        p.grad[...] = 0.0
