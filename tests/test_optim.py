import numpy as np
import pytest

from xmodal import autodiff as ad
from xmodal.errors import ConfigError
from xmodal.optim import BETA1, BETA2, EPS, adam_step, zero_grads


def test_zero_gradient_leaves_parameters_unchanged():
    p = ad.Parameter(np.array([[1.0, -2.0]]))
    before = p.data.copy()
    adam_step([p], lr=0.1)
    assert np.array_equal(p.data, before)


def test_first_step_moves_by_learning_rate():
    # with g=1 the bias-corrected m_hat / sqrt(v_hat) is exactly 1
    p = ad.Parameter(np.array([[5.0]]))
    p.grad[...] = 1.0
    adam_step([p], lr=0.1)
    assert p.data[0, 0] == pytest.approx(5.0 - 0.1, abs=1e-8)
    assert p.step_count == 1
    assert np.array_equal(p.grad, np.zeros((1, 1)))


def test_converges_on_convex_quadratic():
    # the gradient of (w - 3)^2, set by hand
    w = ad.Parameter(np.array([[0.0]]))
    for _ in range(100):
        w.grad += 2.0 * (w.data - 3.0)
        adam_step([w], lr=0.1)
    assert abs(w.data[0, 0] - 3.0) < 0.1


def test_rejects_nonpositive_learning_rate():
    p = ad.Parameter(np.zeros((1, 1)))
    with pytest.raises(ConfigError):
        adam_step([p], lr=0.0)
    with pytest.raises(ConfigError):
        adam_step([p], lr=-1.0)


def test_step_count_monotone_per_parameter():
    p = ad.Parameter(np.zeros((2, 2)))
    q = ad.Parameter(np.zeros((1, 1)))
    adam_step([p], lr=0.01)
    adam_step([p, q], lr=0.01)
    assert p.step_count == 2
    assert q.step_count == 1


def test_zero_grads_clears_accumulation():
    p = ad.Parameter(np.ones((1, 2)))
    p.grad += 1.0
    p.grad += 1.0
    zero_grads([p])
    assert np.array_equal(p.grad, np.zeros((1, 2)))


def test_matches_the_textbook_update_bitwise():
    # the in-place update keeps the textbook's float operations and order
    rng = np.random.default_rng(4)
    shapes = [(5, 3), (1, 3), (3, 1), (1, 1)]
    params = [ad.Parameter(rng.normal(size=s)) for s in shapes]
    want = [(p.data.copy(), np.zeros(s), np.zeros(s)) for p, s in zip(params, shapes)]
    lr = 0.01
    for t in range(1, 4):
        grads = [rng.normal(size=s) for s in shapes]
        for p, g in zip(params, grads):
            p.grad[...] = g
        adam_step(params, lr)
        for i, g in enumerate(grads):
            data, m, v = want[i]
            m = BETA1 * m + (1.0 - BETA1) * g
            v = BETA2 * v + (1.0 - BETA2) * (g * g)
            m_hat = m / (1.0 - BETA1**t)
            v_hat = v / (1.0 - BETA2**t)
            want[i] = (data - lr * m_hat / (np.sqrt(v_hat) + EPS), m, v)
    for p, (data, m, v) in zip(params, want):
        assert np.array_equal(p.data, data)
        assert np.array_equal(p.adam_m, m)
        assert np.array_equal(p.adam_v, v)
        assert not p.grad.any()
