import itertools

import numpy as np
import pytest

from xmodal import autodiff as ad
from xmodal.errors import ConfigError
from xmodal.optim import BETA1, BETA2, BLOCK, EPS, adam_step, zero_grads


def group(*values):
    """A ParamGroup of one parameter per value, each set to its value."""
    g = ad.ParamGroup([ad.Parameter.unbound(np.shape(v)) for v in values])
    for p, v in zip(g, values):
        p.data[...] = v
    return g


def test_zero_gradient_leaves_parameters_unchanged():
    g = group([[1.0, -2.0]])
    before = g.data.copy()
    adam_step(g, lr=0.1)
    assert np.array_equal(g.data, before)


def test_first_step_moves_by_learning_rate():
    # with g=1 the bias-corrected m_hat / sqrt(v_hat) is exactly 1
    g = group([[5.0]])
    (p,) = g
    p.grad[...] = 1.0
    adam_step(g, lr=0.1)
    assert p.data[0, 0] == pytest.approx(5.0 - 0.1, abs=1e-8)
    assert g.step_count == 1
    assert np.array_equal(p.grad, np.zeros((1, 1)))


def test_converges_on_convex_quadratic():
    # the gradient of (w - 3)^2, set by hand
    g = group([[0.0]])
    (w,) = g
    for _ in range(100):
        w.grad += 2.0 * (w.data - 3.0)
        adam_step(g, lr=0.1)
    assert abs(w.data[0, 0] - 3.0) < 0.1


def test_rejects_nonpositive_learning_rate():
    g = group(np.zeros((1, 1)))
    with pytest.raises(ConfigError):
        adam_step(g, lr=0.0)
    with pytest.raises(ConfigError):
        adam_step(g, lr=-1.0)
    assert g.step_count == 0


def test_one_step_count_per_group():
    # the bias correction reads the group's count: every member steps with it
    a, b = group(np.zeros((2, 2)), np.zeros((1, 1))), group(np.zeros((1, 3)))
    adam_step(a, lr=0.01)
    adam_step(a, lr=0.01)
    adam_step(b, lr=0.01)
    assert (a.step_count, b.step_count) == (2, 1)
    assert all(not hasattr(p, "step_count") for p in a + b)


def test_zero_grads_clears_accumulation():
    g = group(np.ones((1, 2)), np.ones((3, 1)))
    for p in g:
        p.grad += 1.0
        p.grad += 1.0
    zero_grads(g)
    assert not g.grad.any()
    assert all(not p.grad.any() for p in g)


def test_matches_the_textbook_update_bitwise():
    # the in-place update keeps the textbook's float operations and order
    rng = np.random.default_rng(4)
    shapes = [(5, 3), (1, 3), (3, 1), (1, 1)]
    g = group(*(rng.normal(size=s) for s in shapes))
    want = [(p.data.copy(), np.zeros(s), np.zeros(s)) for p, s in zip(g, shapes)]
    lr = 0.01
    for t in range(1, 4):
        grads = [rng.normal(size=s) for s in shapes]
        for p, grad in zip(g, grads):
            p.grad[...] = grad
        adam_step(g, lr)
        for i, grad in enumerate(grads):
            data, m, v = want[i]
            m = BETA1 * m + (1.0 - BETA1) * grad
            v = BETA2 * v + (1.0 - BETA2) * (grad * grad)
            m_hat = m / (1.0 - BETA1**t)
            v_hat = v / (1.0 - BETA2**t)
            want[i] = (data - lr * m_hat / (np.sqrt(v_hat) + EPS), m, v)
    for p, (data, _, _) in zip(g, want):
        assert np.array_equal(p.data, data)
        assert not p.grad.any()
    # the moments in the group's buffers, laid out as the values are
    assert np.array_equal(g.adam_m, np.concatenate([m.reshape(-1) for _, m, _ in want]))
    assert np.array_equal(g.adam_v, np.concatenate([v.reshape(-1) for _, _, v in want]))


def adam_per_parameter(arrays, t: int, lr: float) -> None:
    """The update as it ran one parameter at a time: the oracle of the
    blocked walk. `arrays` holds (data, grad, m, v) per parameter."""
    for data, g, m, v in arrays:
        tmp = g * g
        tmp *= 1.0 - BETA2
        v *= BETA2
        v += tmp
        g *= 1.0 - BETA1
        m *= BETA1
        m += g
        np.divide(v, 1.0 - BETA2**t, out=g)
        np.sqrt(g, out=g)
        g += EPS
        np.divide(m, 1.0 - BETA1**t, out=tmp)
        tmp *= lr
        tmp /= g
        data -= tmp
        g[...] = 0.0


@pytest.mark.parametrize("size", [BLOCK // 3, BLOCK, 2 * BLOCK + 123], ids=["below", "equal", "ragged"])
def test_blocked_update_equals_the_per_parameter_loop_bytewise(size):
    # members of uneven widths, so some cross a block boundary; the gradients
    # include signed zeros and values whose squares underflow and overflow
    shapes, left = [], size
    for cols in itertools.cycle([7, 129, 1000]):
        rows = min(left // cols, 40)
        if not rows:
            break
        shapes.append((rows, cols))
        left -= rows * cols
    if left:
        shapes.append((1, left))
    rng = np.random.default_rng(size)
    g = group(*(rng.normal(size=s) for s in shapes))
    assert g.data.size == size
    oracle = [(p.data.copy(), np.empty(s), np.zeros(s), np.zeros(s)) for p, s in zip(g, shapes)]
    special = np.array([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300])
    for t in range(1, 4):
        grads = rng.normal(size=size)
        grads[rng.choice(size, 64, replace=False)] = np.resize(special, 64)
        g.grad[...] = grads
        start = 0
        for _, grad, _, _ in oracle:
            grad[...] = grads[start : start + grad.size].reshape(grad.shape)
            start += grad.size
        with np.errstate(over="ignore", under="ignore"):
            adam_step(g, lr=0.01)
            adam_per_parameter(oracle, t, lr=0.01)
        for name, buf, k in (("data", g.data, 0), ("grad", g.grad, 1), ("m", g.adam_m, 2), ("v", g.adam_v, 3)):
            want = np.concatenate([arrays[k].reshape(-1) for arrays in oracle])
            assert buf.tobytes() == want.tobytes(), (name, t)
    assert g.step_count == 3
