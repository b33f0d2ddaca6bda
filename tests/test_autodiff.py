import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodal import autodiff as ad
from xmodal.errors import ConfigError, ContractError, ShapeError

from fdcheck import assert_grad_matches


def test_linear_identity_weights():
    x = ad.Tensor([[1.0, 2.0]])
    W = ad.Parameter(np.eye(2))
    b = ad.Parameter(np.zeros((1, 2)))
    out = ad.linear(x, W, b)
    assert np.array_equal(out.data, [[1.0, 2.0]])


def test_linear_small_case():
    x = ad.Tensor([[1.0, 1.0]])
    W = ad.Parameter([[2.0], [3.0]])
    b = ad.Parameter([[1.0]])
    out = ad.linear(x, W, b)
    assert out.item() == 6.0


def test_linear_shape_error_names_both_shapes():
    x = ad.Tensor(np.zeros((4, 8)))
    W = ad.Parameter(np.zeros((7, 3)))
    b = ad.Parameter(np.zeros((1, 3)))
    with pytest.raises(ShapeError, match=r"\(4, 8\).*\(7, 3\)"):
        ad.linear(x, W, b)


def test_linear_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    x = ad.Tensor(rng.normal(size=(4, 8)))
    W = ad.Parameter(rng.normal(size=(8, 3)))
    b = ad.Parameter(rng.normal(size=(1, 3)))

    def loss_value():
        with ad.no_grad():
            return ad.sum_all(ad.square(ad.linear(x, W, b))).item()

    def run_backward():
        ad.backward(ad.sum_all(ad.square(ad.linear(x, W, b))))

    assert_grad_matches(loss_value, [W, b], run_backward, tol=1e-6)


def test_linear_is_one_node_with_the_composed_gradients():
    # the fused node's VJPs are the matmul + add composition's, bit for bit
    rng = np.random.default_rng(17)
    x = ad.Parameter(rng.normal(size=(5, 7)))
    W = ad.Parameter(rng.normal(size=(7, 3)))
    b = ad.Parameter(rng.normal(size=(1, 3)))
    g = rng.normal(size=(5, 3))
    grads = []
    for affine in (ad.linear, lambda x, W, b: ad.add(ad.matmul(x, W), b)):
        for p in (x, W, b):
            p.grad[...] = 0.0
        tape = ad.active_tape()
        before = len(tape)
        out = affine(x, W, b)
        nodes = len(tape) - before
        ad.backward(ad.sum_all(ad.mul(out, g)))
        grads.append((out.data, nodes, [p.grad.copy() for p in (x, W, b)]))
    (fused, fused_nodes, fused_grads), (composed, _, composed_grads) = grads
    assert fused_nodes == 1
    assert np.array_equal(fused, composed)
    for got, want in zip(fused_grads, composed_grads):
        assert np.array_equal(got, want)


def two_branch_sigmoid(d):
    """The reference logistic: exp(-d) where d >= 0, exp(d) / (1 + exp(d)) elsewhere."""
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ez = np.exp(d[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_equals_the_two_branch_formula_bitwise():
    rng = np.random.default_rng(3)
    special = [1000.0, -1000.0, 0.0, -0.0, 709.0, -745.0, 40.0, -40.0, np.nan]
    d = np.concatenate([special, rng.normal(scale=8.0, size=400), rng.uniform(-1e-3, 1e-3, 64)])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        out = ad.sigmoid(ad.Tensor(d.reshape(-1, 1))).data[:, 0]
    want = two_branch_sigmoid(d)
    assert np.array_equal(out, want, equal_nan=True)
    assert np.isnan(out[len(special) - 1])
    assert out[0] == 1.0 and out[1] == 0.0 and out[2] == out[3] == 0.5


def masked_copy_logistic(d, out=None):
    """The logistic with e set to 1 where d >= 0 by a masked copy: the formula
    `autodiff.logistic` must match byte for byte."""
    pos = d >= 0
    e = np.exp(np.negative(np.abs(d, out=out), out=out), out=out)
    den = 1.0 + e
    np.copyto(e, 1.0, where=pos)
    return np.divide(e, den, out=e)


@pytest.mark.parametrize("into", ["fresh", "empty", "d"])
def test_logistic_equals_the_masked_copy_formula_bytewise(into):
    rng = np.random.default_rng(4)
    special = [np.inf, -np.inf, np.nan, 0.0, -0.0, 800.0, -800.0, 745.2, -745.2]
    d = np.concatenate([special, rng.normal(scale=8.0, size=300), rng.uniform(-1e-3, 1e-3, 60)])
    d = d.reshape(-1, 3)
    want = masked_copy_logistic(d.copy())
    given = d.copy()
    out = {"fresh": None, "empty": np.empty_like(d), "d": given}[into]
    got = ad.logistic(given, out=out)
    assert got.tobytes() == want.tobytes()
    if out is not None:
        assert got is out
    else:
        assert given.tobytes() == d.tobytes()


def test_logistic_with_a_scratch_buffer_equals_logistic_without_bytewise():
    # evaluation forms the denominator in a spent hidden buffer
    rng = np.random.default_rng(5)
    special = [np.inf, -np.inf, np.nan, 0.0, -0.0, 800.0, -800.0, 745.2, -745.2]
    d = np.concatenate([special, rng.normal(scale=8.0, size=300)]).reshape(-1, 3)
    want = ad.logistic(d.copy())
    given, scratch = d.copy(), np.full_like(d, np.nan)
    got = ad.logistic(given, out=given, scratch=scratch)
    assert got is given and got.tobytes() == want.tobytes()


def test_relu_and_sigmoid_point_values():
    assert ad.relu(ad.Tensor([[-3.0]])).item() == 0.0
    assert ad.relu(ad.Tensor([[2.5]])).item() == 2.5
    assert ad.sigmoid(ad.Tensor([[0.0]])).item() == 0.5


def test_softmax_uniform_rows():
    out = ad.softmax_rows(ad.Tensor([[0.0, 0.0, 0.0]]))
    assert np.allclose(out.data, 1.0 / 3.0, atol=0, rtol=0)


def test_leaky_relu_slope_validation():
    with pytest.raises(ConfigError):
        ad.leaky_relu(ad.Tensor([[1.0]]), slope=1.5)
    out = ad.leaky_relu(ad.Tensor([[-2.0, 2.0]]), slope=0.2)
    assert np.allclose(out.data, [[-0.4, 2.0]])


@pytest.mark.parametrize("slope", [0.2, 0.01])
def test_slope_mask_matches_the_lookup_form_byte_for_byte(slope):
    # the form it replaced: a two-entry table indexed by the (pre > 0) bytes
    def lookup(pre):
        return np.take(np.array([slope, 1.0], dtype=pre.dtype), (pre > 0).view(np.uint8))

    rng = np.random.default_rng(3)
    blocks = [
        np.array([[0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-310, -1e-310]]),
        rng.normal(size=(7, 5)),
        np.where(rng.uniform(size=(16, 9)) < 0.3, 0.0, rng.standard_cauchy(size=(16, 9))),
    ]
    for pre in blocks:
        got, want = ad.slope_mask(pre, slope), lookup(pre)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("width", [9, 1000, ad.BLOCK + 3])
def test_chunked_slope_masks_equal_the_whole_mask_byte_for_byte(width):
    # rows spanning several chunks, the last one short, with ±0, NaN, ±inf
    # and subnormal entries; the masks formed from the pre-activation, from
    # the LeakyReLU's activation and from the bool (pre > 0) are one mask
    rows = 3 if width > ad.BLOCK else 3 * (ad.BLOCK // width) + 5
    rng = np.random.default_rng(4)
    pre = rng.normal(size=(rows, width))
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-310, -1e-310]
    picks = rng.integers(0, pre.size, size=4 * len(specials))
    pre.reshape(-1)[picks] = np.tile(specials, 4)
    pre[-1, : len(specials)] = specials
    want = ad.slope_mask(pre, 0.2)
    with np.errstate(invalid="ignore"):
        h = pre * want
    for sign in (pre, h, pre > 0):
        chunks = [(r, m.copy()) for r, m in ad.slope_masks(sign, 0.2)]
        assert len(chunks) > 1
        assert all(m.size <= max(ad.BLOCK, width) for _, m in chunks)
        assert [r.start for r, _ in chunks] == list(range(0, rows, len(chunks[0][1])))
        got = np.vstack([m for _, m in chunks])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    x = pre.copy()
    with np.errstate(invalid="ignore"):
        assert ad.leaky_relu_inplace(x, 0.2) is x
    assert x.tobytes() == h.tobytes()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-30, 30), min_size=2, max_size=6),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_softmax_rows_sum_to_one(rows):
    out = ad.softmax_rows(ad.Tensor(np.array(rows)))
    assert np.all(np.abs(out.data.sum(axis=1) - 1.0) < 1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-700, 700), min_size=1, max_size=20))
def test_sigmoid_stays_in_unit_interval(vals):
    out = ad.sigmoid(ad.Tensor(np.array(vals)))
    assert np.all(out.data >= 0.0)
    assert np.all(out.data <= 1.0)


def test_backward_sum_gives_ones():
    x = ad.Parameter(np.arange(4.0).reshape(2, 2))
    ad.backward(ad.sum_all(x))
    assert np.array_equal(x.grad, np.ones((2, 2)))


def test_backward_mean_squared_norm():
    x = ad.Parameter(np.array([[1.0, -2.0], [3.0, 0.5]]))
    n = x.data.size
    ad.backward(ad.mean_all(ad.square(x)))
    assert np.allclose(x.grad, 2.0 * x.data / n, rtol=0, atol=1e-15)


def test_backward_requires_scalar_loss():
    x = ad.Parameter(np.ones((2, 2)))
    with pytest.raises(ContractError):
        ad.backward(ad.square(x))


def test_backward_rejects_stale_tape():
    x = ad.Parameter(np.ones((2, 2)))
    loss = ad.sum_all(ad.square(x))
    ad.backward(loss)
    with pytest.raises(ContractError):
        ad.backward(loss)


def test_backward_accumulates_and_clears_tape():
    x = ad.Parameter(np.ones((1, 3)))
    ad.backward(ad.sum_all(x))
    ad.backward(ad.sum_all(x))
    assert np.array_equal(x.grad, 2.0 * np.ones((1, 3)))
    assert len(ad.active_tape()) == 0


def test_no_grad_suppresses_recording():
    x = ad.Parameter(np.ones((2, 2)))
    with ad.no_grad():
        out = ad.sum_all(ad.square(x))
    assert not out.requires_grad
    assert len(ad.active_tape()) == 0


def test_grad_unreached_input_gets_zeros():
    x = ad.Tensor(np.ones((1, 2)), requires_grad=True)
    y = ad.Tensor(np.ones((1, 2)), requires_grad=True)
    (gy,) = ad.grad(ad.sum_all(ad.square(x)), [y])
    assert np.array_equal(gy.data, np.zeros((1, 2)))
    ad.active_tape().clear()


def test_structural_ops_roundtrip_gradients():
    rng = np.random.default_rng(3)
    a = ad.Parameter(rng.normal(size=(3, 4)))
    b = ad.Parameter(rng.normal(size=(3, 2)))
    idx = np.array([1, 3, 0])

    def make_loss():
        joined = ad.concat_cols(a, b)
        left = ad.slice_cols(joined, 1, 5)
        stacked = ad.concat_rows(left, ad.slice_cols(joined, 0, 4))
        picked = ad.pick_cols(ad.slice_rows(stacked, 0, 3), idx)
        return ad.sum_all(ad.square(picked))

    def loss_value():
        with ad.no_grad():
            return make_loss().item()

    assert_grad_matches(loss_value, [a, b], lambda: ad.backward(make_loss()), tol=1e-6)


def test_forward_backward_bit_identical_across_runs():
    def run():
        rng = np.random.default_rng(11)
        x = ad.Tensor(rng.normal(size=(5, 6)))
        W = ad.Parameter(rng.normal(size=(6, 4)))
        b = ad.Parameter(np.zeros((1, 4)))
        out = ad.softmax_rows(ad.linear(ad.relu(ad.linear(x, W, b)), ad.transpose(W), ad.Parameter(np.zeros((1, 6)))))
        loss = ad.mean_all(ad.square(out))
        value = loss.item()
        ad.backward(loss)
        return value, W.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2
    assert np.array_equal(g1, g2)


def test_tapes_are_thread_local():
    import threading

    results = {}

    def worker(tag, seed):
        rng = np.random.default_rng(seed)
        W = ad.Parameter(rng.normal(size=(6, 6)))
        x = ad.Tensor(rng.normal(size=(8, 6)))
        for _ in range(50):
            loss = ad.mean_all(ad.square(ad.relu(ad.matmul(x, W))))
            ad.backward(loss)
            results[tag] = (loss.item(), W.grad.copy())
            W.grad[...] = 0.0

    threads = [threading.Thread(target=worker, args=(i, i)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    # each thread must reproduce exactly what a serial run computes
    for tag in range(4):
        rng = np.random.default_rng(tag)
        W = ad.Parameter(rng.normal(size=(6, 6)))
        x = ad.Tensor(rng.normal(size=(8, 6)))
        loss = ad.mean_all(ad.square(ad.relu(ad.matmul(x, W))))
        ad.backward(loss)
        assert results[tag][0] == loss.item()
        assert np.array_equal(results[tag][1], W.grad)
