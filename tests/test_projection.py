import threading
import tracemalloc

import numpy as np
import pytest

from xmodal import autodiff as ad
from xmodal import data, projection as proj, retrieval as ret, util
from xmodal.errors import ConfigError, ContractError, NonFiniteError
from xmodal.optim import adam_step, zero_grads
from xmodal.util import stream

from fdcheck import assert_grad_matches


def make_model(d=6, n_classes=3, seed=0, **hp_kwargs):
    hp = proj.ProjHyperParams(**hp_kwargs) if hp_kwargs else proj.ProjHyperParams()
    return proj.ProjectionModel(d, range(n_classes), hp, stream(seed, "init")), hp


def force_gate(gate, value: float):
    # saturate the sigmoid so the gate output is exactly 0.0 or 1.0
    gate.l2.W.data[...] = 0.0
    gate.l2.b.data[...] = 1e4 if value >= 0.5 else -1e4


# ---------------------------------------------------------------------------
# fusion


def test_gate_one_returns_projection_bitwise():
    model, _ = make_model()
    force_gate(model.gate_v, 1.0)
    x = ad.Tensor(np.random.default_rng(0).normal(size=(5, 6)))
    f = model.projector_v(x)
    u = proj.fuse(x, model.projector_v, model.gate_v)
    assert np.array_equal(u.data, f.data)


def test_gate_zero_returns_original_bitwise():
    model, _ = make_model()
    force_gate(model.gate_v, 0.0)
    x = ad.Tensor(np.random.default_rng(1).normal(size=(5, 6)))
    u = proj.fuse(x, model.projector_v, model.gate_v)
    assert np.array_equal(u.data, x.data)


def test_half_gate_blends_linearly():
    class Doubler:
        def __call__(self, x):
            return x * 2.0

    class HalfGate:
        def __call__(self, joint):
            n = joint.data.shape[0]
            d = joint.data.shape[1] // 2
            return ad.Tensor(np.full((n, d), 0.5))

    x = ad.Tensor(np.random.default_rng(2).normal(size=(4, 3)))
    u = proj.fuse(x, Doubler(), HalfGate())
    assert np.allclose(u.data, 1.5 * x.data, rtol=0, atol=1e-15)


def test_fused_values_stay_between_original_and_projected():
    model, _ = make_model(d=8)
    rng = np.random.default_rng(3)
    x = ad.Tensor(rng.normal(size=(50, 8)))
    f = model.projector_v(x)
    u = proj.fuse(x, model.projector_v, model.gate_v)
    lo = np.minimum(x.data, f.data)
    hi = np.maximum(x.data, f.data)
    assert np.all(u.data >= lo)
    assert np.all(u.data <= hi)


# ---------------------------------------------------------------------------
# the no-grad forward evaluation uses


def _tape_embeddings(model, X):
    with ad.no_grad():
        return model.embed_images_node(X).data, model.embed_texts_node(X).data


def _gate_preactivation(model, X):
    with ad.no_grad():
        x = ad.Tensor(X)
        joint = ad.concat_cols(x, model.projector_v(x))
        return model.gate_v.l2(ad.relu(model.gate_v.l1(joint))).data


@pytest.mark.parametrize("use_gate", [True, False])
@pytest.mark.parametrize("scale", [1.0, 40.0])
def test_lean_embeddings_equal_the_tape_bitwise(use_gate, scale):
    d = 12
    model = proj.ProjectionModel(
        d, range(3), proj.ProjHyperParams(), stream(4, "init"), use_gate=use_gate
    )
    rng = np.random.default_rng(5)
    for p in model.params:
        p.data += rng.normal(scale=0.3, size=p.data.shape)
    X = rng.normal(scale=scale, size=(40, d))
    before = X.copy()
    if use_gate and scale > 1.0:
        # both of the logistic's branches, and its saturated ends, run
        pre = _gate_preactivation(model, X)
        assert (pre > 40.0).any() and (pre < -40.0).any()
    want_img, want_txt = _tape_embeddings(model, X)
    assert np.array_equal(model.embed_images(X), want_img)
    assert np.array_equal(model.embed_texts(X), want_txt)
    assert np.array_equal(X, before)


def test_lean_embeddings_of_a_nan_weight_are_nan():
    # so retrieval still refuses to score a diverged model
    model, _ = make_model(d=8)
    model.projector_v.l1.W.data[0, 0] = np.nan
    X = np.random.default_rng(6).normal(size=(10, 8))
    u = model.embed_images(X)
    assert np.isnan(u).all()
    assert np.array_equal(u, _tape_embeddings(model, X)[0], equal_nan=True)
    with pytest.raises(NonFiniteError, match="non-finite value in the queries"):
        ret.mean_ap(u, X, np.ones((10, 10), dtype=bool))


def test_lean_forward_holds_few_temporaries():
    # at its peak the tape forward holds six (n, d) arrays besides the input,
    # the lean one four: the projection, the (n, 2d) concat and one hidden buffer
    n, d = 400, 256
    model, _ = make_model(d=d)
    X = np.random.default_rng(7).normal(size=(n, d))
    model.embed_images(X)
    tracemalloc.start()
    try:
        model.embed_images(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * n * d * 8


# ---------------------------------------------------------------------------
# classification loss


def test_ce_zero_for_saturated_correct_head():
    model, _ = make_model(d=2, n_classes=2)
    model.head.layer.W.data[...] = 1000.0 * np.eye(2)
    model.head.layer.b.data[...] = 0.0
    u = ad.Tensor(np.eye(2))
    labels = np.array([0, 1])
    assert proj.loss_ce(u, u, labels, model.head).item() == 0.0


def test_ce_uniform_prediction_is_twice_log_c():
    model, _ = make_model(d=3, n_classes=4)
    model.head.layer.W.data[...] = 0.0
    model.head.layer.b.data[...] = 0.0
    u = ad.Tensor(np.random.default_rng(4).normal(size=(5, 3)))
    loss = proj.loss_ce(u, u, np.zeros(5, dtype=int), model.head)
    assert loss.item() == pytest.approx(2.0 * np.log(4.0), abs=1e-12)


def test_ce_matches_scalar_loop_oracle():
    model, _ = make_model(d=4, n_classes=3, seed=9)
    rng = np.random.default_rng(5)
    u_v = ad.Tensor(rng.normal(size=(6, 4)))
    u_t = ad.Tensor(rng.normal(size=(6, 4)))
    labels = rng.integers(0, 3, size=6)
    loss = proj.loss_ce(u_v, u_t, labels, model.head).item()

    def softmax(row):
        e = np.exp(row - row.max())
        return e / e.sum()

    W, b = model.head.layer.W.data, model.head.layer.b.data
    total = 0.0
    for i in range(6):
        p_v = softmax(u_v.data[i] @ W + b[0])
        p_t = softmax(u_t.data[i] @ W + b[0])
        for c in range(3):
            y = 1.0 if labels[i] == c else 0.0
            total -= y * (np.log(p_v[c]) + np.log(p_t[c]))
    assert loss == pytest.approx(total / 6.0, abs=1e-12)


def test_ce_rejects_out_of_range_label():
    model, _ = make_model(d=3, n_classes=3)
    u = ad.Tensor(np.zeros((2, 3)))
    with pytest.raises(ConfigError, match="label out of range"):
        proj.loss_ce(u, u, np.array([0, 3]), model.head)


def test_ce_nonnegative():
    model, _ = make_model(d=4, n_classes=5, seed=11)
    rng = np.random.default_rng(6)
    for _ in range(20):
        u_v = ad.Tensor(rng.normal(size=(3, 4)))
        u_t = ad.Tensor(rng.normal(size=(3, 4)))
        labels = rng.integers(0, 5, size=3)
        assert proj.loss_ce(u_v, u_t, labels, model.head).item() >= 0.0


# ---------------------------------------------------------------------------
# consistency loss


def test_consistency_zero_for_identical_embeddings():
    u = ad.Tensor(np.random.default_rng(7).normal(size=(4, 3)))
    assert proj.loss_consistency(u, u).item() == 0.0


def test_consistency_three_four_five():
    u_v = ad.Tensor([[0.0, 0.0]])
    u_t = ad.Tensor([[3.0, 4.0]])
    assert proj.loss_consistency(u_v, u_t).item() == 5.0


def test_consistency_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    u_v = ad.Parameter(rng.normal(size=(4, 5)))
    u_t = ad.Tensor(rng.normal(size=(4, 5)))

    def loss_value():
        with ad.no_grad():
            return proj.loss_consistency(u_v, u_t).item()

    assert_grad_matches(
        loss_value,
        [u_v],
        lambda: ad.backward(proj.loss_consistency(u_v, u_t)),
        tol=1e-4,
    )


# ---------------------------------------------------------------------------
# contrastive loss


def brute_force_contrastive(u_v, u_t, tau):
    embs = np.vstack([u_v, u_t])
    m = len(embs)
    n = len(u_v)
    unit = embs / np.linalg.norm(embs, axis=1, keepdims=True)
    total = 0.0
    for i in range(m):
        pair = i + n if i < n else i - n
        num = np.exp(unit[i] @ unit[pair] / tau)
        denom = 0.0
        for j in range(m):
            if j == i:
                continue
            denom += np.exp(unit[j] @ unit[i] / tau)
        total += -np.log(num / denom)
    return total / n


def orthogonal_pairs_fixture():
    # two pairs; each pair identical, the two pairs orthogonal
    u_v = np.array([[1.0, 0.0], [0.0, 1.0]])
    u_t = np.array([[1.0, 0.0], [0.0, 1.0]])
    return u_v, u_t


def test_contrastive_matches_enumeration_on_fixture():
    u_v, u_t = orthogonal_pairs_fixture()
    got = proj.loss_contrastive(ad.Tensor(u_v), ad.Tensor(u_t), tau=1.0).item()
    want = brute_force_contrastive(u_v, u_t, tau=1.0)
    assert got == pytest.approx(want, abs=1e-12)


def test_contrastive_matches_enumeration_on_random_batches():
    rng = np.random.default_rng(9)
    u_v = rng.normal(size=(5, 4))
    u_t = rng.normal(size=(5, 4))
    got = proj.loss_contrastive(ad.Tensor(u_v), ad.Tensor(u_t), tau=0.3).item()
    assert got == pytest.approx(brute_force_contrastive(u_v, u_t, tau=0.3), abs=1e-12)


def test_contrastive_scale_invariance():
    rng = np.random.default_rng(10)
    u_v = rng.normal(size=(4, 6))
    u_t = rng.normal(size=(4, 6))
    base = proj.loss_contrastive(ad.Tensor(u_v), ad.Tensor(u_t), tau=0.5).item()
    scaled = proj.loss_contrastive(ad.Tensor(5 * u_v), ad.Tensor(5 * u_t), tau=0.5).item()
    assert scaled == pytest.approx(base, abs=1e-10)


def test_lower_temperature_lowers_loss_given_margin():
    # positives aligned, negatives orthogonal: a fixed positive margin
    u_v = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    u_t = np.array([[0.9, 0.1, 0.0], [0.1, 0.9, 0.0]])
    losses = [
        proj.loss_contrastive(ad.Tensor(u_v), ad.Tensor(u_t), tau=t).item()
        for t in (1.0, 0.5, 0.1)
    ]
    assert losses[0] > losses[1] > losses[2]


def test_contrastive_needs_two_pairs():
    with pytest.raises(ContractError):
        proj.loss_contrastive(ad.Tensor([[1.0, 0.0]]), ad.Tensor([[1.0, 0.0]]), tau=1.0)


def test_contrastive_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    u_v = ad.Parameter(rng.normal(size=(4, 5)))
    u_t = ad.Parameter(rng.normal(size=(4, 5)))

    def loss_value():
        with ad.no_grad():
            return proj.loss_contrastive(u_v, u_t, tau=0.2).item()

    assert_grad_matches(
        loss_value,
        [u_v, u_t],
        lambda: ad.backward(proj.loss_contrastive(u_v, u_t, tau=0.2)),
        tol=1e-4,
    )


# ---------------------------------------------------------------------------
# weighted total


def test_total_loss_weightings():
    hp0 = proj.ProjHyperParams(alpha=0.0, beta=0.0, gamma=0.0)
    assert proj.total_loss((1.0, 2.0, 3.0), hp0).item() == 0.0
    hp1 = proj.ProjHyperParams(alpha=1.0, beta=0.0, gamma=0.0)
    assert proj.total_loss((1.5, 2.0, 3.0), hp1).item() == 1.5
    hp_all = proj.ProjHyperParams(alpha=1.0, beta=1.0, gamma=1.0)
    assert proj.total_loss((1.0, 2.0, 3.0), hp_all).item() == 6.0


def test_full_projection_gradients_match_finite_differences():
    model, hp = make_model(d=5, n_classes=3, seed=13)
    rng = np.random.default_rng(14)
    v = ad.Tensor(rng.normal(size=(4, 5)))
    t = ad.Tensor(rng.normal(size=(4, 5)))
    labels = rng.integers(0, 3, size=4)

    def build():
        return proj.projection_losses(model, v, t, labels, hp)["total"]

    def loss_value():
        with ad.no_grad():
            return build().item()

    assert_grad_matches(loss_value, model.params, lambda: ad.backward(build()), tol=1e-4)


# ---------------------------------------------------------------------------
# the closed-form step and the lean curve probe


def _twin_models(d, n_classes, hp, use_gate, seed):
    # two equal models; the weights are jittered off their Xavier draws and the
    # biases off zero, so no ReLU row dies and no embedding row is zero
    models = [
        proj.ProjectionModel(d, range(n_classes), hp, stream(seed, "init"), use_gate=use_gate)
        for _ in range(2)
    ]
    rng = np.random.default_rng(seed)
    for p, q in zip(models[0].params, models[1].params):
        p.data += rng.normal(scale=0.1, size=p.data.shape)
        q.data[...] = p.data
    return models


def _batch(d, n, n_classes, rng):
    return rng.normal(size=(n, d)), rng.normal(size=(n, d)), rng.integers(0, n_classes, size=n)


def _spy_on_adam(monkeypatch):
    """Record each parameter's gradient as `projection_step` hands it to Adam."""
    seen = {}

    def spy(params, lr):
        for p in params:
            seen[id(p)] = p.grad.copy()
        adam_step(params, lr)

    monkeypatch.setattr(proj, "adam_step", spy)
    return seen


def _assert_steps_equal(d, n, hp, use_gate, monkeypatch, steps=2, n_classes=5):
    tape, lean = _twin_models(d, n_classes, hp, use_gate, seed=d + n)
    grads = _spy_on_adam(monkeypatch)
    rng = np.random.default_rng(n)
    for _ in range(steps):
        v, t, labels = _batch(d, n, n_classes, rng)
        zero_grads(tape.params)
        want = proj.projection_losses(tape, ad.Tensor(v), ad.Tensor(t), labels, hp)
        ad.backward(want["total"])
        want_grads = [p.grad.copy() for p in tape.params]
        adam_step(tape.params, hp.lr)

        got = proj.projection_step(lean, v, t, labels, hp)
        assert got == {k: x.item() for k, x in want.items()}
        for (name, p), (_, q), g in zip(lean.named_params(), tape.named_params(), want_grads):
            assert np.array_equal(grads[id(p)], g), name
            assert p.step_count == q.step_count, name
            for a, b in ((p.data, q.data), (p.adam_m, q.adam_m), (p.adam_v, q.adam_v)):
                assert np.array_equal(a, b), name
            assert not p.grad.any(), name


# each id ends in -False, the self-excluded half of an earlier include_self
# axis, so the cases keep their names
@pytest.mark.parametrize("use_gate", [True, False], ids=lambda gate: f"{gate}-False")
@pytest.mark.parametrize("d, n", [(5, 4), (64, 64), (64, 37), (512, 256)])
def test_projection_step_equals_the_tape_step_bitwise(d, n, use_gate, monkeypatch):
    # an odd batch makes the 1/n scalings inexact; at d=512 BLAS blocks its sums
    hp = proj.ProjHyperParams(tau=0.2)
    _assert_steps_equal(d, n, hp, use_gate, monkeypatch)


@pytest.mark.parametrize("use_gate", [True, False])
@pytest.mark.parametrize(
    "weights, n",
    [((0.0, 1.0, 1.0), 37), ((1.0, 0.0, 1.0), 37), ((1.0, 1.0, 0.0), 37),
     ((0.5, 2.0, 1.5), 1), ((0.0, 0.0, 0.0), 9)],
    ids=["no-l1", "no-l2", "no-l3", "one-row", "no-loss"],
)
def test_projection_step_with_terms_off_equals_the_tape_step_bitwise(weights, n, use_gate, monkeypatch):
    # a term whose weight is 0 is not computed, and one row has no contrastive
    # term; every parameter still takes its Adam step, the head's included
    alpha, beta, gamma = weights
    hp = proj.ProjHyperParams(alpha=alpha, beta=beta, gamma=gamma)
    _assert_steps_equal(16, n, hp, use_gate, monkeypatch)


@pytest.mark.parametrize("use_gate", [True, False])
def test_projection_step_gradients_match_finite_differences(use_gate, monkeypatch):
    hp = proj.ProjHyperParams(tau=0.5)
    model = _twin_models(5, 3, hp, use_gate, seed=15)[0]
    v, t, labels = _batch(5, 4, 3, np.random.default_rng(16))
    monkeypatch.setattr(proj, "adam_step", lambda params, lr: None)

    def loss_value():
        return proj.dataset_losses(model, v, t, labels, hp)["total"]

    assert_grad_matches(
        loss_value, model.params, lambda: proj.projection_step(model, v, t, labels, hp)
    )


def _warm_peak(fn):
    """Peak traced bytes of a second call of fn."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_curve_probe_holds_at_most_two_pair_matrices():
    # the contrastive term over 2n rows needs one (2n, 2n) matrix; the tape's
    # loss also forms a mask, its where-copy, the shifted and masked matrices
    n, d = 384, 8
    model, hp = make_model(d=d, n_classes=4)
    V, T, labels = _batch(d, n, 4, np.random.default_rng(17))
    pair_matrix = (2 * n) ** 2 * 8

    def tape_probe():
        with ad.no_grad():
            proj.projection_losses(model, ad.Tensor(V), ad.Tensor(T), labels, hp)

    assert _warm_peak(lambda: proj.dataset_losses(model, V, T, labels, hp)) <= 2 * pair_matrix
    assert _warm_peak(tape_probe) >= 3.5 * pair_matrix


# ---------------------------------------------------------------------------
# training


@pytest.fixture(scope="module")
def proj_corpus():
    corpus = data.synth_corpus(
        n_classes=8, per_class=16, dim=16, noise_sigma=0.15, proto_rank=4, seed=21
    )
    split = data.split_xshot(corpus, x=0, seed=21)
    return corpus, split


def test_training_deterministic(proj_corpus):
    corpus, split = proj_corpus
    hp = proj.ProjHyperParams(lr=1e-3, batch=16, epochs=2, seed=3)
    m1, _ = proj.train_projection(split, corpus, None, hp)
    m2, _ = proj.train_projection(split, corpus, None, hp)
    for (n1, p1), (n2, p2) in zip(m1.named_params(), m2.named_params()):
        assert n1 == n2
        assert np.array_equal(p1.data, p2.data)


def test_nan_weight_fails_at_the_first_step(proj_corpus, monkeypatch):
    class Poisoned(proj.ProjectionModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.head.layer.W.data[0, 0] = np.nan

    monkeypatch.setattr(proj, "ProjectionModel", Poisoned)
    corpus, split = proj_corpus
    hp = proj.ProjHyperParams(lr=1e-3, batch=16, epochs=2, seed=3)
    with pytest.raises(NonFiniteError, match=r"^stage 2 projection: loss is nan at epoch 1, step 1$"):
        proj.train_projection(split, corpus, None, hp)


def test_total_loss_decreases(proj_corpus):
    corpus, split = proj_corpus
    hp = proj.ProjHyperParams(lr=1e-3, batch=16, epochs=30, seed=3)
    _, curve = proj.train_projection(split, corpus, None, hp)
    assert curve["total"][-1] < curve["total"][0]


def test_consistency_loss_is_effective(proj_corpus):
    corpus, split = proj_corpus
    hp = proj.ProjHyperParams(
        alpha=0.0, beta=5.0, gamma=0.0, lr=1e-3, batch=16, epochs=30, seed=4
    )
    _, curve = proj.train_projection(split, corpus, None, hp)
    assert curve["l2"][-1] < curve["l2"][0]


def test_class_columns_span_all_corpus_classes(proj_corpus):
    corpus, split = proj_corpus
    hp = proj.ProjHyperParams(lr=1e-3, batch=16, epochs=1, seed=5)
    model, _ = proj.train_projection(split, corpus, None, hp)
    assert model.classes == tuple(corpus.classes())
    assert model.head.layer.W.data.shape[1] == len(corpus.classes())


def test_empty_training_set_rejected(proj_corpus):
    corpus, split = proj_corpus
    hollow = split.__class__(**{**split.__dict__, "source_train": (), "target_train": ()})
    with pytest.raises(ConfigError, match="empty"):
        proj.train_projection(hollow, corpus, None, proj.ProjHyperParams(epochs=1))


# ---------------------------------------------------------------------------
# the two towers on two threads


def _thread_spy(monkeypatch, name):
    # "caller" or "worker" per call: every run_pair starts a new worker
    # thread, and a new thread need not reuse the last one's ident
    threads = set()
    caller = threading.get_ident()
    real = getattr(proj, name)

    def spy(*args):
        threads.add("caller" if threading.get_ident() == caller else "worker")
        return real(*args)

    monkeypatch.setattr(proj, name, spy)
    return threads


@pytest.mark.parametrize("use_gate", [True, False])
def test_concurrent_training_equals_serial_bitwise(
    proj_corpus, monkeypatch, worker, fine_switching, use_gate
):
    corpus, split = proj_corpus
    hp = proj.ProjHyperParams(lr=1e-3, batch=16, epochs=2, seed=3)
    forwards = _thread_spy(monkeypatch, "_tower_forward")
    backwards = _thread_spy(monkeypatch, "_tower_backward")
    concurrent, concurrent_curve = proj.train_projection(split, corpus, None, hp, use_gate)
    assert forwards == backwards == {"caller", "worker"}

    monkeypatch.setattr(util, "_spare_core", lambda: False)
    forwards.clear()
    serial, serial_curve = proj.train_projection(split, corpus, None, hp, use_gate)
    assert forwards == {"caller"}
    assert concurrent_curve == serial_curve
    for (name, p), (_, q) in zip(concurrent.named_params(), serial.named_params()):
        assert p.step_count == q.step_count, name
        for a, b in ((p.data, q.data), (p.adam_m, q.adam_m), (p.adam_v, q.adam_v)):
            assert np.array_equal(a, b), name


@pytest.mark.parametrize("tower", ["projector_v", "projector_t", "gate_t"])
def test_nan_in_a_concurrent_tower_fails_at_the_first_step(
    proj_corpus, monkeypatch, worker, fine_switching, tower
):
    class Poisoned(proj.ProjectionModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            getattr(self, tower).l1.W.data[0, 0] = np.nan

    monkeypatch.setattr(proj, "ProjectionModel", Poisoned)
    corpus, split = proj_corpus
    hp = proj.ProjHyperParams(lr=1e-3, batch=16, epochs=2, seed=3)
    before = threading.active_count()
    with pytest.raises(NonFiniteError, match=r"^stage 2 projection: loss is nan at epoch 1, step 1$"):
        proj.train_projection(split, corpus, None, hp)
    assert threading.active_count() == before


@pytest.mark.parametrize("phase", ["_tower_forward", "_tower_backward"])
def test_calling_thread_error_leaves_no_thread(proj_corpus, monkeypatch, worker, fine_switching, phase):
    corpus, split = proj_corpus
    main = threading.get_ident()
    real = getattr(proj, phase)

    def failing(*args):
        if threading.get_ident() == main:
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(proj, phase, failing)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        proj.train_projection(split, corpus, None, proj.ProjHyperParams(batch=16, epochs=1, seed=3))
    assert threading.active_count() == before


def test_concurrent_step_holds_few_temporaries_at_width_512(worker, fine_switching):
    # wide_cell's stage-2 shapes: d=512, a 256-row batch. The tape's step
    # peaked at 73 MiB; both towers' steps at once hold about 28 MiB
    d, n = 512, 256
    hp = proj.ProjHyperParams()
    model = proj.ProjectionModel(d, range(8), hp, stream(2, "init"))
    v, t, labels = _batch(d, n, 8, np.random.default_rng(3))
    assert _warm_peak(lambda: proj.projection_step(model, v, t, labels, hp)) <= 36 * (1 << 20)
