import threading
import tracemalloc

import numpy as np
import pytest

from xmodal import autodiff as ad
from xmodal import data, projection as proj, retrieval as ret, util
from xmodal.errors import ConfigError, NonFiniteError
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


def projected(model, x):
    """The image projector's output at rows x, before the gate."""
    return proj._tower_forward(x, model.projector_v, None)[0]


def test_gate_one_returns_projection_bitwise():
    model, _ = make_model()
    force_gate(model.gate_v, 1.0)
    x = np.random.default_rng(0).normal(size=(5, 6))
    f = projected(model, x)
    assert np.array_equal(model.embed_images(x), f)
    assert np.array_equal(proj._tower_forward(x, model.projector_v, model.gate_v)[0], f)


def test_gate_zero_returns_original_bitwise():
    model, _ = make_model()
    force_gate(model.gate_v, 0.0)
    x = np.random.default_rng(1).normal(size=(5, 6))
    assert np.array_equal(model.embed_images(x), x)
    assert np.array_equal(proj._tower_forward(x, model.projector_v, model.gate_v)[0], x)


def test_half_gate_blends_linearly():
    # a zeroed last gate layer makes the gate logistic(0) = 0.5 everywhere
    model, _ = make_model(d=3)
    model.gate_v.l2.W.data[...] = 0.0
    model.gate_v.l2.b.data[...] = 0.0
    x = np.random.default_rng(2).normal(size=(4, 3))
    want = 0.5 * (projected(model, x) + x)
    assert np.allclose(model.embed_images(x), want, rtol=0, atol=1e-15)


def test_fused_values_stay_between_original_and_projected():
    model, _ = make_model(d=8)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(50, 8))
    f = projected(model, x)
    u = model.embed_images(x)
    assert np.all(u >= np.minimum(x, f))
    assert np.all(u <= np.maximum(x, f))


# ---------------------------------------------------------------------------
# the no-grad forward evaluation uses


@pytest.mark.parametrize("use_gate", [True, False])
@pytest.mark.parametrize("scale", [1.0, 40.0])
def test_lean_embeddings_equal_the_training_forward_bitwise(use_gate, scale):
    d = 12
    model = proj.ProjectionModel(
        d, range(3), proj.ProjHyperParams(), stream(4, "init"), use_gate=use_gate
    )
    rng = np.random.default_rng(5)
    for p in model.params:
        p.data += rng.normal(scale=0.3, size=p.data.shape)
    X = rng.normal(scale=scale, size=(40, d))
    before = X.copy()
    for projector, gate, embed in (
        (model.projector_v, model.gate_v, model.embed_images),
        (model.projector_t, model.gate_t, model.embed_texts),
    ):
        want, saved = proj._tower_forward(X.copy(), projector, gate if use_gate else None)
        if use_gate and scale > 1.0:
            # both of the logistic's branches, and its saturated ends, run
            pre = saved[3] @ gate.l2.W.data + gate.l2.b.data
            assert (pre > 40.0).any() and (pre < -40.0).any()
        assert np.array_equal(embed(X), want)
    assert np.array_equal(X, before)


def test_lean_embeddings_of_a_nan_weight_are_nan():
    # so retrieval still refuses to score a diverged model
    model, _ = make_model(d=8)
    model.projector_v.l1.W.data[0, 0] = np.nan
    X = np.random.default_rng(6).normal(size=(10, 8))
    u = model.embed_images(X)
    assert np.isnan(u).all()
    with pytest.raises(NonFiniteError, match="non-finite value in the queries"):
        ret.mean_ap(u, X, np.ones((10, 10), dtype=bool))


def test_lean_forward_holds_few_temporaries():
    # at its peak an op-by-op forward holds six (n, d) arrays besides the
    # input, the lean one four: the projection, the (n, 2d) concat and one
    # hidden buffer
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


def ce(u_v, u_t, labels, head) -> float:
    return proj._ce_term(u_v, u_t, np.asarray(labels), head, 1.0)[0]


def test_ce_zero_for_saturated_correct_head():
    model, _ = make_model(d=2, n_classes=2)
    model.head.layer.W.data[...] = 1000.0 * np.eye(2)
    model.head.layer.b.data[...] = 0.0
    u = np.eye(2)
    assert ce(u, u, [0, 1], model.head) == 0.0


def test_ce_uniform_prediction_is_twice_log_c():
    model, _ = make_model(d=3, n_classes=4)
    model.head.layer.W.data[...] = 0.0
    model.head.layer.b.data[...] = 0.0
    u = np.random.default_rng(4).normal(size=(5, 3))
    assert ce(u, u, np.zeros(5, dtype=int), model.head) == pytest.approx(2.0 * np.log(4.0), abs=1e-12)


def test_ce_matches_scalar_loop_oracle():
    model, _ = make_model(d=4, n_classes=3, seed=9)
    rng = np.random.default_rng(5)
    u_v = rng.normal(size=(6, 4))
    u_t = rng.normal(size=(6, 4))
    labels = rng.integers(0, 3, size=6)
    loss = ce(u_v, u_t, labels, model.head)

    def softmax(row):
        e = np.exp(row - row.max())
        return e / e.sum()

    W, b = model.head.layer.W.data, model.head.layer.b.data
    total = 0.0
    for i in range(6):
        p_v = softmax(u_v[i] @ W + b[0])
        p_t = softmax(u_t[i] @ W + b[0])
        for c in range(3):
            y = 1.0 if labels[i] == c else 0.0
            total -= y * (np.log(p_v[c]) + np.log(p_t[c]))
    assert loss == pytest.approx(total / 6.0, abs=1e-12)


def test_ce_nonnegative():
    model, _ = make_model(d=4, n_classes=5, seed=11)
    rng = np.random.default_rng(6)
    for _ in range(20):
        u_v = rng.normal(size=(3, 4))
        u_t = rng.normal(size=(3, 4))
        labels = rng.integers(0, 5, size=3)
        assert ce(u_v, u_t, labels, model.head) >= 0.0


# ---------------------------------------------------------------------------
# consistency loss


def test_consistency_zero_for_identical_embeddings():
    u = np.random.default_rng(7).normal(size=(4, 3))
    assert proj._consistency_term(u, u, 1.0)[0] == 0.0


def test_consistency_three_four_five():
    assert proj._consistency_term(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]), 1.0)[0] == 5.0


def test_consistency_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    u_v = ad.Parameter(rng.normal(size=(4, 5)))
    u_t = rng.normal(size=(4, 5))

    def backward():
        u_v.grad += proj._consistency_term(u_v.data, u_t, 1.0)[1]()[0]

    assert_grad_matches(lambda: proj._consistency_term(u_v.data, u_t, 1.0)[0], [u_v], backward)


# ---------------------------------------------------------------------------
# contrastive loss


def contrastive(u_v, u_t, tau) -> float:
    return proj._contrastive_term(u_v, u_t, tau, 1.0)[0]


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
    want = brute_force_contrastive(u_v, u_t, tau=1.0)
    assert contrastive(u_v, u_t, tau=1.0) == pytest.approx(want, abs=1e-12)


def test_contrastive_matches_enumeration_on_random_batches():
    rng = np.random.default_rng(9)
    u_v = rng.normal(size=(5, 4))
    u_t = rng.normal(size=(5, 4))
    want = brute_force_contrastive(u_v, u_t, tau=0.3)
    assert contrastive(u_v, u_t, tau=0.3) == pytest.approx(want, abs=1e-12)


def test_contrastive_scale_invariance():
    rng = np.random.default_rng(10)
    u_v = rng.normal(size=(4, 6))
    u_t = rng.normal(size=(4, 6))
    base = contrastive(u_v, u_t, tau=0.5)
    assert contrastive(5 * u_v, 5 * u_t, tau=0.5) == pytest.approx(base, abs=1e-10)


def test_lower_temperature_lowers_loss_given_margin():
    # positives aligned, negatives orthogonal: a fixed positive margin
    u_v = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    u_t = np.array([[0.9, 0.1, 0.0], [0.1, 0.9, 0.0]])
    losses = [contrastive(u_v, u_t, tau=t) for t in (1.0, 0.5, 0.1)]
    assert losses[0] > losses[1] > losses[2]


def test_contrastive_needs_two_pairs():
    # one pair has no negatives: the term is not computed and L3 reads 0
    model, _ = make_model(d=2, n_classes=2)
    hp = proj.ProjHyperParams(alpha=0.0, beta=0.0, gamma=1.0)
    u = np.array([[1.0, 0.0]])
    values, terms = proj._batch_losses(u, u.copy(), np.array([0]), model.head, hp)
    assert values["l3"] == 0.0
    assert not terms


def test_contrastive_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    u_v = ad.Parameter(rng.normal(size=(4, 5)))
    u_t = ad.Parameter(rng.normal(size=(4, 5)))

    def backward():
        d_v, d_t = proj._contrastive_term(u_v.data, u_t.data, 0.2, 1.0)[1]()
        u_v.grad += d_v
        u_t.grad += d_t

    assert_grad_matches(lambda: contrastive(u_v.data, u_t.data, tau=0.2), [u_v, u_t], backward)


# ---------------------------------------------------------------------------
# weighted total


def test_total_loss_weightings():
    model, _ = make_model(d=4, n_classes=3, seed=12)
    rng = np.random.default_rng(12)
    u_v, u_t = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
    labels = rng.integers(0, 3, size=5)

    def values(alpha, beta, gamma):
        hp = proj.ProjHyperParams(alpha=alpha, beta=beta, gamma=gamma)
        return proj._batch_losses(u_v, u_t, labels, model.head, hp)[0]

    assert values(0.0, 0.0, 0.0) == {"l1": 0.0, "l2": 0.0, "l3": 0.0, "total": 0.0}
    terms = values(1.0, 1.0, 1.0)
    assert values(1.0, 0.0, 0.0)["total"] == terms["l1"]
    want = 0.5 * terms["l1"] + 2.0 * terms["l2"] + 1.5 * terms["l3"]
    assert values(0.5, 2.0, 1.5)["total"] == pytest.approx(want, rel=1e-15)


# ---------------------------------------------------------------------------
# the closed-form step and the lean curve probe


def _jittered_model(d, n_classes, hp, use_gate, seed):
    # the weights are jittered off their Xavier draws and the biases off zero,
    # so no ReLU row dies and no embedding row is zero
    model = proj.ProjectionModel(d, range(n_classes), hp, stream(seed, "init"), use_gate=use_gate)
    rng = np.random.default_rng(seed)
    for p in model.params:
        p.data += rng.normal(scale=0.1, size=p.data.shape)
    return model


def _batch(d, n, n_classes, rng):
    return rng.normal(size=(n, d)), rng.normal(size=(n, d)), rng.integers(0, n_classes, size=n)


@pytest.mark.parametrize("use_gate", [True, False])
def test_projection_step_gradients_match_finite_differences(use_gate, monkeypatch):
    hp = proj.ProjHyperParams(tau=0.5)
    model = _jittered_model(5, 3, hp, use_gate, seed=15)
    v, t, labels = _batch(5, 4, 3, np.random.default_rng(16))
    monkeypatch.setattr(proj, "adam_step", lambda params, lr: None)

    def loss_value():
        return proj.dataset_losses(model, v, t, labels, hp)["total"]

    assert_grad_matches(
        loss_value, model.params, lambda: proj.projection_step(model, v, t, labels, hp)
    )


def test_full_projection_gradients_match_finite_differences(monkeypatch):
    # all three losses at the default weights and temperature, on a model
    # fresh from its initialisation
    model, hp = make_model(d=5, n_classes=3, seed=13)
    rng = np.random.default_rng(14)
    v, t = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
    labels = rng.integers(0, 3, size=4)
    monkeypatch.setattr(proj, "adam_step", lambda params, lr: None)

    def loss_value():
        return proj.dataset_losses(model, v, t, labels, hp)["total"]

    assert_grad_matches(
        loss_value, model.params, lambda: proj.projection_step(model, v, t, labels, hp)
    )


@pytest.mark.parametrize("use_gate", [True, False])
@pytest.mark.parametrize(
    "weights, n",
    [((0.0, 1.0, 1.0), 7), ((1.0, 0.0, 1.0), 7), ((1.0, 1.0, 0.0), 7),
     ((0.5, 2.0, 1.5), 1), ((0.0, 0.0, 0.0), 9)],
    ids=["no-l1", "no-l2", "no-l3", "one-row", "no-loss"],
)
def test_projection_step_with_terms_off_matches_finite_differences(weights, n, use_gate, monkeypatch):
    # a term whose weight is 0 is not computed, and one row has no contrastive
    # term; every parameter still reaches Adam, the head's included
    alpha, beta, gamma = weights
    hp = proj.ProjHyperParams(alpha=alpha, beta=beta, gamma=gamma)
    model = _jittered_model(5, 3, hp, use_gate, seed=n)
    v, t, labels = _batch(5, n, 3, np.random.default_rng(n))
    stepped = []
    monkeypatch.setattr(proj, "adam_step", lambda params, lr: stepped.extend(params))

    def loss_value():
        return proj.dataset_losses(model, v, t, labels, hp)["total"]

    assert_grad_matches(
        loss_value, model.params, lambda: proj.projection_step(model, v, t, labels, hp)
    )
    assert sorted(map(id, stepped)) == sorted(map(id, model.params))


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
    # the contrastive term over 2n rows needs one (2n, 2n) matrix; an
    # op-by-op loss also forms a mask, its where-copy, the shifted and
    # masked matrices, at least 3.5 of them
    n, d = 384, 8
    model, hp = make_model(d=d, n_classes=4)
    V, T, labels = _batch(d, n, 4, np.random.default_rng(17))
    pair_matrix = (2 * n) ** 2 * 8
    assert _warm_peak(lambda: proj.dataset_losses(model, V, T, labels, hp)) <= 2 * pair_matrix


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
    assert [g.step_count for g in concurrent.groups] == [g.step_count for g in serial.groups]
    for a, b in zip(concurrent.groups, serial.groups):
        for field in ("data", "adam_m", "adam_v"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field


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
    # wide_cell's stage-2 shapes: d=512, a 256-row batch. An op-by-op step
    # peaked at 73 MiB; both towers' steps at once hold about 28 MiB
    d, n = 512, 256
    hp = proj.ProjHyperParams()
    model = proj.ProjectionModel(d, range(8), hp, stream(2, "init"))
    v, t, labels = _batch(d, n, 8, np.random.default_rng(3))
    assert _warm_peak(lambda: proj.projection_step(model, v, t, labels, hp)) <= 36 * (1 << 20)
