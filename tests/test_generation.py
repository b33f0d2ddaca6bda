import faulthandler
import os
import pickle
import signal
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from xmodal import data, generation as gen, util
from xmodal.errors import ConfigError, NonFiniteError
from xmodal.optim import adam_step, zero_grads
from xmodal.util import stream

from fdcheck import assert_grad_matches


def zero_layer(layer):
    layer.W.data[...] = 0.0
    layer.b.data[...] = 0.0


def fixture_batch(d=8, n=4, seed=21):
    """Features in (0, 1) and attributes, each row its own class."""
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.05, 0.95, size=(n, d))
    a = rng.normal(size=(n, d))
    return v, gen.AttrRows.each(a)


def zero_all_grads(model):
    for group in model.groups:
        zero_grads(group)


def small_model(d=8, seed=0, hp=None):
    hp = hp or gen.GenHyperParams(lr=1e-3, batch=4, epochs=1, seed=seed)
    return gen.VaeGanModel(d, d, hp, stream(seed, "init")), hp


# ---------------------------------------------------------------------------
# attributes by class


def test_attribute_products_by_class_match_the_dense_products():
    rng = np.random.default_rng(5)
    table = rng.normal(size=(5, 6))
    index = np.array([3, 0, 3, 4, 0, 0, 3])
    W, b, G = rng.normal(size=(6, 9)), rng.normal(size=(1, 9)), rng.normal(size=(7, 9))
    a = table[index]
    for attrs in (gen.AttrRows(table, index), gen.AttrRows.each(a)):
        assert len(attrs) == 7
        np.testing.assert_allclose(attrs.affine(W, b), a @ W + b, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(attrs.t_matmul(G), a.T @ G, rtol=1e-12, atol=1e-12)


def test_attribute_rows_keep_only_the_classes_they_use():
    table = np.arange(12.0).reshape(4, 3)
    attrs = gen.AttrRows(table, np.array([2, 0, 2, 3, 0]))
    batch = attrs[[0, 2, 3]]
    assert np.array_equal(batch.table, table[[2, 3]])
    assert np.array_equal(batch.table[batch.rows], table[[2, 2, 3]])


def test_training_attributes_are_the_corpus_rows_by_class():
    corpus = data.synth_corpus(n_classes=4, per_class=3, dim=5, seed=1)
    idx = [0, 4, 5, 11]
    attrs = gen.AttrRows(*corpus.attr_rows(idx))
    assert np.array_equal(attrs.table[attrs.rows], corpus.attr_matrix(idx))
    assert len(attrs.table) == 3


# ---------------------------------------------------------------------------
# encoder forward and reparameterisation


def set_heads(model, mu, logvar):
    """Zero the encoder's heads' weights and set their biases, so that every
    row's posterior is (mu, logvar)."""
    for head, value in ((model.encoder.mu_head, mu), (model.encoder.logvar_head, logvar)):
        zero_layer(head)
        head.b.data[...] = value


def test_reparameterization_identity_when_heads_zeroed():
    model, _ = small_model()
    zero_layer(model.encoder.mu_head)
    zero_layer(model.encoder.logvar_head)
    v = np.random.default_rng(1).normal(size=(3, 8))
    a = gen.AttrRows.each(np.random.default_rng(2).normal(size=(3, 8)))
    _, _, v_bar, cache = gen._vae_forward(model, v, a, stream(5, "eps"))
    expected_eps = stream(5, "eps").standard_normal((3, model.d_z))
    assert np.array_equal(cache["mu"], np.zeros((3, model.d_z)))
    # z = mu + std * eps is the draw itself, and the decoder sees it
    assert np.array_equal(v_bar, gen._generate(model.generator, expected_eps, a)[2])


def test_encoder_clamps_logvar():
    model, _ = small_model()
    model.encoder.logvar_head.b.data[...] = 1e6
    v = np.zeros((2, 8))
    a = gen.AttrRows.each(np.zeros((2, 8)))
    _, _, logvar, keep = gen._encode(model.encoder, v, a)
    assert np.all(logvar <= 10.0)
    assert not keep.any()
    model.encoder.logvar_head.b.data[...] = -1e6
    _, _, logvar, keep = gen._encode(model.encoder, v, a)
    assert np.all(logvar >= -10.0)
    assert not keep.any()


@pytest.mark.parametrize("bias, logvar", [(30.0, gen.LOGVAR_MAX), (-30.0, gen.LOGVAR_MIN)])
def test_posterior_takes_the_clipped_log_variance(bias, logvar):
    # the critic step's posterior is the E/G step's: sigma = exp(clip(logvar) / 2)
    model, _ = small_model()
    model.encoder.logvar_head.b.data[...] = bias
    v, a = fixture_batch()
    mu, std = model.posterior(v, a)
    assert np.array_equal(std, np.full(std.shape, np.exp(logvar * 0.5)))
    cache = gen._vae_forward(model, v, a, stream(0, "eps"))[3]
    assert np.array_equal(mu, cache["mu"])
    assert np.array_equal(std, cache["std"])


def spy_on_latents(monkeypatch) -> list:
    """Record a copy of every latent matrix the generator is run on."""
    latents, generate = [], gen._generate

    def spy(generator, z, a):
        latents.append(z.copy())
        return generate(generator, z, a)

    monkeypatch.setattr(gen, "_generate", spy)
    return latents


def test_zero_variance_limit_returns_mu(monkeypatch):
    # the critic step's reconstruction path draws z = mu + std * eps: at
    # std 0 the generator sees mu itself
    model, hp = small_model()
    v, a = fixture_batch()
    mu = np.random.default_rng(3).normal(size=(4, model.d_z))
    latents = spy_on_latents(monkeypatch)
    gen.critic_step(v, a, model, hp, stream(0, "eps"), (mu, np.zeros_like(mu)))
    _, z = latents
    assert np.array_equal(z, mu)


def test_reparameterized_moments_match_parameters(monkeypatch):
    n = 10_000
    model, _ = small_model(hp=gen.GenHyperParams(latent_dim=1))
    set_heads(model, 1.0, 0.0)
    latents = spy_on_latents(monkeypatch)
    a = gen.AttrRows(np.zeros((1, 8)), np.zeros(n, np.int64))
    gen._vae_forward(model, np.zeros((n, 8)), a, stream(3, "mc"))
    (z,) = latents
    assert z.mean() == pytest.approx(1.0, abs=0.05)
    assert z.std() == pytest.approx(1.0, abs=0.05)


# ---------------------------------------------------------------------------
# kl / recon


def vae_kl(mu, logvar) -> float:
    """`_vae_forward`'s KL term at one row whose posterior is (mu, logvar)."""
    mu, logvar = np.atleast_2d(mu), np.atleast_2d(logvar)
    model, _ = small_model(hp=gen.GenHyperParams(latent_dim=mu.shape[1]))
    set_heads(model, mu, logvar)
    v, a = fixture_batch(n=1)
    return gen._vae_forward(model, v, a, stream(0, "eps"))[0]


def test_kl_zero_at_prior():
    assert vae_kl(0.0, 0.0) == 0.0


def test_kl_unit_mean_single_dim():
    assert vae_kl(1.0, 0.0) == 0.5


def test_kl_matches_monte_carlo_oracle():
    rng = np.random.default_rng(12)
    mu = rng.normal(size=(1, 6))
    logvar = rng.uniform(-1.0, 1.0, size=(1, 6))
    analytic = vae_kl(mu, logvar)

    # independent oracle: E_q[log q(z) - log p(z)] by sampling
    std = np.exp(logvar / 2.0)
    draws = 100_000
    eps = np.random.default_rng(99).standard_normal((draws, 1, 6))
    z = mu + std * eps
    log_q = -0.5 * (np.log(2 * np.pi) + logvar + eps**2)
    log_p = -0.5 * (np.log(2 * np.pi) + z**2)
    mc = (log_q - log_p).sum(axis=2).mean(axis=0).mean()
    assert analytic == pytest.approx(mc, rel=0.02)


def test_kl_nonnegative_on_random_inputs():
    rng = np.random.default_rng(4)
    for _ in range(50):
        assert vae_kl(rng.normal(size=(1, 4)), rng.uniform(-3, 3, size=(1, 4))) >= 0.0


def test_recon_loss_values_and_gradient():
    # a zeroed last generator layer makes every reconstruction 0.5, and a
    # zeroed critic gives the E/G step no adversarial gradient
    model, hp = small_model()
    zero_layer(model.generator.l2)
    zero_layer(model.critic.l1)
    zero_layer(model.critic.l2)
    a = fixture_batch()[1]
    assert gen._vae_forward(model, np.full((4, 8), 0.5), a, stream(0, "eps"))[1] == 0.0
    v = np.zeros((4, 8))
    assert gen._vae_forward(model, v, a, stream(0, "eps"))[1] == 0.25
    zero_all_grads(model)
    gen.eg_step(v, a, model, hp, stream(0, "eps"), use_vae=True)
    # d recon / d v_bar = 2 (v_bar - v) / 32 per element, times the sigmoid's
    # slope 0.25, summed over 4 rows
    assert np.array_equal(model.generator.l2.b.grad, np.full((1, 8), 0.25 / 8))


# ---------------------------------------------------------------------------
# gradient penalty


def linear_critic(w):
    """A Critic that scores v @ w + const on inputs within (-10, 10).

    Identity feature block, zero attribute block, and a bias of 10 that
    keeps every hidden pre-activation positive, so the LeakyReLU is the
    identity and the input gradient is w on every row.
    """
    w = np.asarray(w, dtype=float).reshape(-1, 1)
    d = w.shape[0]
    critic = gen.Critic(d, d)
    critic.lay_out(None, (critic,))
    critic.l1.W.data[...] = np.vstack([np.eye(d, 2 * d), np.zeros((d, 2 * d))])
    critic.l1.b.data[...] = 10.0
    critic.l2.W.data[...] = np.vstack([w, np.zeros((d, 1))])
    critic.l2.b.data[...] = 0.0
    return critic


def penalty_at(critic, rng, n):
    """The penalty at interpolates of random real and fake rows."""
    d = critic.d_feat
    real, fake, a = (rng.normal(size=(n, d)) for _ in range(3))
    eps = rng.uniform(size=(n, 1))
    v_hat = eps * real + (1.0 - eps) * fake
    pre = critic.hidden(v_hat, critic.attr_branch(gen.AttrRows.each(a)))
    return gen.penalty_terms(critic, pre, n, grads=False)[0]


def test_penalty_zero_for_unit_norm_linear_critic():
    pen = penalty_at(linear_critic([0.6, 0.8]), np.random.default_rng(0), 6)
    assert pen == pytest.approx(0.0, abs=1e-12)


def test_penalty_closed_form_for_norm_three_critic():
    pen = penalty_at(linear_critic([3.0, 0.0]), np.random.default_rng(1), 5)
    assert pen == pytest.approx(4.0, abs=1e-10)


def test_penalty_nonnegative():
    model, _ = small_model(d=6, seed=3)
    assert penalty_at(model.critic, np.random.default_rng(5), 4) >= 0.0


def test_critic_input_gradient_matches_finite_differences():
    model, _ = small_model(d=6, seed=7)
    rng = np.random.default_rng(8)
    v_hat = rng.normal(size=(3, 6))
    a = gen.AttrRows.each(rng.normal(size=(3, 6)))
    a_pre = model.critic.attr_branch(a)
    _, _, gin = model.critic.input_gradient(model.critic.hidden(v_hat, a_pre))

    def score_sum():
        return model.critic.scores(model.critic.hidden(v_hat, a_pre)).sum()

    eps = 1e-5
    fd = np.zeros_like(v_hat)
    for i in range(3):
        for j in range(6):
            orig = v_hat[i, j]
            v_hat[i, j] = orig + eps
            up = score_sum()
            v_hat[i, j] = orig - eps
            down = score_sum()
            v_hat[i, j] = orig
            fd[i, j] = (up - down) / (2 * eps)
    rel = np.abs(gin - fd) / np.maximum(np.abs(fd), 1e-8)
    assert rel.max() < 1e-4


@pytest.mark.parametrize("caller", ["critic_step", "probe"])
def test_penalty_pre_activation_is_the_interpolates_hidden_pre_activation(caller, monkeypatch):
    # the step and the probe mix their feature products by linearity; that
    # must be the hidden pre-activation at v_hat = e·real + (1 − e)·other
    model, hp = small_model(d=6, seed=57)
    v, a = fixture_batch(d=6, n=5, seed=58)
    seen, real_penalty = [], gen.penalty_terms

    def penalty_terms(critic, pre, n, grads=True):
        seen.append(pre.copy())
        return real_penalty(critic, pre, n, grads)

    monkeypatch.setattr(gen, "penalty_terms", penalty_terms)
    posterior = model.posterior(v, a)
    ref = stream(3, "pre")
    if caller == "critic_step":
        gen.critic_step(v, a, model, hp, stream(3, "pre"), posterior)
        # its draws: noise, reparameterisation, then one eps per path
        fake = gen._generate(model.generator, ref.standard_normal((5, model.d_z)), a)[2]
        mu, std = posterior
        recon = gen._generate(model.generator, mu + std * ref.standard_normal(mu.shape), a)[2]
    else:
        gen._dataset_metrics(model, v, a, hp, stream(3, "pre"), True)
        # its draws: reparameterisation, noise, then one eps per path
        recon = gen._vae_forward(model, v, a, ref)[2]
        fake = gen._generate(model.generator, ref.standard_normal((5, model.d_z)), a)[2]
    a_pre = model.critic.attr_branch(a)
    for other, got in zip((fake, recon), np.split(np.vstack(seen), 2)):
        e = ref.uniform(size=(5, 1))
        want = model.critic.hidden(e * v + (1.0 - e) * other, a_pre)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_zeroed_critic_penalty_gradients_are_finite():
    # a zeroed critic has a zero input gradient on every row, where the norm
    # has no derivative: the penalty's gradient there is zero, not 0/0
    model, hp = small_model(d=4, seed=9)
    zero_layer(model.critic.l1)
    zero_layer(model.critic.l2)
    v, a = fixture_batch(d=4, n=4, seed=10)
    for use_vae in (True, False):
        zero_all_grads(model)
        posterior = model.posterior(v, a) if use_vae else None
        value = gen.critic_step(v, a, model, hp, stream(1, "gp"), posterior)
        assert value == pytest.approx(10.0 * (2 if use_vae else 1), abs=1e-12)
        for p in model.critic.params:
            assert np.all(np.isfinite(p.grad))


# ---------------------------------------------------------------------------
# critic loss: the value `critic_step` returns, which the critic minimizes


def test_critic_loss_zero_for_zero_critic():
    model, hp = small_model(d=4, seed=9)
    zero_layer(model.critic.l1)
    zero_layer(model.critic.l2)
    rng = np.random.default_rng(3)
    v, a = rng.normal(size=(4, 4)), gen.AttrRows.each(rng.normal(size=(4, 4)))
    for posterior in (None, model.posterior(v, a)):
        loss = gen.critic_step(v, a, model, replace(hp, lambda_gp=0.0), stream(0, "gp"), posterior)
        assert loss == 0.0


def test_critic_loss_linear_critic_is_mean_difference():
    w = np.array([1.0, -2.0, 0.5])
    model, hp = small_model(d=3)
    model.critic = linear_critic(w)
    # a zeroed last generator layer makes every fake row 0.5
    zero_layer(model.generator.l2)
    real = np.tile([1.0, 1.0, 1.0], (4, 1))
    a = gen.AttrRows(np.zeros((1, 3)), np.zeros(4, np.int64))
    loss = gen.critic_step(real, a, model, replace(hp, lambda_gp=0.0), stream(0, "gp"), None)
    expected = float(w @ np.full(3, 0.5) - w @ real[0])
    assert loss == pytest.approx(expected, abs=1e-12)


def test_one_critic_step_increases_objective():
    model, hp = small_model(d=6, seed=11)
    rng = np.random.default_rng(13)
    v = rng.normal(size=(8, 6))
    a = gen.AttrRows.each(rng.normal(size=(8, 6)))

    def loss():
        zero_grads(model.groups[1])
        return gen.critic_step(v, a, model, hp, stream(1, "gp"), None)

    before = loss()
    adam_step(model.groups[1], lr=1e-3)
    assert loss() < before


@pytest.mark.parametrize(
    "use_vae, logvar_bias",
    [(True, None), (False, None), (True, 30.0), (True, -30.0)],
    ids=["True", "False", "True-logvar-high", "True-logvar-low"],
)
def test_critic_step_gradients_match_finite_differences(use_vae, logvar_bias):
    model, hp = small_model(d=6, seed=51)
    v, a = fixture_batch(d=6, n=5, seed=52)
    if logvar_bias is not None:
        # a saturated head: the reconstruction path's posterior is clipped
        model.encoder.logvar_head.b.data[...] = logvar_bias
    posterior = model.posterior(v, a) if use_vae else None

    def loss():
        return gen.critic_step(v, a, model, hp, stream(9, "critic"), posterior)

    zero_all_grads(model)
    # eps=1e-6 keeps the stencil clear of LeakyReLU mask flips
    assert_grad_matches(loss, model.critic.params, loss, eps=1e-6)
    for p in model.encoder.params + model.generator.params:
        assert not p.grad.any()


@pytest.mark.parametrize("use_vae", [True, False])
def test_critic_step_without_penalty_draws_no_eps(use_vae, monkeypatch):
    # at lambda_gp = 0 the step computes no penalty and draws no eps
    model, hp = small_model(d=6, seed=53)
    hp = replace(hp, lambda_gp=0.0)
    v, a = fixture_batch(d=6, n=5, seed=54)
    posterior = model.posterior(v, a) if use_vae else None

    def step(rng):
        return gen.critic_step(v, a, model, hp, rng, posterior)

    penalties, real = [], gen.penalty_terms

    def penalty_terms(*args, **kwargs):
        penalties.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(gen, "penalty_terms", penalty_terms)
    rng_step, rng_ref = stream(9, "critic"), stream(9, "critic")
    zero_all_grads(model)
    value = step(rng_step)
    # the loss by hand, drawing in the step's order: noise, then the
    # reparameterisation
    others = [gen._generate(model.generator, rng_ref.standard_normal((5, model.d_z)), a)[2]]
    if use_vae:
        mu, std = posterior
        z = mu + std * rng_ref.standard_normal(mu.shape)
        others.append(gen._generate(model.generator, z, a)[2])
    a_pre = model.critic.attr_branch(a)

    def mean_score(x):
        return model.critic.scores(model.critic.hidden(x, a_pre)).mean()

    assert value == pytest.approx(sum(mean_score(o) - mean_score(v) for o in others), rel=1e-12)
    assert rng_step.bit_generator.state == rng_ref.bit_generator.state
    assert not penalties
    assert_grad_matches(
        lambda: step(stream(9, "critic")),
        model.critic.params,
        lambda: step(stream(9, "critic")),
        eps=1e-6,
    )


# ---------------------------------------------------------------------------
# the encoder/generator step and the curve probe


def test_generation_losses_additive_and_finite():
    model, hp = small_model()
    v, a = fixture_batch()
    vals = gen._dataset_metrics(model, v, a, hp, stream(0, "loss"), True)
    assert all(np.isfinite(v) for v in vals.values())
    assert vals["vae"] == vals["kl"] + vals["recon"]
    assert vals["total"] == pytest.approx(vals["vae"] + vals["gan1"] + vals["gan2"], abs=1e-12)


def test_zero_penalty_zero_critic_reduces_to_vae():
    hp = gen.GenHyperParams(lambda_gp=0.0, lr=1e-3, batch=4, epochs=1)
    model = gen.VaeGanModel(8, 8, hp, stream(1, "init"))
    zero_layer(model.critic.l1)
    zero_layer(model.critic.l2)
    v, a = fixture_batch()
    vals = gen._dataset_metrics(model, v, a, hp, stream(2, "loss"), True)
    assert vals["total"] == pytest.approx(vals["vae"], abs=1e-12)


def test_generation_total_gradients_match_finite_differences():
    # the E/G step against central differences of the total it returns, at
    # the default lambda_gp; eps=1e-6 keeps the stencil clear of mask flips
    model, hp = small_model(d=6, seed=31)
    v, a = fixture_batch(d=6, n=4, seed=32)

    def loss():
        return gen.eg_step(v, a, model, hp, stream(7, "fd"), True)

    assert_grad_matches(loss, model.encoder.params + model.generator.params, loss, eps=1e-6)


def test_penalty_leaves_encoder_and_generator_gradients_unchanged():
    # real and fake enter the penalty as constants, so the E/G step skips
    # it: its loss and gradients are the same at any lambda_gp
    model, hp = small_model(d=6, seed=61)
    v, a = fixture_batch(d=6, n=4, seed=62)
    eg = model.encoder.params + model.generator.params
    results = []
    for lambda_gp in (hp.lambda_gp, 0.0):
        zero_all_grads(model)
        value = gen.eg_step(v, a, model, replace(hp, lambda_gp=lambda_gp), stream(5, "eg"), True)
        results.append((value, [p.grad.copy() for p in eg]))
    (value, grads), (want_value, want_grads) = results
    assert value == want_value
    for with_gp, without in zip(grads, want_grads):
        assert np.array_equal(with_gp, without)


@pytest.mark.parametrize("use_vae", [True, False])
def test_eg_step_holds_the_critic_constant(use_vae):
    model, hp = small_model(d=6, seed=71)
    v, a = fixture_batch(d=6, n=4, seed=72)
    zero_all_grads(model)
    rng_step = stream(5, "eg")
    value = gen.eg_step(v, a, model, hp, rng_step, use_vae)
    for p in model.critic.params:
        assert not p.grad.any()
    # the step's loss is the probe's total at lambda_gp = 0
    probe = gen._dataset_metrics(model, v, a, replace(hp, lambda_gp=0.0), stream(5, "eg"), use_vae)
    assert value == probe["total"]
    # the skipped penalties' eps are drawn after the step's own draws, as the
    # probe draws its penalties' eps
    rng_probe = stream(5, "eg")
    gen._dataset_metrics(model, v, a, hp, rng_probe, use_vae)
    assert rng_step.bit_generator.state == rng_probe.bit_generator.state


@pytest.mark.parametrize("use_vae", [True, False])
def test_eg_step_gradients_match_finite_differences(use_vae):
    model, hp = small_model(d=6, seed=81)
    v, a = fixture_batch(d=6, n=5, seed=82)

    def loss_value():
        probe_hp = replace(hp, lambda_gp=0.0)
        return gen._dataset_metrics(model, v, a, probe_hp, stream(4, "eg"), use_vae)["total"]

    eg = model.encoder.params + model.generator.params if use_vae else model.generator.params
    # eps=1e-6 keeps the stencil clear of ReLU and LeakyReLU mask flips
    assert_grad_matches(
        loss_value, eg, lambda: gen.eg_step(v, a, model, hp, stream(4, "eg"), use_vae), eps=1e-6
    )
    if not use_vae:
        assert not any(p.grad.any() for p in model.encoder.params)


def _step_peak(step, *args):
    tracemalloc.start()
    try:
        step(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _stage1_step_peaks(d):
    """(critic step, E/G step) tracemalloc peaks at d = d_attr on a 256-row batch."""
    hp = gen.GenHyperParams(seed=2)
    model = gen.VaeGanModel(d, d, hp, stream(2, "init"))
    rng = np.random.default_rng(3)
    v, a = rng.uniform(size=(256, d)), gen.AttrRows.each(rng.normal(size=(256, d)))
    posterior = model.posterior(v, a)
    critic = _step_peak(gen.critic_step, v, a, model, hp, stream(4, "noise"), posterior)
    eg = _step_peak(gen.eg_step, v, a, model, hp, stream(4, "noise"), True)
    return critic, eg


def _critic_step_bound(d, n=256):
    # one batch's working set, H = 2d wide: the 3n feature rows, their
    # (3n, H) first-layer product, which the score pass overwrites in turn,
    # and the penalty's (2n, H) interpolates; while those are formed, the
    # (n, H) attribute branch and one (n, H) path term. float64, plus 512
    # KiB for a mask chunk and the rest. The rows' (d, H) weight gradient
    # is formed in the critic's gradient, not beside it
    H = 2 * d
    return 8 * (3 * n * d + 3 * n * H + 2 * n * H + 2 * n * H) + 2**19


def _eg_step_bound(d, n=256):
    # the E/G step peaks while a first layer's attribute gradient is formed:
    # a (d_attr, width) product and its (n, width) class sums, beside the
    # reconstruction path's backward cache, the noise, the critic's (n, H)
    # attribute branch and the cotangents of the moment. At d=512 that is
    # the noise path's generator layer, at d=1024 the encoder's
    w1, w2, w3 = (gen._scaled(w, d) for w in gen.ENCODER_WIDTHS_1024)
    d_z, hidden, H = gen.default_latent_dim(d), gen._scaled(gen.GENERATOR_HIDDEN_1024, d), 2 * d
    # per row: the encoder's activations; mu, std, eps and exp(logvar); the
    # clip's bools; the decoder's latent, hidden and output; the residual
    cache = w1 + w2 + w3 + 4 * d_z + d_z / 8 + d_z + hidden + d + d
    held = cache + d_z + H
    # the noise path's hidden and output, its score cotangent and hidden cotangent
    generator = n * (held + hidden + d + d + hidden + hidden) + d * hidden
    # dz, dmu, dlogvar and the first layer's cotangent
    encoder = n * (held + 3 * d_z + w1 + w1) + d * w1
    return 8 * max(generator, encoder) + 2**19


def test_stage1_steps_hold_few_temporaries_at_width_512():
    # wide_cell's shapes: d = d_attr = 512 and a 256-row batch; the critic's
    # first weight alone is 8 MiB. An op-by-op E/G step peaked at 57 MB and
    # the critic step at 60 MB. The critic step took 17.07 MiB against this
    # bound's 17.5 MiB; with whole-matrix slope masks and a second (3n, H)
    # pre-activation it took 24.75 MiB. The E/G step took 16.04 MiB against
    # its bound's 16.53 MiB.
    critic, eg = _stage1_step_peaks(512)
    assert critic <= _critic_step_bound(512)
    assert eg <= _eg_step_bound(512)


def test_critic_step_holds_one_batch_working_set_at_width_1024():
    # the paper's width: the critic step took 34.07 MiB against this
    # bound's 34.5 MiB. Adding the rows' weight gradient into the critic's
    # gradient from a (d, H) temporary took 42.03 MiB; keeping the feature
    # product alive through the penalty as well, by a loop variable that
    # viewed it, took 58.54 MiB. The E/G step took 35.27 MiB against its
    # bound's 35.75 MiB.
    critic, eg = _stage1_step_peaks(1024)
    assert critic <= _critic_step_bound(1024)
    assert eg <= _eg_step_bound(1024)


def test_curve_probe_holds_no_backward_cache():
    # the probe runs over every training row, four batches here, so its
    # reconstruction forward is the largest thing it forms. At d=128 over
    # 512 rows it peaked at 14.0 (n, d) float64 arrays; binding the backward
    # pass's cache as well (the encoder's and the decoder's activations, the
    # draws and the residual) held 20.7
    hp = gen.GenHyperParams(seed=2)
    n, d = 4 * hp.batch, 128
    model = gen.VaeGanModel(d, d, hp, stream(2, "init"))
    rng = np.random.default_rng(3)
    X, a = rng.uniform(size=(n, d)), gen.AttrRows.each(rng.normal(size=(n, d)))
    probe = _step_peak(gen._dataset_metrics, model, X, a, hp, stream(4, "probe"), True)
    assert probe <= 16 * n * d * 8


def test_no_vae_losses_drop_reconstruction_path():
    model, hp = small_model(d=6, seed=41)
    v, a = fixture_batch(d=6, n=4, seed=42)
    vals = gen._dataset_metrics(model, v, a, hp, stream(3, "loss"), False)
    assert vals["vae"] == 0.0
    assert vals["gan2"] == 0.0
    assert vals["total"] == vals["gan1"]


# ---------------------------------------------------------------------------
# training and synthesis


@pytest.fixture(scope="module")
def trained_setup():
    corpus = data.synth_corpus(
        n_classes=12,
        per_class=40,
        dim=64,
        noise_sigma=0.085,
        proto_rank=4,
        modality_gap=0.5,
        seed=5,
    )
    split = data.split_xshot(corpus, x=0, seed=5)
    hp = gen.GenHyperParams(lr=1e-3, batch=64, epochs=70, seed=5)
    img, txt, curves = gen.train_generation(split, corpus, hp)
    return corpus, split, hp, img, txt, curves


def test_training_is_deterministic():
    corpus = data.synth_corpus(n_classes=4, per_class=6, dim=8, seed=2)
    split = data.split_xshot(corpus, x=0, seed=2)
    hp = gen.GenHyperParams(lr=1e-3, batch=8, epochs=1, seed=3)
    img1, txt1, _ = gen.train_generation(split, corpus, hp)
    img2, txt2, _ = gen.train_generation(split, corpus, hp)
    for (n1, p1), (n2, p2) in zip(img1.named_params(), img2.named_params()):
        assert n1 == n2
        assert np.array_equal(p1.data, p2.data)
    for (_, p1), (_, p2) in zip(txt1.named_params(), txt2.named_params()):
        assert np.array_equal(p1.data, p2.data)


def _distinct_bytes(*arrays):
    """The bytes the contiguous arrays cover, each byte counted once."""
    total = end = 0
    for start, size in sorted((a.__array_interface__["data"][0], a.nbytes) for a in arrays):
        total += max(0, start + size - max(start, end))
        end = max(end, start + size)
    return total


@pytest.mark.parametrize("d_feat, d_attr", [(16, 16), (8, 64)], ids=["eg-larger", "critic-larger"])
def test_a_training_model_lays_both_gradients_over_one_buffer(d_feat, d_attr):
    hp = gen.GenHyperParams(seed=3)
    feats = np.random.default_rng(4).uniform(size=(10, d_feat))
    model, _ = gen._new_model(feats, d_attr, hp, "img")
    eg, critic = model.groups
    assert (critic.data.size > eg.data.size) == (d_attr > d_feat)
    assert np.shares_memory(eg.grad, critic.grad)
    assert _distinct_bytes(eg.grad, critic.grad) == 8 * max(eg.data.size, critic.data.size)
    # a model built for a load, for synthesis or by hand keeps two gradients
    direct = gen.VaeGanModel(d_feat, d_attr, hp, stream(3, "img", "init"))
    assert not np.shares_memory(*(group.grad for group in direct.groups))


def _train_tiny(use_vae=True, separate=False):
    """(model, curve) of the tiny cell's image model from `_new_model`; with
    `separate`, its smaller network gets a gradient buffer of its own again."""
    corpus, split, hp = _tiny_cell()
    attrs = gen.AttrRows(*corpus.attr_rows(split.train_rows))
    model, X = gen._new_model(corpus.image_matrix(split.train_rows), attrs.table.shape[1], hp, "img")
    if separate:
        small = min(model.groups, key=lambda group: group.grad.size)
        small.bind_grad(np.zeros(small.data.size))
    return gen._train_single_modality(model, X, attrs, hp, "img", use_vae, threading.Event())


def _assert_same_training_state(got, want):
    assert [g.step_count for g in got.groups] == [g.step_count for g in want.groups]
    for a, b in zip(got.groups, want.groups):
        for field in ("data", "adam_m", "adam_v"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field


@pytest.mark.parametrize("use_vae", [True, False])
def test_a_shared_gradient_buffer_trains_as_two_buffers_do(use_vae):
    shared, curve = _train_tiny(use_vae)
    separate, want_curve = _train_tiny(use_vae, separate=True)
    assert not np.shares_memory(*(group.grad for group in separate.groups))
    assert curve == want_curve
    _assert_same_training_state(shared, separate)
    small, large = sorted(shared.groups, key=lambda group: group.grad.size)
    assert np.shares_memory(small.grad, large.grad)
    assert not large.grad.any()


def test_a_training_model_pickles_as_a_forked_child_sends_it():
    model, curve = _train_tiny()
    back, back_curve = pickle.loads(pickle.dumps((model, curve), pickle.HIGHEST_PROTOCOL))
    assert back_curve == curve
    _assert_same_training_state(back, model)
    for group in back.groups:
        assert not group.grad.any()
        for p in group:
            assert np.shares_memory(p.data, group.data) and np.shares_memory(p.grad, group.grad)


def test_nan_weight_fails_at_the_first_critic_step(monkeypatch):
    class Poisoned(gen.VaeGanModel):
        def __init__(self, *args):
            super().__init__(*args)
            self.generator.l2.W.data[0, 0] = np.nan

    monkeypatch.setattr(gen, "VaeGanModel", Poisoned)
    corpus = data.synth_corpus(n_classes=4, per_class=6, dim=8, seed=2)
    split = data.split_xshot(corpus, x=0, seed=2)
    hp = gen.GenHyperParams(lr=1e-3, batch=8, epochs=2, seed=3)
    with pytest.raises(NonFiniteError, match=r"^stage 1 img critic: loss is nan at epoch 1, step 1$"):
        gen.train_generation(split, corpus, hp)


def _tiny_cell(epochs=2):
    corpus = data.synth_corpus(n_classes=4, per_class=6, dim=8, seed=2)
    split = data.split_xshot(corpus, x=0, seed=2)
    return corpus, split, gen.GenHyperParams(lr=1e-3, batch=8, epochs=epochs, seed=3)


def _record_caller(path):
    """Append this process's and thread's identity to the file at path."""
    with open(path, "a") as f:
        f.write(f"{os.getpid()} {threading.get_ident()}\n")


def _check_concurrent_equals_in_turn(monkeypatch, tmp_path, use_vae):
    corpus, split, hp = _tiny_cell()
    callers = tmp_path / "callers"
    real_eg_step = gen.eg_step

    def eg_step(*args):
        _record_caller(callers)
        return real_eg_step(*args)

    monkeypatch.setattr(gen, "eg_step", eg_step)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two threads as finely as possible
    try:
        img, txt, curves = gen.train_generation(split, corpus, hp, use_vae)
    finally:
        sys.setswitchinterval(switch)
    assert len(set(callers.read_text().splitlines())) == 2

    idx = list(split.source_train) + list(split.target_train)
    attrs = gen.AttrRows(*corpus.attr_rows(idx))
    for modality, feats, model in (
        ("img", corpus.image_matrix(idx), img),
        ("txt", corpus.text_matrix(idx), txt),
    ):
        ref, X = gen._new_model(feats, attrs.table.shape[1], hp, modality)
        _, curve = gen._train_single_modality(ref, X, attrs, hp, modality, use_vae, threading.Event())
        assert curves[modality] == curve
        # the forked child sends back its whole model, not only the parameters
        assert (model.d_z, model.hp) == (ref.d_z, ref.hp)
        assert np.array_equal(model.scaler.lo, ref.scaler.lo)
        assert np.array_equal(model.scaler.span, ref.scaler.span)
        _assert_same_training_state(model, ref)


@pytest.mark.parametrize("use_vae", [True, False])
def test_concurrent_training_equals_training_in_turn(worker, monkeypatch, tmp_path, use_vae):
    _check_concurrent_equals_in_turn(monkeypatch, tmp_path, use_vae)


@pytest.mark.parametrize("use_vae", [True, False])
def test_forked_training_equals_training_in_turn(child, monkeypatch, tmp_path, use_vae):
    _check_concurrent_equals_in_turn(monkeypatch, tmp_path, use_vae)


def test_the_forked_text_model_is_built_in_the_child_only(child, monkeypatch, tmp_path):
    corpus, split, hp = _tiny_cell()
    builds = tmp_path / "builds"
    real_new_model = gen._new_model

    def new_model(feats, d_attr, hp, modality):
        with open(builds, "a") as f:
            f.write(f"{os.getpid()} {modality}\n")
        return real_new_model(feats, d_attr, hp, modality)

    monkeypatch.setattr(gen, "_new_model", new_model)
    forked = gen.train_generation(split, corpus, hp)
    parent = str(os.getpid())
    built = [line.split() for line in builds.read_text().splitlines()]
    assert [m for pid, m in built if pid == parent] == ["img"]
    assert [m for pid, m in built if pid != parent] == ["txt"]

    monkeypatch.setattr(util, "_spare_core", lambda: False)
    serial = gen.train_generation(split, corpus, hp)
    assert forked[2] == serial[2]
    for got, want in zip(forked[:2], serial[:2]):
        assert [g.step_count for g in got.groups] == [g.step_count for g in want.groups]
        for a, b in zip(got.groups, want.groups):
            for field in ("data", "grad", "adam_m", "adam_v"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field
        assert got.scaler.lo.tobytes() == want.scaler.lo.tobytes()
        assert got.scaler.span.tobytes() == want.scaler.span.tobytes()


def _check_nan_raised_in_serial_order(monkeypatch, poisoned):
    corpus, split, hp = _tiny_cell()
    init_states = {m: stream(hp.seed, m, "init").bit_generator.state for m in poisoned}

    class Poisoned(gen.VaeGanModel):
        def __init__(self, d_feat, d_attr, hp, rng):
            fresh = rng.bit_generator.state in init_states.values()
            super().__init__(d_feat, d_attr, hp, rng)
            if fresh:
                self.generator.l2.W.data[0, 0] = np.nan

    monkeypatch.setattr(gen, "VaeGanModel", Poisoned)
    before = threading.active_count()
    with pytest.raises(
        NonFiniteError, match=rf"^stage 1 {poisoned[0]} critic: loss is nan at epoch 1, step 1$"
    ):
        gen.train_generation(split, corpus, hp)
    assert threading.active_count() == before


@pytest.mark.parametrize("poisoned", [("txt",), ("img", "txt")])
def test_nan_in_a_concurrent_modality_is_raised_in_serial_order(worker, monkeypatch, poisoned):
    _check_nan_raised_in_serial_order(monkeypatch, poisoned)


@pytest.mark.parametrize("poisoned", [("txt",), ("img", "txt")])
def test_nan_in_a_forked_modality_is_raised_in_serial_order(child, monkeypatch, poisoned):
    _check_nan_raised_in_serial_order(monkeypatch, poisoned)


def test_calling_thread_error_stops_the_worker_within_one_batch(worker, monkeypatch):
    # one batch per epoch: without the stop the worker would run all 40
    corpus, split, hp = _tiny_cell(epochs=40)
    hp = replace(hp, batch=64)
    main = threading.get_ident()
    worker_started = threading.Event()
    raised = threading.Event()
    after_raise = []
    real_critic_step, real_eg_step = gen.critic_step, gen.eg_step

    def critic_step(*args):
        if threading.get_ident() == main:
            assert worker_started.wait(timeout=60)
            raised.set()
            raise KeyboardInterrupt
        return real_critic_step(*args)

    def eg_step(*args):
        after_raise.append(raised.is_set())
        worker_started.set()
        time.sleep(0.02)  # a slow batch, so the calling thread sets the stop mid-batch
        return real_eg_step(*args)

    monkeypatch.setattr(gen, "critic_step", critic_step)
    monkeypatch.setattr(gen, "eg_step", eg_step)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        gen.train_generation(split, corpus, hp)
    assert threading.active_count() == before
    assert sum(after_raise) <= 1
    assert len(after_raise) < hp.epochs


def test_one_fork_decision_per_stage_1(child, monkeypatch, tmp_path):
    # the text model trains in the child train_generation decided on, even
    # when a second forks() call would read otherwise
    corpus, split, hp = _tiny_cell(epochs=1)
    callers = tmp_path / "callers"
    real_eg_step = gen.eg_step

    def eg_step(*args):
        _record_caller(callers)
        return real_eg_step(*args)

    monkeypatch.setattr(gen, "eg_step", eg_step)
    monkeypatch.setattr(gen, "forks", lambda width: True)
    monkeypatch.setattr(util, "forks", lambda width: False)
    gen.train_generation(split, corpus, hp)
    pids = {line.split()[0] for line in callers.read_text().splitlines()}
    assert len(pids) == 2 and str(os.getpid()) in pids


def _stall_report(forked):
    """Why the wait for the forked child's first batch may have run out: this
    process's threads, and whether the child forked and still exists."""
    names = [t.name for t in threading.enumerate()]
    try:
        tasks = len(os.listdir("/proc/self/task"))
    except OSError:
        tasks = "unknown"
    if not forked:
        child = "no child was forked"
    else:
        try:
            with open(f"/proc/{forked[0]}/stat") as f:
                child = f"child {forked[0]} exists in state {f.read().rsplit(')', 1)[1].split()[0]}"
        except OSError:
            child = f"child {forked[0]} no longer exists"
    return (f"the child never started a batch: Python threads {names}, "
            f"{tasks} threads in /proc/self/task, {child}")


def test_calling_thread_error_kills_the_child(child, monkeypatch, tmp_path):
    # one batch per epoch: a child left running would go through all 40
    corpus, split, hp = _tiny_cell(epochs=40)
    hp = replace(hp, batch=64)
    # else the text model trains after the image model and the wait below runs out
    assert util.forks(corpus.dim)
    parent = os.getpid()
    batches = tmp_path / "batches"
    real_critic_step, real_eg_step, real_fork = gen.critic_step, gen.eg_step, os.fork
    forked = []

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    def critic_step(*args):
        if os.getpid() == parent:
            deadline = time.monotonic() + 60
            while not batches.exists():
                assert time.monotonic() < deadline, _stall_report(forked)
                time.sleep(0.001)
            raise KeyboardInterrupt
        return real_critic_step(*args)

    def eg_step(*args):
        _record_caller(batches)
        time.sleep(0.02)  # a slow batch, so the kill lands mid-batch
        return real_eg_step(*args)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(gen, "critic_step", critic_step)
    monkeypatch.setattr(gen, "eg_step", eg_step)
    with pytest.raises(KeyboardInterrupt):
        gen.train_generation(split, corpus, hp)
    assert len(batches.read_text().splitlines()) < hp.epochs


@pytest.mark.parametrize(
    "end, how",
    [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {int(signal.SIGKILL)}"),
        (lambda: os._exit(3), "exit status 3"),
    ],
    ids=["sigkill", "exit-3"],
)
def test_a_child_that_dies_without_a_result_raises_naming_stage_1_txt(child, monkeypatch, end, how):
    corpus, split, hp = _tiny_cell()
    parent = os.getpid()
    real_critic_step = gen.critic_step

    def critic_step(*args):
        if os.getpid() != parent:
            end()
        return real_critic_step(*args)

    monkeypatch.setattr(gen, "critic_step", critic_step)
    with pytest.raises(RuntimeError, match=rf"^stage 1 txt: .*\({how}\)$"):
        gen.train_generation(split, corpus, hp)


def _unpicklable_value(model, curve):
    return model, lambda: curve


def _unpicklable_error(model, curve):
    error = ValueError("the curve went flat")
    error.hook = lambda: curve  # an exception's attributes are pickled with it
    raise error


@pytest.mark.parametrize(
    "end, what",
    [
        (_unpicklable_value, r"value does not pickle: \w+: .*lambda"),
        (_unpicklable_error, r"error does not pickle: ValueError: the curve went flat"),
    ],
    ids=["value", "error"],
)
def test_a_child_result_that_does_not_pickle_raises_naming_stage_1_txt(child, monkeypatch, end, what):
    corpus, split, hp = _tiny_cell()
    parent = os.getpid()
    real_train = gen._train_single_modality

    def train(*args):
        model, curve = real_train(*args)
        return (model, curve) if os.getpid() == parent else end(model, curve)

    monkeypatch.setattr(gen, "_train_single_modality", train)
    with pytest.raises(RuntimeError, match=rf"^stage 1 txt: the child's {what}"):
        gen.train_generation(split, corpus, hp)


class _TwoArgumentError(Exception):
    """Pickles as its class and its one-element `args`, so it does not unpickle."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


def test_a_child_error_that_does_not_unpickle_raises_naming_stage_1_txt(child, monkeypatch):
    corpus, split, hp = _tiny_cell()
    parent = os.getpid()
    real_train = gen._train_single_modality

    def train(*args):
        if os.getpid() != parent:
            raise _TwoArgumentError("the curve", "went flat")
        return real_train(*args)

    monkeypatch.setattr(gen, "_train_single_modality", train)
    with pytest.raises(
        RuntimeError,
        match=r"^stage 1 txt: the child's result does not unpickle: TypeError: .*'why'",
    ) as raised:
        gen.train_generation(split, corpus, hp)
    assert isinstance(raised.value.__cause__, TypeError)


@contextmanager
def _another_thread(kind, monkeypatch):
    """Another thread alive in this process: a Python one, a native one (an OS
    thread that `threading` does not list, as a BLAS pool's threads are), or
    for "blas" an environment that lets OpenBLAS start a pool of two."""
    if kind == "blas":
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        yield
    elif kind == "native":
        faulthandler.dump_traceback_later(600)  # its watchdog is a native thread
        try:
            yield
        finally:
            faulthandler.cancel_dump_traceback_later()
    else:
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            yield
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()


@pytest.mark.parametrize("kind", [
    "python",
    pytest.param("native", marks=pytest.mark.skipif(
        not os.path.isdir("/proc/self/task"), reason="native threads are counted through /proc"
    )),
    "blas",
])
def test_no_fork_while_another_thread_is_alive(child, monkeypatch, kind):
    corpus, split, hp = _tiny_cell()
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    _, _, forked = gen.train_generation(split, corpus, hp)
    assert forks == [1]
    with _another_thread(kind, monkeypatch):
        _, _, serial = gen.train_generation(split, corpus, hp)
    assert forks == [1]
    assert serial == forked


def test_modality_streams_are_independent():
    corpus = data.synth_corpus(n_classes=4, per_class=6, dim=8, seed=2)
    # same images, different texts: the image model must come out identical
    other = data.Corpus(
        corpus.image_matrix(),
        np.roll(corpus.text_matrix(), shift=1, axis=0),
        corpus.labels(),
        {c: corpus.class_attrs[c][0] for c in corpus.classes()},
    )
    split = data.split_xshot(corpus, x=0, seed=2)
    hp = gen.GenHyperParams(lr=1e-3, batch=8, epochs=2, seed=3)
    img1, _, _ = gen.train_generation(split, corpus, hp)
    img2, _, _ = gen.train_generation(split, other, hp)
    for (_, p1), (_, p2) in zip(img1.named_params(), img2.named_params()):
        assert np.array_equal(p1.data, p2.data)


def test_reconstruction_loss_halves(trained_setup):
    _, _, _, _, _, curves = trained_setup
    for modality in ("img", "txt"):
        recon = curves[modality]["recon"]
        assert recon[-1] <= 0.5 * recon[0]


def test_critic_gap_shrinks_from_peak(trained_setup):
    _, _, _, _, _, curves = trained_setup
    for modality in ("img", "txt"):
        gap = np.abs(np.array(curves[modality]["critic_gap"]))
        k = 5
        smoothed = np.convolve(gap, np.ones(k) / k, mode="valid")
        assert smoothed[-1] < smoothed.max()
        assert np.argmax(smoothed) < len(smoothed) - 1


def test_synthesized_counts_and_labels(trained_setup):
    corpus, split, _, img, txt, _ = trained_setup
    pseudo = gen.synthesize_target_set(
        (img, txt), split.target_classes, corpus.class_attrs, gen_num=7, seed=1
    )
    assert len(pseudo) == 7 * len(split.target_classes)
    assert set(pseudo.classes()) == set(split.target_classes)
    assert pseudo.dims == corpus.dims


def test_single_pair_synthesis(trained_setup):
    corpus, split, _, img, txt, _ = trained_setup
    c = split.target_classes[0]
    pseudo = gen.synthesize_target_set(
        (img, txt), [c], corpus.class_attrs, gen_num=1, seed=2
    )
    assert len(pseudo) == 1
    assert pseudo.labels()[0] == c


def test_gen_num_must_be_positive(trained_setup):
    corpus, split, _, img, txt, _ = trained_setup
    with pytest.raises(ConfigError):
        gen.synthesize_target_set(
            (img, txt), split.target_classes, corpus.class_attrs, gen_num=0, seed=0
        )


def test_pseudo_features_align_with_their_class(trained_setup):
    corpus, split, _, img, txt, _ = trained_setup
    pseudo = gen.synthesize_target_set(
        (img, txt), split.target_classes, corpus.class_attrs, gen_num=30, seed=3
    )
    protos = {c: corpus.class_attrs[c][0] for c in split.target_classes}
    for matrix in (pseudo.image_matrix(), pseudo.text_matrix()):
        for c in split.target_classes:
            rows = matrix[pseudo.labels() == c]
            rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
            sims = {
                other: (rows @ (protos[other] / np.linalg.norm(protos[other]))).mean()
                for other in split.target_classes
            }
            assert max(sims, key=sims.get) == c


def test_empty_training_set_rejected():
    corpus = data.synth_corpus(n_classes=2, per_class=4, dim=8, seed=1)
    split = data.split_xshot(corpus, x=0, seed=1)
    hollow = split.__class__(**{**split.__dict__, "source_train": (), "target_train": ()})
    hp = gen.GenHyperParams(epochs=1)
    with pytest.raises(ConfigError, match="empty"):
        gen.train_generation(hollow, corpus, hp)
