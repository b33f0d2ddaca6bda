"""Per-modality conditional VAE-GAN feature generator.

One network per modality (image, text), each built from an encoder, a
generator that doubles as the VAE decoder, and a Wasserstein critic with
gradient penalty. Trained on source-domain features (plus any x-shot target
samples), then used to synthesize class-conditional pseudo features for the
unseen target classes.

The generator ends in a sigmoid, so real features are min-max scaled to
[0, 1] per dimension before stage-1 training; the fitted transform travels
with the model and synthesized features are mapped back to the original
feature space.

The gradient penalty is computed in closed form, not by differentiating
through an inner gradient. It relies on the critic's architecture: one
affine layer, a LeakyReLU, and one affine layer to a scalar score. Write
W1 = [W1_v; W1_a] for the feature and attribute row blocks of the first
weight and w2 for the score weight. At feature rows v with LeakyReLU slope
mask M (1 or the leaky slope per hidden unit), the input gradient is
gin = (M ⊙ w2ᵀ) @ W1_vᵀ. M is piecewise constant, so with G = ∂GP/∂gin the
penalty's only parameter gradients are ∂GP/∂W1_v = Gᵀ (M ⊙ w2ᵀ) and
∂GP/∂w2 = Σ_rows (G W1_v) ⊙ M. The critic step uses the same closed form
for the whole objective and records no tape; a different critic
architecture needs a new `penalty_terms`.

The encoder/generator step is closed-form too. With the critic frozen, the
GAN term's gradient at a fake row is −(1/n)(M ⊙ w2ᵀ) W1_vᵀ; it is
backpropagated through the generator (affine, ReLU, affine, sigmoid). On the
reconstruction path the analytic KL and reconstruction gradients join it,
and the sum flows through the reparameterisation z = mu + exp(logvar/2)·eps,
the log-variance clip and the encoder. The stage-1 steps, the posterior and
the curve probe take float64 arrays and share one numpy forward that
repeats the tape's float operations, the log-variance clip included, so
they match `generation_losses`, which stays as the tape reference, bitwise.

The two modalities share no parameters, RNG streams or buffers, so they may
train at the same time when a second core is free (see
`util.CONCURRENT_MIN_WIDTH`). Below 128 features `train_generation` trains
the text model in a forked child when BLAS is held to one thread and no other
thread is alive; the child sends back the trained model and its curve. At
d=64 the interpreter holds the GIL for most of a step, so a thread would
overlap little, while the child takes stage 1 of a desk cell from about
1.05 s to 0.6 s. From 128 on `train_generation` trains the text model on a
worker thread: numpy releases the GIL inside BLAS calls and ufunc loops, so
the threads overlap, and a thread does not pay the copy-on-write page faults
that a fork of a large process does.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import Linear, Module, Tensor
from .data import Corpus, XShotSplit
from .errors import ConfigError
from .optim import adam_step, zero_grads
from .util import require_finite, require_int_fields, run_pair, stream

# reference layer widths at the 1024-d feature scale; other dims scale
# proportionally so the desk-size synthetic preset stays cheap
ENCODER_WIDTHS_1024 = (1024, 800, 512)
GENERATOR_HIDDEN_1024 = 800
LATENT_1024 = 512

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0
# the critic's LeakyReLU slope, shared by its tape forward and the closed-form
# slope mask of `Critic.hidden`, which must agree
LEAKY_SLOPE = 0.2


def _scaled(ref: int, d: int) -> int:
    return max(2, round(ref * d / 1024))


def default_latent_dim(d: int) -> int:
    return _scaled(LATENT_1024, d)


@dataclass
class GenHyperParams:
    """Stage-1 knobs; latent_dim of None resolves to the width forced by d."""

    latent_dim: int | None = None
    lambda_gp: float = 10.0
    critic_steps: int = 5
    lr: float = 1e-3
    batch: int = 64
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        require_int_fields(self)
        if self.latent_dim is not None and self.latent_dim < 1:
            raise ConfigError(f"latent_dim must be at least 1, got {self.latent_dim}")
        if self.lambda_gp < 0:
            raise ConfigError(f"lambda_gp must be non-negative, got {self.lambda_gp}")
        if self.critic_steps < 1:
            raise ConfigError(f"critic_steps must be at least 1, got {self.critic_steps}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.batch < 1 or self.epochs < 1:
            raise ConfigError("batch and epochs must be positive")


class Encoder(Module):
    """Three stacked affine layers (ReLU, ReLU, Sigmoid) plus mean/log-variance heads."""

    def __init__(self, d_feat: int, d_attr: int, d_z: int, rng):
        w1, w2, w3 = (_scaled(w, d_feat) for w in ENCODER_WIDTHS_1024)
        self.l1 = Linear(d_feat + d_attr, w1, rng)
        self.l2 = Linear(w1, w2, rng)
        self.l3 = Linear(w2, w3, rng)
        self.mu_head = Linear(w3, d_z, rng)
        self.logvar_head = Linear(w3, d_z, rng)

    def __call__(self, v, a):
        h = ad.relu(self.l1(ad.concat_cols(v, a)))
        h = ad.relu(self.l2(h))
        h = ad.sigmoid(self.l3(h))
        mu = self.mu_head(h)
        logvar = ad.clip(self.logvar_head(h), LOGVAR_MIN, LOGVAR_MAX)
        return mu, logvar


class Generator(Module):
    """Decoder/generator: (latent ++ attribute) -> hidden ReLU -> sigmoid feature."""

    def __init__(self, d_feat: int, d_attr: int, d_z: int, rng):
        hidden = _scaled(GENERATOR_HIDDEN_1024, d_feat)
        self.l1 = Linear(d_z + d_attr, hidden, rng)
        self.l2 = Linear(hidden, d_feat, rng)

    def __call__(self, z, a):
        h = ad.relu(self.l1(ad.concat_cols(z, a)))
        return ad.sigmoid(self.l2(h))


class Critic(Module):
    """Two affine layers with an intermediate LeakyReLU; raw scalar score per row.

    Calling it scores [v, a] rows on the tape. The array methods below serve
    the closed-form stage-1 steps, the penalty and the probe, and record
    nothing.
    """

    def __init__(self, d_feat: int, d_attr: int, rng):
        hidden = d_feat + d_attr
        self.d_feat = d_feat
        self.l1 = Linear(d_feat + d_attr, hidden, rng)
        self.l2 = Linear(hidden, 1, rng)

    def __call__(self, v, a):
        h = ad.leaky_relu(self.l1(ad.concat_cols(v, a)), slope=LEAKY_SLOPE)
        return self.l2(h)

    def attr_branch(self, a: np.ndarray) -> np.ndarray:
        """a @ W1_a + b1: the part of the hidden pre-activation the features do not touch."""
        return a @ self.l1.W.data[self.d_feat :] + self.l1.b.data

    def hidden(self, v: np.ndarray, a_pre: np.ndarray) -> np.ndarray:
        """Hidden pre-activation at feature rows v.

        v stacks one or more blocks of len(a_pre) rows; a_pre is added to
        each block through a view, not a tiled copy.
        """
        pre = v @ self.l1.W.data[: self.d_feat]
        blocks = pre.reshape(-1, *a_pre.shape)
        blocks += a_pre
        return pre

    def input_gradient(self, v: np.ndarray, a_pre: np.ndarray):
        """Closed form of d(sum of scores)/dv at feature rows v.

        a_pre is `attr_branch` of the rows' attributes. Returns (M, K, gin):
        the slope mask, K = M ⊙ w2ᵀ (the score's gradient w.r.t. the hidden
        pre-activation, formed in the pre-activation's buffer) and
        gin = K @ W1_vᵀ.
        """
        pre = self.hidden(v, a_pre)
        M = ad.slope_mask(pre, LEAKY_SLOPE)
        K = np.multiply(M, self.l2.W.data.T, out=pre)
        return M, K, K @ self.l1.W.data[: self.d_feat].T

    def scores(self, x: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The tape forward's scores at rows [x, a], in numpy, and the slope mask M."""
        pre = ad.affine(np.concatenate([x, a], axis=1), self.l1)
        M = ad.slope_mask(pre, LEAKY_SLOPE)
        pre *= M
        return ad.affine(pre, self.l2), M


class FeatureScaler:
    """Per-dimension min-max map to [0, 1]; identity until fitted."""

    def __init__(self, lo: np.ndarray | None = None, span: np.ndarray | None = None):
        self.lo = lo
        self.span = span

    @property
    def fitted(self) -> bool:
        return self.lo is not None

    def fit(self, X: np.ndarray) -> "FeatureScaler":
        lo = X.min(axis=0, keepdims=True)
        span = X.max(axis=0, keepdims=True) - lo
        span = np.where(span > 0, span, 1.0)
        self.lo, self.span = lo, span
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if not self.fitted:
            return X
        return (X - self.lo) / self.span

    def inverse(self, X: np.ndarray) -> np.ndarray:
        if not self.fitted:
            return X
        return X * self.span + self.lo


class VaeGanModel(Module):
    """Encoder, generator, and critic for one modality plus the feature scaler."""

    def __init__(self, d_feat: int, d_attr: int, hp: GenHyperParams, rng):
        self.d_feat = d_feat
        self.d_attr = d_attr
        self.hp = hp
        self.d_z = hp.latent_dim if hp.latent_dim is not None else default_latent_dim(d_feat)
        self.encoder = Encoder(d_feat, d_attr, self.d_z, rng)
        self.generator = Generator(d_feat, d_attr, self.d_z, rng)
        self.critic = Critic(d_feat, d_attr, rng)
        self.scaler = FeatureScaler()

    def encode(self, v, a, rng) -> tuple[Tensor, Tensor, Tensor]:
        """Posterior parameters plus a reparameterized latent sample."""
        mu, logvar = self.encoder(v, a)
        z = reparameterize(mu, logvar, rng)
        return mu, logvar, z

    def posterior(self, v, a) -> tuple[np.ndarray, np.ndarray]:
        """(mu, exp(logvar / 2)) of the encoder at rows (v, a), the log-variance clipped."""
        _, mu, logvar, _ = _encode(self.encoder, v, a)
        return mu, np.exp(logvar * 0.5)

    def synthesize(self, attrs: np.ndarray, rng) -> np.ndarray:
        """Feature-space pseudo samples, one per attribute row."""
        noise = rng.standard_normal((attrs.shape[0], self.d_z))
        return self.scaler.inverse(_generate(self.generator, noise, attrs)[2])


def reparameterize(mu, logvar, rng) -> Tensor:
    """z = mu + exp(logvar / 2) * eps with eps drawn from the given rng."""
    eps = Tensor(rng.standard_normal(mu.data.shape))
    return mu + ad.exp(logvar * 0.5) * eps


def kl_loss(mu, logvar) -> Tensor:
    """Mean over the batch of the analytic KL to the standard-normal prior."""
    per_row = ad.sum_axis(ad.exp(logvar) + ad.square(mu) - 1.0 - logvar, axis=1)
    n = mu.data.shape[0]
    return ad.sum_all(per_row) * (0.5 / n)


def recon_loss(v, v_bar) -> Tensor:
    """Mean squared error over all elements."""
    return ad.mean_all(ad.square(ad.as_tensor(v) - v_bar))


def penalty_terms(critic: Critic, v_hat: np.ndarray, a_pre: np.ndarray, n: int, grads: bool = True):
    """Closed-form gradient penalty at interpolates v_hat, with its critic gradients.

    The value is Σ_rows (‖gin_i‖ − 1)² / n: the mean over one path of n
    rows, or the sum of the per-path means when v_hat stacks several paths
    of n rows each. Only W1_v and w2 move it (see the module docstring).
    Returns (value, dW1_v, dw2), the gradients None when `grads` is off.
    A row whose input gradient is exactly zero has no norm derivative and
    contributes a zero gradient.
    """
    M, K, gin = critic.input_gradient(v_hat, a_pre)
    norms = np.sqrt((gin * gin).sum(axis=1, keepdims=True))
    value = float(np.square(norms - 1.0).sum() / n)
    if not grads:
        return value, None, None
    coef = np.zeros_like(norms)
    np.divide(2.0 * (norms - 1.0), n * norms, out=coef, where=norms > 0)
    G = np.multiply(coef, gin, out=gin)
    dW1_v = G.T @ K
    # K is spent: it takes G @ W1_v, then that times M
    GW = np.matmul(G, critic.l1.W.data[: critic.d_feat], out=K)
    GW *= M
    return value, dW1_v, GW.sum(axis=0, keepdims=True).T


# ---------------------------------------------------------------------------
# the stage-1 forward in plain numpy: the float operations of the tape's
# forward, op for op, so values (and the curves) match it bitwise


def _mean(x: np.ndarray) -> float:
    """The tape's `mean_all`: the sum times 1 / size."""
    return x.sum() * (1.0 / x.size)


def _encode(enc: Encoder, v: np.ndarray, a: np.ndarray):
    """Encoder forward: ((input, h1, h2, h3), mu, logvar, keep), logvar
    clipped to [LOGVAR_MIN, LOGVAR_MAX] and keep true where the clip passed
    it through."""
    x = np.concatenate([v, a], axis=1)
    h1 = ad.relu_inplace(ad.affine(x, enc.l1))
    h2 = ad.relu_inplace(ad.affine(h1, enc.l2))
    h3 = ad.logistic(ad.affine(h2, enc.l3))
    logvar = ad.affine(h3, enc.logvar_head)
    keep = (logvar >= LOGVAR_MIN) & (logvar <= LOGVAR_MAX)
    np.clip(logvar, LOGVAR_MIN, LOGVAR_MAX, out=logvar)
    return (x, h1, h2, h3), ad.affine(h3, enc.mu_head), logvar, keep


def _generate(gen: Generator, z: np.ndarray, a: np.ndarray):
    """Generator forward: (input, hidden, output feature)."""
    x = np.concatenate([z, a], axis=1)
    h = ad.relu_inplace(ad.affine(x, gen.l1))
    return x, h, ad.logistic(ad.affine(h, gen.l2))


def _vae_forward(model: VaeGanModel, v: np.ndarray, a: np.ndarray, rng):
    """The reconstruction path: (kl, recon, v_bar, what its backward pass reads).

    Draws the reparameterisation eps from rng.
    """
    (x, h1, h2, h3), mu, logvar, keep = _encode(model.encoder, v, a)
    std = np.exp(logvar * 0.5)
    eps = rng.standard_normal(mu.shape)
    z = mu + std * eps
    dec = _generate(model.generator, z, a)
    del z
    n = v.shape[0]
    exp_lv = np.exp(logvar)
    kl = ((exp_lv + mu * mu) - 1.0 - logvar).sum(axis=1, keepdims=True).sum() * (0.5 / n)
    diff = v - dec[2]
    recon = _mean(diff * diff)
    cache = {"enc": (x, h1, h2, h3), "mu": mu, "keep": keep, "std": std, "eps": eps,
             "exp_lv": exp_lv, "dec": dec, "diff": diff}
    return kl, recon, dec[2], cache


def gradient_penalty(real, fake, a, critic: Critic, rng) -> Tensor:
    """Mean squared deviation of the critic's input-gradient norm from 1.

    Interpolates eps*real + (1-eps)*fake per row with eps ~ U(0, 1); real and
    fake enter as data (the penalty regularizes the critic only). While grad
    is enabled the result is one tape node whose parents are the critic's two
    weights, with the closed-form gradients as its VJPs.
    """
    real_d, fake_d, a_d = (ad.as_tensor(x).data for x in (real, fake, a))
    eps = rng.uniform(size=(real_d.shape[0], 1))
    v_hat = eps * real_d + (1.0 - eps) * fake_d
    value, dW1_v, dw2 = penalty_terms(
        critic, v_hat, critic.attr_branch(a_d), v_hat.shape[0], grads=ad.grad_enabled()
    )
    if dW1_v is None:
        return Tensor(value)
    dW1 = np.zeros_like(critic.l1.W.data)
    dW1[: critic.d_feat] = dW1_v
    return ad.custom(value, (critic.l1.W, critic.l2.W), (lambda g: g * dW1, lambda g: g * dw2))


def _wgan_term(d_real, real, other, a, critic, lambda_gp: float, rng) -> tuple[Tensor, Tensor]:
    """(d_real - E[D(other)] - lambda * GP(real, other), the score gap d_real - E[D(other)])."""
    gap = d_real - ad.mean_all(critic(other, a))
    if lambda_gp == 0:
        return gap, gap
    return gap - lambda_gp * gradient_penalty(real, other, a, critic, rng), gap


def critic_loss(real, other, a, critic, lambda_gp: float, rng) -> Tensor:
    """E[D(real)] - E[D(other)] - lambda * gradient penalty.

    The critic maximizes this value; the encoder/generator minimize the same
    expression through `other`.
    """
    return _wgan_term(ad.mean_all(critic(real, a)), real, other, a, critic, lambda_gp, rng)[0]


def generation_losses(batch, model: VaeGanModel, hp: GenHyperParams, rng, use_vae: bool = True):
    """All stage-1 loss components on one batch of model-space features.

    Returns {"kl", "recon", "vae", "critic_gap", "gan1", "gan2", "total"} as
    graph tensors: vae = kl + recon, critic_gap is the fake path's score gap
    and total is the exact sum of vae, gan1 and gan2. With use_vae off, the
    reconstruction path is skipped and only the pure conditional WGAN-GP
    term remains. Draws from rng in this order: reparameterisation, noise,
    then one eps per path (none when lambda_gp is 0).
    """
    v, a = batch
    v = ad.as_tensor(v)
    a = ad.as_tensor(a)
    n = v.data.shape[0]
    if n == 0:
        raise ConfigError("empty batch")

    if use_vae:
        mu, logvar, z = model.encode(v, a, rng)
        v_bar = model.generator(z, a)
        kl, recon = kl_loss(mu, logvar), recon_loss(v, v_bar)
        vae = kl + recon
    else:
        kl = recon = vae = Tensor(0.0)

    noise = Tensor(rng.standard_normal((n, model.d_z)))
    v_tilde = model.generator(noise, a)
    # D(real) is scored once and shared by both paths
    d_real = ad.mean_all(model.critic(v, a))
    gan1, gap = _wgan_term(d_real, v, v_tilde, a, model.critic, hp.lambda_gp, rng)
    if use_vae:
        gan2, _ = _wgan_term(d_real, v, v_bar, a, model.critic, hp.lambda_gp, rng)
    else:
        gan2 = Tensor(0.0)

    total = vae + gan1 + gan2
    return {
        "kl": kl, "recon": recon, "vae": vae, "critic_gap": gap,
        "gan1": gan1, "gan2": gan2, "total": total,
    }


def critic_step(real, attrs, model: VaeGanModel, hp: GenHyperParams, rng, posterior) -> float:
    """Add the gradients of the loss the critic minimizes to the critic's .grad.

    The loss is Σ_paths [E D(other) − E D(real) + λ·GP(real, other)] over the
    fake path and, unless `posterior` is None, the reconstruction path: −gan1
    − gan2 of `generation_losses`, computed in closed form with no tape.
    `posterior` is `model.posterior(real, attrs)`, which the critic's
    updates leave unchanged, so one value serves every critic step of a
    batch. Draws from rng in this order: noise, reparameterisation, then one
    eps per path (none when lambda_gp is 0, which skips the penalty).
    Returns the loss value.
    """
    n = real.shape[0]
    noise = rng.standard_normal((n, model.d_z))
    others = [_generate(model.generator, noise, attrs)[2]]
    if posterior is not None:
        mu, std = posterior
        z = mu + std * rng.standard_normal(mu.shape)
        others.append(_generate(model.generator, z, attrs)[2])
    k = len(others)
    critic = model.critic
    d = critic.d_feat
    w2 = critic.l2.W.data
    # the attribute branch is shared by all 2k + 1 critic evaluations
    a_pre = critic.attr_branch(attrs)

    # score gaps: D(real) once, weighted -k/n per row; each other path +1/n
    rows = np.vstack([real] + others)
    pre = critic.hidden(rows, a_pre)
    M = ad.slope_mask(pre, LEAKY_SLOPE)
    w = np.full((rows.shape[0], 1), 1.0 / n)
    w[:n] = -k / n
    pre *= M
    dW2 = pre.T @ w
    del pre
    # M becomes dpre = w ⊙ (M ⊙ w2ᵀ)
    dpre = M
    dpre *= w2.T
    dpre *= w
    critic.l1.W.grad[:d] += rows.T @ dpre
    del rows
    critic.l1.W.grad[d:] += attrs.T @ dpre.reshape(k + 1, n, -1).sum(axis=0)
    critic.l1.b.grad += dpre.sum(axis=0, keepdims=True)
    del dpre, M
    # Σ w·D = (hᵀ w)·w2 + b2·Σ w, and the weights sum to zero
    loss = float((dW2 * w2).sum())
    # b2's gradient is Σ w = 0
    critic.l2.W.grad += dW2
    if not hp.lambda_gp:
        return loss

    eps = [rng.uniform(size=(n, 1)) for _ in others]
    v_hat = np.vstack([e * real + (1.0 - e) * o for e, o in zip(eps, others)])
    del others
    gp, dW1_v, dw2 = penalty_terms(critic, v_hat, a_pre, n)
    critic.l1.W.grad[:d] += hp.lambda_gp * dW1_v
    critic.l2.W.grad += hp.lambda_gp * dw2
    return loss + hp.lambda_gp * gp


def _generator_backward(gen: Generator, fwd, g: np.ndarray) -> np.ndarray:
    """Add the generator's gradients for cotangent g at the output of forward
    `fwd` (see `_generate`); returns the cotangent at its hidden pre-activation."""
    x, h, out = fwd
    g = g * out
    g *= 1.0 - out
    ad.add_affine_grads(gen.l2, h, g)
    g = g @ gen.l2.W.data.T
    g *= h > 0
    ad.add_affine_grads(gen.l1, x, g)
    return g


def eg_step(v, a, model: VaeGanModel, hp: GenHyperParams, rng, use_vae: bool) -> float:
    """Add the encoder/generator gradients of `generation_losses`' total to their .grad.

    Closed form, no tape. The critic is a constant for the step, and real
    and fake enter the penalty as constants, so the penalty cannot move the
    encoder or generator: the loss is `generation_losses`' total at
    lambda_gp = 0. When lambda_gp is positive, the skipped penalties' eps
    are drawn all the same, so the noise stream stays what it is with them.
    Draws from rng in this order: reparameterisation, noise, one skipped eps
    per path (none when lambda_gp is 0). Each float
    operation is the tape's, so the gradients equal its backward pass
    bitwise (on zeroed .grad). Returns the loss value.
    """
    n = v.shape[0]
    enc, gen, critic = model.encoder, model.generator, model.critic
    if use_vae:
        kl, recon, v_bar, cache = _vae_forward(model, v, a, rng)
    noise = rng.standard_normal((n, model.d_z))
    if hp.lambda_gp:
        rng.uniform(size=(n, 2 if use_vae else 1))

    d_real = _mean(critic.scores(v, a)[0])
    # a fake score's cotangent is -1/n per row, applied to w2 before the
    # product with W1ᵀ, as the tape orders it. The product spans the whole of
    # W1, attribute columns too, and is then sliced: BLAS may sum a product
    # with fewer columns in another order.
    w2_scaled = -(1.0 / n) * critic.l2.W.data.T

    def gan_term(fake):
        """(d_real - E D(fake), d(-E D(fake))/d fake)."""
        score, M = critic.scores(fake, a)
        M *= w2_scaled
        return d_real - _mean(score), (M @ critic.l1.W.data.T)[:, : critic.d_feat]

    fwd = _generate(gen, noise, a)
    gan1, g = gan_term(fwd[2])
    _generator_backward(gen, fwd, g)
    del fwd, g
    if not use_vae:
        return float(gan1)

    gan2, g = gan_term(v_bar)
    diff = cache["diff"]
    diff *= 2.0
    diff *= 1.0 / diff.size
    g -= diff
    dz = (_generator_backward(gen, cache["dec"], g) @ gen.l1.W.data.T)[:, : model.d_z]
    # kl: d/dmu = (0.5/n)·2mu, d/dlogvar = (0.5/n)(exp(logvar) - 1); the
    # reparameterisation adds dz to mu and dz·eps·std/2 to logvar
    c = 0.5 / n
    dmu = cache["mu"]
    dmu *= 2.0
    dmu *= c
    dmu += dz
    dlv = cache["exp_lv"]
    dlv *= c
    dlv -= c
    t = dz * cache["eps"]
    t *= cache["std"]
    t *= 0.5
    dlv += t
    dlv *= cache["keep"]
    x, h1, h2, h3 = cache["enc"]
    ad.add_affine_grads(enc.logvar_head, h3, dlv)
    ad.add_affine_grads(enc.mu_head, h3, dmu)
    g = dlv @ enc.logvar_head.W.data.T + dmu @ enc.mu_head.W.data.T
    g *= h3
    g *= 1.0 - h3
    ad.add_affine_grads(enc.l3, h2, g)
    g = g @ enc.l3.W.data.T
    g *= h2 > 0
    ad.add_affine_grads(enc.l2, h1, g)
    g = g @ enc.l2.W.data.T
    g *= h1 > 0
    ad.add_affine_grads(enc.l1, x, g)
    return float(((kl + recon) + gan1) + gan2)


def train_generation(
    split: XShotSplit,
    corpus: Corpus,
    hp: GenHyperParams,
    use_vae: bool = True,
):
    """Stage-1 training for both modalities; they share nothing but the data.

    Returns (image model, text model, loss curves); curves hold per-epoch
    means keyed by modality. With a second usable core, the text model trains
    while the image model trains on the calling thread: in a forked child when
    the features are narrower than `util.CONCURRENT_MIN_WIDTH` (128), BLAS is
    held to one thread and no other thread is alive, on a worker thread from
    that width on (see `util.run_pair`); the child sends back the trained
    model. The results are bitwise those of training one after the other.
    Errors surface in that order too: the image model's first. If the calling
    thread raises, a worker thread stops within one batch and a child is
    killed; neither is left running. A child that dies without a result
    raises RuntimeError naming `stage 1 txt`.
    """
    train_idx = list(split.source_train) + list(split.target_train)
    if not train_idx:
        raise ConfigError("generation training set is empty")
    attrs = corpus.attr_matrix(train_idx)
    # both models are built here, on the calling thread, so their buffers do
    # not stay behind in the worker's malloc arena for the later stages
    jobs = {
        modality: _new_model(feats, attrs.shape[1], hp, modality)
        for modality, feats in (
            ("img", corpus.image_matrix(train_idx)),
            ("txt", corpus.text_matrix(train_idx)),
        )
    }
    stop = threading.Event()

    def train(modality):
        return partial(_train_single_modality, *jobs[modality], attrs, hp, modality, use_vae, stop)

    width = min(X.shape[1] for _, X in jobs.values())
    (img, img_curve), (txt, txt_curve) = run_pair(train("img"), train("txt"), width, stop, "stage 1 txt")
    return img, txt, {"img": img_curve, "txt": txt_curve}


def _new_model(feats, d_attr, hp, modality):
    """An untrained model of one modality with its scaler fitted to feats, and
    the scaled features."""
    model = VaeGanModel(feats.shape[1], d_attr, hp, stream(hp.seed, modality, "init"))
    model.scaler.fit(feats)
    return model, model.scaler.transform(feats)


def _dataset_metrics(model, X, attrs, hp, rng, use_vae) -> dict[str, float]:
    """`generation_losses`' values over a whole feature matrix, for curve logging.

    Plain numpy with the tape's float operations and draws, so the values
    equal the tape's bitwise.
    """
    n = X.shape[0]
    critic = model.critic
    if use_vae:
        kl, recon, v_bar, _ = _vae_forward(model, X, attrs, rng)
    else:
        kl = recon = 0.0
    vae = kl + recon
    v_tilde = _generate(model.generator, rng.standard_normal((n, model.d_z)), attrs)[2]
    d_real = _mean(critic.scores(X, attrs)[0])
    a_pre = critic.attr_branch(attrs) if hp.lambda_gp else None

    def wgan_term(fake):
        gap = d_real - _mean(critic.scores(fake, attrs)[0])
        if not hp.lambda_gp:
            return gap, gap
        eps = rng.uniform(size=(n, 1))
        v_hat = eps * X + (1.0 - eps) * fake
        return gap - penalty_terms(critic, v_hat, a_pre, n, grads=False)[0] * hp.lambda_gp, gap

    gan1, gap = wgan_term(v_tilde)
    gan2 = wgan_term(v_bar)[0] if use_vae else 0.0
    return {
        "kl": float(kl), "recon": float(recon), "vae": float(vae), "critic_gap": float(gap),
        "gan1": float(gan1), "gan2": float(gan2), "total": float((vae + gan1) + gan2),
    }


def _train_single_modality(model, X, attrs, hp, modality, use_vae, stop: threading.Event):
    """Train one modality's model from `_new_model` in place on its scaled
    features X; returns (model, curve), or None once `stop` is set."""
    rng_shuffle = stream(hp.seed, modality, "shuffle")
    rng_noise = stream(hp.seed, modality, "noise")
    n = X.shape[0]

    eg_params = model.encoder.params + model.generator.params
    critic_params = model.critic.params

    # curve index 0 is the untrained model; one entry per epoch after that
    curve: dict[str, list[float]] = {}

    def log_point():
        probe = stream(hp.seed, modality, "probe")
        metrics = _dataset_metrics(model, X, attrs, hp, probe, use_vae)
        for k, val in metrics.items():
            curve.setdefault(k, []).append(val)

    log_point()
    for epoch in range(1, hp.epochs + 1):
        perm = rng_shuffle.permutation(n)
        for batch, start in enumerate(range(0, n, hp.batch)):
            if stop.is_set():
                return None
            idx = perm[start : start + hp.batch]
            v, a = X[idx], attrs[idx]
            posterior = model.posterior(v, a) if use_vae else None

            for k in range(hp.critic_steps):
                zero_grads(critic_params)
                loss = critic_step(v, a, model, hp, rng_noise, posterior)
                require_finite(loss, f"stage 1 {modality} critic", epoch, batch * hp.critic_steps + k + 1)
                adam_step(critic_params, hp.lr)

            zero_grads(eg_params)
            loss = eg_step(v, a, model, hp, rng_noise, use_vae)
            require_finite(loss, f"stage 1 {modality} encoder/generator", epoch, batch + 1)
            adam_step(eg_params, hp.lr)
        log_point()
    return model, curve


def synthesize_target_set(
    models: tuple[VaeGanModel, VaeGanModel],
    target_classes,
    class_attrs: dict[int, np.ndarray],
    gen_num: int,
    seed: int,
) -> Corpus:
    """gen_num pseudo image/text pairs per target class, labeled with that class.

    Image and text features come from their own generators with independent
    noise but the same class attribute per pair.
    """
    if gen_num <= 0:
        raise ConfigError(f"gen_num must be positive, got {gen_num}")
    img_model, txt_model = models
    classes = sorted(int(c) for c in target_classes)
    for c in classes:
        if c not in class_attrs:
            raise ConfigError(f"no attribute vector for target class {c}")

    rng_img = stream(seed, "synthesize", "img")
    rng_txt = stream(seed, "synthesize", "txt")
    images, texts, labels = [], [], []
    for c in classes:
        attr_rows = np.repeat(np.asarray(class_attrs[c]).reshape(1, -1), gen_num, axis=0)
        images.append(img_model.synthesize(attr_rows, rng_img))
        texts.append(txt_model.synthesize(attr_rows, rng_txt))
        labels.extend([c] * gen_num)
    attrs = {c: np.asarray(class_attrs[c]).reshape(-1) for c in classes}
    return Corpus(np.vstack(images), np.vstack(texts), labels, attrs, name="pseudo")
