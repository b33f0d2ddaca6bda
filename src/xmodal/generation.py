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
for the whole objective; a different critic architecture needs a new
`penalty_terms`. The penalty's interpolates v̂ = e·v + (1 − e)·ṽ mix a real
and an other row, and the first layer is affine, so their hidden
pre-activation is e·(v W1_v) + (1 − e)·(ṽ W1_v) + a_pre. The critic step and
the curve probe form it from the feature products their scores already
took, and `penalty_terms` takes that pre-activation, not v̂.

A critic step holds one batch's working set. Its feature product P of the
real, fake and reconstructed rows serves every critic evaluation: the
penalty's interpolate pre-activations are formed from it first, then P takes
the score pre-activation, the activation and the cotangent in place, and it
is released before the penalty. No slope mask is formed as a whole matrix:
`autodiff.slope_masks` forms it per row chunk of at most `autodiff.BLOCK`
elements in one scratch block, from the pre-activation, from the activation
(whose sign is the pre-activation's) or from the bool pre > 0 that
`penalty_terms` keeps for its second use. The rows' weight gradient is
formed in the critic's gradient itself. At d = d_attr = 512 on a 256-row
batch a critic step peaks at about 17 MiB of temporaries and an E/G step at
16 MiB; at d = d_attr = 1024, 34 and 35 MiB (tracemalloc).

A model that trains holds one gradient buffer for its two networks, laid
out by `_new_model`, which every training path builds its model with: at
d = d_attr = 1024 its values, gradients and Adam moments take 276 MiB, not
308. The two stage-1 threads train different models.

Every attribute row is one of a few class vectors, so stage 1 holds the
attributes as an `AttrRows`: the class table and each row's index into it.
The attribute halves of the encoder's and the generator's first layers and
the critic's `attr_branch` are formed on the table's rows and gathered, and
their weight gradients aᵀG as tableᵀ (G summed per class): C rows are
multiplied, not n.

The encoder/generator step is closed-form too. With the critic frozen, the
GAN term's gradient at a fake row is −(1/n)(M ⊙ w2ᵀ) W1_vᵀ; it is
backpropagated through the generator (affine, ReLU, affine, sigmoid). On the
reconstruction path the analytic KL and reconstruction gradients join it,
and the sum flows through the reparameterisation z = mu + exp(logvar/2)·eps,
the log-variance clip and the encoder. The stage-1 steps, the posterior and
the curve probe take float64 arrays and share one numpy forward, the
log-variance clip included, and one critic forward, `Critic.scores`. The
tests check each step's gradients against central finite differences of the
loss it returns or of the curve probe, `_dataset_metrics`, and pin a grid
cell's results by value (`tests/test_golden.py`).

The two modalities share no parameters, RNG streams or buffers, so they may
train at the same time when a second core is free (see
`util.CONCURRENT_MIN_WIDTH`). Below 128 features `train_generation` trains the
text model in a forked child when BLAS is held to one thread and no other
thread is alive; the child builds it and sends back the trained model and its
curve. At d=64 the interpreter holds the GIL for most of a step, so a thread
would overlap little, while the child takes stage 1 of a desk cell from about
1.05 s to 0.6 s. From 128 on `train_generation` trains the text model on a
worker thread: numpy releases the GIL inside BLAS calls and ufunc loops, so
the threads overlap, and a thread does not pay the copy-on-write page faults
that a fork of a large process does.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import autodiff as ad
from .autodiff import Linear, Module
from .data import Corpus, XShotSplit
from .errors import ConfigError
from .optim import adam_step, zero_grads
from .util import forks, require_field_types, require_finite, run_pair, stream

# reference layer widths at the 1024-d feature scale; other dims scale
# proportionally so the desk-size synthetic preset stays cheap
ENCODER_WIDTHS_1024 = (1024, 800, 512)
GENERATOR_HIDDEN_1024 = 800
LATENT_1024 = 512

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0
# the critic's LeakyReLU slope: every slope mask of its forward and of its
# closed-form gradients takes it
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
        require_field_types(self)
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


class AttrRows:
    """Attribute rows held by class: row i is table[rows[i]].

    `affine` and `t_matmul` form a @ W + b and aᵀ G on the table's rows. The
    table keeps only the classes the rows use, so it has at most n rows. A
    plain matrix takes `each`, one class per row.
    """

    def __init__(self, table: np.ndarray, rows):
        used, self.rows = np.unique(rows, return_inverse=True)
        self.table = table[used]

    @classmethod
    def each(cls, a: np.ndarray) -> "AttrRows":
        return cls(a, np.arange(len(a)))

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, idx) -> "AttrRows":
        return AttrRows(self.table, self.rows[idx])

    @cached_property
    def _members(self) -> np.ndarray:
        # 1 where row i is of class c: _members @ G sums G's rows per class
        return (np.arange(len(self.table))[:, None] == self.rows).astype(np.float64)

    def affine(self, W: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ W + b, as (table @ W + b)[rows]."""
        out = self.table @ W
        out += b
        return out[self.rows]

    def t_matmul(self, G: np.ndarray) -> np.ndarray:
        """aᵀ G, as tableᵀ (G summed per class)."""
        return self.table.T @ (self._members @ G)


def _attr_affine(layer: Linear, x: np.ndarray, attrs: AttrRows) -> np.ndarray:
    """The layer's affine map at the rows [x, a]: x @ W_x + (a @ W_a + b)."""
    out = x @ layer.W.data[: x.shape[1]]
    out += attrs.affine(layer.W.data[x.shape[1] :], layer.b.data)
    return out


def _add_attr_affine_grads(layer: Linear, x: np.ndarray, attrs: AttrRows, g: np.ndarray) -> None:
    """Add `_attr_affine`'s parameter gradients at output cotangent g to the layer's .grad."""
    d = x.shape[1]
    layer.W.grad[:d] += x.T @ g
    layer.W.grad[d:] += attrs.t_matmul(g)
    layer.b.grad += g.sum(axis=0, keepdims=True)


class Encoder(Module):
    """Three stacked affine layers (ReLU, ReLU, Sigmoid) plus mean/log-variance
    heads; `_encode` is its forward."""

    def __init__(self, d_feat: int, d_attr: int, d_z: int):
        w1, w2, w3 = (_scaled(w, d_feat) for w in ENCODER_WIDTHS_1024)
        self.l1 = Linear(d_feat + d_attr, w1)
        self.l2 = Linear(w1, w2)
        self.l3 = Linear(w2, w3)
        self.mu_head = Linear(w3, d_z)
        self.logvar_head = Linear(w3, d_z)


class Generator(Module):
    """Decoder/generator: (latent ++ attribute) -> hidden ReLU -> sigmoid
    feature; `_generate` is its forward."""

    def __init__(self, d_feat: int, d_attr: int, d_z: int):
        hidden = _scaled(GENERATOR_HIDDEN_1024, d_feat)
        self.l1 = Linear(d_z + d_attr, hidden)
        self.l2 = Linear(hidden, d_feat)


class Critic(Module):
    """Two affine layers with an intermediate LeakyReLU; raw scalar score per row.

    The methods below are its forward and the closed forms of its gradients,
    shared by the stage-1 steps, the penalty and the curve probe.
    """

    def __init__(self, d_feat: int, d_attr: int):
        hidden = d_feat + d_attr
        self.d_feat = d_feat
        self.l1 = Linear(d_feat + d_attr, hidden)
        self.l2 = Linear(hidden, 1)

    def attr_branch(self, attrs: AttrRows) -> np.ndarray:
        """a @ W1_a + b1: the part of the hidden pre-activation the features do not touch."""
        return attrs.affine(self.l1.W.data[self.d_feat :], self.l1.b.data)

    def hidden(self, v: np.ndarray, a_pre: np.ndarray) -> np.ndarray:
        """Hidden pre-activation at feature rows v: v @ W1_v + a_pre."""
        pre = v @ self.l1.W.data[: self.d_feat]
        pre += a_pre
        return pre

    def input_gradient(self, pre: np.ndarray):
        """Closed form of d(sum of scores)/dv at the feature rows v whose
        hidden pre-activation is pre.

        Returns (positive, K, gin): the bool pre > 0, from which the slope
        mask M is formed again, K = M ⊙ w2ᵀ (the score's gradient w.r.t.
        the hidden pre-activation, formed in pre one mask chunk at a time)
        and gin = K @ W1_vᵀ.
        """
        positive = pre > 0
        K = self.score_cotangent(pre, self.l2.W.data.T)
        return positive, K, K @ self.l1.W.data[: self.d_feat].T

    def scores(self, pre: np.ndarray) -> np.ndarray:
        """The scores at the rows whose hidden pre-activation is pre; pre
        becomes the hidden activation h, whose sign is pre's, so the slope
        mask can be formed again from h."""
        return ad.affine(ad.leaky_relu_inplace(pre, LEAKY_SLOPE), self.l2)

    def score_cotangent(self, x: np.ndarray, w2_row: np.ndarray, weights=None) -> np.ndarray:
        """M ⊙ w2_row, times `weights` (one per row) when given, formed in x
        one mask chunk at a time: x is a hidden pre-activation or the
        activation, which share a sign, and M the slope mask at that sign;
        w2_row is w2ᵀ, scaled as the caller needs."""
        for rows, M in ad.slope_masks(x, LEAKY_SLOPE):
            if weights is None:
                np.multiply(M, w2_row, out=x[rows])
            else:
                M *= w2_row
                np.multiply(M, weights[rows], out=x[rows])
        return x


class FeatureScaler:
    """Per-dimension min-max map to [0, 1]: (X - lo) / span with (1, d) arrays
    lo and span. Both are always held: lo 0 and span 1 (the identity) until
    `fit` replaces them, which a checkpoint load then overwrites in place."""

    def __init__(self, d: int):
        self.lo = np.zeros((1, d))
        self.span = np.ones((1, d))

    def fit(self, X: np.ndarray) -> "FeatureScaler":
        self.lo = X.min(axis=0, keepdims=True)
        span = X.max(axis=0, keepdims=True) - self.lo
        self.span = np.where(span > 0, span, 1.0)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.lo) / self.span

    def inverse(self, X: np.ndarray) -> np.ndarray:
        return X * self.span + self.lo


class VaeGanModel(Module):
    """Encoder, generator, and critic for one modality plus the feature scaler."""

    def __init__(self, d_feat: int, d_attr: int, hp: GenHyperParams, rng):
        self.d_feat = d_feat
        self.d_attr = d_attr
        self.hp = hp
        self.d_z = hp.latent_dim if hp.latent_dim is not None else default_latent_dim(d_feat)
        self.encoder = Encoder(d_feat, d_attr, self.d_z)
        self.generator = Generator(d_feat, d_attr, self.d_z)
        self.critic = Critic(d_feat, d_attr)
        # `groups`: the encoder and generator step together, the critic alone
        self.lay_out(rng, (self.encoder, self.generator), (self.critic,))
        self.scaler = FeatureScaler(d_feat)
        self.stage1_key: str | None = None  # set by `pipeline.stage1`, kept in checkpoints

    def arrays(self) -> dict[str, np.ndarray]:
        """`Module.arrays` and the scaler's, `scaler/lo` and `scaler/span`."""
        return {**super().arrays(), "scaler/lo": self.scaler.lo, "scaler/span": self.scaler.span}

    def posterior(self, v, attrs: AttrRows) -> tuple[np.ndarray, np.ndarray]:
        """(mu, exp(logvar / 2)) of the encoder at rows (v, a), the log-variance clipped."""
        _, mu, logvar, _ = _encode(self.encoder, v, attrs)
        return mu, np.exp(logvar * 0.5)

    def synthesize(self, attrs: AttrRows, rng) -> np.ndarray:
        """Feature-space pseudo samples, one per attribute row."""
        noise = rng.standard_normal((len(attrs), self.d_z))
        return self.scaler.inverse(_generate(self.generator, noise, attrs)[2])


def penalty_terms(critic: Critic, pre: np.ndarray, n: int, grads: bool = True):
    """Closed-form gradient penalty at the interpolates whose hidden
    pre-activation is pre, with its critic gradients; pre is overwritten.

    The value is Σ_rows (‖gin_i‖ − 1)² / n: the mean over one path of n
    rows, or the sum of the per-path means when pre stacks several paths
    of n rows each. Only W1_v and w2 move it (see the module docstring).
    Returns (value, dW1_v, dw2), the gradients None when `grads` is off.
    A row whose input gradient is exactly zero has no norm derivative and
    contributes a zero gradient.

    Besides pre, which takes K = M ⊙ w2ᵀ and then G W1_v ⊙ M, it holds the
    bool pre > 0 (one byte per element), gin, which takes G, the (d, H)
    gradient dW1_v and one mask chunk: the slope mask M is formed chunk by
    chunk from the bool at each of its two uses, never as a whole array.
    """
    positive, K, gin = critic.input_gradient(pre)
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
    for rows, M in ad.slope_masks(positive, LEAKY_SLOPE):
        GW[rows] *= M
    return value, dW1_v, GW.sum(axis=0, keepdims=True).T


# ---------------------------------------------------------------------------
# the stage-1 forward and steps


def _encode(enc: Encoder, v: np.ndarray, attrs: AttrRows):
    """Encoder forward: ((h1, h2, h3), mu, logvar, keep), logvar clipped to
    [LOGVAR_MIN, LOGVAR_MAX] and keep true where the clip passed it through."""
    h1 = ad.relu_inplace(_attr_affine(enc.l1, v, attrs))
    h2 = ad.relu_inplace(ad.affine(h1, enc.l2))
    h3 = ad.logistic(ad.affine(h2, enc.l3))
    logvar = ad.affine(h3, enc.logvar_head)
    keep = (logvar >= LOGVAR_MIN) & (logvar <= LOGVAR_MAX)
    np.clip(logvar, LOGVAR_MIN, LOGVAR_MAX, out=logvar)
    return (h1, h2, h3), ad.affine(h3, enc.mu_head), logvar, keep


def _generate(gen: Generator, z: np.ndarray, attrs: AttrRows):
    """Generator forward: (latent, hidden, output feature)."""
    h = ad.relu_inplace(_attr_affine(gen.l1, z, attrs))
    return z, h, ad.logistic(ad.affine(h, gen.l2))


def _vae_forward(model: VaeGanModel, v: np.ndarray, attrs: AttrRows, rng):
    """The reconstruction path: (kl, recon, v_bar, what its backward pass reads).

    Draws the reparameterisation eps from rng.
    """
    hs, mu, logvar, keep = _encode(model.encoder, v, attrs)
    std = np.exp(logvar * 0.5)
    eps = rng.standard_normal(mu.shape)
    z = mu + std * eps
    dec = _generate(model.generator, z, attrs)
    del z
    n = v.shape[0]
    exp_lv = np.exp(logvar)
    kl = 0.5 * (exp_lv + mu * mu - 1.0 - logvar).sum() / n
    diff = v - dec[2]
    recon = (diff * diff).mean()
    cache = {"enc": hs, "mu": mu, "keep": keep, "std": std, "eps": eps,
             "exp_lv": exp_lv, "dec": dec, "diff": diff}
    return kl, recon, dec[2], cache


def critic_step(real, attrs: AttrRows, model: VaeGanModel, hp: GenHyperParams, rng, posterior) -> float:
    """Form the gradients of the loss the critic minimizes in the critic's .grad.

    The critic's gradient must be zero on entry, as `zero_grads` and
    `adam_step` leave it: the step sets the W1_v block to the score part's
    gradient and adds the rest, the penalty's W1_v gradient included.

    The loss is Σ_paths [E D(other) − E D(real) + λ·GP(real, other)] over the
    fake path and, unless `posterior` is None, the reconstruction path: −gan1
    − gan2 of `_dataset_metrics`, computed in closed form.
    `posterior` is `model.posterior(real, attrs)`, which the critic's
    updates leave unchanged, so one value serves every critic step of a
    batch. Draws from rng in this order: noise, reparameterisation, then one
    eps per path (none when lambda_gp is 0, which skips the penalty).
    Returns the loss value.

    It holds one batch's working set. For the k + 1 paths of n rows (real,
    fake, reconstructed) and the critic's hidden width H: the (k + 1)n feature
    rows; their first-layer product P, (k + 1)n × H, which becomes the
    score pass's pre-activation, activation and cotangent in turn; the
    penalty's interpolate pre-activations, kn × H, formed from P before
    the score pass; and one slope-mask chunk (see `autodiff.slope_masks`).
    The rows' weight gradient is formed straight into the W1_v block, the
    rows go once it is, and P before the penalty, so `penalty_terms` holds
    only its own arrays.
    """
    n, d = real.shape
    k = 1 if posterior is None else 2
    critic = model.critic
    w2 = critic.l2.W.data
    # real, fake and reconstructed rows, one path block of n rows each
    rows = np.empty(((k + 1) * n, d))
    rows[:n] = real
    rows[n : 2 * n] = _generate(model.generator, rng.standard_normal((n, model.d_z)), attrs)[2]
    if posterior is not None:
        mu, std = posterior
        rows[2 * n :] = _generate(model.generator, mu + std * rng.standard_normal(mu.shape), attrs)[2]
    # the feature products and the attribute branch serve all 2k + 1 critic
    # evaluations: the penalty's interpolates mix them
    P = rows @ critic.l1.W.data[:d]
    paths = P.reshape(k + 1, n, -1)
    a_pre = critic.attr_branch(attrs)
    if hp.lambda_gp:
        # the interpolate e·real + (1 − e)·other has the pre-activation
        # e·P_real + (1 − e)·P_other + a_pre, formed before P is overwritten
        interp = np.empty((k, n, P.shape[1]))
        for i, out in enumerate(interp):
            e = rng.uniform(size=(n, 1))
            np.multiply(e, paths[0], out=out)
            out += (1.0 - e) * paths[i + 1]
            out += a_pre
    # P becomes the score pre-activation, then the activation h
    paths += a_pre
    del a_pre
    ad.leaky_relu_inplace(P, LEAKY_SLOPE)

    # score gaps: D(real) once, weighted -k/n per row; each other path +1/n
    w = np.full((len(P), 1), 1.0 / n)
    w[:n] = -k / n
    dW2 = P.T @ w
    # the activation in P becomes dpre = w ⊙ (M ⊙ w2ᵀ)
    critic.score_cotangent(P, w2.T, w)
    np.matmul(rows.T, P, out=critic.l1.W.grad[:d])
    del rows
    critic.l1.b.grad += P.sum(axis=0, keepdims=True)
    by_row = paths.sum(axis=0)
    del P, paths
    critic.l1.W.grad[d:] += attrs.t_matmul(by_row)
    del by_row
    # Σ w·D = (hᵀ w)·w2 + b2·Σ w, and the weights sum to zero
    loss = float((dW2 * w2).sum())
    # b2's gradient is Σ w = 0
    critic.l2.W.grad += dW2
    if not hp.lambda_gp:
        return loss

    gp, dW1_v, dw2 = penalty_terms(critic, interp.reshape(k * n, -1), n)
    dW1_v *= hp.lambda_gp
    critic.l1.W.grad[:d] += dW1_v
    critic.l2.W.grad += hp.lambda_gp * dw2
    return loss + hp.lambda_gp * gp


def _generator_backward(gen: Generator, fwd, attrs: AttrRows, g: np.ndarray) -> np.ndarray:
    """Add the generator's gradients for cotangent g at the output of forward
    `fwd` (see `_generate`) at attributes attrs; returns the cotangent at its
    hidden pre-activation."""
    z, h, out = fwd
    g = g * out
    g *= 1.0 - out
    ad.add_affine_grads(gen.l2, h, g)
    g = g @ gen.l2.W.data.T
    g *= h > 0
    _add_attr_affine_grads(gen.l1, z, attrs, g)
    return g


def eg_step(v, a: AttrRows, model: VaeGanModel, hp: GenHyperParams, rng, use_vae: bool) -> float:
    """Add the encoder/generator gradients of the stage-1 total to their .grad.

    Closed form. The critic is a constant for the step, and real and fake
    enter the penalty as constants, so the penalty cannot move the encoder
    or generator: the loss is `_dataset_metrics`' total at lambda_gp = 0.
    When lambda_gp is positive, the skipped penalties' eps are drawn all the
    same, so the noise stream stays what it is with them. Draws from rng in
    this order: reparameterisation, noise, one skipped eps per path (none
    when lambda_gp is 0). Returns the loss value.
    """
    n = v.shape[0]
    enc, gen, critic = model.encoder, model.generator, model.critic
    if use_vae:
        kl, recon, v_bar, cache = _vae_forward(model, v, a, rng)
    noise = rng.standard_normal((n, model.d_z))
    if hp.lambda_gp:
        rng.uniform(size=(n, 2 if use_vae else 1))

    # the attribute branch is shared by all three critic evaluations
    a_pre = critic.attr_branch(a)
    d_real = critic.scores(critic.hidden(v, a_pre)).mean()
    # a fake score's cotangent is -1/n per row, applied to w2 before the
    # product with W1_vᵀ
    w2_scaled = -(1.0 / n) * critic.l2.W.data.T
    W1_v = critic.l1.W.data[: critic.d_feat]

    def gan_term(fake):
        """(d_real - E D(fake), d(-E D(fake))/d fake)."""
        h = critic.hidden(fake, a_pre)
        score = critic.scores(h)
        return d_real - score.mean(), critic.score_cotangent(h, w2_scaled) @ W1_v.T

    fwd = _generate(gen, noise, a)
    gan1, g = gan_term(fwd[2])
    _generator_backward(gen, fwd, a, g)
    del fwd, g
    if not use_vae:
        return float(gan1)

    gan2, g = gan_term(v_bar)
    diff = cache["diff"]
    g -= (2.0 / diff.size) * diff
    dz = _generator_backward(gen, cache["dec"], a, g) @ gen.l1.W.data[: model.d_z].T
    # kl: d/dmu = mu/n, d/dlogvar = (exp(logvar) - 1)/(2n); the
    # reparameterisation adds dz to mu and dz·eps·std/2 to logvar
    dmu = cache["mu"] / n + dz
    dlv = 0.5 * ((cache["exp_lv"] - 1.0) / n + dz * cache["eps"] * cache["std"]) * cache["keep"]
    h1, h2, h3 = cache["enc"]
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
    _add_attr_affine_grads(enc.l1, v, a, g)
    return float(kl + recon + gan1 + gan2)


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
    that width on (see `util.run_pair`); the child builds the text model and
    sends back the trained one. The results are bitwise those of training one after the other.
    Errors surface in that order too: the image model's first. If the calling
    thread raises, a worker thread stops within one batch and a child is
    killed; neither is left running. A child that dies without a result
    raises RuntimeError naming `stage 1 txt`.
    """
    train_idx = split.train_rows
    if not train_idx:
        raise ConfigError("generation training set is empty")
    attrs = AttrRows(*corpus.attr_rows(train_idx))
    d_attr = attrs.table.shape[1]
    feats = {"img": corpus.image_matrix(train_idx), "txt": corpus.text_matrix(train_idx)}
    width = min(X.shape[1] for X in feats.values())
    # the models are built here, on the calling thread, so their buffers do
    # not stay behind in a worker's malloc arena; a forked child builds its
    # own, so only its raw features are kept past this point. One fork
    # decision: `run_pair` forks exactly when given a child name
    in_child = "txt" if forks(width) else None
    make = {m: partial(_new_model, X, d_attr, hp, m) for m, X in feats.items()}
    del feats
    built = {m: make.pop(m)() for m in ("img", "txt") if m != in_child}
    stop = threading.Event()

    def train(modality):
        model = built.get(modality) or make[modality]()
        return _train_single_modality(*model, attrs, hp, modality, use_vae, stop)

    (img, img_curve), (txt, txt_curve) = run_pair(
        partial(train, "img"), partial(train, "txt"), width, stop, in_child and "stage 1 txt"
    )
    return img, txt, {"img": img_curve, "txt": txt_curve}


def _new_model(feats, d_attr, hp, modality):
    """An untrained model of one modality with its scaler fitted to feats, and
    the scaled features.

    Its critic and encoder/generator step in turn, each from `zero_grads` of
    its own gradient to an `adam_step` that zeroes it again, and neither step
    writes the other's gradient, so the smaller network's gradient is laid
    over the larger one's buffer (`ParamGroup.bind_grad`): at d = d_attr =
    1024 the model's buffers take 276 MiB, not 308.
    """
    model = VaeGanModel(feats.shape[1], d_attr, hp, stream(hp.seed, modality, "init"))
    small, large = sorted(model.groups, key=lambda group: group.grad.size)
    small.bind_grad(large.grad)
    model.scaler.fit(feats)
    return model, model.scaler.transform(feats)


def _dataset_metrics(model, X, attrs: AttrRows, hp, rng, use_vae) -> dict[str, float]:
    """Every stage-1 loss term over a whole feature matrix, for curve logging.

    Returns {"kl", "recon", "vae", "critic_gap", "gan1", "gan2", "total"}:
    vae = kl + recon; gan1 and gan2 are E D(real) − E D(fake) − λ·GP on the
    noise path and the reconstruction path, critic_gap is the noise path's
    score gap and total = vae + gan1 + gan2. With use_vae off, kl, recon,
    vae and gan2 are 0. Draws from rng in this order: reparameterisation,
    noise, then one eps per path (none when lambda_gp is 0).
    """
    n = X.shape[0]
    critic = model.critic
    if use_vae:
        # the backward pass's cache is dropped here, not held through the probe
        kl, recon, v_bar = _vae_forward(model, X, attrs, rng)[:3]
    else:
        kl = recon = 0.0
    vae = kl + recon
    v_tilde = _generate(model.generator, rng.standard_normal((n, model.d_z)), attrs)[2]
    W1_v = critic.l1.W.data[: critic.d_feat]
    a_pre = critic.attr_branch(attrs)
    P_real = X @ W1_v
    d_real = critic.scores(P_real + a_pre).mean()

    def wgan_term(fake):
        P = fake @ W1_v
        gap = d_real - critic.scores(P + a_pre).mean()
        if not hp.lambda_gp:
            return gap, gap
        eps = rng.uniform(size=(n, 1))
        # the interpolates' pre-activation, as `critic_step` forms it
        pre = eps * P_real + (1.0 - eps) * P + a_pre
        return gap - penalty_terms(critic, pre, n, grads=False)[0] * hp.lambda_gp, gap

    gan1, gap = wgan_term(v_tilde)
    gan2 = wgan_term(v_bar)[0] if use_vae else 0.0
    return {
        "kl": float(kl), "recon": float(recon), "vae": float(vae), "critic_gap": float(gap),
        "gan1": float(gan1), "gan2": float(gan2), "total": float(vae + gan1 + gan2),
    }


def _train_single_modality(model, X, attrs, hp, modality, use_vae, stop: threading.Event):
    """Train one modality's model from `_new_model` in place on its scaled
    features X; returns (model, curve), or None once `stop` is set."""
    rng_shuffle = stream(hp.seed, modality, "shuffle")
    rng_noise = stream(hp.seed, modality, "noise")
    n = X.shape[0]

    eg_params, critic_params = model.groups

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
        # gen_num rows of one class: the table is the class's attribute vector
        rows = AttrRows(np.reshape(class_attrs[c], (1, -1)), np.zeros(gen_num, np.int64))
        images.append(img_model.synthesize(rows, rng_img))
        texts.append(txt_model.synthesize(rows, rng_txt))
        labels.extend([c] * gen_num)
    attrs = {c: np.asarray(class_attrs[c]).reshape(-1) for c in classes}
    return Corpus(np.vstack(images), np.vstack(texts), labels, attrs, name="pseudo")
