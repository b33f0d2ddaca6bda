"""Common-space projection with gated residual fusion.

Each modality gets a projector (same input and output width, so the result
can be mixed elementwise with the original feature) and a gate network whose
sigmoid output blends projected and original features per dimension:
u = g * f + (1 - g) * x. A classifier head shared by both modalities plus a
modal consistency loss and a temperature-scaled contrastive loss train the
space; the three terms are weighted by alpha/beta/gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Linear, Tensor, no_grad
from .data import Corpus, XShotSplit
from .errors import ConfigError, ContractError, DimensionMismatchError
from .optim import adam_step, zero_grads
from .util import require_finite, stream


@dataclass
class ProjHyperParams:
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    tau: float = 0.1
    lr: float = 1e-3
    batch: int = 64
    epochs: int = 100
    seed: int = 0
    contrast_includes_self: bool = False

    def __post_init__(self):
        if self.tau <= 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ConfigError("loss weights must be non-negative")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.batch < 1 or self.epochs < 1:
            raise ConfigError("batch and epochs must be positive")


class Projector:
    """Two affine layers with a ReLU between; keeps the feature width."""

    def __init__(self, d: int, rng):
        self.l1 = Linear(d, d, rng)
        self.l2 = Linear(d, d, rng)

    def __call__(self, x):
        return self.l2(ad.relu(self.l1(x)))

    @property
    def params(self):
        return self.l1.params + self.l2.params


class GateNet:
    """Maps (original ++ projected) to per-dimension mixing coefficients in (0, 1)."""

    def __init__(self, d: int, rng):
        self.l1 = Linear(2 * d, d, rng)
        self.l2 = Linear(d, d, rng)

    def __call__(self, joint):
        return ad.sigmoid(self.l2(ad.relu(self.l1(joint))))

    @property
    def params(self):
        return self.l1.params + self.l2.params


class ClassifierHead:
    """One affine layer to class logits; probabilities via row softmax."""

    def __init__(self, d: int, n_classes: int, rng):
        self.layer = Linear(d, n_classes, rng)

    def logits(self, u):
        return self.layer(u)

    def __call__(self, u):
        return ad.softmax_rows(self.layer(u))

    @property
    def params(self):
        return self.layer.params


def fuse(x, projector: Projector, gate: GateNet) -> Tensor:
    """Gated residual mix of the projected feature with the original one."""
    x = ad.as_tensor(x)
    f = projector(x)
    g = gate(ad.concat_cols(x, f))
    return g * f + (1.0 - g) * x


def _log_prob_of_label(logits, labels) -> Tensor:
    """log softmax probability of each row's labeled class, numerically stable."""
    shift = Tensor(logits.data.max(axis=1, keepdims=True))
    lse = shift + ad.log(ad.sum_axis(ad.exp(logits - shift), axis=1))
    return ad.pick_cols(logits, labels) - lse


def loss_ce(u_v, u_t, labels, head: ClassifierHead) -> Tensor:
    """Cross-entropy of both modalities through the shared head, averaged over the batch."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    n_classes = head.layer.W.data.shape[1]
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ConfigError(f"label out of range [0, {n_classes})")
    lp_v = _log_prob_of_label(head.logits(u_v), labels)
    lp_t = _log_prob_of_label(head.logits(u_t), labels)
    n = labels.size
    return -(ad.sum_all(lp_v) + ad.sum_all(lp_t)) * (1.0 / n)


def loss_consistency(u_v, u_t) -> Tensor:
    """Mean Euclidean distance between paired common-space embeddings."""
    diff = ad.as_tensor(u_v) - u_t
    norms = ad.sqrt(ad.sum_axis(ad.square(diff), axis=1))
    return ad.mean_all(norms)


def loss_contrastive(u_v, u_t, tau: float, include_self: bool = False) -> Tensor:
    """Contrastive instance-discrimination loss over both modalities of a batch.

    All 2n embeddings act as anchors; each anchor's positive is its paired
    embedding from the other modality, the denominator runs over every other
    embedding in the batch (self excluded unless include_self). Cosine
    similarities are scaled by 1/tau; the sum of anchor terms is divided by n.
    """
    if tau <= 0:
        raise ConfigError(f"tau must be positive, got {tau}")
    u_v = ad.as_tensor(u_v)
    u_t = ad.as_tensor(u_t)
    n = u_v.data.shape[0]
    if n < 2:
        raise ContractError(f"contrastive loss needs a batch of at least 2 pairs, got {n}")

    stacked = ad.concat_rows(u_v, u_t)
    norms = ad.sqrt(ad.sum_axis(ad.square(stacked), axis=1))
    unit = stacked / norms
    sims = ad.matmul(unit, ad.transpose(unit)) * (1.0 / tau)

    pair_idx = np.concatenate([np.arange(n) + n, np.arange(n)])
    positives = ad.pick_cols(sims, pair_idx)

    m = 2 * n
    mask = np.ones((m, m))
    if not include_self:
        np.fill_diagonal(mask, 0.0)
    masked_max = np.where(mask > 0, sims.data, -np.inf).max(axis=1, keepdims=True)
    shift = Tensor(masked_max)
    denom = ad.sum_axis(ad.exp(sims - shift) * Tensor(mask), axis=1)
    log_denoms = shift + ad.log(denom)

    log_p = positives - log_denoms
    return -ad.sum_all(log_p) * (1.0 / n)


def total_loss(components, hp: ProjHyperParams) -> Tensor:
    """alpha*L1 + beta*L2 + gamma*L3."""
    l1, l2, l3 = components
    return hp.alpha * ad.as_tensor(l1) + hp.beta * ad.as_tensor(l2) + hp.gamma * ad.as_tensor(l3)


class RawFeatures:
    """Pass-through embedder: evaluates retrieval on the original features."""

    def embed_images(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64)

    def embed_texts(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64)


class ProjectionModel:
    """Both projectors, both gates, and the shared classifier head."""

    def __init__(self, d: int, classes, hp: ProjHyperParams, rng, use_gate: bool = True):
        self.d = d
        self.classes = tuple(sorted(int(c) for c in classes))
        self.label_index = {c: i for i, c in enumerate(self.classes)}
        self.hp = hp
        self.use_gate = use_gate
        self.projector_v = Projector(d, rng)
        self.projector_t = Projector(d, rng)
        self.gate_v = GateNet(d, rng)
        self.gate_t = GateNet(d, rng)
        self.head = ClassifierHead(d, len(self.classes), rng)
        # the fingerprint of the run config that trained the model, when known
        self.config_fingerprint: str | None = None

    def _embed(self, x, projector, gate) -> Tensor:
        if self.use_gate:
            return fuse(x, projector, gate)
        return projector(ad.as_tensor(x))

    def embed_images_node(self, x) -> Tensor:
        return self._embed(x, self.projector_v, self.gate_v)

    def embed_texts_node(self, x) -> Tensor:
        return self._embed(x, self.projector_t, self.gate_t)

    def _embed_array(self, X, projector: Projector, gate: GateNet) -> np.ndarray:
        """`_embed`'s value in plain numpy, formed in place with no tape.

        It repeats the tape's float operations, so the result equals
        `embed_*_node(X).data` bitwise. X itself is never written.
        """
        x = ad.as_matrix(X)
        h = ad.relu_inplace(ad.affine(x, projector.l1))
        f = ad.affine(h, projector.l2)
        if not self.use_gate:
            return f
        joint = np.concatenate([x, f], axis=1)
        h = np.matmul(joint, gate.l1.W.data, out=h)
        del joint
        h += gate.l1.b.data
        g = ad.affine(ad.relu_inplace(h), gate.l2)
        del h
        ad.logistic(g, out=g)
        # u = g * f + (1 - g) * x, formed in f's buffer
        f *= g
        np.subtract(1.0, g, out=g)
        g *= x
        f += g
        return f

    def embed_images(self, X: np.ndarray) -> np.ndarray:
        return self._embed_array(X, self.projector_v, self.gate_v)

    def embed_texts(self, X: np.ndarray) -> np.ndarray:
        return self._embed_array(X, self.projector_t, self.gate_t)

    def named_params(self) -> list[tuple[str, ad.Parameter]]:
        out = []
        for part_name, part in (
            ("projector_v", self.projector_v),
            ("projector_t", self.projector_t),
            ("gate_v", self.gate_v),
            ("gate_t", self.gate_t),
            ("head", self.head),
        ):
            for layer_name in sorted(vars(part)):
                layer = getattr(part, layer_name)
                if isinstance(layer, Linear):
                    out.append((f"{part_name}.{layer_name}.W", layer.W))
                    out.append((f"{part_name}.{layer_name}.b", layer.b))
        return out

    @property
    def params(self):
        return (
            self.projector_v.params
            + self.projector_t.params
            + self.gate_v.params
            + self.gate_t.params
            + self.head.params
        )


def projection_losses(model: ProjectionModel, v, t, label_cols, hp: ProjHyperParams):
    """L1/L2/L3 and their weighted total on one batch; zero-weight terms are skipped."""
    u_v = model.embed_images_node(v)
    u_t = model.embed_texts_node(t)
    zero = Tensor(0.0)
    l1 = loss_ce(u_v, u_t, label_cols, model.head) if hp.alpha > 0 else zero
    l2 = loss_consistency(u_v, u_t) if hp.beta > 0 else zero
    n = u_v.data.shape[0]
    if hp.gamma > 0 and n >= 2:
        l3 = loss_contrastive(u_v, u_t, hp.tau, hp.contrast_includes_self)
    else:
        l3 = zero
    return {"l1": l1, "l2": l2, "l3": l3, "total": total_loss((l1, l2, l3), hp)}


def train_projection(
    split: XShotSplit,
    corpus: Corpus,
    pseudo: Corpus | None,
    hp: ProjHyperParams,
    use_gate: bool = True,
):
    """Stage-2 training on real source/shot instances plus any pseudo corpus.

    A pseudo corpus must match the corpus width and hold only the split's
    target classes, so one built for another split is rejected.

    The class set spans all corpus classes, so target columns exist even when
    no pseudo or shot data reaches them. Returns (model, loss curves) with
    curve index 0 logged before any update.
    """
    real_idx = list(split.source_train) + list(split.target_train)
    V = [corpus.image_matrix(real_idx)] if real_idx else []
    T = [corpus.text_matrix(real_idx)] if real_idx else []
    labels = [corpus.labels(real_idx)] if real_idx else []
    if pseudo is not None:
        if pseudo.dim != corpus.dim:
            raise DimensionMismatchError(
                f"pseudo corpus dim {pseudo.dim} does not match corpus dim {corpus.dim}"
            )
        stray = np.setdiff1d(pseudo.labels(), split.target_classes)
        if stray.size:
            raise ConfigError(
                f"pseudo corpus holds classes {stray.tolist()} that are not target "
                f"classes {list(split.target_classes)} of this split"
            )
        V.append(pseudo.image_matrix())
        T.append(pseudo.text_matrix())
        labels.append(pseudo.labels())
    if not V:
        raise ConfigError("projection training set is empty")
    V = np.vstack(V)
    T = np.vstack(T)
    labels = np.concatenate(labels)

    model = ProjectionModel(
        d=V.shape[1],
        classes=corpus.classes(),
        hp=hp,
        rng=stream(hp.seed, "proj", "init"),
        use_gate=use_gate,
    )
    label_cols = np.array([model.label_index[int(y)] for y in labels], dtype=np.int64)
    n = V.shape[0]
    rng_shuffle = stream(hp.seed, "proj", "shuffle")

    curve: dict[str, list[float]] = {}

    def log_point():
        with no_grad():
            losses = projection_losses(model, Tensor(V), Tensor(T), label_cols, hp)
        for k, t in losses.items():
            curve.setdefault(k, []).append(t.item())

    log_point()
    for epoch in range(1, hp.epochs + 1):
        perm = rng_shuffle.permutation(n)
        for step, start in enumerate(range(0, n, hp.batch), 1):
            idx = perm[start : start + hp.batch]
            zero_grads(model.params)
            losses = projection_losses(
                model, Tensor(V[idx]), Tensor(T[idx]), label_cols[idx], hp
            )
            require_finite(losses["total"].item(), "stage 2 projection", epoch, step)
            ad.backward(losses["total"])
            adam_step(model.params, hp.lr)
        log_point()
    return model, curve
