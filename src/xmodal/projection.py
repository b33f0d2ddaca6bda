"""Common-space projection with gated residual fusion.

Each modality gets a projector (same input and output width, so the result
can be mixed elementwise with the original feature) and a gate network whose
sigmoid output blends projected and original features per dimension:
u = g * f + (1 - g) * x. A classifier head shared by both modalities plus a
modal consistency loss and a temperature-scaled contrastive loss train the
space; the three terms are weighted by alpha/beta/gamma.

`projection_step` computes the losses and their gradients in closed form.
The gate's direct partials are ∂u/∂g = f − x, ∂u/∂f = g and ∂u/∂x = 1 − g;
the contrastive term is NT-Xent, whose gradient with respect to the cosine
matrix is (P − Y)/(τn) with P the masked softmax and Y the positives. NT-Xent
is a softmax cross-entropy over the scaled cosine matrix, so L1 and L3 share
one, `_xent`, for the loss and its (softmax − one-hot) cotangent. The
tests check its gradients against central finite differences of the curve
probe and pin a grid cell's results by value (`tests/test_golden.py`).
Under no_gate the model has no gate networks. The two modality towers
(projector and any gate) meet only in the losses, so their forwards, and
then their backward passes and Adam updates, run through `util.run_pair`:
the text tower on a worker thread from `util.CONCURRENT_MIN_WIDTH` on when a
second core is free. The losses, their cotangents and the shared head's
update run on the calling thread. `_tower_forward` is the one tower
forward: `embed_*` runs its evaluation mode on the near-equal row blocks of
`util.row_blocks`, each block's u written into its rows of one (n, d)
output, so a block holds one (BLOCK, 2d) and one (BLOCK, d) float64 buffer
and bool masks: float32 rows are cast straight into the first, and the
logistic's denominator is formed in the second. `retrieval.evaluate` calls
it one block at a time on each evaluation thread, on rows it has just
gathered at their stored dtype, so a thread's forward holds those rows,
its output and the two buffers. The curve probe, `dataset_losses`, is that
forward on whole matrices plus the loss values; its contrastive term holds
one (2n, 2n) matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import Linear, Module
from .data import Corpus, XShotSplit
from .errors import ConfigError
from .optim import adam_step, zero_grads
from .util import require_field_types, require_finite, row_blocks, run_pair, stream


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

    def __post_init__(self):
        require_field_types(self)
        if self.tau <= 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ConfigError("loss weights must be non-negative")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.batch < 1 or self.epochs < 1:
            raise ConfigError("batch and epochs must be positive")


class Projector(Module):
    """Two affine layers with a ReLU between; keeps the feature width."""

    def __init__(self, d: int):
        self.l1 = Linear(d, d)
        self.l2 = Linear(d, d)


class GateNet(Module):
    """Maps (original ++ projected) to per-dimension mixing coefficients in (0, 1)."""

    def __init__(self, d: int):
        self.l1 = Linear(2 * d, d)
        self.l2 = Linear(d, d)


class ClassifierHead(Module):
    """One affine layer from a common-space embedding to class logits, shared
    by both modalities."""

    def __init__(self, d: int, n_classes: int):
        self.layer = Linear(d, n_classes)


class RawFeatures:
    """Pass-through embedder: evaluates retrieval on the original features."""

    def embed_images(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64)

    def embed_texts(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64)


class ProjectionModel(Module):
    """Both projectors, both gates (None under no_gate), and the shared
    classifier head."""

    def __init__(self, d: int, classes, hp: ProjHyperParams, rng, use_gate: bool = True):
        self.d = d
        self.classes = tuple(sorted(int(c) for c in classes))
        self.label_index = {c: i for i, c in enumerate(self.classes)}
        self.hp = hp
        self.use_gate = use_gate
        self.projector_v = Projector(d)
        self.projector_t = Projector(d)
        self.gate_v, self.gate_t = (GateNet(d), GateNet(d)) if use_gate else (None, None)
        self.head = ClassifierHead(d, len(self.classes))
        # `groups`: each modality's tower (projector and any gate), then the head
        towers = ((self.projector_v, self.gate_v), (self.projector_t, self.gate_t))
        self.lay_out(rng, *(tuple(part for part in tower if part is not None) for tower in towers), (self.head,))
        # the fingerprint of the run config that trained the model, when known
        self.config_fingerprint: str | None = None

    def _embed(self, X, projector: Projector, gate: GateNet | None) -> np.ndarray:
        """One modality's embeddings at rows X (never written), gate None
        under no_gate: `_tower_forward` on the blocks of `util.row_blocks`.
        float32 rows stay float32 here; the forward casts each block."""
        X = np.asarray(X)
        X = ad.as_matrix(X, np.float32 if X.dtype == np.float32 else np.float64)
        out = np.empty(X.shape)
        for rows in row_blocks(len(X)):
            _tower_forward(X[rows], projector, gate, out[rows])
        return out

    def embed_images(self, X: np.ndarray) -> np.ndarray:
        return self._embed(X, self.projector_v, self.gate_v)

    def embed_texts(self, X: np.ndarray) -> np.ndarray:
        return self._embed(X, self.projector_t, self.gate_t)


# ---------------------------------------------------------------------------
# the stage-2 step: each tower's forward and backward pass, and the losses


def _tower_forward(x: np.ndarray, projector: Projector, gate: GateNet | None,
                   out: np.ndarray | None = None):
    """One modality's embeddings u at rows x (never written) and the
    activations `_tower_backward` reads; gate is None under no_gate.

    x may be float32 (gathered corpus rows) or float64. Gated, x is cast
    into the left half of one (rows, 2d) float64 buffer and the projector
    output f is written into its right half, so the buffer is the gate's
    input [x, f] and x and f are views of it; ungated, the first product
    casts it. Training (out None) returns u in an array of its own.
    Evaluation gives the (rows, d) `out`: no backward pass follows, so the
    gate's hidden layer, the logistic's denominator and (1 − g)·x reuse the
    projector's hidden buffer, g and u are formed in out, and the
    activations returned are None. Both modes do the same float operations.
    """
    if gate is None:
        r1 = ad.relu_inplace(ad.affine(x, projector.l1))
        f = ad.affine(r1, projector.l2, out=out)
        return f, (x, r1) if out is None else None
    d = x.shape[1]
    joint = np.empty((len(x), 2 * d))
    joint[:, :d] = x
    x, f = joint[:, :d], joint[:, d:]
    r1 = ad.relu_inplace(ad.affine(x, projector.l1))
    ad.affine(r1, projector.l2, out=f)
    r3 = ad.relu_inplace(ad.affine(joint, gate.l1, out=None if out is None else r1))
    g = ad.affine(r3, gate.l2, out=out)
    ad.logistic(g, out=g, scratch=None if out is None else r3)
    # u = g * f + (1 - g) * x; joint keeps f
    rest = np.subtract(1.0, g, out=None if out is None else r3)
    rest *= x
    u = np.multiply(g, f, out=out)
    u += rest
    return u, (x, r1, joint, r3, g) if out is None else None


def _tower_backward(du: np.ndarray, projector: Projector, gate: GateNet | None, saved) -> None:
    """Add one modality's projector and gate gradients at embedding cotangent
    du to their .grad; `saved` is `_tower_forward`'s. du is only read."""
    if gate is None:
        x, r1 = saved
        df = du
    else:
        x, r1, joint, r3, g = saved
        d = x.shape[1]
        # u = g*f + (1-g)*x reaches g as du*f - du*x and f as du*g
        dg = du * x
        np.negative(dg, out=dg)
        tmp = du * joint[:, d:]
        dg += tmp
        df = du * g
        # the logistic's derivative g(1 - g)
        dg *= g
        dg *= np.subtract(1.0, g, out=tmp)
        del tmp
        ad.add_affine_grads(gate.l2, r3, dg)
        dh = dg @ gate.l2.W.data.T
        dh *= r3 > 0
        ad.add_affine_grads(gate.l1, joint, dh)
        # only the f half of the joint's cotangent is needed
        df += dh @ gate.l1.W.data[d:].T
    ad.add_affine_grads(projector.l2, r1, df)
    dh = df @ projector.l2.W.data.T
    dh *= r1 > 0
    ad.add_affine_grads(projector.l1, x, dh)


def _xent(logits: np.ndarray, targets: np.ndarray):
    """Σ_rows log softmax(logits)[target], and the function of k forming, in
    logits' own buffer, k·(softmax − one-hot), which it returns. A −inf logit
    drops out of its row's maximum, sum and cotangent: its exp is +0.0."""
    rows = np.arange(len(targets))
    picked = logits[rows, targets].reshape(-1, 1)
    shift = logits.max(axis=1, keepdims=True)
    logits -= shift
    e = np.exp(logits, out=logits)
    s = e.sum(axis=1, keepdims=True)
    log_p = picked - (shift + np.log(s))

    def cotangent(k: float) -> np.ndarray:
        np.multiply(e, k / s, out=e)
        e[rows, targets] -= k
        return e

    return log_p.sum(), cotangent


def _ce_term(u_v, u_t, labels, head: ClassifierHead, weight: float):
    """L1, the cross-entropy of both modalities through the shared head summed
    over both and averaged over the batch, and the function giving weight·L1's
    cotangents at (u_v, u_t); that function also adds the head's gradients to
    its .grad."""
    n = len(labels)
    sum_v, back_v = _xent(ad.affine(u_v, head.layer), labels)
    sum_t, back_t = _xent(ad.affine(u_t, head.layer), labels)

    def cotangent(u, back):
        g = back(weight / n)
        ad.add_affine_grads(head.layer, u, g)
        return g @ head.layer.W.data.T

    return -(sum_v + sum_t) / n, lambda: (cotangent(u_v, back_v), cotangent(u_t, back_t))


def _consistency_term(u_v, u_t, weight: float):
    """L2, the mean Euclidean distance between paired embeddings, and the
    function giving weight·L2's cotangents at (u_v, u_t). A pair at zero
    distance has no norm derivative and gets a zero cotangent."""
    diff = u_v - u_t
    norms = np.sqrt((diff * diff).sum(axis=1, keepdims=True))
    n = len(norms)

    def cotangents():
        coef = np.divide(weight / n, norms, out=np.zeros_like(norms), where=norms > 0)
        g = np.multiply(diff, coef, out=diff)
        return g, -g

    return norms.mean(), cotangents


def _contrastive_term(u_v, u_t, tau: float, weight: float):
    """L3 and the function giving weight·L3's cotangents at (u_v, u_t),
    holding one (2n, 2n) array; n must be at least 2.

    All 2n embeddings act as anchors; each anchor's positive is its paired
    embedding from the other modality, and the denominator runs over every
    other embedding, the anchor itself left out (NT-Xent, arXiv:2002.05709).
    Cosine similarities are scaled by 1/tau; the sum of anchor terms is
    divided by n. It is a softmax cross-entropy over the scaled cosine matrix,
    so it runs through `_xent`, as L1 does, with the diagonal set to -inf,
    which drops it out of its row (a non-finite similarity makes the loss
    NaN), and the pair column as the target. The gradient with respect
    to the cosine matrix is G = (k/τ)(P − Y), with P the masked softmax, Y
    the positives and k the weight over n. The unit rows' cotangent is
    (G + Gᵀ) û, and the normalisation's Jacobian maps it to
    (d û − û (û · d û)) / ‖u‖ per row. A zero row, which has no direction,
    gets a unit row of 0 and a zero cotangent.
    """
    n = u_v.shape[0]
    m = 2 * n
    unit = np.vstack([u_v, u_t])
    norms = np.sqrt((unit * unit).sum(axis=1, keepdims=True))
    norms[norms == 0.0] = np.inf  # dividing by inf zeroes the row and its cotangent
    unit /= norms
    sims = unit @ unit.T
    sims /= tau
    np.fill_diagonal(sims, -np.inf)
    log_p, back = _xent(sims, (np.arange(m) + n) % m)

    def cotangents():
        # the cosine matrix's cotangent, in sims' buffer
        g = back(weight / n)
        g /= tau
        d_unit = (g + g.T) @ unit
        d_unit -= unit * (unit * d_unit).sum(axis=1, keepdims=True)
        d_unit /= norms
        return d_unit[:n], d_unit[n:]

    return -log_p / n, cotangents


def _batch_losses(u_v, u_t, label_cols, head: ClassifierHead, hp: ProjHyperParams):
    """L1, L2, L3 and their weighted total alpha·L1 + beta·L2 + gamma·L3 at
    embeddings (u_v, u_t) as floats, and the cotangent functions of the terms
    computed, in that order. A term whose weight is 0 is not computed and
    reads 0, as does L3 on a batch of one pair."""
    values = {"l1": 0.0, "l2": 0.0, "l3": 0.0}
    terms = []
    if hp.alpha > 0:
        values["l1"], back = _ce_term(u_v, u_t, label_cols, head, hp.alpha)
        terms.append(back)
    if hp.beta > 0:
        values["l2"], back = _consistency_term(u_v, u_t, hp.beta)
        terms.append(back)
    if hp.gamma > 0 and u_v.shape[0] >= 2:
        values["l3"], back = _contrastive_term(u_v, u_t, hp.tau, hp.gamma)
        terms.append(back)
    values["total"] = values["l1"] * hp.alpha + values["l2"] * hp.beta + values["l3"] * hp.gamma
    return {k: float(v) for k, v in values.items()}, terms


def _embedding_cotangents(terms):
    """(d/du_v, d/du_t) of the weighted total, summed over the terms in
    order. None when no term is on."""
    du_v = du_t = None
    for cotangents in terms:
        dv, dt = cotangents()
        du_v = dv if du_v is None else du_v + dv
        du_t = dt if du_t is None else du_t + dt
    return du_v, du_t


def projection_step(model: ProjectionModel, v, t, label_cols, hp: ProjHyperParams,
                    epoch: int = 1, step: int = 1) -> dict[str, float]:
    """One Adam step of every parameter on `_batch_losses`' total at the
    float64 batch (v, t); returns the loss values.

    Gradients are zeroed first. The two modality towers run their forwards,
    then their backward passes and Adam updates, through `util.run_pair`:
    the text tower on a worker thread when the model is wide enough and a
    second core is free. The losses, their cotangents and the head's update
    run on the calling thread. A non-finite loss raises NonFiniteError
    naming `epoch` and `step` before any parameter moves.
    """
    for group in model.groups:
        zero_grads(group)
    (u_v, saved_v), (u_t, saved_t) = run_pair(
        partial(_tower_forward, v, model.projector_v, model.gate_v),
        partial(_tower_forward, t, model.projector_t, model.gate_t),
        model.d,
    )
    values, terms = _batch_losses(u_v, u_t, label_cols, model.head, hp)
    require_finite(values["total"], "stage 2 projection", epoch, step)
    du_v, du_t = _embedding_cotangents(terms)
    del terms  # and with them the losses' saved arrays, before the towers' passes

    def update(du, projector, gate, saved, params):
        if du is not None:
            _tower_backward(du, projector, gate, saved)
        adam_step(params, hp.lr)

    tower_v, tower_t, head = model.groups
    run_pair(
        partial(update, du_v, model.projector_v, model.gate_v, saved_v, tower_v),
        partial(update, du_t, model.projector_t, model.gate_t, saved_t, tower_t),
        model.d,
    )
    adam_step(head, hp.lr)
    return values


def dataset_losses(model: ProjectionModel, V, T, label_cols, hp: ProjHyperParams) -> dict[str, float]:
    """`_batch_losses`' values over whole image and text matrices, for curve
    logging: the evaluation forward of both towers through `util.run_pair`,
    then the loss values. Tests take its total as the step's loss."""
    u_v, u_t = run_pair(partial(model.embed_images, V), partial(model.embed_texts, T), model.d)
    return _batch_losses(u_v, u_t, label_cols, model.head, hp)[0]


def train_projection(
    split: XShotSplit,
    corpus: Corpus,
    pseudo: Corpus | None,
    hp: ProjHyperParams,
    use_gate: bool = True,
):
    """Stage-2 training on real source/shot instances plus any pseudo corpus.

    A pseudo corpus is taken as given: the pipeline synthesises it for this
    split's target classes from the generators it has just trained, or from
    saved ones whose `stage1_key` is the cell's (`pipeline.train_proj_cell`).

    The class set spans all corpus classes, so target columns exist even when
    no pseudo or shot data reaches them. Returns (model, loss curves) with
    curve index 0 logged before any update.
    """
    real_idx = split.train_rows
    parts = [(corpus, real_idx)] if real_idx else []
    if pseudo is not None:
        parts.append((pseudo, None))
    if not parts:
        raise ConfigError("projection training set is empty")
    V = np.vstack([c.image_matrix(rows) for c, rows in parts])
    T = np.vstack([c.text_matrix(rows) for c, rows in parts])
    labels = np.hstack([c.labels(rows) for c, rows in parts])

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
        for k, val in dataset_losses(model, V, T, label_cols, hp).items():
            curve.setdefault(k, []).append(val)

    log_point()
    for epoch in range(1, hp.epochs + 1):
        perm = rng_shuffle.permutation(n)
        for step, start in enumerate(range(0, n, hp.batch), 1):
            idx = perm[start : start + hp.batch]
            projection_step(model, V[idx], T[idx], label_cols[idx], hp, epoch, step)
        log_point()
    return model, curve
