"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The end-to-end battery (criteria 6 and 8) trains the full two-stage
pipeline on the desk-scale synthetic preset for three seeds and reuses those
runs across tests; the whole module stays well inside the 5-minute budget.
"""

import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from xmodal import autodiff as ad
from xmodal import data, generation as gen, projection as proj, retrieval as ret
from xmodal import checkpoint as ckpt
from xmodal import pipeline
from xmodal.util import stream

from fdcheck import finite_difference_grad, max_rel_error

warnings.filterwarnings("ignore", message="odd class count")

GRAD_TOL = 1e-4
EXACT = 1e-12


def report(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness of every loss


def check_all_params(build_loss, params, tol=GRAD_TOL, eps=1e-6):
    # eps=1e-6 keeps the finite-difference stencil clear of LeakyReLU mask
    # flips, which make the penalty's inner-gradient norm jump discontinuously
    for p in params:
        p.grad[...] = 0.0
    ad.backward(build_loss())
    worst = 0.0
    for p in params:
        analytic = p.grad.copy()

        def value():
            with ad.no_grad():
                return build_loss().item()

        fd = finite_difference_grad(value, p, eps=eps)
        worst = max(worst, max_rel_error(analytic, fd))
        p.grad[...] = 0.0
    assert worst < tol, f"worst rel err {worst:.3e}"
    return worst


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    n, dim = 4, 16
    hp = gen.GenHyperParams(seed=41)
    model = gen.VaeGanModel(dim, dim, hp, stream(41, "init"))
    rng = np.random.default_rng(42)
    v = ad.Tensor(rng.uniform(0.05, 0.95, size=(n, dim)))
    a = ad.Tensor(rng.normal(size=(n, dim)))

    worst = {}

    def losses():
        return gen.generation_losses((v, a), model, hp, stream(7, "fd"))

    worst["vae"] = check_all_params(
        lambda: losses()["vae"], model.encoder.params + model.generator.params
    )
    worst["adversarial_fake"] = check_all_params(lambda: losses()["gan1"], model.params)
    worst["adversarial_recon"] = check_all_params(lambda: losses()["gan2"], model.params)

    pm = proj.ProjectionModel(dim, range(4), proj.ProjHyperParams(seed=43), stream(43, "init"))
    t = ad.Tensor(rng.normal(size=(n, dim)))
    x = ad.Tensor(rng.normal(size=(n, dim)))
    labels = rng.integers(0, 4, size=n)

    def embeddings():
        return pm.embed_images_node(x), pm.embed_texts_node(t)

    worst["classification"] = check_all_params(
        lambda: proj.loss_ce(*embeddings(), labels, pm.head), pm.params
    )
    worst["consistency"] = check_all_params(
        lambda: proj.loss_consistency(*embeddings()), pm.params
    )
    worst["contrastive"] = check_all_params(
        lambda: proj.loss_contrastive(*embeddings(), tau=0.1), pm.params
    )

    elapsed = time.time() - t0
    detail = (
        "all six losses match finite differences at rel err < 1e-4 "
        f"(worst {max(worst.values()):.2e}) in {elapsed:.1f}s"
    )
    report(1, elapsed < 60.0, detail)


# ---------------------------------------------------------------------------
# criterion 2: closed-form oracles


def test_criterion_2_closed_form_oracles():
    kl_prior = gen.kl_loss(ad.Tensor([[0.0]]), ad.Tensor([[0.0]])).item()
    kl_unit = gen.kl_loss(ad.Tensor([[1.0]]), ad.Tensor([[0.0]])).item()
    assert kl_prior == 0.0
    assert kl_unit == 0.5

    # a critic linear in its features, score v @ w with |w| = 3: identity
    # feature block, zero attribute block, and a bias that keeps every
    # hidden pre-activation positive
    critic = gen.Critic(2, 2, stream(2, "critic"))
    critic.l1.W.data[...] = np.vstack([np.eye(2, 4), np.zeros((2, 4))])
    critic.l1.b.data[...] = 10.0
    critic.l2.W.data[...] = np.array([[3.0], [0.0], [0.0], [0.0]])
    rng = np.random.default_rng(2)
    penalty = gen.gradient_penalty(
        rng.normal(size=(5, 2)),
        rng.normal(size=(5, 2)),
        rng.normal(size=(5, 2)),
        critic,
        stream(2, "gp"),
    ).item()
    assert abs(penalty - 4.0) < 1e-10

    u_v = np.array([[1.0, 0.0], [0.0, 1.0]])
    u_t = np.array([[1.0, 0.0], [0.0, 1.0]])
    got = proj.loss_contrastive(ad.Tensor(u_v), ad.Tensor(u_t), tau=1.0).item()
    # enumerate all similarity terms by hand: each anchor has positive sim 1,
    # denominators sum exp over the 3 non-self embeddings
    num = np.exp(1.0)
    denom = np.exp(1.0) + 2 * np.exp(0.0)
    want = -4.0 * np.log(num / denom) / 2.0
    assert abs(got - want) < EXACT

    report(2, True, "KL identities exact, |w|=3 penalty = 4.0, contrastive matches enumeration")


# ---------------------------------------------------------------------------
# criterion 3: mAP oracle


def brute_force_ap(bits):
    total = sum(bits)
    score = 0.0
    for r in range(1, len(bits) + 1):
        if bits[r - 1]:
            score += sum(bits[:r]) / r
    return score / total


def test_criterion_3_map_oracle():
    def ap_of(bits):
        sims = np.linspace(1.0, 0.0, num=len(bits))
        return ret.average_precision(sims[None, :], np.array(bits, dtype=bool)[None, :])[0]

    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        bits = rng.integers(0, 2, size=8)
        if bits.sum() == 0:
            bits[rng.integers(0, 8)] = 1
        worst = max(worst, abs(ap_of(list(bits)) - brute_force_ap(list(bits))))
    assert worst < EXACT

    assert ap_of([0, 1, 0, 1]) == 0.5
    assert ap_of([0, 0, 1]) == 1.0 / 3.0
    report(3, True, f"20 random galleries match brute force (worst |diff| {worst:.1e}); hand cases exact")


# ---------------------------------------------------------------------------
# criterion 4: gate identities


def test_criterion_4_gate_identities():
    model = proj.ProjectionModel(8, range(3), proj.ProjHyperParams(seed=44), stream(44, "init"))
    rng = np.random.default_rng(45)
    x = ad.Tensor(rng.normal(size=(40, 8)))
    f = model.projector_v(x)

    model.gate_v.l2.W.data[...] = 0.0
    model.gate_v.l2.b.data[...] = 1e4
    u_one = proj.fuse(x, model.projector_v, model.gate_v)
    assert np.array_equal(u_one.data, f.data)

    model.gate_v.l2.b.data[...] = -1e4
    u_zero = proj.fuse(x, model.projector_v, model.gate_v)
    assert np.array_equal(u_zero.data, x.data)

    fresh = proj.ProjectionModel(8, range(3), proj.ProjHyperParams(seed=46), stream(46, "init"))
    f2 = fresh.projector_v(x)
    u = proj.fuse(x, fresh.projector_v, fresh.gate_v)
    lo = np.minimum(x.data, f2.data)
    hi = np.maximum(x.data, f2.data)
    assert np.all(u.data >= lo) and np.all(u.data <= hi)
    report(4, True, "g=1 gives u=f bitwise, g=0 gives u=x bitwise, fusion stays in [min, max]")


# ---------------------------------------------------------------------------
# criterion 5: split protocol


def test_criterion_5_split_protocol():
    corpus = data.synth_corpus(n_classes=10, per_class=8, dim=8, seed=50)
    for seed in range(100):
        split = data.split_xshot(corpus, x=3, seed=seed)
        assert len(split.source_classes) == 5
        assert len(split.target_classes) == 5
        assert set(split.source_classes).isdisjoint(split.target_classes)
        tally = {c: 0 for c in split.target_classes}
        for label in corpus.labels(split.target_train):
            tally[int(label)] += 1
        assert all(v == 3 for v in tally.values())
        zero = data.split_xshot(corpus, x=0, seed=seed)
        assert zero.target_train == ()
    report(5, True, "100 seeded splits: disjoint 5/5 classes, exact per-class shot counts, empty zero-shot")


# ---------------------------------------------------------------------------
# criteria 6 and 8: end-to-end battery on the desk-scale preset


@pytest.fixture(scope="module")
def battery():
    cfg = pipeline.preset_config("synthetic")
    corpus = pipeline.load_config_corpus(cfg)
    t0 = time.time()
    cells = {}
    for seed in (0, 1, 2):
        cells[("full", 0, seed)] = pipeline.run_cell(corpus, 0, seed, cfg)
        cells[("full", 5, seed)] = pipeline.run_cell(corpus, 5, seed, cfg)
        cells[("no_generation", 0, seed)] = pipeline.run_cell(
            corpus, 0, seed, replace(cfg, ablations=pipeline.AblationFlags(no_generation=True))
        )
        cells[("no_vae", 0, seed)] = pipeline.run_cell(
            corpus, 0, seed, replace(cfg, ablations=pipeline.AblationFlags(no_vae=True))
        )
    cells[("no_gate", 0, 0)] = pipeline.run_cell(
        corpus, 0, 0, replace(cfg, ablations=pipeline.AblationFlags(no_gate=True))
    )
    return {"cells": cells, "elapsed": time.time() - t0, "config": cfg}


def _avg(cells, kind, x, seed):
    return cells[(kind, x, seed)]["reports"]["target"]["avg"]


def test_criterion_6_synthetic_end_to_end(battery):
    cells = battery["cells"]
    seeds = (0, 1, 2)

    gen_wins = sum(_avg(cells, "full", 0, s) > _avg(cells, "no_generation", 0, s) for s in seeds)
    base_wins = sum(
        _avg(cells, "full", 0, s) > cells[("full", 0, s)]["reports"]["baseline_target"]["avg"]
        for s in seeds
    )
    med0 = float(np.median([_avg(cells, "full", 0, s) for s in seeds]))
    med5 = float(np.median([_avg(cells, "full", 5, s) for s in seeds]))
    vae_holds = sum(_avg(cells, "no_vae", 0, s) <= _avg(cells, "full", 0, s) for s in seeds)

    ok = (
        gen_wins >= 2
        and base_wins >= 2
        and med5 >= med0
        and vae_holds >= 2
        and battery["elapsed"] < 300.0
    )
    report(
        6,
        ok,
        f"(a) full>no_generation {gen_wins}/3, (b) full>raw-baseline {base_wins}/3, "
        f"(c) median mAP {med0:.3f}->{med5:.3f} non-decreasing, "
        f"(d) no_vae<=full {vae_holds}/3, battery {battery['elapsed']:.0f}s < 300s",
    )


def test_gate_ablation_direction(battery):
    cells = battery["cells"]
    gated = _avg(cells, "full", 0, 0)
    ungated = _avg(cells, "no_gate", 0, 0)
    assert ungated <= gated, f"no_gate {ungated:.4f} > gated {gated:.4f}"
    print(f"[extra] gate ablation: ungated {ungated:.4f} <= gated {gated:.4f}")


# ---------------------------------------------------------------------------
# criterion 7: determinism and persistence


def test_criterion_7_determinism_and_persistence(tmp_path):
    payload = {
        "name": "determinism",
        "synthetic": {"n_classes": 6, "per_class": 10, "dim": 16, "seed": 70,
                      "noise_sigma": 0.12, "proto_rank": 4},
        "x_shots": [0],
        "seeds": [5],
        "gen": {"lr": 1e-3, "batch": 16, "epochs": 4, "seed": 0},
        "proj": {"lr": 1e-3, "batch": 16, "epochs": 4, "seed": 0},
        "gen_num": 6,
    }
    cfg_a = pipeline.config_from_dict({**payload, "out_dir": str(tmp_path / "a")})
    cfg_b = pipeline.config_from_dict({**payload, "out_dir": str(tmp_path / "b")})
    rec_a = pipeline.run_experiment(cfg_a)
    rec_b = pipeline.run_experiment(cfg_b)
    cell_a = rec_a["cells"][0]
    cell_b = rec_b["cells"][0]
    for domain in ("target", "source", "baseline_target"):
        ra, rb = cell_a["reports"][domain], cell_b["reports"][domain]
        assert ra["avg"] == rb["avg"]
        assert ra["img2txt"]["per_query_ap"] == rb["img2txt"]["per_query_ap"]

    reloaded = pipeline.eval_checkpoint(
        cell_a["checkpoints"]["projection"], cfg_a, x_shot=0, seed=5
    )
    drift = abs(reloaded["avg"] - cell_a["reports"]["target"]["avg"])
    assert drift < EXACT

    model_a = ckpt.load_projection(cell_a["checkpoints"]["projection"])
    model_b = ckpt.load_projection(cell_b["checkpoints"]["projection"])
    for (n1, p1), (n2, p2) in zip(model_a.named_params(), model_b.named_params()):
        assert n1 == n2 and np.array_equal(p1.data, p2.data)
    report(7, True, f"bit-identical reruns; checkpoint re-evaluation drift {drift:.1e} < 1e-12")


# ---------------------------------------------------------------------------
# criterion 8: training sanity on the preset


def test_criterion_8_training_sanity(battery):
    cells = battery["cells"]
    worst_ratio = 0.0
    for seed in (0, 1, 2):
        curves = cells[("full", 0, seed)]["curves"]
        for modality in ("img", "txt"):
            recon = curves["generation"][modality]["recon"]
            worst_ratio = max(worst_ratio, recon[-1] / recon[0])
        total = curves["projection"]["total"]
        assert total[-1] < total[0]
    assert worst_ratio <= 0.5
    report(
        8,
        True,
        f"stage-1 recon final/initial worst {worst_ratio:.3f} <= 0.5; stage-2 loss decreases",
    )
