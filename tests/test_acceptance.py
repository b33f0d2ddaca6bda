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

from xmodal import data, generation as gen, projection as proj, retrieval as ret
from xmodal import checkpoint as ckpt
from xmodal import pipeline
from xmodal.util import stream

from fdcheck import assert_grad_matches

warnings.filterwarnings("ignore", message="odd class count")

GRAD_TOL = 1e-4
EXACT = 1e-12


def report(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness of every loss


def test_criterion_1_gradient_correctness(monkeypatch):
    # every closed-form step against central differences of its loss: the
    # value the critic step returns, and the curve probes' totals for the
    # E/G and projection steps. eps=1e-6 keeps the stencil clear of ReLU and
    # LeakyReLU mask flips, which make the penalty's inner-gradient norm jump
    t0 = time.time()
    n, dim = 4, 16
    hp = gen.GenHyperParams(seed=41)
    model = gen.VaeGanModel(dim, dim, hp, stream(41, "init"))
    rng = np.random.default_rng(42)
    v = rng.uniform(0.05, 0.95, size=(n, dim))
    a = rng.normal(size=(n, dim))

    probe_hp = replace(hp, lambda_gp=0.0)
    worst = {}
    for use_vae in (True, False):
        posterior = model.posterior(v, a) if use_vae else None

        def critic_step_loss():
            return gen.critic_step(v, a, model, hp, stream(7, "fd"), posterior)

        worst[f"critic step, vae {use_vae}"] = assert_grad_matches(
            critic_step_loss, model.critic.params, critic_step_loss, GRAD_TOL, eps=1e-6
        )

        def eg_loss():
            return gen._dataset_metrics(model, v, a, probe_hp, stream(7, "fd"), use_vae)["total"]

        eg = model.generator.params + (model.encoder.params if use_vae else [])
        worst[f"E/G step, vae {use_vae}"] = assert_grad_matches(
            eg_loss, eg, lambda: gen.eg_step(v, a, model, hp, stream(7, "fd"), use_vae),
            GRAD_TOL, eps=1e-6,
        )

    t = rng.normal(size=(n, dim))
    x = rng.normal(size=(n, dim))
    labels = rng.integers(0, 4, size=n)
    monkeypatch.setattr(proj, "adam_step", lambda params, lr: None)
    for use_gate in (True, False):
        pm = proj.ProjectionModel(
            dim, range(4), proj.ProjHyperParams(seed=43), stream(43, "init"), use_gate=use_gate
        )
        for term, (alpha, beta, gamma) in (("L1", (1, 0, 0)), ("L2", (0, 1, 0)), ("L3", (0, 0, 1))):
            php = proj.ProjHyperParams(alpha=alpha, beta=beta, gamma=gamma, seed=43)
            worst[f"projection step, {term} alone, gate {use_gate}"] = assert_grad_matches(
                lambda: proj.dataset_losses(pm, x, t, labels, php)["total"],
                pm.params,
                lambda: proj.projection_step(pm, x, t, labels, php),
                GRAD_TOL,
                eps=1e-6,
            )

    elapsed = time.time() - t0
    detail = (
        f"{len(worst)} step checks (critic and E/G, VAE on and off; projection, gate on "
        "and off, each loss alone) match finite differences at rel err < 1e-4 "
        f"(worst {max(worst.values()):.2e}) in {elapsed:.1f}s"
    )
    report(1, elapsed < 60.0, detail)


# ---------------------------------------------------------------------------
# criterion 2: closed-form oracles


def vae_kl(mu, logvar) -> float:
    """`_vae_forward`'s KL term at one row whose posterior is (mu, logvar):
    the encoder's heads are zeroed and their biases set to them."""
    mu, logvar = np.atleast_2d(mu), np.atleast_2d(logvar)
    model = gen.VaeGanModel(4, 4, gen.GenHyperParams(latent_dim=mu.shape[1]), stream(1, "kl"))
    for head, value in ((model.encoder.mu_head, mu), (model.encoder.logvar_head, logvar)):
        head.W.data[...] = 0.0
        head.b.data[...] = value
    return gen._vae_forward(model, np.full((1, 4), 0.5), np.zeros((1, 4)), stream(1, "eps"))[0]


def test_criterion_2_closed_form_oracles():
    assert vae_kl(0.0, 0.0) == 0.0
    assert vae_kl(1.0, 0.0) == 0.5

    # a critic linear in its features, score v @ w with |w| = 3: identity
    # feature block, zero attribute block, and a bias that keeps every
    # hidden pre-activation positive
    critic = gen.Critic(2, 2, stream(2, "critic"))
    critic.lay_out((critic,))
    critic.l1.W.data[...] = np.vstack([np.eye(2, 4), np.zeros((2, 4))])
    critic.l1.b.data[...] = 10.0
    critic.l2.W.data[...] = np.array([[3.0], [0.0], [0.0], [0.0]])
    rng = np.random.default_rng(2)
    v_hat, a = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
    penalty = gen.penalty_terms(critic, v_hat, critic.attr_branch(a), 5, grads=False)[0]
    assert abs(penalty - 4.0) < 1e-10

    u_v = np.array([[1.0, 0.0], [0.0, 1.0]])
    u_t = np.array([[1.0, 0.0], [0.0, 1.0]])
    got = proj._contrastive_term(u_v, u_t, tau=1.0, weight=1.0)[0]
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
    x = rng.normal(size=(40, 8))
    f = proj._tower_forward(x, model.projector_v, None)[0]

    model.gate_v.l2.W.data[...] = 0.0
    model.gate_v.l2.b.data[...] = 1e4
    assert np.array_equal(model.embed_images(x), f)

    model.gate_v.l2.b.data[...] = -1e4
    assert np.array_equal(model.embed_images(x), x)

    fresh = proj.ProjectionModel(8, range(3), proj.ProjHyperParams(seed=46), stream(46, "init"))
    f2 = proj._tower_forward(x, fresh.projector_v, None)[0]
    u = fresh.embed_images(x)
    lo = np.minimum(x, f2)
    hi = np.maximum(x, f2)
    assert np.all(u >= lo) and np.all(u <= hi)
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


def _paired(cells, other) -> str:
    """full − other in target mAP at x=0, per seed: "+0.1129/-0.0004/+0.0952".
    other is an ablation kind, or "baseline" for the cell's raw features."""
    def theirs(s):
        if other == "baseline":
            return cells[("full", 0, s)]["reports"]["baseline_target"]["avg"]
        return _avg(cells, other, 0, s)

    return "/".join(f"{_avg(cells, 'full', 0, s) - theirs(s):+.4f}" for s in (0, 1, 2))


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
        f"(d) no_vae<=full {vae_holds}/3, battery {battery['elapsed']:.0f}s < 300s; "
        f"paired per seed 0/1/2: full-baseline {_paired(cells, 'baseline')}, "
        f"full-no_vae {_paired(cells, 'no_vae')}, full-no_generation {_paired(cells, 'no_generation')}",
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
    ratios = {}
    for seed in (0, 1, 2):
        curves = cells[("full", 0, seed)]["curves"]
        for modality in ("img", "txt"):
            recon = curves["generation"][modality]["recon"]
            ratios[seed, modality] = recon[-1] / recon[0]
        total = curves["projection"]["total"]
        assert total[-1] < total[0]
    worst_ratio = max(ratios.values())
    assert worst_ratio <= 0.5
    each = ", ".join(f"s{s} {m} {r:.4f}" for (s, m), r in ratios.items())
    report(
        8,
        True,
        f"stage-1 recon final/initial worst {worst_ratio:.4f} <= 0.5 ({each}); stage-2 loss decreases",
    )
