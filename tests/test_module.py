"""`autodiff.Module`: the one owner of every network's parameter list.

Its names are the checkpoint keys and its order is the order in which a
step updates the parameters, so both are pinned here, and so is the flat
layout of each network's arrays in its `ParamGroup`.
"""

import hashlib
import pickle

import numpy as np
import pytest

from xmodal import autodiff as ad, checkpoint as ckpt
from xmodal.generation import GenHyperParams, VaeGanModel
from xmodal.projection import ProjectionModel, ProjHyperParams
from xmodal.util import stream

VAEGAN_NAMES = [
    "encoder.l1.W", "encoder.l1.b", "encoder.l2.W", "encoder.l2.b",
    "encoder.l3.W", "encoder.l3.b", "encoder.mu_head.W", "encoder.mu_head.b",
    "encoder.logvar_head.W", "encoder.logvar_head.b",
    "generator.l1.W", "generator.l1.b", "generator.l2.W", "generator.l2.b",
    "critic.l1.W", "critic.l1.b", "critic.l2.W", "critic.l2.b",
]

PROJECTION_NAMES = [
    "projector_v.l1.W", "projector_v.l1.b", "projector_v.l2.W", "projector_v.l2.b",
    "projector_t.l1.W", "projector_t.l1.b", "projector_t.l2.W", "projector_t.l2.b",
    "gate_v.l1.W", "gate_v.l1.b", "gate_v.l2.W", "gate_v.l2.b",
    "gate_t.l1.W", "gate_t.l1.b", "gate_t.l2.W", "gate_t.l2.b",
    "head.layer.W", "head.layer.b",
]


def vaegan():
    return VaeGanModel(4, 3, GenHyperParams(), None)


def projection():
    return ProjectionModel(3, [0, 1], ProjHyperParams(), None)


def names(module):
    return [name for name, _ in module.named_params()]


def test_model_names_are_the_checkpoint_keys():
    assert names(vaegan()) == VAEGAN_NAMES
    assert names(projection()) == PROJECTION_NAMES


def _modules():
    g, p = vaegan(), projection()
    return {
        "vaegan": g, "encoder": g.encoder, "generator": g.generator, "critic": g.critic,
        "projection": p, "projector_v": p.projector_v, "projector_t": p.projector_t,
        "gate_v": p.gate_v, "gate_t": p.gate_t, "head": p.head,
    }


@pytest.mark.parametrize("key", sorted(_modules()))
def test_params_follow_named_params(key):
    module = _modules()[key]
    want = [p for _, p in module.named_params()]
    got = module.params
    assert len(got) == len(want) and all(a is b for a, b in zip(got, want))
    assert len({id(p) for p in got}) == len(got)


def test_other_attributes_add_no_names():
    # d_feat, a fitted scaler's arrays, hp, classes and label_index are not
    # parameters, even where they hold arrays or layer widths
    g, p = vaegan(), projection()
    g.scaler.fit(np.arange(8.0).reshape(2, 4))
    g.probe = {"noise": np.ones((2, 3))}
    p.config_fingerprint = "abc"
    assert g.critic.d_feat == 4
    assert names(g.critic) == ["l1.W", "l1.b", "l2.W", "l2.b"]
    assert names(g) == VAEGAN_NAMES
    assert p.classes == (0, 1) and p.label_index == {0: 0, 1: 1}
    assert names(p) == PROJECTION_NAMES


def test_sub_modules_and_layers_in_set_order():
    class Part(ad.Module):
        def __init__(self):
            self.z = ad.Linear(2, 2)
            self.a = ad.Linear(2, 1)

    class Net(ad.Module):
        def __init__(self):
            self.width = 2
            self.last = ad.Linear(2, 2)
            self.second = Part()
            self.first = Part()
            self.table = {"k": ad.Linear(2, 2)}

    net = Net()
    assert names(net) == [
        "last.W", "last.b",
        "second.z.W", "second.z.b", "second.a.W", "second.a.b",
        "first.z.W", "first.z.b", "first.a.W", "first.a.b",
    ]
    named = dict(net.named_params())
    assert named["first.z.W"] is net.first.z.W and named["last.b"] is net.last.b
    assert np.array_equal(named["second.a.W"].data, np.zeros((2, 1)))


# ---------------------------------------------------------------------------
# the flat layout: one ParamGroup per network


NETWORKS = {
    "vaegan": [("encoder", "generator"), ("critic",)],
    "projection": [("projector_v", "gate_v"), ("projector_t", "gate_t"), ("head",)],
}


def trained(kind):
    """A desk-width model (d=64) whose buffers all hold nonzero values."""
    rng = np.random.default_rng(0)
    if kind == "vaegan":
        model = VaeGanModel(64, 32, GenHyperParams(), rng)
        model.scaler.fit(rng.normal(size=(5, 64)))
    else:
        model = ProjectionModel(64, range(10), ProjHyperParams(), rng)
    for group in model.groups:
        for buf in (group.grad, group.adam_m, group.adam_v):
            buf[...] = rng.normal(size=buf.shape)
        group.step_count = 7
    return model


def assert_laid_out(model, kind):
    """Each network's params are its group's members, in order, and their
    data and grad arrays are consecutive views into the group's buffers of
    those names; the group's Adam moments are flat buffers of the same size."""
    assert len(model.groups) == len(NETWORKS[kind])
    for group, parts in zip(model.groups, NETWORKS[kind]):
        want = [p for part in parts for p in getattr(model, part).params]
        assert len(group) == len(want) and all(a is b for a, b in zip(group, want))
        for buf in (group.adam_m, group.adam_v):
            assert buf.dtype == np.float64 and buf.shape == group.data.shape
        for field in ("data", "grad"):
            buf = getattr(group, field)
            assert buf.dtype == np.float64 and buf.ndim == 1
            start = 0
            for p in group:
                view = getattr(p, field)
                assert np.shares_memory(view, buf) and view.flags.c_contiguous, field
                assert view.ctypes.data == buf.ctypes.data + 8 * start, field
                start += view.size
            assert start == buf.size


def test_a_model_lays_out_one_group_per_network():
    for kind, model in (("vaegan", vaegan()), ("projection", projection())):
        assert_laid_out(model, kind)
        assert all(g.step_count == 0 for g in model.groups)
        # untrained: the gradients and moments start at zero
        assert not any(g.grad.any() or g.adam_m.any() or g.adam_v.any() for g in model.groups)


def test_a_group_lays_its_gradient_over_the_first_elements_of_a_buffer():
    model = vaegan()
    small, large = sorted(model.groups, key=lambda group: group.grad.size)
    small.bind_grad(large.grad)
    assert_laid_out(model, "vaegan")
    assert small.grad.ctypes.data == large.grad.ctypes.data
    assert small.grad.size == small.data.size < large.grad.size


@pytest.mark.parametrize("kind", ["vaegan", "projection"])
def test_a_loaded_model_reads_into_its_groups(kind, tmp_path):
    model = trained(kind)
    save, load = {"vaegan": (ckpt.save_vaegan, ckpt.load_vaegan),
                  "projection": (ckpt.save_projection, ckpt.load_projection)}[kind]
    save(model, tmp_path / "m.ckpt")
    back = load(tmp_path / "m.ckpt")
    assert_laid_out(back, kind)
    for a, b in zip(model.groups, back.groups):
        assert a.data.tobytes() == b.data.tobytes()
        assert b.step_count == 0 and not (b.grad.any() or b.adam_m.any() or b.adam_v.any())


@pytest.mark.parametrize("kind", ["vaegan", "projection"])
def test_a_pickled_model_sends_each_buffer_once_and_rebinds_the_views(kind):
    model = trained(kind)
    blob = pickle.dumps(model, pickle.HIGHEST_PROTOCOL)
    buffers = sum(4 * g.data.nbytes for g in model.groups)
    assert len(blob) <= 1.1 * buffers
    back = pickle.loads(blob)
    assert_laid_out(back, kind)
    for a, b in zip(model.groups, back.groups):
        assert b.step_count == a.step_count == 7
        for field in ("data", "grad", "adam_m", "adam_v"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field
    assert [n for n, _ in back.named_params()] == [n for n, _ in model.named_params()]
    if kind == "vaegan":
        assert np.array_equal(back.scaler.lo, model.scaler.lo)


def test_layers_are_drawn_in_the_order_they_were_set():
    # the draw order of earlier releases, where each layer drew as it was
    # built: layers in the order set, which differs from the name order
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    model = ProjectionModel(5, range(2), ProjHyperParams(), rng)
    for part in ("projector_v", "projector_t", "gate_v", "gate_t", "head"):
        for name in ("l1", "l2") if part != "head" else ("layer",):
            W = getattr(getattr(model, part), name).W.data
            limit = float(np.sqrt(6.0 / sum(W.shape)))
            assert W.tobytes() == ref.uniform(-limit, limit, W.shape).tobytes(), (part, name)
    assert rng.random() == ref.random()


# the SHA-256 of each weight drawn from stream(0, "pin"), recorded when each
# Linear held the rng until the draw; keyed by name, since a group's buffer
# layout follows the name order
WEIGHT_PINS = {
    "vaegan": {
        "critic.l1.W": "a7c7697349a965cc1346a6cd339a1e62913cdbd7a0a6603da9cfeee79739ef76",
        "critic.l2.W": "9bb4cdfd4e7682e0dd8d88e66f662eb17b7caea14e70cd17a6c74a38d9f96b46",
        "encoder.l1.W": "8993025f712517d5c9779441f3aed183d9060911beedc4b8bcbb9ec2cc73cca7",
        "encoder.l2.W": "b393d42f5caff56e89bf15ad1bbb247aee88c975e0603c802e6f9bd6b080c708",
        "encoder.l3.W": "61fce2306fa9133e6ec371dd77b3e5f2c6478b6e059e81f91ffc4952861935b6",
        "encoder.logvar_head.W": "c0324e6522b3e78d8196a36929e321e357e8a4a8cb76f19ab900cba9b4ff7a52",
        "encoder.mu_head.W": "0d5f3b8e5da9dbfdc6083168577180d3f08b6e00d2d2cd3957d59403a2900d43",
        "generator.l1.W": "5129d0b9f3e701ede71d8f3601bd783d44983c348710ff077c5d8004f287922f",
        "generator.l2.W": "ea629ccb0d218df81b619477679ca7be5b83893895d60f7878b572f8d4637a0f",
    },
    "projection": {
        "gate_t.l1.W": "930b2735ed652a6071e10e9f9c4cde9821f43abd69a9cc228e03abd7940044f6",
        "gate_t.l2.W": "d34146434721b8d106b770a5022350dce5b8d5d07d2ee70f6073f9d66c2f960d",
        "gate_v.l1.W": "8bf4c5597db1b5fcf696bc1b8f7e7de723f53ae2c135771a48be5fee7023fc6c",
        "gate_v.l2.W": "6fbdf051320d1846a4b46026a467d31c3a98176512e32030b26fada03c336a23",
        "head.layer.W": "ee4bccdb4906a72332f142e9cdf7b3ec2134beb69c4d7e33adbf52819e7a0b55",
        "projector_t.l1.W": "d4ead6b7e11236b999338b267b6cb7f7a7892f47b7f52cf38eb2b1303b4eef2f",
        "projector_t.l2.W": "5185617259419003782312be397611a5ea2621d268ba4443afb7f17dfc0d34c0",
        "projector_v.l1.W": "478407dd21903f6f6a30fd03074f7aa8b74ec556a9b4813959a37e38553e0827",
        "projector_v.l2.W": "1ba2b9844fff07ff275222e29b5fee8ed5e80b0b41a9afd7ccf5ef81181c7211",
    },
}


@pytest.mark.parametrize("kind", sorted(WEIGHT_PINS))
def test_weights_drawn_from_a_fixed_stream_are_pinned(kind):
    if kind == "vaegan":
        model = VaeGanModel(6, 4, GenHyperParams(), stream(0, "pin"))
    else:
        model = ProjectionModel(5, range(3), ProjHyperParams(), stream(0, "pin"))
    named = dict(model.named_params())
    got = {name: hashlib.sha256(p.data.tobytes()).hexdigest() for name, p in named.items() if name.endswith(".W")}
    assert got == WEIGHT_PINS[kind]
    assert not any(p.data.any() for name, p in named.items() if name.endswith(".b"))
