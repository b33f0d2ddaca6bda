"""`autodiff.Module`: the one owner of every network's parameter list.

Its names are the checkpoint keys and its order is the order in which a
step updates the parameters, so both are pinned here, and so is the flat
layout of each network's arrays in its `ParamGroup`.
"""

import pickle

import numpy as np
import pytest

from xmodal import autodiff as ad, checkpoint as ckpt
from xmodal.generation import GenHyperParams, VaeGanModel
from xmodal.projection import ProjectionModel, ProjHyperParams

VAEGAN_NAMES = [
    "encoder.l1.W", "encoder.l1.b", "encoder.l2.W", "encoder.l2.b",
    "encoder.l3.W", "encoder.l3.b", "encoder.logvar_head.W", "encoder.logvar_head.b",
    "encoder.mu_head.W", "encoder.mu_head.b",
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


def test_sub_modules_in_set_order_then_layers_in_name_order():
    class Part(ad.Module):
        def __init__(self):
            self.z = ad.Linear(2, 2, None)
            self.a = ad.Linear(2, 1, None)

    class Net(ad.Module):
        def __init__(self):
            self.width = 2
            self.last = ad.Linear(2, 2, None)
            self.second = Part()
            self.first = Part()
            self.table = {"k": ad.Linear(2, 2, None)}

    net = Net()
    assert names(net) == [
        "second.a.W", "second.a.b", "second.z.W", "second.z.b",
        "first.a.W", "first.a.b", "first.z.W", "first.z.b",
        "last.W", "last.b",
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
