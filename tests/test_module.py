"""`autodiff.Module`: the one owner of every network's parameter list.

Its names are the checkpoint keys and its order is the order in which a
step updates the parameters, so both are pinned here.
"""

import numpy as np
import pytest

from xmodal import autodiff as ad
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
