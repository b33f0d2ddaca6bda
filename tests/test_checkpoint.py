import errno
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from xmodal import autodiff as ad
from xmodal import checkpoint as ckpt
from xmodal import data, generation as gen, pipeline, projection as proj, retrieval as ret, util
from xmodal.cli import main as cli_main
from xmodal.errors import CheckpointError
from xmodal.util import stream


@pytest.fixture(scope="module")
def small_setup():
    corpus = data.synth_corpus(n_classes=4, per_class=8, dim=8, seed=3, noise_sigma=0.15)
    split = data.split_xshot(corpus, x=0, seed=3)
    gen_hp = gen.GenHyperParams(lr=1e-3, batch=8, epochs=3, seed=3)
    img, txt, _ = gen.train_generation(split, corpus, gen_hp)
    proj_hp = proj.ProjHyperParams(lr=1e-3, batch=8, epochs=3, seed=3)
    model, _ = proj.train_projection(split, corpus, None, proj_hp)
    return corpus, split, img, txt, model


def test_vaegan_round_trip_bitwise(small_setup, tmp_path):
    _, _, img, _, _ = small_setup
    path = tmp_path / "gen.ckpt"
    ckpt.save_vaegan(img, path)
    back = ckpt.load_vaegan(path)
    for (n1, p1), (n2, p2) in zip(img.named_params(), back.named_params()):
        assert n1 == n2
        assert np.array_equal(p1.data, p2.data)
    assert np.array_equal(img.scaler.lo, back.scaler.lo)
    assert np.array_equal(img.scaler.span, back.scaler.span)
    assert back.d_z == img.d_z


def test_vaegan_stage1_key_round_trips(small_setup, tmp_path, monkeypatch):
    _, _, img, _, _ = small_setup
    monkeypatch.setattr(img, "stage1_key", "0123456789abcdef")
    ckpt.save_vaegan(img, tmp_path / "gen.ckpt")
    assert ckpt.load_vaegan(tmp_path / "gen.ckpt").stage1_key == "0123456789abcdef"
    # a checkpoint written before the key existed loads with none
    meta, arrays = ckpt.load_checkpoint(tmp_path / "gen.ckpt")
    del meta["stage1_key"]
    ckpt.save_checkpoint(tmp_path / "old.ckpt", "vaegan", meta, arrays)
    assert ckpt.load_vaegan(tmp_path / "old.ckpt").stage1_key is None


def test_loads_draw_no_weights(small_setup, tmp_path, monkeypatch):
    # the model a load reads into starts from zeros: Xavier weights that the
    # read then overwrote took 0.16 s of a 0.20 s projection load at d=1024
    _, _, img, _, model = small_setup
    ckpt.save_vaegan(img, tmp_path / "gen.ckpt")
    ckpt.save_projection(model, tmp_path / "proj.ckpt")

    def no_draws(*args):
        raise AssertionError("a load drew random weights")

    monkeypatch.setattr(ad, "xavier_uniform", no_draws)
    for saved, back in (
        (img, ckpt.load_vaegan(tmp_path / "gen.ckpt")),
        (model, ckpt.load_projection(tmp_path / "proj.ckpt")),
    ):
        for (n1, p1), (n2, p2) in zip(saved.named_params(), back.named_params()):
            assert n1 == n2
            assert np.array_equal(p2.data, p1.data)


def test_loaded_model_has_a_fresh_optimizer(small_setup, tmp_path):
    # a checkpoint holds no Adam state: moments and grads load as zeros and
    # every step count as 0, whatever the saved model had trained through
    _, _, img, _, model = small_setup
    ckpt.save_vaegan(img, tmp_path / "gen.ckpt")
    ckpt.save_projection(model, tmp_path / "proj.ckpt")
    assert all(g.step_count > 0 for g in img.groups + model.groups)
    for back in (ckpt.load_vaegan(tmp_path / "gen.ckpt"), ckpt.load_projection(tmp_path / "proj.ckpt")):
        for g in back.groups:
            assert g.step_count == 0 and not (g.adam_m.any() or g.adam_v.any() or g.grad.any())


def test_vaegan_reload_synthesizes_identically(small_setup, tmp_path):
    corpus, split, img, _, _ = small_setup
    path = tmp_path / "gen.ckpt"
    ckpt.save_vaegan(img, path)
    back = ckpt.load_vaegan(path)
    attrs = gen.AttrRows(corpus.class_attrs[split.target_classes[0]], np.zeros(4, np.int64))
    a = img.synthesize(attrs, stream(9, "syn"))
    b = back.synthesize(attrs, stream(9, "syn"))
    assert np.array_equal(a, b)


def test_projection_round_trip_and_identical_eval(small_setup, tmp_path):
    corpus, split, _, _, model = small_setup
    before = ret.evaluate(model, split, corpus)
    path = tmp_path / "proj.ckpt"
    ckpt.save_projection(model, path)
    back = ckpt.load_projection(path)
    assert back.classes == model.classes
    assert back.use_gate == model.use_gate
    after = ret.evaluate(back, split, corpus)
    assert abs(after["img2txt"].map_score - before["img2txt"].map_score) < 1e-12
    assert abs(after["txt2img"].map_score - before["txt2img"].map_score) < 1e-12
    assert after["img2txt"].per_query_ap == before["img2txt"].per_query_ap


def test_tampered_magic_rejected(small_setup, tmp_path):
    _, _, img, _, _ = small_setup
    path = tmp_path / "gen.ckpt"
    ckpt.save_vaegan(img, path)
    blob = path.read_bytes()
    path.write_bytes(b"BADMAGIC" + blob[8:])
    with pytest.raises(CheckpointError, match="bad magic"):
        ckpt.load_vaegan(path)


def test_version_mismatch_names_both_versions(small_setup, tmp_path):
    _, _, img, _, _ = small_setup
    path = tmp_path / "gen.ckpt"
    ckpt.save_vaegan(img, path)
    blob = bytearray(path.read_bytes())
    blob[8:12] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=r"version 99.*version 1"):
        ckpt.load_vaegan(path)


def test_kind_mismatch_rejected(small_setup, tmp_path):
    _, _, img, _, _ = small_setup
    path = tmp_path / "gen.ckpt"
    ckpt.save_vaegan(img, path)
    with pytest.raises(CheckpointError, match="vaegan"):
        ckpt.load_projection(path)


def test_truncated_payload_rejected(small_setup, tmp_path):
    _, _, img, _, _ = small_setup
    path = tmp_path / "gen.ckpt"
    ckpt.save_vaegan(img, path)
    path.write_bytes(path.read_bytes()[:-64])
    with pytest.raises(CheckpointError, match="truncated"):
        ckpt.load_vaegan(path)


def _rewrite(path, kind, meta, arrays, drop_header_key=None):
    """Re-save a checkpoint's contents, optionally without one header key."""
    ckpt.save_checkpoint(path, kind, meta, arrays)
    if drop_header_key is None:
        return
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[12:16], "little")
    header = json.loads(raw[16 : 16 + header_len])
    del header[drop_header_key]
    blob = json.dumps(header).encode("utf8")
    path.write_bytes(raw[:12] + len(blob).to_bytes(4, "little") + blob + raw[16 + header_len :])


@pytest.mark.parametrize("key", ["arrays", "meta"])
def test_header_missing_key_names_it(small_setup, tmp_path, key):
    _, _, img, _, _ = small_setup
    path = tmp_path / "gen.ckpt"
    ckpt.save_vaegan(img, path)
    meta, arrays = ckpt.load_checkpoint(path)
    _rewrite(path, "vaegan", meta, arrays, drop_header_key=key)
    with pytest.raises(CheckpointError, match=f"header lacks '{key}'"):
        ckpt.load_checkpoint(path)


@pytest.mark.parametrize("key", ["hp", "d_feat", "d_attr"])
def test_vaegan_meta_missing_key_names_it(small_setup, tmp_path, key):
    _, _, img, _, _ = small_setup
    path = tmp_path / "gen.ckpt"
    ckpt.save_vaegan(img, path)
    meta, arrays = ckpt.load_checkpoint(path)
    del meta[key]
    _rewrite(path, "vaegan", meta, arrays)
    with pytest.raises(CheckpointError, match=f"meta lacks '{key}'"):
        ckpt.load_vaegan(path)


@pytest.mark.parametrize("key", ["hp", "classes", "d", "use_gate"])
def test_projection_meta_missing_key_names_it(small_setup, tmp_path, key):
    _, _, _, _, model = small_setup
    path = tmp_path / "proj.ckpt"
    ckpt.save_projection(model, path)
    meta, arrays = ckpt.load_checkpoint(path)
    del meta[key]
    _rewrite(path, "projection", meta, arrays)
    with pytest.raises(CheckpointError, match=f"meta lacks '{key}'"):
        ckpt.load_projection(path)


@pytest.mark.parametrize(
    "kind, key, value, what",
    [
        ("vaegan", "d_feat", "3", "a positive integer"),
        ("vaegan", "d_feat", 3.0, "a positive integer"),
        ("vaegan", "d_feat", True, "a positive integer"),
        ("vaegan", "d_attr", None, "a positive integer"),
        ("projection", "d", "3", "a positive integer"),
        ("projection", "d", 3.0, "a positive integer"),
        ("projection", "d", True, "a positive integer"),
        ("projection", "d", -1, "a positive integer"),
        ("projection", "classes", 5, "a list of integers"),
        ("projection", "classes", [0, "x"], "a list of integers"),
        ("projection", "use_gate", "no", "a bool"),
    ],
)
def test_meta_value_of_the_wrong_kind_names_it(small_setup, tmp_path, kind, key, value, what):
    # each used to raise a raw TypeError or ValueError, or for use_gate load
    # and run the gate
    _, _, img, _, model = small_setup
    path = tmp_path / f"{kind}.ckpt"
    load = _save(kind, img, model, path)
    meta, arrays = ckpt.load_checkpoint(path)
    meta[key] = value
    _rewrite(path, kind, meta, arrays)
    message = f"{kind}.ckpt: checkpoint meta '{key}' is {value!r}; it must be {what}"
    with pytest.raises(CheckpointError, match=re.escape(message)):
        load(path)


@pytest.mark.parametrize("value", [5, ["x"], "0123456789abcdef", None])
@pytest.mark.parametrize("kind, key", [("vaegan", "stage1_key"), ("projection", "config_fingerprint")])
def test_meta_attribute_is_a_string_or_null(small_setup, tmp_path, kind, key, value):
    # a number or list used to load: eval reported it as the training run's
    # fingerprint, and a generator's was refused only by a key mismatch
    _, _, img, _, model = small_setup
    path = tmp_path / f"{kind}.ckpt"
    load = _save(kind, img, model, path)
    meta, arrays = ckpt.load_checkpoint(path)
    meta[key] = value
    _rewrite(path, kind, meta, arrays)
    if value is None or isinstance(value, str):
        assert getattr(load(path), key) == value
        return
    message = f"{kind}.ckpt: checkpoint meta '{key}' is {value!r}; it must be a string or null"
    with pytest.raises(CheckpointError, match=re.escape(message)):
        load(path)


def test_cli_eval_meta_value_of_the_wrong_kind_exits_2(tmp_path, capsys):
    path = _untrained_projection(tmp_path)
    meta, arrays = ckpt.load_checkpoint(path)
    meta["classes"] = [0, "x"]
    _rewrite(path, "projection", meta, arrays)
    assert _cli_eval(tmp_path, capsys, path) == (
        2, f"error: {path}: checkpoint meta 'classes' is [0, 'x']; it must be a list of integers\n"
    )


def test_missing_parameter_array_names_it(small_setup, tmp_path):
    _, _, _, _, model = small_setup
    path = tmp_path / "proj.ckpt"
    ckpt.save_projection(model, path)
    meta, arrays = ckpt.load_checkpoint(path)
    name = next(k for k in sorted(arrays) if k.startswith("param/"))
    del arrays[name]
    _rewrite(path, "projection", meta, arrays)
    with pytest.raises(CheckpointError, match=f"payload lacks '{name}'"):
        ckpt.load_projection(path)


@pytest.mark.parametrize("kind", ["param"])
def test_array_of_another_shape_names_it(small_setup, tmp_path, kind):
    # a (1, 8) row would broadcast silently into an 8x8 weight
    _, _, _, _, model = small_setup
    path = tmp_path / "proj.ckpt"
    ckpt.save_projection(model, path)
    meta, arrays = ckpt.load_checkpoint(path)
    name = next(k for k in sorted(arrays) if k.startswith(f"{kind}/") and arrays[k].shape == (8, 8))
    arrays[name] = arrays[name][:1]
    _rewrite(path, "projection", meta, arrays)
    with pytest.raises(
        CheckpointError, match=re.escape(f"array '{name}' has shape (1, 8), the model expects (8, 8)")
    ):
        ckpt.load_projection(path)


def test_scaler_of_another_width_names_it(small_setup, tmp_path):
    _, _, img, _, _ = small_setup
    path = tmp_path / "gen.ckpt"
    ckpt.save_vaegan(img, path)
    meta, arrays = ckpt.load_checkpoint(path)
    arrays["scaler/span"] = arrays["scaler/span"][:, :4]
    _rewrite(path, "vaegan", meta, arrays)
    with pytest.raises(
        CheckpointError, match=re.escape("array 'scaler/span' has shape (1, 4), the model expects (1, 8)")
    ):
        ckpt.load_vaegan(path)


def test_scaler_without_its_span_names_it(small_setup, tmp_path):
    _, _, img, _, _ = small_setup
    path = tmp_path / "gen.ckpt"
    ckpt.save_vaegan(img, path)
    meta, arrays = ckpt.load_checkpoint(path)
    del arrays["scaler/span"]
    _rewrite(path, "vaegan", meta, arrays)
    with pytest.raises(CheckpointError, match="payload lacks 'scaler/span'"):
        ckpt.load_vaegan(path)


def test_scaler_without_its_lo_names_it(small_setup, tmp_path):
    # loading it would leave an identity scaler, so `synthesize` would return
    # features in the [0, 1] model space
    _, _, img, _, _ = small_setup
    path = tmp_path / "gen.ckpt"
    ckpt.save_vaegan(img, path)
    meta, arrays = ckpt.load_checkpoint(path)
    del arrays["scaler/lo"]
    _rewrite(path, "vaegan", meta, arrays)
    with pytest.raises(CheckpointError, match="payload lacks 'scaler/lo'"):
        ckpt.load_vaegan(path)


def test_generator_without_a_scaler_is_refused(small_setup, tmp_path):
    # every generator has a scaler, fitted or the identity, so a file that
    # holds neither array is not one the program wrote
    _, _, img, _, _ = small_setup
    path = tmp_path / "gen.ckpt"
    ckpt.save_vaegan(img, path)
    meta, arrays = ckpt.load_checkpoint(path)
    del arrays["scaler/lo"], arrays["scaler/span"]
    _rewrite(path, "vaegan", meta, arrays)
    with pytest.raises(CheckpointError, match="payload lacks 'scaler/lo'"):
        ckpt.load_vaegan(path)


def test_unfitted_generator_round_trips_with_the_identity_scaler(tmp_path):
    model = gen.VaeGanModel(6, 3, gen.GenHyperParams(), stream(4, "init"))
    ckpt.save_vaegan(model, tmp_path / "gen.ckpt")
    back = ckpt.load_vaegan(tmp_path / "gen.ckpt")
    want = model.arrays()
    got = back.arrays()
    assert list(got) == list(want)
    assert all(got[k].dtype == want[k].dtype and got[k].tobytes() == want[k].tobytes() for k in want)
    X = np.random.default_rng(4).normal(size=(5, 6))
    X[0, 0] = -0.0
    assert back.scaler.transform(X).tobytes() == X.tobytes()


@pytest.mark.parametrize("kind", ["vaegan", "projection"])
def test_save_load_save_is_byte_identical(small_setup, tmp_path, kind):
    _, _, img, _, model = small_setup
    first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
    back = _save(kind, img, model, first)(first)
    _save(kind, back, back, second)
    assert second.read_bytes() == first.read_bytes()
    # the meta in its one order: the build keys, hp, then the attribute
    keys = {"vaegan": ["d_feat", "d_attr", "hp", "stage1_key"],
            "projection": ["d", "classes", "use_gate", "hp", "config_fingerprint"]}[kind]
    assert list(_header(first)[1]["meta"]) == keys


def _save(kind, img, model, path):
    """Save the `kind` model of the setup at path; returns the matching load."""
    if kind == "vaegan":
        ckpt.save_vaegan(img, path)
        return ckpt.load_vaegan
    ckpt.save_projection(model, path)
    return ckpt.load_projection


@pytest.mark.parametrize("kind", ["vaegan", "projection"])
def test_unknown_hyperparameter_key_names_it(small_setup, tmp_path, kind):
    _, _, img, _, model = small_setup
    path = tmp_path / f"{kind}.ckpt"
    load = _save(kind, img, model, path)
    meta, arrays = ckpt.load_checkpoint(path)
    meta["hp"]["dtype"] = "float32"
    _rewrite(path, kind, meta, arrays)
    with pytest.raises(CheckpointError, match="meta.hp holds unknown keys 'dtype'"):
        load(path)


@pytest.mark.parametrize(
    "kind, key, value",
    [("vaegan", "latent_dim", 0), ("projection", "tau", 0.0), ("vaegan", "batch", 4.5),
     ("projection", "tau", "x")],
)
def test_out_of_range_hyperparameter_names_it(small_setup, tmp_path, kind, key, value):
    _, _, img, _, model = small_setup
    path = tmp_path / f"{kind}.ckpt"
    load = _save(kind, img, model, path)
    meta, arrays = ckpt.load_checkpoint(path)
    meta["hp"][key] = value
    _rewrite(path, kind, meta, arrays)
    with pytest.raises(CheckpointError, match=f"{kind}.ckpt: checkpoint meta.hp is out of range: {key}"):
        load(path)


def _header(path):
    """(header length, parsed header) of a checkpoint file."""
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[12:16], "little")
    return header_len, json.loads(raw[16 : 16 + header_len])


@pytest.mark.parametrize("kind", ["vaegan", "projection"])
def test_a_checkpoint_holds_the_parameters_and_scaler_only(small_setup, tmp_path, kind):
    _, _, img, _, model = small_setup
    path = tmp_path / f"{kind}.ckpt"
    _save(kind, img, model, path)
    saved = img if kind == "vaegan" else model
    names = [f"param/{name}" for name, _ in saved.named_params()]
    nbytes = sum(p.data.nbytes for p in saved.params)
    if kind == "vaegan":
        names += ["scaler/lo", "scaler/span"]
        nbytes += img.scaler.lo.nbytes + img.scaler.span.nbytes
    header_len, header = _header(path)
    assert sorted(e["name"] for e in header["arrays"]) == sorted(names)
    assert not {"steps", "rng_state", "d_z"} & set(header["meta"])
    assert path.stat().st_size == 16 + header_len + nbytes


def _save_earlier_layout(kind, img, model, path):
    """Save the setup's `kind` model as the earlier layout did: each
    parameter's Adam moments beside it, and the step counts in the meta,
    plus a generator's noise-stream state and latent width. Returns (the
    saved model, the matching load)."""
    saved = img if kind == "vaegan" else model
    load = _save(kind, img, model, path)
    meta, arrays = ckpt.load_checkpoint(path)
    moments = {}
    for g in saved.groups:
        start = 0
        for p in g:
            end = start + p.data.size
            moments[id(p)] = (g.adam_m[start:end].reshape(p.data.shape), g.adam_v[start:end].reshape(p.data.shape))
            start = end
    for name, p in saved.named_params():
        arrays[f"adam_m/{name}"], arrays[f"adam_v/{name}"] = moments[id(p)]
    steps = {id(p): g.step_count for g in saved.groups for p in g}
    meta["steps"] = {name: steps[id(p)] for name, p in saved.named_params()}
    if kind == "vaegan":
        meta["rng_state"] = stream(3, "img", "noise").bit_generator.state
        meta["d_z"] = img.d_z
    ckpt.save_checkpoint(path, kind, meta, arrays)
    return saved, load


@pytest.mark.parametrize("kind", ["vaegan", "projection"])
def test_earlier_layout_loads_the_same_model(small_setup, tmp_path, kind):
    _, _, img, _, model = small_setup
    path = tmp_path / f"{kind}.ckpt"
    saved, load = _save_earlier_layout(kind, img, model, path)
    assert any(e["name"].startswith("adam_m/") for e in _header(path)[1]["arrays"])
    back = load(path)
    assert all(g.step_count == 0 for g in back.groups)
    for (n1, p1), (n2, p2) in zip(saved.named_params(), back.named_params()):
        assert n1 == n2
        assert np.array_equal(p1.data, p2.data), n1
    assert not any(g.adam_m.any() for g in back.groups)
    if kind == "vaegan":
        assert np.array_equal(back.scaler.lo, img.scaler.lo)
        assert np.array_equal(back.scaler.span, img.scaler.span)


def test_earlier_layout_projection_evaluates_identically(small_setup, tmp_path):
    _, _, img, _, model = small_setup
    new, old = tmp_path / "new.ckpt", tmp_path / "old.ckpt"
    ckpt.save_projection(model, new)
    _save_earlier_layout("projection", img, model, old)
    config = pipeline.ExperimentConfig(
        synthetic=pipeline.SyntheticSpec(n_classes=4, per_class=8, dim=8, seed=3, noise_sigma=0.15)
    )
    want = pipeline.eval_checkpoint(new, config, x_shot=0, seed=3)
    assert pipeline.eval_checkpoint(old, config, x_shot=0, seed=3) == want


# a corpus like small_setup's at d=16: at d=8 an ungated embedding row can
# be all zeros, which leaves its cosine undefined
NO_GATE_CONFIG = pipeline.ExperimentConfig(
    synthetic=pipeline.SyntheticSpec(n_classes=4, per_class=8, dim=16, seed=3, noise_sigma=0.15)
)


@pytest.fixture(scope="module")
def no_gate_model():
    corpus = pipeline.load_config_corpus(NO_GATE_CONFIG)
    split = data.split_xshot(corpus, x=0, seed=3)
    hp = proj.ProjHyperParams(lr=1e-3, batch=8, epochs=3, seed=3)
    return proj.train_projection(split, corpus, None, hp, use_gate=False)[0]


def test_a_no_gate_checkpoint_holds_no_gate_arrays(no_gate_model, tmp_path):
    path = tmp_path / "proj.ckpt"
    ckpt.save_projection(no_gate_model, path)
    names = [e["name"] for e in _header(path)[1]["arrays"]]
    assert names and not [n for n in names if n.startswith("param/gate_")]
    back = ckpt.load_projection(path)
    assert back.use_gate is False and back.gate_v is None and back.gate_t is None


def test_an_earlier_no_gate_checkpoint_with_gate_arrays_loads_and_evaluates_the_same(
    no_gate_model, tmp_path
):
    # earlier builds gave a no_gate model gate networks, which nothing
    # trained or read, and saved them
    new, old = tmp_path / "new.ckpt", tmp_path / "old.ckpt"
    ckpt.save_projection(no_gate_model, new)
    meta, arrays = ckpt.load_checkpoint(new)
    d = no_gate_model.d
    rng = np.random.default_rng(5)
    for side in ("v", "t"):
        for layer, shape in (("l1.W", (2 * d, d)), ("l1.b", (1, d)), ("l2.W", (d, d)), ("l2.b", (1, d))):
            arrays[f"param/gate_{side}.{layer}"] = rng.normal(size=shape)
    ckpt.save_checkpoint(old, "projection", meta, arrays)
    back = ckpt.load_projection(old)
    assert back.gate_v is None and back.gate_t is None
    assert [n for n, _ in back.named_params()] == [n for n, _ in no_gate_model.named_params()]
    for (name, p), (_, q) in zip(no_gate_model.named_params(), back.named_params()):
        assert np.array_equal(p.data, q.data), name
    want = pipeline.eval_checkpoint(new, NO_GATE_CONFIG, x_shot=0, seed=3)
    assert pipeline.eval_checkpoint(old, NO_GATE_CONFIG, x_shot=0, seed=3) == want


@pytest.mark.parametrize("included", [True, False])
def test_projection_hp_with_the_removed_contrast_switch_loads_and_evaluates_the_same(
    small_setup, tmp_path, included
):
    # earlier builds wrote proj.contrast_includes_self into meta.hp; it only
    # shaped training, so a load drops it whatever its value
    _, _, _, _, model = small_setup
    new, old = tmp_path / "new.ckpt", tmp_path / "old.ckpt"
    ckpt.save_projection(model, new)
    meta, arrays = ckpt.load_checkpoint(new)
    meta["hp"]["contrast_includes_self"] = included
    ckpt.save_checkpoint(old, "projection", meta, arrays)
    back = ckpt.load_projection(old)
    assert vars(back.hp) == vars(model.hp)
    for (n1, p1), (n2, p2) in zip(model.named_params(), back.named_params()):
        assert n1 == n2
        assert np.array_equal(p1.data, p2.data), n1
    config = pipeline.ExperimentConfig(
        synthetic=pipeline.SyntheticSpec(n_classes=4, per_class=8, dim=8, seed=3, noise_sigma=0.15)
    )
    want = pipeline.eval_checkpoint(new, config, x_shot=0, seed=3)
    assert pipeline.eval_checkpoint(old, config, x_shot=0, seed=3) == want


def _edit_entry(path, entry, **changes):
    """Rewrite the header entry of array `entry` of a checkpoint, payload unchanged."""
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[12:16], "little")
    header = json.loads(raw[16 : 16 + header_len])
    next(e for e in header["arrays"] if e["name"] == entry).update(changes)
    blob = json.dumps(header).encode("utf8")
    path.write_bytes(raw[:12] + len(blob).to_bytes(4, "little") + blob + raw[16 + header_len :])


def _square_param(path):
    _, arrays = ckpt.load_checkpoint(path)
    return next(k for k in sorted(arrays) if k.startswith("param/") and arrays[k].shape == (8, 8))


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"offset": -8}, "has offset -8"),
        ({"offset": 8.0}, "has offset 8.0"),
        ({"shape": [-1, 8]}, "has shape [-1, 8]"),
        ({"shape": [8.0, 8]}, "has shape [8.0, 8]"),
        ({"nbytes": 504}, "holds 504 bytes, but float64 of shape (8, 8) needs 512"),
        ({"offset": 10**9}, "truncated checkpoint payload"),
        ({"dtype": ["float64"]}, "has unsupported dtype ['float64']"),
        ({"name": ["x"]}, "its name must be a string"),
    ],
    ids=["negative-offset", "float-offset", "negative-dim", "float-dim", "short-nbytes", "past-end",
         "list-dtype", "list-name"],
)
def test_malformed_array_entry_names_it(small_setup, tmp_path, changes, message):
    # a negative offset used to load header bytes as weights; the others
    # raised numpy's ValueError or TypeError
    _, _, _, _, model = small_setup
    path = tmp_path / "proj.ckpt"
    ckpt.save_projection(model, path)
    name = _square_param(path)
    _edit_entry(path, name, **changes)
    shown = changes.get("name", name)
    for load in (ckpt.load_projection, ckpt.load_checkpoint):
        with pytest.raises(CheckpointError, match=re.escape(f"array {shown!r}") + ".*" + re.escape(message)):
            load(path)


def _untrained_projection(tmp_path):
    """Path of a saved untrained d=8 projection over 4 classes."""
    path = tmp_path / "projection.ckpt"
    ckpt.save_projection(proj.ProjectionModel(8, range(4), proj.ProjHyperParams(), np.random.default_rng(0)), path)
    return path


def _cli_eval(tmp_path, capsys, path):
    """Exit code and stderr of `eval` on the checkpoint at path over a d=8 corpus."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "name": "eval-ckpt",
        "synthetic": {"n_classes": 4, "per_class": 8, "dim": 8, "seed": 3},
        "x_shots": [0],
        "seeds": [0],
    }))
    capsys.readouterr()
    rc = cli_main(["eval", "--config", str(config_path), "--checkpoint", str(path)])
    return rc, capsys.readouterr().err


def test_cli_eval_malformed_array_entry_exits_2(tmp_path, capsys):
    path = _untrained_projection(tmp_path)
    name = _square_param(path)
    _edit_entry(path, name, shape=[8.5, 8])
    rc, err = _cli_eval(tmp_path, capsys, path)
    assert rc == 2
    assert err.startswith("error: ") and f"array '{name}' has shape [8.5, 8]" in err


def test_file_layout_is_header_then_arrays_in_name_order(tmp_path):
    arrays = {
        "b": np.arange(6.0).reshape(2, 3),
        "a": np.array([0.5, -1.0, 3.25], dtype=np.float32),
        "c": np.arange(12.0).reshape(3, 4)[:, ::2],  # not contiguous
    }
    path = tmp_path / "x.ckpt"
    ckpt.save_checkpoint(path, "misc", {"k": [1, 2]}, arrays)
    payload = [
        ("a", "float32", arrays["a"].astype("<f4").tobytes()),
        ("b", "float64", arrays["b"].astype("<f8").tobytes()),
        ("c", "float64", arrays["c"].astype("<f8").tobytes()),
    ]
    entries, offset = [], 0
    for name, dtype, blob in payload:
        shape = list(arrays[name].shape)
        entries.append({"name": name, "dtype": dtype, "shape": shape, "offset": offset, "nbytes": len(blob)})
        offset += len(blob)
    header = json.dumps({"kind": "misc", "meta": {"k": [1, 2]}, "arrays": entries}).encode("utf8")
    expected = b"FLEXCKP1" + struct.pack("<II", 1, len(header)) + header + b"".join(b for _, _, b in payload)
    assert path.read_bytes() == expected


def test_float32_array_loads_into_a_float64_model(small_setup, tmp_path):
    _, _, _, _, model = small_setup
    path = tmp_path / "proj.ckpt"
    ckpt.save_projection(model, path)
    meta, arrays = ckpt.load_checkpoint(path)
    name = _square_param(path)
    arrays[name] = arrays[name].astype(np.float32)
    ckpt.save_checkpoint(path, "projection", meta, arrays)
    back = dict(ckpt.load_projection(path).named_params())[name.removeprefix("param/")]
    assert back.data.dtype == np.float64
    assert np.array_equal(back.data, arrays[name].astype(np.float64))


@pytest.mark.parametrize("kind", ["vaegan", "projection"])
def test_a_float64_checkpoint_loads_into_a_float32_model_cast(small_setup, tmp_path, monkeypatch, kind):
    # a checkpoint of a wide model written before wide models computed in
    # float32: every array, scaler included, is cast once into the model
    _, _, img, _, model = small_setup
    saved, save, load = {
        "vaegan": (img, ckpt.save_vaegan, ckpt.load_vaegan),
        "projection": (model, ckpt.save_projection, ckpt.load_projection),
    }[kind]
    path = tmp_path / f"{kind}.ckpt"
    save(saved, path)
    monkeypatch.setattr(util, "SINGLE_MIN_WIDTH", 8)
    back = load(path)
    assert back.dtype == np.float32
    want = saved.arrays()
    got = back.arrays()
    assert got.keys() == want.keys()
    for key, arr in want.items():
        assert arr.dtype == np.float64 and got[key].dtype == np.float32
        assert got[key].tobytes() == arr.astype(np.float32).tobytes(), key


class _FullDisk:
    """A file whose writes fail once `room` bytes have been written."""

    def __init__(self, f, room):
        self.f, self.room = f, room

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, b):
        n = memoryview(b).nbytes
        if n > self.room:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= n
        return self.f.write(b)


def test_failed_save_removes_the_temporary_and_keeps_the_old_file(small_setup, tmp_path, monkeypatch):
    _, _, _, _, model = small_setup
    path = tmp_path / "proj.ckpt"
    ckpt.save_projection(model, path)
    before = path.read_bytes()
    monkeypatch.setattr(ckpt, "open", lambda p, mode: _FullDisk(open(p, mode), 4096), raising=False)
    with pytest.raises(OSError, match="No space left"):
        ckpt.save_projection(model, path)
    assert sorted(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == before


def test_unsupported_dtype_is_rejected_before_any_file_is_opened(tmp_path):
    path = tmp_path / "x.ckpt"
    with pytest.raises(CheckpointError, match="unsupported array dtype int64 for n"):
        ckpt.save_checkpoint(path, "misc", {}, {"f": np.zeros(2), "n": np.arange(3)})
    assert list(tmp_path.iterdir()) == []


def _model_bytes(model):
    # the values and the two Adam moments
    return sum(3 * g.data.nbytes for g in model.groups)


def _peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_streams_and_load_holds_about_one_model(tmp_path):
    # a save keeps no copy of the payload; a load holds the new model (its
    # parameters, gradients and moments) plus at most one array in flight
    model = proj.ProjectionModel(128, range(5), proj.ProjHyperParams(), np.random.default_rng(0))
    vaegan = gen.VaeGanModel(128, 64, gen.GenHyperParams(), stream(0, "init"))
    for m, save, load in (
        (model, ckpt.save_projection, ckpt.load_projection),
        (vaegan, ckpt.save_vaegan, ckpt.load_vaegan),
    ):
        path = tmp_path / "m.ckpt"
        assert _peak(save, m, path) < 0.1 * _model_bytes(m)
        assert _peak(load, path) <= 1.5 * _model_bytes(m)
