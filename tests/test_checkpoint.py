import json
import re

import numpy as np
import pytest

from xmodal import checkpoint as ckpt
from xmodal import data, generation as gen, projection as proj, retrieval as ret
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
        assert np.array_equal(p1.adam_m, p2.adam_m)
        assert np.array_equal(p1.adam_v, p2.adam_v)
        assert p1.step_count == p2.step_count
    assert np.array_equal(img.scaler.lo, back.scaler.lo)
    assert np.array_equal(img.scaler.span, back.scaler.span)
    assert img.rng_state == back.rng_state
    assert back.d_z == img.d_z


def test_vaegan_reload_synthesizes_identically(small_setup, tmp_path):
    corpus, split, img, _, _ = small_setup
    path = tmp_path / "gen.ckpt"
    ckpt.save_vaegan(img, path)
    back = ckpt.load_vaegan(path)
    attrs = np.repeat(corpus.class_attrs[split.target_classes[0]], 4, axis=0)
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


@pytest.mark.parametrize("key", ["hp", "steps", "rng_state"])
def test_vaegan_meta_missing_key_names_it(small_setup, tmp_path, key):
    _, _, img, _, _ = small_setup
    path = tmp_path / "gen.ckpt"
    ckpt.save_vaegan(img, path)
    meta, arrays = ckpt.load_checkpoint(path)
    del meta[key]
    _rewrite(path, "vaegan", meta, arrays)
    with pytest.raises(CheckpointError, match=f"meta lacks '{key}'"):
        ckpt.load_vaegan(path)


@pytest.mark.parametrize("key", ["hp", "steps", "classes"])
def test_projection_meta_missing_key_names_it(small_setup, tmp_path, key):
    _, _, _, _, model = small_setup
    path = tmp_path / "proj.ckpt"
    ckpt.save_projection(model, path)
    meta, arrays = ckpt.load_checkpoint(path)
    del meta[key]
    _rewrite(path, "projection", meta, arrays)
    with pytest.raises(CheckpointError, match=f"meta lacks '{key}'"):
        ckpt.load_projection(path)


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


@pytest.mark.parametrize("kind", ["param", "adam_m", "adam_v"])
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


@pytest.mark.parametrize("kind", ["vaegan", "projection"])
def test_unknown_hyperparameter_key_names_it(small_setup, tmp_path, kind):
    _, _, img, _, model = small_setup
    path = tmp_path / f"{kind}.ckpt"
    save, load = {
        "vaegan": (lambda: ckpt.save_vaegan(img, path), ckpt.load_vaegan),
        "projection": (lambda: ckpt.save_projection(model, path), ckpt.load_projection),
    }[kind]
    save()
    meta, arrays = ckpt.load_checkpoint(path)
    meta["hp"]["dtype"] = "float32"
    _rewrite(path, kind, meta, arrays)
    with pytest.raises(CheckpointError, match="meta.hp holds unknown keys 'dtype'"):
        load(path)
