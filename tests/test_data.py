import numpy as np
import pytest

from xmodal import data
from xmodal.errors import (
    ConfigError,
    DimensionMismatchError,
    FileFormatError,
    MissingAttributeError,
    NonFiniteError,
)
from xmodal.util import stream, unit_rows


def tiny_corpus(d=8, name="tiny"):
    rng = np.random.default_rng(0)
    images = rng.normal(size=(4, d))
    texts = rng.normal(size=(4, d))
    labels = [0, 0, 1, 1]
    attrs = {0: rng.normal(size=d), 1: rng.normal(size=d)}
    return data.Corpus(images, texts, labels, attrs, name=name)


def test_fixture_corpus_counts():
    c = tiny_corpus()
    assert len(c) == 4
    assert len(c.class_attrs) == 2
    assert c.dims == (8, 8, 8)


def test_unknown_label_names_missing_class():
    rng = np.random.default_rng(1)
    with pytest.raises(MissingAttributeError, match="missing attribute for class 7"):
        data.Corpus(
            rng.normal(size=(2, 4)),
            rng.normal(size=(2, 4)),
            [0, 7],
            {0: rng.normal(size=4)},
        )


def test_row_count_mismatch_is_named_error():
    rng = np.random.default_rng(2)
    with pytest.raises(DimensionMismatchError):
        data.Corpus(
            rng.normal(size=(3, 4)),
            rng.normal(size=(2, 4)),
            [0, 0],
            {0: rng.normal(size=4)},
        )


def test_nonfinite_feature_rejected():
    rng = np.random.default_rng(3)
    images = rng.normal(size=(2, 4))
    images[1, 2] = np.nan
    with pytest.raises(NonFiniteError):
        data.Corpus(
            images, rng.normal(size=(2, 4)), [0, 0], {0: rng.normal(size=4)}
        )


def test_embedding_file_round_trip(tmp_path):
    X = np.random.default_rng(4).normal(size=(5, 3)).astype(np.float32).astype(np.float64)
    path = tmp_path / "x.femb"
    data.write_embedding_file(path, X)
    back = data.read_embedding_file(path)
    assert np.array_equal(X, back)


def test_embedding_file_bad_magic(tmp_path):
    path = tmp_path / "bad.femb"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(FileFormatError, match="bad magic"):
        data.read_embedding_file(path)


def test_embedding_file_truncated(tmp_path):
    X = np.ones((3, 3))
    path = tmp_path / "x.femb"
    data.write_embedding_file(path, X)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(FileFormatError):
        data.read_embedding_file(path)


def test_embedding_file_reads_float32(tmp_path):
    X = np.random.default_rng(5).normal(size=(6, 4))
    path = tmp_path / "x.femb"
    data.write_embedding_file(path, X)
    back = data.read_embedding_file(path)
    assert back.dtype == np.float32 and back.shape == (6, 4)
    assert back.tobytes() == X.astype(np.float32).tobytes()
    # a float32 matrix is written as it is held
    data.write_embedding_file(tmp_path / "y.femb", back)
    assert (tmp_path / "y.femb").read_bytes() == path.read_bytes()


def test_embedding_file_oversized(tmp_path):
    path = tmp_path / "x.femb"
    data.write_embedding_file(path, np.ones((3, 3)))
    path.write_bytes(path.read_bytes() + b"\x00" * 4)
    with pytest.raises(FileFormatError, match="expected 52 bytes for 3x3 floats, got 56"):
        data.read_embedding_file(path)


def test_embedding_file_nan_rejected(tmp_path):
    X = np.ones((3, 3))
    X[1, 2] = np.nan
    path = tmp_path / "x.femb"
    data.write_embedding_file(path, X)
    with pytest.raises(NonFiniteError, match="NaN or Inf"):
        data.read_embedding_file(path)


def _rows_bitwise_equal(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_float32_corpus_gathers_float64_as_the_float64_path():
    rng = np.random.default_rng(6)
    images, texts = (rng.normal(size=(9, 5)).astype(np.float32) for _ in range(2))
    images[3, 1] = -0.0
    attrs = {0: rng.normal(size=5), 1: rng.normal(size=5)}
    labels = [0, 1] * 4 + [0]
    held = data.Corpus(images, texts, labels, attrs)
    wide = data.Corpus(images.astype(np.float64), texts.astype(np.float64), labels, attrs)
    assert held._images is images and held._images.dtype == np.float32
    for idx in (None, [3, 0, 8, 3], np.arange(9)[::-2]):
        for name in ("image_matrix", "text_matrix"):
            got = getattr(held, name)(idx)
            assert got.dtype == np.float64
            assert _rows_bitwise_equal(got, getattr(wide, name)(idx))


def test_float64_corpus_is_kept_unrounded():
    # a pseudo corpus is float64 and must never pass through float32
    X = np.random.default_rng(7).normal(size=(4, 3))
    corpus = data.Corpus(X, X + 1.0, [0, 0, 1, 1], {0: np.ones(3), 1: -np.ones(3)})
    assert corpus.image_matrix() is X
    assert _rows_bitwise_equal(corpus.text_matrix([1, 2]), (X + 1.0)[[1, 2]])


def whole_matrix_synth(n_classes, per_class, dim, modality_gap=0.5, noise_sigma=0.25,
                       seed=0, proto_rank=None):
    """synth_corpus's features and attributes drawn a whole matrix at once:
    the formula the blocked build must reproduce bit for bit."""
    rng = stream(seed, "synth")
    if proto_rank is not None:
        basis, _ = np.linalg.qr(rng.standard_normal((dim, proto_rank)))
        protos = unit_rows(rng.standard_normal((n_classes, proto_rank)) @ basis.T)
    else:
        protos = unit_rows(rng.standard_normal((n_classes, dim)))
    gap_dir = rng.standard_normal(dim)
    gap_dir = gap_dir / np.linalg.norm(gap_dir)
    n = n_classes * per_class
    eps_img = rng.standard_normal((n, dim)) * noise_sigma
    eps_txt = rng.standard_normal((n, dim)) * noise_sigma
    base = np.repeat(protos, per_class, axis=0)
    images = unit_rows(base + eps_img).astype(np.float32)
    texts = unit_rows(base + modality_gap * gap_dir + eps_txt).astype(np.float32)
    attrs = protos.astype(np.float32).astype(np.float64)
    return images, texts, attrs


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_classes=3, per_class=100, dim=8, seed=1),
        dict(n_classes=7, per_class=77, dim=64, seed=2, proto_rank=3, modality_gap=5.0, noise_sigma=0.08),
        dict(n_classes=2, per_class=1, dim=2, seed=5),
    ],
)
def test_synth_corpus_equals_the_whole_matrix_formula(kwargs):
    # 300, 539 and 2 rows: a partial last block, three blocks, a tiny corpus
    corpus = data.synth_corpus(**kwargs)
    images, texts, attrs = whole_matrix_synth(**kwargs)
    assert _rows_bitwise_equal(corpus._images, images)
    assert _rows_bitwise_equal(corpus._texts, texts)
    for c in corpus.classes():
        assert _rows_bitwise_equal(corpus.class_attrs[c], attrs[c : c + 1])


def test_corpus_write_load_round_trip_bitwise(tmp_path):
    corpus = data.synth_corpus(n_classes=3, per_class=4, dim=8, seed=9)
    back = data.load_corpus(*data.write_corpus(corpus, tmp_path).values())
    assert len(back) == len(corpus)
    assert back.classes() == corpus.classes()
    assert np.array_equal(back.image_matrix(), corpus.image_matrix())
    assert np.array_equal(back.text_matrix(), corpus.text_matrix())
    assert np.array_equal(back.labels(), corpus.labels())
    for c in corpus.classes():
        assert np.array_equal(back.class_attrs[c], corpus.class_attrs[c])


def test_load_rejects_attr_index_mismatch(tmp_path):
    corpus = data.synth_corpus(n_classes=3, per_class=2, dim=4, seed=1)
    paths = data.write_corpus(corpus, tmp_path)
    with open(paths["attr_ids"], "w") as f:
        f.write("0\n1\n")  # one id short of the 3 attribute rows
    with pytest.raises(DimensionMismatchError):
        data.load_corpus(*paths.values())


@pytest.mark.parametrize("which", ["images", "texts"])
def test_load_scans_each_feature_once_and_names_a_nonfinite_file(tmp_path, monkeypatch, which):
    corpus = data.synth_corpus(n_classes=3, per_class=4, dim=8, seed=2)
    paths = data.write_corpus(corpus, tmp_path)
    scanned = []
    real = np.isfinite

    def isfinite(x, *args, **kwargs):
        scanned.append(np.shape(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", isfinite)
    data.load_corpus(*paths.values())
    assert scanned.count((len(corpus), corpus.dim)) == 2  # the image and the text matrix
    X = (corpus.image_matrix() if which == "images" else corpus.text_matrix()).copy()
    X[5, 3] = np.inf
    data.write_embedding_file(paths[which], X)
    with pytest.raises(NonFiniteError, match=f"{paths[which]}: embedding file contains NaN or Inf"):
        data.load_corpus(*paths.values())


# ---------------------------------------------------------------------------
# splits


def ten_class_corpus(per_class=6, d=8, seed=0):
    return data.synth_corpus(n_classes=10, per_class=per_class, dim=d, seed=seed)


def test_ten_classes_split_five_five():
    corpus = ten_class_corpus()
    split = data.split_xshot(corpus, x=0, seed=3)
    assert len(split.source_classes) == 5
    assert len(split.target_classes) == 5
    assert set(split.source_classes).isdisjoint(split.target_classes)
    assert set(split.source_classes) | set(split.target_classes) == set(range(10))


def test_zero_shot_target_train_empty():
    split = data.split_xshot(ten_class_corpus(), x=0, seed=1)
    assert split.target_train == ()


def test_xshot_counts_exact_per_class():
    corpus = data.synth_corpus(n_classes=8, per_class=10, dim=8, seed=5)
    split = data.split_xshot(corpus, x=3, seed=11)
    assert len(split.target_classes) == 4
    assert len(split.target_train) == 12
    tally = {c: 0 for c in split.target_classes}
    for label in corpus.labels(split.target_train):
        tally[int(label)] += 1
    assert all(v == 3 for v in tally.values())


def test_partitions_are_disjoint_and_domain_pure():
    corpus = ten_class_corpus()
    split = data.split_xshot(corpus, x=2, seed=7)
    parts = [
        split.source_train,
        split.source_query,
        split.source_gallery,
        split.target_train,
        split.target_query,
        split.target_gallery,
    ]
    flat = [i for p in parts for i in p]
    assert len(flat) == len(set(flat))
    for label in corpus.labels(split.source_train + split.source_query + split.source_gallery):
        assert label in split.source_classes
    for label in corpus.labels(split.target_train + split.target_query + split.target_gallery):
        assert label in split.target_classes


def test_split_is_pure_function_of_inputs():
    corpus = ten_class_corpus()
    a = data.split_xshot(corpus, x=1, seed=42)
    b = data.split_xshot(corpus, x=1, seed=42)
    assert a == b
    c = data.split_xshot(corpus, x=1, seed=43)
    assert c != a


def test_x_exceeding_smallest_target_class_errors():
    corpus = data.synth_corpus(n_classes=4, per_class=3, dim=4, seed=0)
    with pytest.raises(ConfigError, match="smallest target class"):
        data.split_xshot(corpus, x=4, seed=0)


def test_odd_class_count_warns_and_splits_floor_ceil():
    corpus = data.synth_corpus(n_classes=5, per_class=4, dim=4, seed=2)
    with pytest.warns(UserWarning, match="odd class count"):
        split = data.split_xshot(corpus, x=0, seed=0)
    assert len(split.source_classes) == 3
    assert len(split.target_classes) == 2


SPLIT_PINS = {
    0: {
        "source_train": (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 24, 25, 26, 27, 30, 31),
        "source_query": (0, 14, 28),
        "source_gallery": (1, 15, 29),
        "target_train": (),
        "target_query": (16, 17, 18, 19, 32, 33, 34, 35),
        "target_gallery": (20, 21, 22, 23, 36, 37, 38, 39),
    },
    2: {
        "source_train": (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 24, 25, 26, 27, 30, 31),
        "source_query": (0, 14, 28),
        "source_gallery": (1, 15, 29),
        "target_train": (17, 23, 35, 36),
        "target_query": (16, 18, 19, 32, 33, 34),
        "target_gallery": (20, 21, 22, 37, 38, 39),
    },
}


@pytest.mark.parametrize("x", sorted(SPLIT_PINS))
def test_split_partitions_pinned_by_value(x):
    # five classes of eight rows, class c at rows 8c..8c+7: every partition
    # of an odd class count is held to the values recorded when the target
    # and source classes were cut by two loops
    corpus = data.synth_corpus(n_classes=5, per_class=8, dim=4, seed=2)
    with pytest.warns(UserWarning, match="odd class count"):
        split = data.split_xshot(corpus, x=x, seed=4)
    assert (split.source_classes, split.target_classes) == ((0, 1, 3), (2, 4))
    assert {name: getattr(split, name) for name in SPLIT_PINS[x]} == SPLIT_PINS[x]
    assert split.train_rows == split.source_train + split.target_train


# ---------------------------------------------------------------------------
# synthetic corpus


def test_degenerate_noise_recovers_prototypes():
    corpus = data.synth_corpus(
        n_classes=3, per_class=5, dim=16, modality_gap=0.0, noise_sigma=1e-12, seed=8
    )
    for i, label in enumerate(corpus.labels()):
        proto = corpus.class_attrs[label]
        cos_img = (corpus.image_matrix([i]) @ proto.T).item()
        cos_txt = (corpus.text_matrix([i]) @ proto.T).item()
        assert cos_img == pytest.approx(1.0, abs=1e-6)
        assert cos_txt == pytest.approx(1.0, abs=1e-6)


def test_default_corpus_nearest_prototype_accuracy():
    corpus = data.synth_corpus(n_classes=8, per_class=50, dim=64, seed=1)
    protos = np.vstack([corpus.class_attrs[c] for c in corpus.classes()])
    sims = corpus.image_matrix() @ protos.T
    pred = np.asarray(corpus.classes())[sims.argmax(axis=1)]
    accuracy = (pred == corpus.labels()).mean()
    assert accuracy > 0.95


def test_same_seed_identical_corpora():
    a = data.synth_corpus(n_classes=4, per_class=3, dim=8, seed=77)
    b = data.synth_corpus(n_classes=4, per_class=3, dim=8, seed=77)
    assert np.array_equal(a.image_matrix(), b.image_matrix())
    assert np.array_equal(a.text_matrix(), b.text_matrix())
    assert np.array_equal(a.labels(), b.labels())


def test_attrs_are_prototypes_and_features_unit_norm():
    corpus = data.synth_corpus(n_classes=5, per_class=4, dim=32, seed=6)
    class_rows = np.vstack([corpus.class_attrs[label] for label in corpus.labels()])
    assert np.array_equal(corpus.attr_matrix(), class_rows)
    norms = np.linalg.norm(corpus.image_matrix(), axis=1)
    assert np.allclose(norms, 1.0, atol=1e-6)
    norms_t = np.linalg.norm(corpus.text_matrix(), axis=1)
    assert np.allclose(norms_t, 1.0, atol=1e-6)


def test_synth_validations():
    with pytest.raises(ConfigError):
        data.synth_corpus(n_classes=2, per_class=2, dim=1)
    with pytest.raises(ConfigError):
        data.synth_corpus(n_classes=0, per_class=2, dim=4)
    with pytest.raises(ConfigError):
        data.synth_corpus(n_classes=2, per_class=2, dim=4, noise_sigma=0.0)
