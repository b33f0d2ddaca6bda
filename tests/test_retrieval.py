import threading
import tracemalloc

import numpy as np
import pytest

from xmodal import data, retrieval as ret, util
from xmodal.errors import ConfigError, NonFiniteError
from xmodal.projection import ProjectionModel, ProjHyperParams, RawFeatures


def brute_force_ap(bits):
    """Independent AP: rescan the prefix for precision at every relevant rank."""
    total_relevant = sum(bits)
    assert total_relevant > 0
    score = 0.0
    for r in range(1, len(bits) + 1):
        if bits[r - 1]:
            score += sum(bits[:r]) / r
    return score / total_relevant


def ap_of(bits):
    """AP of one row whose gallery is already in rank order."""
    sims = np.linspace(1.0, 0.0, num=len(bits))
    return ret.average_precision(sims[None, :], np.array(bits, dtype=bool)[None, :])[0]


def stable_argsort_aps(sims, relevance):
    """AP of each row by a stable argsort of the negated block: the formula
    `average_precision` must match byte for byte."""
    order = np.argsort(-sims, axis=1, kind="stable")
    hits = np.take_along_axis(relevance, order, axis=1).astype(np.float64)
    precision = np.cumsum(hits, axis=1) / np.arange(1, hits.shape[1] + 1)
    with np.errstate(invalid="ignore"):
        return (precision * hits).sum(axis=1) / hits.sum(axis=1)


def as_set(X):
    """The `Embeddings` set over the rows of array X, each block a gathered
    copy: an empty set when X holds no row."""
    X = np.asarray(X, dtype=np.float64)
    return ret.Embeddings(np.asarray, X.__getitem__, range(len(X)))


def oracle_aps(queries, gallery, rel):
    """Per-query AP from numpy cosines, ranked by (-sim, gallery index)."""
    qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    gn = gallery / np.linalg.norm(gallery, axis=1, keepdims=True)
    sims = qn @ gn.T
    aps = []
    for i in range(len(queries)):
        order = sorted(range(len(gallery)), key=lambda j: (-sims[i, j], j))
        aps.append(brute_force_ap([int(rel[i, j]) for j in order]))
    return aps


# ---------------------------------------------------------------------------
# average precision


def test_ap_perfect_ranking():
    assert ap_of([1, 1, 0, 0]) == 1.0


def test_ap_alternating_case():
    assert ap_of([0, 1, 0, 1]) == 0.5


def test_ap_single_relevant_at_bottom():
    assert ap_of([0, 0, 1]) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_ap_requires_a_relevant_item():
    # AP is undefined without a relevant item: the row gets NaN
    assert np.isnan(ap_of([0, 0, 0]))


def test_ap_matches_brute_force_on_random_galleries():
    rng = np.random.default_rng(0)
    for _ in range(20):
        bits = rng.integers(0, 2, size=8)
        if bits.sum() == 0:
            bits[rng.integers(0, 8)] = 1
        got = ap_of(list(bits))
        assert got == pytest.approx(brute_force_ap(list(bits)), abs=1e-12)


def test_ap_bounds_and_perfect_iff_front_loaded():
    rng = np.random.default_rng(1)
    for _ in range(100):
        bits = list(rng.integers(0, 2, size=6))
        if sum(bits) == 0:
            bits[3] = 1
        ap = ap_of(bits)
        assert 0.0 <= ap <= 1.0
        front_loaded = sorted(bits, reverse=True) == bits
        assert (ap == 1.0) == front_loaded


def test_tie_breaking_is_by_ascending_gallery_index():
    # rank order 1, 3, 0, 2 puts the relevant items 3 and 0 at ranks 2 and 3
    sims = np.array([[0.5, 0.9, 0.5, 0.9]])
    rel = np.array([[True, False, False, True]])
    assert ret.average_precision(sims, rel)[0] == pytest.approx(7.0 / 12.0, abs=1e-15)


def _blocks():
    """(sims, relevance) blocks that take the value sort, the stable argsort
    or both."""
    rng = np.random.default_rng(8)

    def rel(shape, rate=0.2):
        return rng.random(shape) < rate

    yield "random", rng.normal(size=(40, 300)), rel((40, 300))
    yield "rounded", np.round(rng.normal(size=(40, 300)), 1), rel((40, 300))
    yield "integer-valued", rng.integers(-3, 4, size=(30, 50)).astype(float), rel((30, 50), 0.4)
    yield "integer-dtype", rng.integers(-3, 4, size=(30, 50)), rel((30, 50), 0.4)
    yield "float32", rng.normal(size=(40, 300)).astype(np.float32), rel((40, 300))
    signed_zeros = rng.normal(size=(6, 40))
    signed_zeros[:, 3], signed_zeros[:, 17] = 0.0, -0.0
    signed_zeros[1, 17] = 0.0
    yield "signed-zeros", signed_zeros, np.ones((6, 40), dtype=bool)
    with_nan = rng.normal(size=(5, 30))
    with_nan[2, 11] = np.nan
    yield "nan", with_nan, rel((5, 30), 0.5)
    no_relevant = rel((5, 30), 0.5)
    no_relevant[3] = False
    yield "no-relevant-item", rng.normal(size=(5, 30)), no_relevant
    one_column = rng.normal(size=(6, 1))
    one_column[4, 0] = np.nan
    yield "one-column", one_column, np.array([[True], [False]] * 3)
    yield "all-equal", np.full((4, 25), 0.5), rel((4, 25), 0.5)
    cosines = rng.normal(size=(util.BLOCK, 16)) @ rng.normal(size=(16, 700))
    yield "ranking-block", cosines, rel(cosines.shape, 0.05)


@pytest.mark.parametrize("sims, relevance", [pytest.param(s, r, id=name) for name, s, r in _blocks()])
def test_average_precision_equals_the_stable_argsort_formula_bytewise(sims, relevance):
    assert ret.average_precision(sims, relevance).tobytes() == stable_argsort_aps(sims, relevance).tobytes()


# ---------------------------------------------------------------------------
# mean AP


def test_mean_ap_averages_per_query():
    queries = np.array([[1.0, 0.0], [0.0, 1.0]])
    gallery = np.array([[1.0, 0.0], [0.9, 0.1], [1.0, 1.0]])
    # query 0 ranks items 0, 1, 2; its class-0 items 0 and 2 rank 1st and
    # 3rd -> AP (1 + 2/3) / 2. Query 1 ranks items 2, 1, 0; its class-1 item
    # 1 ranks 2nd -> AP 1/2
    report = ret.mean_ap(as_set(queries), as_set(gallery), [0, 1], [0, 1, 0])
    assert report.per_query_ap == pytest.approx((5 / 6, 1 / 2), abs=1e-15)
    assert report.map_score == pytest.approx(2 / 3, abs=1e-15)


def test_mean_ap_matches_hand_computed_fixture():
    rng = np.random.default_rng(3)
    queries = rng.normal(size=(3, 4))
    gallery = rng.normal(size=(5, 4))
    labels_q = np.array([0, 1, 0])
    labels_g = np.array([0, 1, 1, 0, 0])
    rel = labels_q[:, None] == labels_g[None, :]
    report = ret.mean_ap(as_set(queries), as_set(gallery), labels_q, labels_g)

    aps = oracle_aps(queries, gallery, rel)
    assert report.map_score == pytest.approx(float(np.mean(aps)), abs=1e-12)
    assert report.map_score == pytest.approx(float(np.mean(report.per_query_ap)), abs=1e-12)


def test_mean_ap_matches_oracle_on_tie_heavy_blocks():
    # integer features give many exactly tied similarities; more than BLOCK
    # queries so the ranking runs over several blocks
    rng = np.random.default_rng(6)
    n_q = 2 * util.BLOCK + 37
    queries = rng.integers(-1, 2, size=(n_q, 3)).astype(float)
    gallery = rng.integers(-1, 2, size=(40, 3)).astype(float)
    queries[~queries.any(axis=1), 0] = 1.0
    gallery[~gallery.any(axis=1), 0] = 1.0
    q_labels, g_labels = rng.integers(0, 4, size=n_q), rng.integers(0, 4, size=40)
    g_labels[:4] = range(4)  # every query has a relevant item
    report = ret.mean_ap(as_set(queries), as_set(gallery), q_labels, g_labels)
    assert len(report.per_query_ap) == n_q
    rel = q_labels[:, None] == g_labels
    worst = max(abs(a - b) for a, b in zip(report.per_query_ap, oracle_aps(queries, gallery, rel)))
    assert worst <= 1e-12


def test_mean_ap_all_same_class_is_one():
    rng = np.random.default_rng(4)
    items = rng.normal(size=(6, 3))
    report = ret.mean_ap(as_set(items), as_set(items), np.zeros(6), np.zeros(6))
    assert report.map_score == 1.0


def test_mean_ap_skips_queries_without_relevant_items(caplog):
    # query classes cycle over 0..2 and gallery classes over 0 and 3, so the
    # queries of classes 1 and 2 are skipped, in one block and in several
    rng = np.random.default_rng(11)
    for n_q in (3, 2 * util.BLOCK + 5):
        queries, gallery = rng.normal(size=(n_q, 4)), rng.normal(size=(9, 4))
        q_labels, g_labels = np.arange(n_q) % 3, np.arange(9) % 2 * 3
        skipped = [i for i in range(n_q) if i % 3]
        caplog.clear()
        with caplog.at_level("WARNING", logger=ret.__name__):
            report = ret.mean_ap(as_set(queries), as_set(gallery), q_labels, g_labels)
        assert report.skipped_queries == len(skipped)
        kept = q_labels == 0
        want = oracle_aps(queries[kept], gallery, (q_labels[:, None] == g_labels)[kept])
        assert report.per_query_ap == pytest.approx(want, abs=1e-12)
        assert len(caplog.records) == 1 and str(skipped) in caplog.records[0].getMessage()


def test_mean_ap_rejects_when_every_query_is_skipped():
    with pytest.raises(ConfigError, match="every query was skipped"):
        ret.mean_ap(as_set(np.eye(2)), as_set(np.eye(2)), [0, 1], [2, 3])


@pytest.mark.parametrize("q_labels, g_labels", [
    ([0, 1, 2], [0, 1]), ([0], [0, 1]), ([0, 1], [0, 1, 1]), ([[0], [1]], [0, 1]), (0, [0, 1]),
], ids=["long-queries", "short-queries", "long-gallery", "2-d", "scalar"])
def test_mean_ap_rejects_labels_that_do_not_fit_the_sets(q_labels, g_labels):
    embedded = []

    def embed(X):
        embedded.append(len(X))
        return X

    sets = [ret.Embeddings(embed, np.eye(2).__getitem__, range(2)) for _ in range(2)]
    with pytest.raises(ConfigError, match="do not fit"):
        ret.mean_ap(*sets, q_labels, g_labels)
    assert embedded == []


def test_mean_ap_embeds_nothing_when_every_query_is_skipped():
    embedded = []

    def embed(X):
        embedded.append(len(X))
        return X

    # the gallery's zero row is never met: the skipped queries raise first
    sets = [ret.Embeddings(embed, X.__getitem__, range(2)) for X in (np.eye(2), np.zeros((2, 2)))]
    with pytest.raises(ConfigError, match="every query was skipped"):
        ret.mean_ap(*sets, [0, 1], [2, 2])
    assert embedded == []


@pytest.mark.parametrize("query_marks, gallery_marks, error", [
    # (row: value) marks on a 2 * BLOCK + 1 row set, whose rows 0 and -1 lie
    # in its first and last block
    ({0: np.nan}, {0: 0.0}, ValueError),
    ({}, {0: 0.0, -1: np.nan}, ValueError),
    ({0: 0.0, -1: np.nan}, {}, ValueError),
    ({}, {0: 0.0, 1: np.nan}, NonFiniteError),
], ids=["gallery-zero+query-nan", "gallery-zero-first+nan-last", "query-zero-first+nan-last",
        "nan-before-zero-in-one-block"])
def test_mean_ap_raises_the_first_fault_it_meets(query_marks, gallery_marks, error, caplog):
    n = 2 * util.BLOCK + 1
    rng = np.random.default_rng(8)
    queries, gallery = rng.standard_normal((n, 4)), rng.standard_normal((n, 4))
    for X, marks in ((queries, query_marks), (gallery, gallery_marks)):
        for row, value in marks.items():
            X[row] = value
    # query 1's class has no gallery item; a skipped query is named only
    # when a report is returned
    q_labels = np.zeros(n)
    q_labels[1] = 1
    with caplog.at_level("WARNING", logger=ret.__name__):
        with pytest.raises(error, match="zero vector" if error is ValueError else "non-finite"):
            ret.mean_ap(as_set(queries), as_set(gallery), q_labels, np.zeros(n), direction="Img2Txt")
    assert caplog.records == []


def test_mean_ap_rejects_empty_inputs():
    with pytest.raises(ConfigError):
        ret.mean_ap(as_set(np.zeros((0, 2))), as_set(np.ones((2, 2))), [], [0, 0])


def test_cosine_zero_vector_is_error():
    with pytest.raises(ValueError, match="zero vector"):
        ret.mean_ap(as_set([[0.0, 0.0]]), as_set(np.eye(2)), [0], [0, 0])


@pytest.mark.parametrize("bad", ["queries", "gallery"])
def test_mean_ap_rejects_non_finite_embeddings(bad):
    # a NaN embedding used to score (0.75 here) instead of failing
    nan_rows = np.array([[np.nan, 1.0], [1.0, 0.0]])
    queries, gallery = (nan_rows, np.eye(2)) if bad == "queries" else (np.eye(2), nan_rows)
    with pytest.raises(NonFiniteError, match=f"Img2Txt: non-finite value in the {bad}"):
        ret.mean_ap(as_set(queries), as_set(gallery), [0, 1], [0, 1], direction="Img2Txt")


def test_mean_ap_scale_invariance():
    rng = np.random.default_rng(5)
    queries = rng.normal(size=(4, 6))
    gallery = rng.normal(size=(7, 6))
    q_labels, g_labels = rng.integers(0, 3, size=4), rng.integers(0, 3, size=7)
    g_labels[:3] = range(3)  # every query has a relevant item
    a = ret.mean_ap(as_set(queries), as_set(gallery), q_labels, g_labels)
    b = ret.mean_ap(as_set(3.7 * queries), as_set(0.2 * gallery), q_labels, g_labels)
    assert a.map_score == b.map_score
    assert a.per_query_ap == b.per_query_ap


def test_mean_ap_holds_one_block_of_similarities():
    # the whole 2000 x 8000 cosine matrix takes 122 MiB, one BLOCK of its rows 16 MiB
    rng = np.random.default_rng(6)
    queries, gallery = rng.normal(size=(2000, 64)), rng.normal(size=(8000, 64))
    q_labels, g_labels = rng.integers(0, 10, size=2000), rng.integers(0, 10, size=8000)
    tracemalloc.start()
    try:
        ret.mean_ap(as_set(queries), as_set(gallery), q_labels, g_labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * (1 << 20)


# ---------------------------------------------------------------------------
# evaluate


@pytest.fixture(scope="module")
def eval_setup():
    corpus = data.synth_corpus(n_classes=6, per_class=10, dim=16, seed=13)
    split = data.split_xshot(corpus, x=0, seed=13)
    return corpus, split


def test_evaluate_reports_both_directions(eval_setup):
    corpus, split = eval_setup
    result = ret.evaluate(RawFeatures(), split, corpus, domain="target")
    assert result["img2txt"].direction == "Img2Txt"
    assert result["txt2img"].direction == "Txt2Img"
    assert result["avg"] == pytest.approx(
        (result["img2txt"].map_score + result["txt2img"].map_score) / 2.0, abs=1e-12
    )
    assert 0.0 <= result["avg"] <= 1.0


def test_evaluate_source_domain_works(eval_setup):
    corpus, split = eval_setup
    result = ret.evaluate(RawFeatures(), split, corpus, domain="source")
    assert result["img2txt"].n_queries == len(split.source_query)


def test_evaluate_is_deterministic(eval_setup):
    corpus, split = eval_setup
    a = ret.evaluate(RawFeatures(), split, corpus)
    b = ret.evaluate(RawFeatures(), split, corpus)
    assert a["img2txt"].map_score == b["img2txt"].map_score
    assert a["txt2img"].per_query_ap == b["txt2img"].per_query_ap


def test_evaluate_perfect_when_modalities_identical():
    # collapse the modality gap and noise: every feature equals its prototype
    corpus = data.synth_corpus(
        n_classes=4, per_class=8, dim=8, modality_gap=0.0, noise_sigma=1e-9, seed=7
    )
    split = data.split_xshot(corpus, x=0, seed=7)
    result = ret.evaluate(RawFeatures(), split, corpus)
    assert result["img2txt"].map_score == 1.0
    assert result["txt2img"].map_score == 1.0


def test_evaluate_rejects_bad_domain(eval_setup):
    corpus, split = eval_setup
    with pytest.raises(ConfigError):
        ret.evaluate(RawFeatures(), split, corpus, domain="test")


# ---------------------------------------------------------------------------
# evaluate on two threads


def _model(seed=0):
    return ProjectionModel(16, range(6), ProjHyperParams(), np.random.default_rng(seed))


def _reports(result):
    return {k: v.to_json() if k != "avg" else v for k, v in result.items()}


@pytest.mark.parametrize("domain", ["target", "source"])
def test_concurrent_evaluation_equals_serial_bitwise(
    eval_setup, monkeypatch, worker, fine_switching, domain
):
    # each direction is one pass on one thread, Img2Txt's on the calling
    # thread and Txt2Img's on the worker: inside its mean_ap it embeds its
    # gallery, then its query blocks
    corpus, split = eval_setup
    model = _model()
    calls = {}  # thread -> [(the direction it is ranking, what it did)]
    current = threading.local()
    real_mean_ap = ret.mean_ap

    def seen(what):
        calls.setdefault(threading.get_ident(), []).append((getattr(current, "direction", None), what))

    def embedder(key, embed):
        def wrapped(X):
            seen(key)
            return embed(X)
        return wrapped

    def mean_ap(*args, **kwargs):
        current.direction = kwargs["direction"]
        seen("mean_ap")
        try:
            return real_mean_ap(*args, **kwargs)
        finally:
            current.direction = None

    monkeypatch.setattr(model, "embed_images", embedder("img", model.embed_images))
    monkeypatch.setattr(model, "embed_texts", embedder("txt", model.embed_texts))
    monkeypatch.setattr(ret, "mean_ap", mean_ap)
    concurrent = ret.evaluate(model, split, corpus, domain=domain)
    main = threading.get_ident()
    img2txt = [("Img2Txt", "mean_ap"), ("Img2Txt", "txt"), ("Img2Txt", "img")]
    txt2img = [("Txt2Img", "mean_ap"), ("Txt2Img", "img"), ("Txt2Img", "txt")]
    assert calls.pop(main) == img2txt
    assert list(calls.values()) == [txt2img]

    monkeypatch.setattr(util, "_spare_core", lambda: False)
    calls.clear()
    serial = ret.evaluate(model, split, corpus, domain=domain)
    assert calls == {main: img2txt + txt2img}
    assert _reports(concurrent) == _reports(serial)


def test_concurrent_evaluation_raises_img2txt_first(eval_setup, worker, fine_switching):
    # a NaN image weight fails both directions: Img2Txt's queries and
    # Txt2Img's gallery. The serial order raises Img2Txt's error
    corpus, split = eval_setup
    model = _model()
    model.projector_v.l1.W.data[0, 0] = np.nan
    before = threading.active_count()
    for _ in range(5):
        with pytest.raises(NonFiniteError, match=r"^Img2Txt: non-finite value in the queries$"):
            ret.evaluate(model, split, corpus)
        assert threading.active_count() == before


@pytest.mark.parametrize("failing", ["Img2Txt", "Txt2Img"])
def test_concurrent_evaluation_error_leaves_no_thread(
    eval_setup, monkeypatch, worker, fine_switching, failing
):
    # the failing direction raises in its query forward, after embedding its
    # gallery: Img2Txt on the calling thread, Txt2Img on the worker
    corpus, split = eval_setup
    model = _model()
    main = threading.get_ident()
    error = KeyboardInterrupt if failing == "Img2Txt" else ValueError
    name = "embed_images" if failing == "Img2Txt" else "embed_texts"
    real = getattr(model, name)

    def embed(X):
        if (threading.get_ident() == main) == (failing == "Img2Txt"):
            raise error(failing)
        return real(X)

    monkeypatch.setattr(model, name, embed)
    before = threading.active_count()
    with pytest.raises(error, match=failing):
        ret.evaluate(model, split, corpus)
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# evaluate streams each direction: its unit gallery, then one query block at a time

COUNTS = [1, util.BLOCK - 1, util.BLOCK, util.BLOCK + 1, 2 * util.BLOCK + 1]


def test_row_blocks_are_the_array_split_layout():
    # the program's one row partition: near-equal blocks of at most BLOCK
    # rows, one empty block for no rows
    for n in range(3 * util.BLOCK + 2):
        k = max(1, -(-n // util.BLOCK))
        want = [(int(p[0]), int(p[-1]) + 1) if p.size else (n, n) for p in np.array_split(np.arange(n), k)]
        assert [(s.start, s.stop) for s in util.row_blocks(n)] == want, n
NAN_MARK, ZERO_MARK = 1e6, 2e6  # a row whose first feature is a mark embeds to NaN or zero


def _stream_setup(n_queries, n_gallery, dim=12, seed=0):
    """A corpus of n_queries query rows, then n_gallery gallery rows, and a
    split whose target partition they are. Query classes cycle over 0..4 and
    gallery classes over 0..3, so class 4 has no gallery item."""
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.arange(n_queries) % 5, np.arange(n_gallery) % 4])
    n = len(labels)
    corpus = data.Corpus(
        rng.standard_normal((n, dim)).astype(np.float32),
        rng.standard_normal((n, dim)).astype(np.float32),
        labels,
        {c: rng.standard_normal(dim) for c in range(5)},
    )
    queries, gallery = tuple(range(n_queries)), tuple(range(n_queries, n))
    split = data.XShotSplit(0, seed, 0.5, 0.25, (), tuple(range(5)), (), (), (), (), queries, gallery)
    return corpus, split


def _whole_set_reference(model, split, corpus):
    """evaluate's reports as whole-set embeddings scored by mean_ap on arrays."""
    q_idx, g_idx = split.target_query, split.target_gallery
    labels = corpus.labels(q_idx), corpus.labels(g_idx)
    sides = {
        "img": (model.embed_images(corpus.image_matrix(q_idx)), model.embed_images(corpus.image_matrix(g_idx))),
        "txt": (model.embed_texts(corpus.text_matrix(q_idx)), model.embed_texts(corpus.text_matrix(g_idx))),
    }
    img2txt = ret.mean_ap(as_set(sides["img"][0]), as_set(sides["txt"][1]), *labels, direction="Img2Txt")
    txt2img = ret.mean_ap(as_set(sides["txt"][0]), as_set(sides["img"][1]), *labels, direction="Txt2Img")
    return {"img2txt": img2txt, "txt2img": txt2img, "avg": (img2txt.map_score + txt2img.map_score) / 2.0}


def _stream_model(kind, dim=12):
    if kind == "raw":
        return RawFeatures()
    hp = ProjHyperParams()
    return ProjectionModel(dim, range(5), hp, np.random.default_rng(3), use_gate=kind == "gated")


@pytest.mark.parametrize("n_queries", COUNTS)
@pytest.mark.parametrize("kind", ["gated", "no_gate", "raw"])
def test_streamed_evaluation_equals_whole_set_mean_ap_bitwise(kind, n_queries, caplog):
    model = _stream_model(kind)
    for n_gallery in COUNTS:
        corpus, split = _stream_setup(n_queries, n_gallery)
        caplog.clear()
        with caplog.at_level("WARNING", logger="xmodal.retrieval"):
            streamed = ret.evaluate(model, split, corpus)
        warnings = [r.getMessage() for r in caplog.records]
        caplog.clear()
        with caplog.at_level("WARNING", logger="xmodal.retrieval"):
            whole = _whole_set_reference(model, split, corpus)
        assert _reports(streamed) == _reports(whole)
        assert warnings == [r.getMessage() for r in caplog.records]
        # class 4 has no gallery item; with one gallery row only class 0 has one
        skipped = sum(c != 0 if n_gallery == 1 else c == 4 for c in np.arange(n_queries) % 5)
        assert streamed["img2txt"].skipped_queries == streamed["txt2img"].skipped_queries == skipped
        assert len(warnings) == 2 * (skipped > 0)


class MarkedFeatures(RawFeatures):
    """RawFeatures whose rows marked in their first feature embed to NaN or zero."""

    def _marked(self, X):
        out = np.array(X, dtype=np.float64)
        out[out[:, 0] == NAN_MARK] = np.nan
        out[out[:, 0] == ZERO_MARK] = 0.0
        return out

    embed_images = embed_texts = _marked


def _first_error(fn):
    try:
        fn()
    except Exception as e:  # the error itself is compared
        return type(e), str(e)
    raise AssertionError("no error raised")


@pytest.mark.parametrize("marks", [
    # (modality, "query" or "gallery", row within the set, mark)
    [("img", "query", -1, NAN_MARK)],
    [("txt", "gallery", -1, NAN_MARK)],
    [("img", "gallery", 0, NAN_MARK)],
    [("img", "query", -1, NAN_MARK), ("txt", "gallery", 0, NAN_MARK)],
    [("img", "query", 0, ZERO_MARK), ("img", "query", -1, NAN_MARK)],
    [("txt", "gallery", 0, ZERO_MARK), ("txt", "gallery", -1, NAN_MARK)],
    [("txt", "gallery", -1, ZERO_MARK)],
    [("img", "query", -1, ZERO_MARK)],
    [("txt", "query", 0, ZERO_MARK), ("img", "gallery", -1, ZERO_MARK)],
    [("img", "query", 0, ZERO_MARK), ("txt", "gallery", -1, ZERO_MARK)],
], ids=lambda marks: "+".join(f"{m}-{side}{row}-{'nan' if v == NAN_MARK else 'zero'}"
                              for m, side, row, v in marks))
def test_streamed_evaluation_raises_the_whole_set_error(marks):
    n = 2 * util.BLOCK + 1
    corpus, split = _stream_setup(n, n)
    features = {"img": corpus.image_matrix(), "txt": corpus.text_matrix()}
    for modality, side, row, mark in marks:
        features[modality][(split.target_query if side == "query" else split.target_gallery)[row], 0] = mark
    corpus = data.Corpus(features["img"], features["txt"], corpus.labels(), corpus.class_attrs)
    model = MarkedFeatures()
    want = _first_error(lambda: _whole_set_reference(model, split, corpus))
    assert _first_error(lambda: ret.evaluate(model, split, corpus)) == want
    assert want[0] in (NonFiniteError, ValueError)


def test_streamed_evaluation_holds_one_unit_gallery_and_a_block(monkeypatch):
    # a serial evaluation of 600 x 600 at d=256 peaks while it ranks a query
    # block of b rows: one unit gallery, the block's similarities and their
    # sort buffer, which takes the precision terms (two (b, n_gallery)
    # float64 arrays), its bool relevance, and 256 KiB for index arrays and
    # loop temporaries; each row's distinctness is checked on its own.
    # Nothing of the previous block is held, and a block's gated forward
    # (its float32 rows, output, joint buffer and hidden buffer) stays below
    # that. It took 3.24 MiB against this bound's 3.37 MiB. Checking every
    # row's distinctness at once, a (b, n_gallery - 1) bool comparison, took
    # 3.41 MiB; holding the block's unit queries, a fresh precision block
    # and the previous block 4.54 MiB, keeping the last gallery block through
    # the query pass too 4.94 MiB, the training forward per block 5.25 MiB,
    # and that forward with the whole relevance matrix 5.58 MiB
    monkeypatch.setattr(util, "_spare_core", lambda: False)
    n, d = 600, 256
    corpus, split = _stream_setup(n, n, dim=d)
    model = ProjectionModel(d, range(5), ProjHyperParams(), np.random.default_rng(3))
    tracemalloc.start()
    try:
        ret.evaluate(model, split, corpus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    f64, b = 8, max(r.stop - r.start for r in util.row_blocks(n))
    assert peak < f64 * (n * d + 2 * b * n) + b * n + 2**18
