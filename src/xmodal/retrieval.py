"""Cosine ranking and AP/mAP scoring for Img2Txt and Txt2Img retrieval.

Relevance is class-label match; the whole gallery is ranked per query with
ties broken by ascending gallery index, and AP sums precision at every
relevant rank divided by the total relevant count. `mean_ap` is the one
ranking pass: it forms the gallery's unit rows in one array of its own, then
normalises, scores and ranks one block of query rows at a time, so it holds
the unit gallery and one block: the block's unit queries until their
similarities are formed, then the similarities, their sort buffer and the
block's relevance. It raises each fault where it meets it: every query
skipped before any row is embedded, then block by block, gallery first, a
non-finite value before a zero row. Each row is ranked by a value sort:
where its values are all distinct, a relevant item's rank is the count of
greater values, found by binary search in the sorted row. A row with a tie
or a NaN is ranked by a stable argsort instead, which breaks the tie by
gallery index. Both paths give the same APs bit for bit, and the value sort
is three to four times cheaper than a stable argsort of every row.

`evaluate` streams each direction through `mean_ap` as `Embeddings` sets: it
embeds the gallery one block at a time, each block gathered from the corpus
just before its forward, into the unit gallery, then gathers, embeds and
ranks one query block at a time. The blocks are those of `util.row_blocks`,
the program's one row partition, which the whole-set forward uses too, so
the reports are those of embedding whole sets. The two directions share
nothing until their average, so when one is free and the features are
at least `util.CONCURRENT_MIN_WIDTH` wide, Txt2Img runs on a worker thread
while Img2Txt runs on the calling thread. numpy releases the GIL in BLAS
calls, sorts and ufunc loops, so the threads overlap. Each thread holds its
direction's unit gallery and one block's working set, never two blocks:
while a block is embedded, its rows gathered at their stored dtype (float32
as files store them) and the forward's output, joint and hidden buffers;
while it is ranked, its similarities, their sort buffer and its relevance,
formed from the two label arrays as it is ranked, so nothing grows as
queries times gallery. Each block is released before the next one is
gathered. The reports are bitwise those of a serial run, and errors
surface in serial order (Img2Txt's first).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import Corpus, XShotSplit
from .errors import ConfigError, NonFiniteError
from .util import row_blocks, run_pair, unit_rows

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RetrievalReport:
    """One direction's mAP, its scored queries' APs, the set sizes and the
    skipped count; the report holding it gives the config fingerprint."""

    direction: str
    map_score: float
    per_query_ap: tuple[float, ...]
    n_queries: int
    n_gallery: int
    skipped_queries: int = 0

    def to_json(self) -> dict:
        return {
            "direction": self.direction,
            "map": self.map_score,
            "per_query_ap": list(self.per_query_ap),
            "n_queries": self.n_queries,
            "n_gallery": self.n_gallery,
            "skipped_queries": self.skipped_queries,
        }


def average_precision(sims: np.ndarray, relevance: np.ndarray) -> np.ndarray:
    """AP of each row of a (queries, gallery) similarity block.

    `relevance` is the boolean block of the same shape. Each row's gallery is
    ranked by descending similarity, ties by ascending gallery index; a row
    with no relevant item gets NaN.

    A row whose sorted values strictly increase is ranked by value: an item's
    0-based rank is the count of greater values, and the relevant item at
    rank p that is the k-th relevant one contributes the precision k / (p + 1).
    A row with a repeated value (+0.0 and -0.0 included) or a NaN is ranked
    by a stable argsort of its negated values instead. The two give the same
    (queries, gallery) block of precision-at-relevant-rank terms, so each AP
    is the same row sum over the same block on either path. Each row's terms
    are formed in that row of the float64 sort buffer once the row is
    ranked, so the block holds sims, its sorted copy and the relevance; a
    row's distinctness is checked in the row loop, one row at a time.
    """
    sims = np.asarray(sims)
    relevance = np.asarray(relevance, dtype=bool)
    m = sims.shape[1]
    # the sort buffer, C-ordered float64 so it can take the terms
    terms = np.ascontiguousarray(np.sort(sims, axis=1), dtype=np.float64)
    tied = []
    for i, row in enumerate(terms):
        if not (row[1:] > row[:-1]).all():
            tied.append(i)
            continue
        pos = m - np.searchsorted(row, sims[i, relevance[i]], side="right")
        pos.sort()
        row[:] = 0.0
        row[pos] = np.arange(1, pos.size + 1) / (pos + 1)
    if tied:
        order = np.argsort(-sims[tied], axis=1, kind="stable")
        hits = np.take_along_axis(relevance[tied], order, axis=1).astype(np.float64)
        terms[tied] = np.cumsum(hits, axis=1) / np.arange(1, m + 1) * hits
    with np.errstate(invalid="ignore"):
        return terms.sum(axis=1) / relevance.sum(axis=1)


class Embeddings:
    """The unit-row embeddings `embed(gather(idx))` of one query or gallery
    set, made one block at a time.

    `idx` is cut into the near-equal blocks of `util.row_blocks`, which
    `ProjectionModel._embed` cuts a whole matrix into, and each block's rows
    are gathered just before its forward, so every row comes out of the
    forward it would get in a whole-set call and no row of the set is held
    past its block. `len` is the set's size.
    """

    def __init__(self, embed, gather, idx):
        self.embed = embed
        self.gather = gather
        self.idx = np.asarray(idx, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.idx)

    def unit_blocks(self, what: str, direction: str):
        """(rows, float64 unit rows) per block, made when the next block is
        asked for and then held by the caller alone, so a caller that drops
        a block drops all of it before the next one is gathered."""
        for rows in row_blocks(len(self.idx)):
            yield rows, self._unit_block(rows, what, direction)

    def _unit_block(self, rows: slice, what: str, direction: str) -> np.ndarray:
        """The unit rows of one block, normalised in place: a non-finite value
        raises NonFiniteError naming `what`, a zero row ValueError."""
        block = np.asarray(self.embed(self.gather(self.idx[rows])), dtype=np.float64)
        if not np.isfinite(block).all():
            raise NonFiniteError(f"{direction or 'mean_ap'}: non-finite value in the {what}")
        return unit_rows(block, out=block)


def mean_ap(queries, gallery, query_labels, gallery_labels, direction: str = "") -> RetrievalReport:
    """Rank the full gallery per query by cosine similarity and average the APs.

    `queries` and `gallery` are `Embeddings` sets; `query_labels` and
    `gallery_labels` hold one class label per item of each, and an item is
    relevant to a query when their labels match. The gallery's unit rows are
    formed first, in one array of its own; then each query block is made,
    normalised in place, scored against them, released, and its similarities
    ranked against its block of same-label relevance. Queries whose label no
    gallery item has are left out of the mean, named in a warning when a
    report is returned. Faults raise where they are met: ConfigError for an
    empty set, for a label array that does not fit its set and when every
    query is skipped, all before any row is embedded; then, block by block,
    gallery before queries, NonFiniteError for a non-finite value, then
    ValueError for a zero row.
    """
    n_q, n_g = len(queries), len(gallery)
    if not n_q or not n_g:
        raise ConfigError("mean_ap needs non-empty queries and gallery")
    query_labels, gallery_labels = np.asarray(query_labels), np.asarray(gallery_labels)
    if query_labels.shape != (n_q,) or gallery_labels.shape != (n_g,):
        raise ConfigError(f"label shapes {query_labels.shape}, {gallery_labels.shape} do not fit ({n_q}, {n_g})")
    skipped = np.flatnonzero(~np.isin(query_labels, gallery_labels))
    if skipped.size == n_q:
        raise ConfigError("every query was skipped; mAP undefined")
    # no block outlives its use: a query block's unit rows go once its
    # similarities are formed, and those once ranked, before the next gather
    unit_g, aps = None, []
    for rows, block in gallery.unit_blocks("gallery", direction):
        if unit_g is None:
            unit_g = np.empty((n_g, block.shape[1]))
        unit_g[rows] = block
        del block
    for rows, q in queries.unit_blocks("queries", direction):
        sims = q @ unit_g.T
        del q
        aps.append(average_precision(sims, query_labels[rows, None] == gallery_labels))
        del sims
    if skipped.size:
        logger.warning("queries %s have no relevant gallery item; excluded from mAP", skipped.tolist())
    aps = np.delete(np.concatenate(aps), skipped)
    return RetrievalReport(
        direction=direction,
        map_score=float(np.mean(aps)),
        per_query_ap=tuple(aps.tolist()),
        n_queries=n_q,
        n_gallery=n_g,
        skipped_queries=int(skipped.size),
    )


def evaluate(model, split: XShotSplit, corpus: Corpus, domain: str = "target") -> dict:
    """Img2Txt and Txt2Img mAP over a domain's query/gallery partition.

    `model` must expose embed_images / embed_texts; Img2Txt ranks the text
    gallery for image queries, Txt2Img the reverse, relevance is same-class.
    Each direction is one `mean_ap` pass over `Embeddings` sets and the
    partition's class labels, raising at its first bad block and embedding
    nothing when every query is skipped.
    Rows are gathered at their stored dtype; the model's forward casts them.
    Img2Txt runs on the calling thread and Txt2Img on the worker
    (`util.run_pair`), each holding one unit gallery and one block's forward
    buffers or its ranking temporaries, never two blocks; when both fail,
    Img2Txt's error is the one raised, as in a serial run.
    """
    if domain == "target":
        q_idx, g_idx = split.target_query, split.target_gallery
    elif domain == "source":
        q_idx, g_idx = split.source_query, split.source_gallery
    else:
        raise ConfigError(f"domain must be 'target' or 'source', got {domain!r}")
    if not q_idx or not g_idx:
        raise ConfigError(f"{domain} query/gallery is empty")

    labels = corpus.labels(q_idx), corpus.labels(g_idx)
    # rows gathered at their stored dtype: the forward casts them
    images = (model.embed_images, partial(corpus.image_matrix, stored=True))
    texts = (model.embed_texts, partial(corpus.text_matrix, stored=True))

    def direction(name, query_side, gallery_side):
        return lambda: mean_ap(
            Embeddings(*query_side, q_idx), Embeddings(*gallery_side, g_idx), *labels, direction=name
        )

    img2txt, txt2img = run_pair(
        direction("Img2Txt", images, texts), direction("Txt2Img", texts, images), corpus.dim
    )
    return {
        "img2txt": img2txt,
        "txt2img": txt2img,
        "avg": (img2txt.map_score + txt2img.map_score) / 2.0,
    }
