"""Cosine ranking and AP/mAP scoring for Img2Txt and Txt2Img retrieval.

Relevance is class-label match; the whole gallery is ranked per query with
ties broken by ascending gallery index, and AP sums precision at every
relevant rank divided by the total relevant count. Queries are normalised,
scored and ranked BLOCK rows at a time, so `mean_ap` holds the unit gallery
and one block's unit queries, similarities and ranking temporaries besides
its inputs. Each row is ranked by a value sort: where its values are all
distinct, a relevant item's rank is the count of greater values, found by
binary search in the sorted row. A row with a tie or a NaN is ranked by a
stable argsort instead, which breaks the tie by gallery index. Both paths
give the same APs bit for bit, and the value sort is three to four times
cheaper than a stable argsort of every row.

The two directions share nothing until their average, so `evaluate` uses a
second core when one is free and the features are at least
`util.CONCURRENT_MIN_WIDTH` wide: the image embeddings are computed on a
worker thread while the text embeddings are computed on the calling thread,
then Txt2Img is ranked on the worker while Img2Txt is ranked on the calling
thread. numpy releases the GIL in BLAS calls, sorts and ufunc loops, so the
threads overlap. The reports are bitwise those of a serial run, and errors
surface in serial order (Img2Txt's first). Each thread holds its own rows,
embeddings and one forward or ranking block at a time.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import Corpus, XShotSplit
from .errors import ConfigError, NonFiniteError
from .util import BLOCK, run_pair, unit_rows

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RetrievalReport:
    direction: str
    map_score: float
    per_query_ap: tuple[float, ...]
    n_queries: int
    n_gallery: int
    skipped_queries: int = 0
    fingerprint: str = ""

    def to_json(self) -> dict:
        return {
            "direction": self.direction,
            "map": self.map_score,
            "per_query_ap": list(self.per_query_ap),
            "n_queries": self.n_queries,
            "n_gallery": self.n_gallery,
            "skipped_queries": self.skipped_queries,
            "fingerprint": self.fingerprint,
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
    is the same row sum over the same block on either path.
    """
    sims = np.asarray(sims)
    relevance = np.asarray(relevance, dtype=bool)
    m = sims.shape[1]
    ranked = np.sort(sims, axis=1)
    distinct = (ranked[:, 1:] > ranked[:, :-1]).all(axis=1)
    terms = np.zeros(sims.shape)
    for i in np.flatnonzero(distinct):
        pos = m - np.searchsorted(ranked[i], sims[i, relevance[i]], side="right")
        pos.sort()
        terms[i, pos] = np.arange(1, pos.size + 1) / (pos + 1)
    tied = np.flatnonzero(~distinct)
    if tied.size:
        order = np.argsort(-sims[tied], axis=1, kind="stable")
        hits = np.take_along_axis(relevance[tied], order, axis=1).astype(np.float64)
        terms[tied] = np.cumsum(hits, axis=1) / np.arange(1, m + 1) * hits
    with np.errstate(invalid="ignore"):
        return terms.sum(axis=1) / relevance.sum(axis=1)


def mean_ap(
    queries: np.ndarray, gallery: np.ndarray, relevance: np.ndarray,
    direction: str = "", fingerprint: str = "",
) -> RetrievalReport:
    """Rank the full gallery per query by cosine similarity and average the APs.

    `relevance` is a boolean (n_queries, n_gallery) matrix. Queries with no
    relevant gallery item are excluded from the mean with a logged warning;
    a non-finite query or gallery value raises NonFiniteError.
    """
    queries, gallery = (np.asarray(X, dtype=np.float64) for X in (queries, gallery))
    if queries.size == 0 or gallery.size == 0:
        raise ConfigError("mean_ap needs non-empty queries and gallery")
    relevance = np.asarray(relevance, dtype=bool)
    if relevance.shape != (queries.shape[0], gallery.shape[0]):
        raise ConfigError(
            f"relevance matrix shape {relevance.shape} does not match "
            f"({queries.shape[0]}, {gallery.shape[0]})"
        )
    for name, X in (("queries", queries), ("gallery", gallery)):
        if not np.isfinite(X).all():
            raise NonFiniteError(f"{direction or 'mean_ap'}: non-finite value in the {name}")
    unit_g = unit_rows(gallery)

    skipped = np.flatnonzero(~relevance.any(axis=1))
    if skipped.size == queries.shape[0]:
        raise ConfigError("every query was skipped; mAP undefined")
    if skipped.size:
        logger.warning("queries %s have no relevant gallery item; excluded from mAP", skipped.tolist())
    aps = np.delete(np.concatenate([
        average_precision(unit_rows(queries[i : i + BLOCK]) @ unit_g.T, relevance[i : i + BLOCK])
        for i in range(0, queries.shape[0], BLOCK)
    ]), skipped)
    return RetrievalReport(
        direction=direction,
        map_score=float(np.mean(aps)),
        per_query_ap=tuple(aps.tolist()),
        n_queries=queries.shape[0],
        n_gallery=gallery.shape[0],
        skipped_queries=int(skipped.size),
        fingerprint=fingerprint,
    )


def evaluate(
    model, split: XShotSplit, corpus: Corpus, domain: str = "target", fingerprint: str = ""
) -> dict:
    """Img2Txt and Txt2Img mAP over a domain's query/gallery partition.

    `model` must expose embed_images / embed_texts; Img2Txt ranks the text
    gallery for image queries, Txt2Img the reverse, relevance is same-class.
    """
    if domain == "target":
        q_idx, g_idx = split.target_query, split.target_gallery
    elif domain == "source":
        q_idx, g_idx = split.source_query, split.source_gallery
    else:
        raise ConfigError(f"domain must be 'target' or 'source', got {domain!r}")
    if not q_idx or not g_idx:
        raise ConfigError(f"{domain} query/gallery is empty")

    q_labels = corpus.labels(q_idx)
    g_labels = corpus.labels(g_idx)
    rel = q_labels[:, None] == g_labels[None, :]

    def embed(fn, matrix):
        return lambda: (fn(matrix(q_idx)), fn(matrix(g_idx)))

    # the image side on the worker; Img2Txt on the calling thread, so when
    # both directions fail its error is the one raised, as in a serial run
    (u_txt_q, u_txt_g), (u_img_q, u_img_g) = run_pair(
        embed(model.embed_texts, corpus.text_matrix),
        embed(model.embed_images, corpus.image_matrix),
        corpus.dim,
    )
    img2txt, txt2img = run_pair(
        lambda: mean_ap(u_img_q, u_txt_g, rel, direction="Img2Txt", fingerprint=fingerprint),
        lambda: mean_ap(u_txt_q, u_img_g, rel, direction="Txt2Img", fingerprint=fingerprint),
        corpus.dim,
    )
    return {
        "img2txt": img2txt,
        "txt2img": txt2img,
        "avg": (img2txt.map_score + txt2img.map_score) / 2.0,
    }
