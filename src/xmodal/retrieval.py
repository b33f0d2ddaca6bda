"""Cosine ranking and AP/mAP scoring for Img2Txt and Txt2Img retrieval.

Relevance is class-label match; the whole gallery is ranked per query with
ties broken by ascending gallery index, and AP sums precision at every
relevant rank divided by the total relevant count. Queries are ranked BLOCK
rows at a time, which bounds the memory the ranking takes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import Corpus, XShotSplit
from .errors import ConfigError, NonFiniteError

logger = logging.getLogger(__name__)

# query rows ranked at once
BLOCK = 256


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


def _unit_rows(X: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("cosine similarity is undefined for a zero vector")
    return X / norms


def average_precision(sims: np.ndarray, relevance: np.ndarray) -> np.ndarray:
    """AP of each row of a (queries, gallery) similarity block.

    `relevance` is the boolean block of the same shape. Each row's gallery is
    ranked by descending similarity, ties by ascending gallery index; a row
    with no relevant item gets NaN.
    """
    order = np.argsort(-np.asarray(sims), axis=1, kind="stable")
    hits = np.take_along_axis(np.asarray(relevance, dtype=bool), order, axis=1).astype(np.float64)
    precision = np.cumsum(hits, axis=1) / np.arange(1, hits.shape[1] + 1)
    with np.errstate(invalid="ignore"):
        return (precision * hits).sum(axis=1) / hits.sum(axis=1)


def mean_ap(
    queries: np.ndarray, gallery: np.ndarray, relevance: np.ndarray,
    direction: str = "", fingerprint: str = "",
) -> RetrievalReport:
    """Rank the full gallery per query by cosine similarity and average the APs.

    `relevance` is a boolean (n_queries, n_gallery) matrix. Queries with no
    relevant gallery item are excluded from the mean with a logged warning;
    a non-finite query or gallery value raises NonFiniteError.
    """
    queries = np.asarray(queries, dtype=np.float64)
    gallery = np.asarray(gallery, dtype=np.float64)
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
    sims = _unit_rows(queries) @ _unit_rows(gallery).T

    skipped = np.flatnonzero(~relevance.any(axis=1))
    if skipped.size == queries.shape[0]:
        raise ConfigError("every query was skipped; mAP undefined")
    if skipped.size:
        logger.warning("queries %s have no relevant gallery item; excluded from mAP", skipped.tolist())
    aps = np.delete(np.concatenate([
        average_precision(sims[i : i + BLOCK], relevance[i : i + BLOCK])
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

    u_img_q = model.embed_images(corpus.image_matrix(q_idx))
    u_txt_q = model.embed_texts(corpus.text_matrix(q_idx))
    u_img_g = model.embed_images(corpus.image_matrix(g_idx))
    u_txt_g = model.embed_texts(corpus.text_matrix(g_idx))

    img2txt = mean_ap(u_img_q, u_txt_g, rel, direction="Img2Txt", fingerprint=fingerprint)
    txt2img = mean_ap(u_txt_q, u_img_g, rel, direction="Txt2Img", fingerprint=fingerprint)
    return {
        "img2txt": img2txt,
        "txt2img": txt2img,
        "avg": (img2txt.map_score + txt2img.map_score) / 2.0,
    }
