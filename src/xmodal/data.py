"""Embedding ingestion, class-disjoint X-shot splitting, synthetic corpora.

File formats (all little-endian):
  * embedding file: magic ``FLEXEMB1``, u32 n, u32 d, then n*d float32 row-major
  * labels file: UTF-8 text, one integer per line, n lines
  * attributes: an embedding file with one row per class, paired with an index
    text file listing the class id of each row
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    FileFormatError,
    IngestError,
    MissingAttributeError,
    NonFiniteError,
)
from .util import row_blocks, stream, unit_rows

EMB_MAGIC = b"FLEXEMB1"

CORPUS_FILES = {
    "images": "images.femb",
    "texts": "texts.femb",
    "labels": "labels.txt",
    "attrs": "attrs.femb",
    "attr_ids": "attrs.idx",
}


def write_embedding_file(path, X: np.ndarray) -> None:
    X = np.asarray(X)
    if X.ndim != 2:
        raise DimensionMismatchError(f"embedding matrix must be 2-D, got shape {X.shape}")
    with open(path, "wb") as f:
        f.write(EMB_MAGIC)
        f.write(struct.pack("<II", *X.shape))
        # a float32 C-ordered array is written as it is held, without a copy
        f.write(np.ascontiguousarray(X, dtype="<f4"))


def read_embedding_file(path) -> np.ndarray:
    """The float32 matrix an embedding file holds, read straight into one
    array; NonFiniteError, naming the file, when it holds a NaN or Inf."""
    return _require_finite_file(path, _read_embedding_payload(path))


def _require_finite_file(path, X: np.ndarray) -> np.ndarray:
    if not np.isfinite(X).all():
        raise NonFiniteError(f"{path}: embedding file contains NaN or Inf")
    return X


def _read_embedding_payload(path) -> np.ndarray:
    with open(path, "rb") as f:
        head = f.read(16)
        if len(head) < 16 or head[:8] != EMB_MAGIC:
            raise FileFormatError(f"{path}: not an embedding file (bad magic)")
        n, d = struct.unpack("<II", head[8:])
        expected, size = 16 + 4 * n * d, f.seek(0, 2)  # seeks to the end
        if size != expected:
            raise FileFormatError(f"{path}: expected {expected} bytes for {n}x{d} floats, got {size}")
        X = np.empty((n, d), dtype="<f4")
        f.seek(16)
        f.readinto(X)
    return X


def _read_int_lines(path, what: str) -> list[int]:
    out = []
    with open(path, "r", encoding="utf8") as f:
        for lineno, line in enumerate(f, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                out.append(int(text))
            except ValueError as e:
                raise FileFormatError(f"{path}:{lineno}: bad {what} {text!r}") from e
    return out


def _write_int_lines(path, values) -> None:
    with open(path, "w", encoding="utf8") as f:
        for v in values:
            f.write(f"{int(v)}\n")


def _frozen(x, dtype) -> np.ndarray:
    # an array already of this dtype is taken over without a copy
    out = np.asarray(x, dtype=dtype)
    out.flags.writeable = False
    return out


def _rows(X: np.ndarray, idx) -> np.ndarray:
    return X if idx is None else X[np.asarray(idx, dtype=np.int64)]


def _feature_rows(X: np.ndarray, idx, stored: bool) -> np.ndarray:
    rows = _rows(X, idx)
    return rows if stored else rows.astype(np.float64, copy=False)


def _features(x) -> np.ndarray:
    x = np.asarray(x)
    return _frozen(x, np.float32 if x.dtype == np.float32 else np.float64)


class Corpus:
    """Paired features as columns: an image matrix, a text matrix and a label
    vector, one row per pair, plus the per-class attribute map.

    Features given as float32 (as files store them) stay float32, others are
    held as float64, so a pseudo corpus is never rounded; attributes are
    float64, labels int64. Arrays are read-only; one given at its held dtype
    is kept, not copied. Gathers go through image_matrix/text_matrix/
    attr_matrix/labels; a feature gather returns exact float64 rows, or
    the rows at their held dtype when `stored`.
    """

    def __init__(self, images, texts, labels, class_attrs, name: str = "corpus"):
        images, texts = _features(images), _features(texts)
        labels = _frozen(np.reshape(labels, -1), np.int64)
        if images.ndim != 2 or texts.ndim != 2:
            raise DimensionMismatchError(
                f"features must be matrices, got images {images.shape}, texts {texts.shape}"
            )
        if not len(images) == len(texts) == len(labels):
            raise DimensionMismatchError(
                f"row counts differ: images {images.shape[0]}, texts {texts.shape[0]}, "
                f"labels {len(labels)}"
            )
        self.class_attrs: dict[int, np.ndarray] = {
            int(k): _frozen(np.reshape(v, (1, -1)), np.float64) for k, v in class_attrs.items()
        }
        classes = np.array(self.classes(), dtype=np.int64)
        known = np.isin(labels, classes)
        if not known.all():
            raise MissingAttributeError(f"missing attribute for class {labels[~known][0]}")
        if not len(labels):
            raise IngestError("corpus has no instances")

        d_v, d_t = images.shape[1], texts.shape[1]
        d_a = self.class_attrs[int(labels[0])].shape[1]
        if not d_v == d_t == d_a:
            raise DimensionMismatchError(
                f"feature dims differ: image {d_v}, text {d_t}, attribute {d_a}"
            )
        for attr in self.class_attrs.values():
            if attr.shape[1] != d_a:
                raise DimensionMismatchError(
                    f"attribute dim {attr.shape[1]} does not match features ({d_a})"
                )
            if not np.isfinite(attr).all():
                raise NonFiniteError("class attribute contains NaN or Inf")
        if not (np.isfinite(images).all() and np.isfinite(texts).all()):
            raise NonFiniteError("instance feature contains NaN or Inf")

        self.dims = (d_v, d_t, d_a)
        self.name = name
        self._images = images
        self._texts = texts
        self._labels = labels
        # one attribute row per class, and each pair's row in that table
        self._attrs = np.vstack([self.class_attrs[c] for c in classes])
        self._attr_rows = np.searchsorted(classes, labels)

    def __len__(self) -> int:
        return len(self._labels)

    @property
    def dim(self) -> int:
        return self.dims[0]

    def classes(self) -> list[int]:
        return sorted(self.class_attrs.keys())

    def indices_by_class(self) -> dict[int, np.ndarray]:
        return {c: np.flatnonzero(self._labels == c) for c in self.classes()}

    def image_matrix(self, idx=None, stored: bool = False) -> np.ndarray:
        return _feature_rows(self._images, idx, stored)

    def text_matrix(self, idx=None, stored: bool = False) -> np.ndarray:
        return _feature_rows(self._texts, idx, stored)

    def attr_matrix(self, idx=None) -> np.ndarray:
        return self._attrs[_rows(self._attr_rows, idx)]

    def attr_rows(self, idx=None) -> tuple[np.ndarray, np.ndarray]:
        """The attribute table, one row per class in `classes()` order, and
        each pair's row in it: attr_matrix(idx) without the gather."""
        return self._attrs, _rows(self._attr_rows, idx)

    def labels(self, idx=None) -> np.ndarray:
        return _rows(self._labels, idx)


def load_corpus(
    image_path,
    text_path,
    labels_path,
    attrs_path,
    attr_ids_path,
    name: str | None = None,
) -> Corpus:
    # one NaN/Inf scan of the features, in `Corpus`; a file is named when it fails
    images = _read_embedding_payload(image_path)
    texts = _read_embedding_payload(text_path)
    labels = _read_int_lines(labels_path, "label")
    attr_rows = read_embedding_file(attrs_path)
    attr_ids = _read_int_lines(attr_ids_path, "class id")

    if len(attr_ids) != attr_rows.shape[0]:
        raise DimensionMismatchError(
            f"attribute index lists {len(attr_ids)} classes but the attribute file "
            f"holds {attr_rows.shape[0]} rows"
        )
    if len(set(attr_ids)) != len(attr_ids):
        raise FileFormatError(f"{attr_ids_path}: duplicate class ids")
    class_attrs = {cid: attr_rows[i] for i, cid in enumerate(attr_ids)}
    try:
        return Corpus(images, texts, labels, class_attrs, name=name or Path(image_path).stem)
    except NonFiniteError:
        _require_finite_file(image_path, images)
        _require_finite_file(text_path, texts)
        raise


def write_corpus(corpus: Corpus, out_dir) -> dict[str, str]:
    """Write a corpus as the five-file on-disk layout; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {k: str(out / v) for k, v in CORPUS_FILES.items()}
    write_embedding_file(paths["images"], corpus._images)
    write_embedding_file(paths["texts"], corpus._texts)
    _write_int_lines(paths["labels"], corpus.labels())
    write_embedding_file(paths["attrs"], corpus._attrs)
    _write_int_lines(paths["attr_ids"], corpus.classes())
    return paths


@dataclass(frozen=True)
class XShotSplit:
    """Index partition of a corpus for one (x_shot, seed) experiment cell."""

    x_shot: int
    seed: int
    query_fraction: float
    source_eval_fraction: float
    source_classes: tuple[int, ...]
    target_classes: tuple[int, ...]
    source_train: tuple[int, ...]
    source_query: tuple[int, ...]
    source_gallery: tuple[int, ...]
    target_train: tuple[int, ...]
    target_query: tuple[int, ...]
    target_gallery: tuple[int, ...]

    @property
    def train_rows(self) -> tuple[int, ...]:
        """The rows both stages train on: source_train, then target_train."""
        return self.source_train + self.target_train

    def describe(self) -> dict:
        return {
            "x_shot": self.x_shot,
            "seed": self.seed,
            "query_fraction": self.query_fraction,
            "source_eval_fraction": self.source_eval_fraction,
            "source_classes": list(self.source_classes),
            "target_classes": list(self.target_classes),
            "counts": {
                "source_train": len(self.source_train),
                "source_query": len(self.source_query),
                "source_gallery": len(self.source_gallery),
                "target_train": len(self.target_train),
                "target_query": len(self.target_query),
                "target_gallery": len(self.target_gallery),
            },
        }


def check_split_params(x_shots, query_fraction: float, source_eval_fraction: float) -> None:
    """Raise ConfigError for a negative x-shot or a fraction outside (0, 1)."""
    for x in x_shots:
        if x < 0:
            raise ConfigError(f"x_shot must be non-negative, got {x}")
    if not 0.0 < query_fraction < 1.0:
        raise ConfigError(f"query_fraction must be in (0, 1), got {query_fraction}")
    if not 0.0 < source_eval_fraction < 1.0:
        raise ConfigError(
            f"source_eval_fraction must be in (0, 1), got {source_eval_fraction}"
        )


def split_xshot(
    corpus: Corpus,
    x: int,
    seed: int,
    query_fraction: float = 0.5,
    source_eval_fraction: float = 0.25,
) -> XShotSplit:
    """Class-disjoint source/target split with exactly x target shots per class.

    Classes are shuffled by seed and halved into disjoint source/target sets.
    Per target class, exactly x instances (seeded, without replacement) form
    target_train; the remainder is split query/gallery by query_fraction.
    Source classes keep a held-out evaluation pool of source_eval_fraction per
    class, split the same way; the rest is source_train. The x-shot instances
    are excluded from the test gallery.
    """
    check_split_params((x,), query_fraction, source_eval_fraction)
    classes = corpus.classes()
    if len(classes) < 2:
        raise ConfigError(f"need at least 2 classes to split, got {len(classes)}")

    rng = stream(seed, "split")
    order = [classes[i] for i in rng.permutation(len(classes))]
    n_source = (len(order) + 1) // 2
    if len(order) % 2:
        warnings.warn(
            f"odd class count {len(order)}: source gets {n_source} classes, "
            f"target {len(order) - n_source}",
            stacklevel=2,
        )
    source_classes = tuple(sorted(order[:n_source]))
    target_classes = tuple(sorted(order[n_source:]))

    by_class = corpus.indices_by_class()
    smallest_target = min(len(by_class[c]) for c in target_classes)
    if x > smallest_target:
        raise ConfigError(f"x_shot={x} exceeds the smallest target class size {smallest_target}")

    # per class one shuffle, cut into a sorted head and a sorted rest: a target
    # class's head is its x shots, a source class's its evaluation pool
    parts: dict[str, list[int]] = {}
    for domain, domain_classes in (("target", target_classes), ("source", source_classes)):
        for c in domain_classes:
            idxs = by_class[c]
            shuffled = idxs[rng.permutation(len(idxs))]
            n_head = x if domain == "target" else int(source_eval_fraction * len(idxs))
            head, rest = np.sort(shuffled[:n_head]), np.sort(shuffled[n_head:])
            train, pool = (head, rest) if domain == "target" else (rest, head)
            n_q = int(query_fraction * len(pool))
            for kind, rows in (("train", train), ("query", pool[:n_q]), ("gallery", pool[n_q:])):
                parts.setdefault(f"{domain}_{kind}", []).extend(rows.tolist())

    return XShotSplit(
        x_shot=x,
        seed=seed,
        query_fraction=query_fraction,
        source_eval_fraction=source_eval_fraction,
        source_classes=source_classes,
        target_classes=target_classes,
        **{name: tuple(sorted(rows)) for name, rows in parts.items()},
    )


def synth_corpus(
    n_classes: int,
    per_class: int,
    dim: int,
    modality_gap: float = 0.5,
    noise_sigma: float = 0.25,
    seed: int = 0,
    proto_rank: int | None = None,
    name: str = "synthetic",
) -> Corpus:
    """Desk-scale stand-in for pretrained embeddings.

    Each class gets a unit-norm prototype that doubles as its attribute
    vector. Image features are noisy copies of the prototype; text features
    additionally carry a fixed modality-offset direction scaled by
    modality_gap. Every feature row is then scaled to unit norm, as CLIP
    features are, and stored as float32. A modality is built one block of
    `util.row_blocks` at a time, image noise drawn first; draws and row norms
    are bitwise those of whole matrices. Deterministic in seed.

    proto_rank confines every prototype to a shared random subspace, which
    correlates classes the way pretrained class embeddings are correlated;
    None draws them isotropically (near-orthogonal at high dim).
    """
    if n_classes < 1 or per_class < 1:
        raise ConfigError("n_classes and per_class must be positive")
    if dim < 2:
        raise ConfigError(f"dim must be at least 2, got {dim}")
    if noise_sigma <= 0:
        raise ConfigError(f"noise_sigma must be positive, got {noise_sigma}")

    rng = stream(seed, "synth")
    if proto_rank is not None:
        if not 2 <= proto_rank <= dim:
            raise ConfigError(f"proto_rank must be in [2, {dim}], got {proto_rank}")
        basis, _ = np.linalg.qr(rng.standard_normal((dim, proto_rank)))
        weights = rng.standard_normal((n_classes, proto_rank))
        protos = unit_rows(weights @ basis.T)
    else:
        protos = unit_rows(rng.standard_normal((n_classes, dim)))
    gap_dir = rng.standard_normal(dim)
    gap_dir = gap_dir / np.linalg.norm(gap_dir)

    labels = np.repeat(np.arange(n_classes), per_class)
    features = [np.empty((len(labels), dim), dtype=np.float32) for _ in range(2)]
    for X, table in zip(features, (protos, protos + modality_gap * gap_dir)):
        for rows in row_blocks(len(X)):
            eps = rng.standard_normal(X[rows].shape) * noise_sigma
            X[rows] = unit_rows(table[labels[rows]] + eps)
    attrs = {c: protos[c].astype(np.float32).astype(np.float64) for c in range(n_classes)}
    return Corpus(*features, labels, attrs, name=name)
