"""Versioned binary checkpoints with exact array round-trips.

Layout: 8-byte magic, u32 container version, u32 header length, JSON header,
then the raw little-endian array payload, arrays in sorted-name order. A
model's checkpoint holds `model.arrays()`, byte-exact (its parameters and a
generator's two scaler arrays), and the meta its load reads, but no optimizer
state: a loaded model starts with zero Adam moments and step count 0. Every
kind has one save, `_save_model`, and one load, `_load_model`, which the
table `_KINDS` drives. A save streams each array from its own buffer. A load
checks the header against the file and the model, and the kind of each meta
value it reads (`stage1_key` and `config_fingerprint` a string or null),
then reads each array once into place: every entry, key and shape is checked
before the first payload byte is read, so a failed load leaves no partial
model. Entries it does not read, such as the Adam moments of older files,
are checked and skipped. The model a load reads into is built without
random draws: zero weights and the identity scaler.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from dataclasses import fields

import numpy as np

from .errors import CheckpointError, ConfigError
from .generation import GenHyperParams, VaeGanModel
from .projection import ProjHyperParams, ProjectionModel
from .util import is_int

MAGIC = b"FLEXCKP1"
VERSION = 1

_DTYPES = {"float64": "<f8", "float32": "<f4"}


def save_checkpoint(path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write `arrays` under a header built from their shapes and sizes.

    An array that is already little-endian and C-contiguous is written from
    its own buffer. A failed write removes `<path>.tmp` and leaves `path` as
    it was.
    """
    entries, blocks = [], []
    offset = 0
    for name in sorted(arrays):
        arr = np.asarray(arrays[name])
        dtype_name = arr.dtype.name
        if dtype_name not in _DTYPES:
            raise CheckpointError(f"unsupported array dtype {dtype_name} for {name}")
        entries.append(
            {
                "name": name,
                "dtype": dtype_name,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": arr.nbytes,
            }
        )
        blocks.append((arr, _DTYPES[dtype_name]))
        offset += arr.nbytes
    header = json.dumps({"kind": kind, "meta": meta, "arrays": entries}).encode("utf8")

    tmp = str(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<II", VERSION, len(header)))
            f.write(header)
            for arr, stored in blocks:
                f.write(np.ascontiguousarray(arr, dtype=stored))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _require(mapping, keys, path, where: str) -> None:
    """Raise CheckpointError naming every key of `keys` that `mapping` lacks."""
    if not isinstance(mapping, dict):
        raise CheckpointError(f"{path}: checkpoint {where} is not a mapping")
    missing = [k for k in keys if k not in mapping]
    if missing:
        raise CheckpointError(
            f"{path}: checkpoint {where} lacks {', '.join(repr(k) for k in missing)}"
        )


# what each meta value a model is built from must be: (description, check)
_POSITIVE = ("a positive integer", lambda v: is_int(v) and v > 0)
_META = {
    "d": _POSITIVE,
    "d_feat": _POSITIVE,
    "d_attr": _POSITIVE,
    "classes": ("a list of integers", lambda v: isinstance(v, list) and all(map(is_int, v))),
    "use_gate": ("a bool", lambda v: isinstance(v, bool)),
}


def _require_meta(meta, keys, path) -> None:
    """Raise CheckpointError naming every one of `keys` and "hp" that meta
    lacks, else the first of `keys` whose value is not of its `_META` kind."""
    _require(meta, (*keys, "hp"), path, "meta")
    for key in keys:
        what, ok = _META[key]
        if not ok(meta[key]):
            raise CheckpointError(f"{path}: checkpoint meta {key!r} is {meta[key]!r}; it must be {what}")


def _hyperparams(cls, hp, path, retired=()):
    """cls(**hp) less the `retired` keys, with a CheckpointError naming any
    other key cls does not know or any value it rejects."""
    _require(hp, (), path, "meta.hp")
    hp = {k: v for k, v in hp.items() if k not in retired}
    unknown = sorted(set(hp) - {f.name for f in fields(cls)})
    if unknown:
        raise CheckpointError(
            f"{path}: checkpoint meta.hp holds unknown keys {', '.join(repr(k) for k in unknown)}"
        )
    try:
        return cls(**hp)
    except ConfigError as e:
        raise CheckpointError(f"{path}: checkpoint meta.hp is out of range: {e}") from e


def _is_count(value) -> bool:
    return is_int(value) and value >= 0


def _check_entry(entry, base: int, size: int, path) -> None:
    """Raise CheckpointError unless `entry` describes an array inside the file."""
    _require(entry, ("name", "dtype", "shape", "offset", "nbytes"), path, "array entry")
    name, shape, offset, nbytes = entry["name"], entry["shape"], entry["offset"], entry["nbytes"]
    if not isinstance(name, str):
        raise CheckpointError(f"{path}: checkpoint array {name!r}: its name must be a string")
    if not (isinstance(entry["dtype"], str) and entry["dtype"] in _DTYPES):
        raise CheckpointError(f"{path}: checkpoint array {name!r} has unsupported dtype {entry['dtype']!r}")
    if not isinstance(shape, list) or not all(_is_count(n) for n in shape):
        raise CheckpointError(
            f"{path}: checkpoint array {name!r} has shape {shape!r}; "
            "dims must be non-negative integers"
        )
    if not _is_count(offset):
        raise CheckpointError(
            f"{path}: checkpoint array {name!r} has offset {offset!r}; "
            "it must be a non-negative integer"
        )
    need = math.prod(shape) * np.dtype(_DTYPES[entry["dtype"]]).itemsize
    if not _is_count(nbytes) or nbytes != need:
        raise CheckpointError(
            f"{path}: checkpoint array {name!r} holds {nbytes!r} bytes, "
            f"but {entry['dtype']} of shape {tuple(shape)} needs {need}"
        )
    if base + offset + nbytes > size:
        raise CheckpointError(
            f"{path}: checkpoint array {name!r} ends at byte {base + offset + nbytes} "
            f"of a {size}-byte file (truncated checkpoint payload)"
        )


def _read_header(f, path, expect_kind: str | None) -> tuple[dict, dict[str, dict], int]:
    """Parse and check everything before the payload.

    Returns (meta, array entries by name, payload start); every entry has
    been checked against the file size.
    """
    size = os.fstat(f.fileno()).st_size
    head = f.read(16)
    if len(head) < 16 or head[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version, header_len = struct.unpack("<II", head[8:])
    if version != VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {version} is not readable by this build "
            f"(expected version {VERSION})"
        )
    base = 16 + header_len
    if base > size:
        raise CheckpointError(f"{path}: corrupt checkpoint header (it runs past the file)")
    try:
        header = json.loads(f.read(header_len).decode("utf8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt checkpoint header") from e
    _require(header, ("kind", "meta", "arrays"), path, "header")
    if expect_kind is not None and header["kind"] != expect_kind:
        raise CheckpointError(
            f"{path}: checkpoint holds a {header['kind']!r} model, expected {expect_kind!r}"
        )
    if not isinstance(header["arrays"], list):
        raise CheckpointError(f"{path}: checkpoint header 'arrays' is not a list")
    entries = {}
    for entry in header["arrays"]:
        _check_entry(entry, base, size, path)
        entries[entry["name"]] = entry
    return header["meta"], entries, base


def _read_into(f, path, base: int, entries: dict, dests: dict[str, np.ndarray]) -> None:
    """Check every destination against its entry, then read each array into it.

    An array stored in another dtype than its destination goes through a
    temporary of that one array and is cast.
    """
    _require(entries, list(dests), path, "payload")
    for key, dest in dests.items():
        # without this a stored (1, k) array would broadcast into a (k, k) parameter
        stored = tuple(entries[key]["shape"])
        if stored != dest.shape:
            raise CheckpointError(
                f"{path}: checkpoint array {key!r} has shape {stored}, "
                f"the model expects {dest.shape}"
            )
    for key in sorted(dests, key=lambda k: entries[k]["offset"]):
        entry, dest = entries[key], dests[key]
        stored = np.dtype(_DTYPES[entry["dtype"]])
        buf = dest if dest.dtype == stored and dest.flags.c_contiguous else np.empty(dest.shape, stored)
        f.seek(base + entry["offset"])
        if f.readinto(buf.reshape(-1).view(np.uint8)) != entry["nbytes"]:
            raise CheckpointError(f"{path}: truncated checkpoint payload at array {key!r}")
        if buf is not dest:
            dest[...] = buf


def load_checkpoint(path, expect_kind: str | None = None) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        meta, entries, base = _read_header(f, path, expect_kind)
        arrays = {name: np.empty(e["shape"], e["dtype"]) for name, e in entries.items()}
        _read_into(f, path, base, entries, arrays)
    return meta, arrays


# per kind: the model class, the meta keys it is built from, its hp class,
# the hp keys earlier builds wrote and a load drops, the attribute after hp
_KINDS = {
    "vaegan": (VaeGanModel, ("d_feat", "d_attr"), GenHyperParams, (), "stage1_key"),
    "projection": (ProjectionModel, ("d", "classes", "use_gate"), ProjHyperParams,
                   ("contrast_includes_self",), "config_fingerprint"),
}


def _save_model(model, kind: str, path) -> None:
    """Save `model.arrays()` under a meta of its build keys, hp and attribute."""
    _, keys, _, _, attr = _KINDS[kind]
    meta = {**{k: getattr(model, k) for k in keys}, "hp": vars(model.hp), attr: getattr(model, attr)}
    save_checkpoint(path, kind, meta, model.arrays())


def _load_model(path, kind: str):
    """The `kind` model built from the checked meta, its arrays read in place;
    the attribute is a string or null, and None from a file without it."""
    cls, keys, hp_cls, retired, attr = _KINDS[kind]
    with open(path, "rb") as f:
        meta, entries, base = _read_header(f, path, kind)
        _require_meta(meta, keys, path)
        hp = _hyperparams(hp_cls, meta["hp"], path, retired)
        value = meta.get(attr)
        if not (value is None or isinstance(value, str)):
            raise CheckpointError(f"{path}: checkpoint meta {attr!r} is {value!r}; it must be a string or null")
        model = cls(**{k: meta[k] for k in keys}, hp=hp, rng=None)
        _read_into(f, path, base, entries, model.arrays())
    setattr(model, attr, value)
    return model


def save_vaegan(model: VaeGanModel, path) -> None:
    _save_model(model, "vaegan", path)


def load_vaegan(path) -> VaeGanModel:
    return _load_model(path, "vaegan")


def save_projection(model: ProjectionModel, path) -> None:
    _save_model(model, "projection", path)


def load_projection(path) -> ProjectionModel:
    return _load_model(path, "projection")
