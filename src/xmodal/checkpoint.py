"""Versioned binary checkpoints with exact array round-trips.

Layout: 8-byte magic, u32 container version, u32 header length, JSON header,
then the raw little-endian array payload. Arrays are stored byte-exact, so a
reloaded model reproduces its in-run numbers bitwise. Loading parses the
whole file before constructing anything, so a failed load leaves no partial
state.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .generation import FeatureScaler, GenHyperParams, VaeGanModel
from .projection import ProjHyperParams, ProjectionModel
from .util import stream

MAGIC = b"FLEXCKP1"
VERSION = 1

_DTYPES = {"float64": "<f8", "float32": "<f4"}


def save_checkpoint(path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    entries = []
    payload = bytearray()
    for name in sorted(arrays):
        arr = np.asarray(arrays[name])
        dtype_name = arr.dtype.name
        if dtype_name not in _DTYPES:
            raise CheckpointError(f"unsupported array dtype {dtype_name} for {name}")
        blob = arr.astype(_DTYPES[dtype_name]).tobytes(order="C")
        entries.append(
            {
                "name": name,
                "dtype": dtype_name,
                "shape": list(arr.shape),
                "offset": len(payload),
                "nbytes": len(blob),
            }
        )
        payload.extend(blob)
    header = json.dumps({"kind": kind, "meta": meta, "arrays": entries}).encode("utf8")

    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(header)))
        f.write(header)
        f.write(bytes(payload))
    os.replace(tmp, path)


def _require(mapping, keys, path, where: str) -> None:
    """Raise CheckpointError naming every key of `keys` that `mapping` lacks."""
    if not isinstance(mapping, dict):
        raise CheckpointError(f"{path}: checkpoint {where} is not a mapping")
    missing = [k for k in keys if k not in mapping]
    if missing:
        raise CheckpointError(
            f"{path}: checkpoint {where} lacks {', '.join(repr(k) for k in missing)}"
        )


def _hyperparams(cls, hp, path):
    """cls(**hp), with a CheckpointError naming any key cls does not know."""
    _require(hp, (), path, "meta.hp")
    unknown = sorted(set(hp) - {f.name for f in fields(cls)})
    if unknown:
        raise CheckpointError(
            f"{path}: checkpoint meta.hp holds unknown keys {', '.join(repr(k) for k in unknown)}"
        )
    return cls(**hp)


def load_checkpoint(path, expect_kind: str | None = None) -> tuple[dict, dict[str, np.ndarray]]:
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version, header_len = struct.unpack("<II", raw[8:16])
    if version != VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {version} is not readable by this build "
            f"(expected version {VERSION})"
        )
    try:
        header = json.loads(raw[16 : 16 + header_len].decode("utf8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt checkpoint header") from e
    _require(header, ("kind", "meta", "arrays"), path, "header")
    if expect_kind is not None and header["kind"] != expect_kind:
        raise CheckpointError(
            f"{path}: checkpoint holds a {header['kind']!r} model, expected {expect_kind!r}"
        )
    base = 16 + header_len
    arrays = {}
    for entry in header["arrays"]:
        _require(entry, ("name", "dtype", "shape", "offset", "nbytes"), path, "array entry")
        if entry["dtype"] not in _DTYPES:
            raise CheckpointError(f"{path}: unsupported array dtype {entry['dtype']!r}")
        start = base + entry["offset"]
        end = start + entry["nbytes"]
        if end > len(raw):
            raise CheckpointError(f"{path}: truncated checkpoint payload")
        arr = np.frombuffer(raw[start:end], dtype=_DTYPES[entry["dtype"]])
        arrays[entry["name"]] = arr.reshape(entry["shape"]).astype(entry["dtype"])
    return header["meta"], arrays


def _pack_params(model) -> tuple[dict, dict]:
    arrays = {}
    steps = {}
    for name, p in model.named_params():
        arrays[f"param/{name}"] = p.data
        arrays[f"adam_m/{name}"] = p.adam_m
        arrays[f"adam_v/{name}"] = p.adam_v
        steps[name] = p.step_count
    return arrays, steps


def _unpack_params(model, arrays: dict, steps: dict, path) -> None:
    names = [name for name, _ in model.named_params()]
    _require(steps, names, path, "step counts")
    _require(
        arrays,
        [f"{kind}/{name}" for name in names for kind in ("param", "adam_m", "adam_v")],
        path,
        "payload",
    )
    for name, p in model.named_params():
        p.data[...] = _shaped(arrays, f"param/{name}", p.data.shape, path)
        p.adam_m[...] = _shaped(arrays, f"adam_m/{name}", p.data.shape, path)
        p.adam_v[...] = _shaped(arrays, f"adam_v/{name}", p.data.shape, path)
        p.step_count = int(steps[name])


def _shaped(arrays: dict, key: str, shape, path) -> np.ndarray:
    """arrays[key], with a CheckpointError when its shape is not the model's.

    Without it a stored (1, k) array would broadcast silently into a (k, k)
    parameter.
    """
    _require(arrays, (key,), path, "payload")
    arr = arrays[key]
    if arr.shape != tuple(shape):
        raise CheckpointError(
            f"{path}: checkpoint array {key!r} has shape {arr.shape}, "
            f"the model expects {tuple(shape)}"
        )
    return arr


def save_vaegan(model: VaeGanModel, path) -> None:
    arrays, steps = _pack_params(model)
    if model.scaler.fitted:
        arrays["scaler/lo"] = model.scaler.lo
        arrays["scaler/span"] = model.scaler.span
    meta = {
        "d_feat": model.d_feat,
        "d_attr": model.d_attr,
        "d_z": model.d_z,
        "hp": vars(model.hp).copy(),
        "steps": steps,
        "rng_state": model.rng_state,
    }
    save_checkpoint(path, "vaegan", meta, arrays)


def load_vaegan(path) -> VaeGanModel:
    meta, arrays = load_checkpoint(path, expect_kind="vaegan")
    _require(meta, ("d_feat", "d_attr", "hp", "steps", "rng_state"), path, "meta")
    hp = _hyperparams(GenHyperParams, meta["hp"], path)
    model = VaeGanModel(meta["d_feat"], meta["d_attr"], hp, stream(0, "load"))
    _unpack_params(model, arrays, meta["steps"], path)
    if "scaler/lo" in arrays:
        lo = _shaped(arrays, "scaler/lo", (1, model.d_feat), path)
        span = _shaped(arrays, "scaler/span", (1, model.d_feat), path)
        model.scaler = FeatureScaler(lo=lo, span=span)
    model.rng_state = meta["rng_state"]
    return model


def save_projection(model: ProjectionModel, path) -> None:
    arrays, steps = _pack_params(model)
    meta = {
        "d": model.d,
        "classes": list(model.classes),
        "use_gate": model.use_gate,
        "hp": vars(model.hp).copy(),
        "steps": steps,
    }
    save_checkpoint(path, "projection", meta, arrays)


def load_projection(path) -> ProjectionModel:
    meta, arrays = load_checkpoint(path, expect_kind="projection")
    _require(meta, ("d", "classes", "use_gate", "hp", "steps"), path, "meta")
    hp = _hyperparams(ProjHyperParams, meta["hp"], path)
    model = ProjectionModel(
        d=meta["d"],
        classes=meta["classes"],
        hp=hp,
        rng=stream(0, "load"),
        use_gate=meta["use_gate"],
    )
    _unpack_params(model, arrays, meta["steps"], path)
    return model
