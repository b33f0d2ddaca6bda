"""Shared helpers: named deterministic RNG streams, config fingerprints, the
integer check of config fields, the training guards, unit-row normalisation
and the two-thread runner."""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import zlib
from dataclasses import fields

import numpy as np

from .errors import ConfigError, NonFiniteError


def stream(seed: int, *tags) -> np.random.Generator:
    """Independent generator for (seed, *tags).

    Same seed and tags always yield the same stream; different tags yield
    statistically independent streams, so e.g. the split shuffle never shares
    draws with weight initialization.
    """
    parts = [int(seed) & 0xFFFFFFFF]
    parts += [zlib.crc32(str(t).encode("utf8")) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(parts))


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def require_int_fields(obj) -> None:
    """Raise ConfigError naming the first field of dataclass `obj` annotated
    `int`, `int | None` or `list[int]` (read as the postponed annotation
    string) that holds anything else, such as a bool or the float 2.0."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type == "list[int]":
            if not isinstance(value, (list, tuple)) or not all(is_int(v) for v in value):
                raise ConfigError(f"{f.name} must be a list of integers, got {value!r}")
        elif f.type == "int" or (f.type == "int | None" and value is not None):
            if not is_int(value):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")


def require_finite(loss: float, phase: str, epoch: int, step: int) -> None:
    """Fail a diverged training step: raise NonFiniteError naming where its loss went NaN or Inf.

    `epoch` and `step` count from 1; `step` counts this phase's steps within
    the epoch.
    """
    if not math.isfinite(loss):
        raise NonFiniteError(f"{phase}: loss is {loss} at epoch {epoch}, step {step}")


def require_finite_params(model, where: str) -> None:
    """Fail a diverged model before it is saved: raise NonFiniteError naming
    its first parameter array that holds a NaN or Inf."""
    for name, p in model.named_params():
        if not np.isfinite(p.data).all():
            raise NonFiniteError(f"{where}: parameter {name} holds a non-finite value")


def unit_rows(X: np.ndarray) -> np.ndarray:
    """X with each row divided by its Euclidean norm; a zero row raises ValueError."""
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("cosine similarity is undefined for a zero vector")
    return X / norms


# the narrowest feature width at which a job runs its two modalities on two
# threads. On 2 cores a stage-1 worker thread pays for itself in time from
# about d=48, but it always costs memory (a thread, a malloc arena and a second
# step's temporaries); at d=128 it saves a third of a cell, at d=64 an eighth
CONCURRENT_MIN_WIDTH = 128


def _spare_core() -> bool:
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


def run_pair(first, second, width: int, stop: threading.Event | None = None):
    """(first(), second()): `second` runs on a worker thread while `first` runs
    on the calling thread, when a second core is usable and `width` is at
    least `CONCURRENT_MIN_WIDTH`; otherwise one after the other.

    Errors surface in that serial order: first's before second's. If the
    calling thread raises, `stop` (when given) is set, so a `second` that
    checks it returns early, and the worker is joined before the error
    propagates; it is never left running.
    """
    if not (_spare_core() and width >= CONCURRENT_MIN_WIDTH):
        return first(), second()
    out = {}

    def work():
        try:
            out["value"] = second()
        except BaseException as e:  # re-raised on the calling thread
            out["error"] = e

    worker = threading.Thread(target=work, name="xmodal-worker", daemon=True)
    worker.start()
    try:
        value = first()
        worker.join()
    except BaseException:
        if stop is not None:
            stop.set()
        worker.join()
        raise
    if "error" in out:
        raise out["error"]
    return value, out["value"]


def fingerprint(obj) -> str:
    """Short stable hash of a JSON-serializable object."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf8")
    return hashlib.sha256(blob).hexdigest()[:16]


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def read_json(path):
    with open(path, "r", encoding="utf8") as f:
        return json.load(f)
