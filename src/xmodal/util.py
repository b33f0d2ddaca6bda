"""Shared helpers: named deterministic RNG streams, config fingerprints and the training guard."""

from __future__ import annotations

import hashlib
import json
import math
import zlib

import numpy as np

from .errors import NonFiniteError


def stream(seed: int, *tags) -> np.random.Generator:
    """Independent generator for (seed, *tags).

    Same seed and tags always yield the same stream; different tags yield
    statistically independent streams, so e.g. the split shuffle never shares
    draws with weight initialization.
    """
    parts = [int(seed) & 0xFFFFFFFF]
    parts += [zlib.crc32(str(t).encode("utf8")) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(parts))


def require_finite(loss: float, phase: str, epoch: int, step: int) -> None:
    """Fail a diverged training step: raise NonFiniteError naming where its loss went NaN or Inf.

    `epoch` and `step` count from 1; `step` counts this phase's steps within
    the epoch.
    """
    if not math.isfinite(loss):
        raise NonFiniteError(f"{phase}: loss is {loss} at epoch {epoch}, step {step}")


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
