"""Shared helpers: named deterministic RNG streams, config fingerprints, the
type check of config fields, the training guards, row blocks and unit
rows, the numeric environment and the runners that put two jobs on two cores."""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import signal
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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


# what a config field of each annotation, read as the postponed annotation
# string, must hold: (description, check)
_FIELD_TYPES = {
    "int": ("an integer", is_int),
    "int | None": ("an integer", lambda v: v is None or is_int(v)),
    "list[int]": ("a list of integers", lambda v: isinstance(v, (list, tuple)) and all(map(is_int, v))),
    "float": ("a finite number", _is_number),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str)),
}


def require_field_types(obj) -> None:
    """Raise ConfigError naming the first field of dataclass `obj` whose value
    its `_FIELD_TYPES` annotation rules out, such as a bool or the float 2.0
    in an integer field; a field of another annotation is not checked."""
    for f in fields(obj):
        what, ok = _FIELD_TYPES.get(f.type, (None, None))
        value = getattr(obj, f.name)
        if ok is not None and not ok(value):
            raise ConfigError(f"{f.name} must be {what}, got {value!r}")


def require_finite(loss: float, phase: str, epoch: int, step: int) -> None:
    """Fail a diverged training step: raise NonFiniteError naming where its loss went NaN or Inf.

    `epoch` and `step` count from 1; `step` counts this phase's steps within
    the epoch.
    """
    if not math.isfinite(loss):
        raise NonFiniteError(f"{phase}: loss is {loss} at epoch {epoch}, step {step}")


def require_finite_params(model, where: str) -> None:
    """Fail a diverged model before it is saved: raise NonFiniteError naming,
    by its checkpoint key, the first of `model.arrays()` (its parameters, then
    a generator's scaler) that holds a NaN or Inf."""
    for key, arr in model.arrays().items():
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"{where}: {key} holds a non-finite value")


BLOCK = 256  # rows the evaluation forward, mAP ranking and synthetic corpus take at once


def row_blocks(n: int) -> list[slice]:
    """The slices of n rows into near-equal blocks of at most BLOCK rows, the
    first ones a row longer: np.array_split's, one empty block when n is 0.
    Near-equal, never a few rows of a longer set, which a BLAS may give to a
    kernel that rounds differently (gemv, a small-matrix kernel)."""
    k = -(-n // BLOCK) or 1
    size, extra = divmod(n, k)
    starts = [i * size + min(i, extra) for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(starts, starts[1:])]


def unit_rows(X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """X with each row divided by its Euclidean norm, formed in `out` when
    given (which may be X itself); a zero row raises ValueError first."""
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("cosine similarity is undefined for a zero vector")
    return np.divide(X, norms, out=out)


# the narrowest feature width at which `run_pair` runs its two jobs on two
# threads. Below it the interpreter holds the GIL for most of a step, so a
# worker thread saves little (an eighth of a cell at d=64); a `child` job runs
# in a forked child instead, which sends back the trained model and takes a
# third off a desk cell (d=64). From this width a thread wins: it saves a
# third of a cell at d=128, while forking a process of a few hundred MB costs
# more in copy-on-write page faults than it gains (a d=512 cell took 2.80 s
# forked against 2.59 s on a thread). A thread costs memory too: its malloc
# arena and a second step's temporaries
CONCURRENT_MIN_WIDTH = 128


def _spare_core() -> bool:
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


def _thread_count() -> int:
    """Threads in this process: every OS thread where /proc lists them, a BLAS
    pool's included, else the Python threads."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _blas_threads() -> str | None:
    # OpenBLAS reads its own variable, or OpenMP's when that is unset
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def numeric_environment() -> dict:
    """numpy's version, BLAS build and BLAS threads: what a bitwise rerun needs."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # a numpy without config dicts
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "blas_threads": _blas_threads()}


def _can_fork() -> bool:
    # a fork copies only the calling thread: another thread's locks would stay
    # held in the child. A BLAS pool is no such thread for long: OpenBLAS stops
    # it before a fork and starts one again in each process at its next large
    # call, so only the environment tells whether it will run. Two pools
    # oversubscribe the cores: a 70-epoch stage 1 at d=64 took 32 s forked
    # against 7.6 s serially under a two-thread OpenBLAS, 3.9 s forked under one
    return hasattr(os, "fork") and _blas_threads() == "1" and _thread_count() == 1


def run_pair(first, second, width: int, stop: threading.Event | None = None,
             child: str | None = None):
    """(first(), second()), run at the same time when a second core is usable.

    When `child` names `second`, `second` runs in a forked child (see
    `fork_pair`): the caller decides, by one `forks(width)` call, and passes
    `child` only when it held. Otherwise, from `CONCURRENT_MIN_WIDTH` on,
    `second` runs on a worker thread (see `thread_pair`); below it the two
    run one after the other. Errors surface in that serial order on every
    path: first's before second's.
    """
    if child is not None:
        return fork_pair(first, second, child)
    if _spare_core() and width >= CONCURRENT_MIN_WIDTH:
        return thread_pair(first, second, stop)
    return first(), second()


def forks(width: int) -> bool:
    """Whether a job at `width` may run in `run_pair`'s forked `child`: below
    `CONCURRENT_MIN_WIDTH`, with a second core, when `_can_fork` holds."""
    return width < CONCURRENT_MIN_WIDTH and _spare_core() and _can_fork()


def thread_pair(first, second, stop: threading.Event | None = None):
    """(first(), second()): `second` on a worker thread, `first` on the calling one.

    If the calling thread raises, `stop` (when given) is set, so a `second`
    that checks it returns early, and the worker is joined before the error
    propagates; it is never left running.
    """
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


def fork_pair(first, second, name: str):
    """(first(), second()): `second` in a forked child, `first` in this process.

    The child pickles second's value, or the error it raised, into a pipe and
    leaves with `os._exit`; here the value is returned as unpickled, or the
    error raised. One that does not pickle in the child, or does not unpickle
    here, becomes a RuntimeError naming `name` and the original error. If
    `first` raises, the child is killed and reaped before the error
    propagates. A child that dies without a result raises RuntimeError naming
    `name` and how it ended; it is always reaped.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            try:
                result = ("value", second())
            except BaseException as e:  # re-raised in the parent
                result = ("error", e)
            try:
                blob = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
            except Exception as e:  # PicklingError, TypeError or AttributeError, by the object
                cause = result[1] if result[0] == "error" else e
                failure = f"the child's {result[0]} does not pickle: {type(cause).__name__}: {cause}"
                blob = pickle.dumps(("error", RuntimeError(f"{name}: {failure}")))
            with open(w, "wb") as pipe:
                pipe.write(blob)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    with open(r, "rb") as pipe:
        try:
            value = first()
            blob = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code or not blob:
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise RuntimeError(f"{name}: the child process sent no result ({how})")
    try:
        kind, payload = pickle.loads(blob)
    except Exception as e:  # e.g. an error whose __init__ the pickled args do not fit
        raise RuntimeError(
            f"{name}: the child's result does not unpickle: {type(e).__name__}: {e}"
        ) from e
    if kind == "error":
        raise payload
    return value, payload


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
