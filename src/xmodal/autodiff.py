"""Parameters and layers over dense 2-D float arrays, and a reverse-mode
autodiff engine that the program no longer calls.

The models use `Parameter` (a value with its gradient array), `ParamGroup`
(one network's four flat buffers: the values and gradients, which a
Parameter's arrays are views into, and the Adam moments), `Linear`, `Module`
(whose `arrays()` a checkpoint save, its load and the finite check walk) and
the array helpers `as_matrix`, `affine`, `add_affine_grads`, `relu_inplace`,
`slope_mask`, `slope_masks`, `leaky_relu_inplace`, `logistic` and
`xavier_uniform`; `generation` and `projection` compute every gradient in
closed form from them.

The engine (`Tensor`, `Tape`, the ops, `backward`, `grad`, `no_grad`)
remains only because the benchmark's tracer, `bench/tracer.py`, patches it
by name; `tests/test_autodiff.py` checks it. Everything is a (rows, cols)
matrix; scalars are 1x1. Ops that touch a grad-requiring input are recorded
on a thread-local tape in application order. `backward` replays the tape in
exact reverse order and accumulates gradients into Parameters, then clears
the tape. Every VJP is a plain numpy function from an output cotangent array
to an input cotangent array, so the reverse pass builds no graph.

Networks derive from `Module`, which owns their parameter lists: a model's
`named_params()` names each array `<part>.<layer>.W` or `<part>.<layer>.b`,
sub-Modules and `Linear` layers alike in the order they were set, the order
in which `lay_out` draws the weights. That name after `param/` is the array's
key in `arrays()`, to which a model may add others (a generator's scaler).

A model's arrays are of the dtype its width gives (`util.model_dtype`):
float32 from 512 features on, float64 below. The engine's arrays are float64.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import ConfigError, ContractError, ShapeError


def default_dtype():
    """The dtype of the engine's arrays: float64. A model's dtype follows its
    width (`util.model_dtype`)."""
    return np.float64


def as_matrix(data, dtype=np.float64) -> np.ndarray:
    """Coerce scalar / 1-D / 2-D input to a 2-D array of `dtype`, float64 by default."""
    arr = np.asarray(data, dtype=dtype)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"expected at most 2 dimensions, got shape {arr.shape}")
    return arr


class Tape:
    """Ordered record of the grad-requiring ops of a forward pass."""

    def __init__(self):
        self.nodes: list[Tensor] = []
        self.generation = 0

    def append(self, node: "Tensor") -> None:
        node._tape_ref = (self.generation, len(self.nodes))
        self.nodes.append(node)

    def clear(self) -> None:
        self.nodes = []
        self.generation += 1

    def __len__(self) -> int:
        return len(self.nodes)


class _ThreadState(threading.local):
    def __init__(self):
        self.tape = Tape()
        self.grad_enabled = True


_STATE = _ThreadState()


def active_tape() -> Tape:
    return _STATE.tape


class no_grad:
    """Context manager: ops inside produce plain constants, nothing is taped."""

    def __enter__(self):
        self._prev = _STATE.grad_enabled
        _STATE.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _STATE.grad_enabled = self._prev
        return False


class Tensor:
    """A 2-D array node, optionally carrying graph edges for backprop."""

    __slots__ = ("data", "parents", "vjps", "requires_grad", "_tape_ref")

    def __init__(self, data, requires_grad: bool = False):
        self.data = as_matrix(data)
        self.parents: tuple = ()
        self.vjps: tuple = ()
        self.requires_grad = requires_grad
        self._tape_ref = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


class Parameter(Tensor):
    """Trainable leaf: value `data` and gradient `grad`. In a network both are
    views into its `ParamGroup`, which also holds the Adam moments, and
    `unbound` until the network is laid out; they pickle with the group."""

    __slots__ = ("grad",)

    def __init__(self, value):
        super().__init__(value, requires_grad=True)
        self.grad = np.zeros(self.data.shape)

    @classmethod
    def unbound(cls, shape) -> "Parameter":
        """A Parameter that holds no memory: its arrays read as zeros, read-only."""
        p = cls.__new__(cls)
        Tensor.__init__(p, np.broadcast_to(0.0, shape), requires_grad=True)
        p.grad = p.data
        return p

    def __getstate__(self):
        return None, {name: getattr(self, name) for name in Tensor.__slots__[1:]}


class ParamGroup(list):
    """One network's Parameters over four flat buffers of `dtype`: `data` and
    `grad` hold the members' arrays of those names as views, in order, from
    zero, and `adam_m` and `adam_v` hold the Adam moments in the same layout;
    `step_count` counts its Adam steps. np.zeros pages cost no RSS until
    written: a model that is only loaded and run pays nothing for its
    gradients and moments. Two networks that never hold a gradient at the
    same time may lay their gradients over one buffer (`bind_grad`), as a
    training stage-1 generator does: at d=1024 its float32 buffers take 138
    MiB, not 154. A pickle holds each buffer once, a bound gradient as a
    buffer of its own."""

    def __init__(self, params, dtype=np.float64):
        super().__init__(params)
        self.shapes = [p.data.shape for p in self]
        size = sum(map(math.prod, self.shapes))
        self.data, self.grad, self.adam_m, self.adam_v = (np.zeros(size, dtype) for _ in range(4))
        self.step_count = 0
        self.__setstate__(vars(self))

    def bind_grad(self, buf: np.ndarray) -> None:
        """Lay the gradient, and each member's .grad view, over buf's first
        elements. buf must be a zeroed flat buffer of the group's dtype, at
        least as long."""
        self.grad = buf[: self.data.size]
        self.__setstate__(vars(self))

    def __setstate__(self, state):
        vars(self).update(state)
        start = 0
        for p, shape in zip(self, self.shapes):
            end = start + math.prod(shape)
            p.data, p.grad = (buf[start:end].reshape(shape) for buf in (self.data, self.grad))
            start = end


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: tuple, vjps: tuple) -> Tensor:
    if _STATE.grad_enabled and any(p.requires_grad for p in parents):
        out = Tensor(data)
        out.parents = parents
        out.vjps = vjps
        out.requires_grad = True
        _STATE.tape.append(out)
        return out
    return Tensor(data)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a cotangent back down to the shape of a broadcast operand."""
    if g.shape == shape:
        return g
    if shape[0] == 1 and g.shape[0] != 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        g = g.sum(axis=1, keepdims=True)
    return g


def _broadcast_to(g: np.ndarray, shape) -> np.ndarray:
    return g if g.shape == shape else np.broadcast_to(g, shape)


# ---------------------------------------------------------------------------
# arithmetic primitives


def add(a, b):
    a, b = _coerce(a), _coerce(b)
    out = a.data + b.data
    return _node(
        out,
        (a, b),
        (
            lambda g: _unbroadcast(g, a.data.shape),
            lambda g: _unbroadcast(g, b.data.shape),
        ),
    )


def sub(a, b):
    a, b = _coerce(a), _coerce(b)
    out = a.data - b.data
    return _node(
        out,
        (a, b),
        (
            lambda g: _unbroadcast(g, a.data.shape),
            lambda g: _unbroadcast(-g, b.data.shape),
        ),
    )


def neg(a):
    a = _coerce(a)
    return _node(-a.data, (a,), (lambda g: -g,))


def mul(a, b):
    a, b = _coerce(a), _coerce(b)
    out = a.data * b.data
    return _node(
        out,
        (a, b),
        (
            lambda g: _unbroadcast(g * b.data, a.data.shape),
            lambda g: _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def div(a, b):
    a, b = _coerce(a), _coerce(b)
    out = a.data / b.data
    return _node(
        out,
        (a, b),
        (
            lambda g: _unbroadcast(g / b.data, a.data.shape),
            lambda g: _unbroadcast(-(g * out / b.data), b.data.shape),
        ),
    )


def matmul(a, b):
    a, b = _coerce(a), _coerce(b)
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul mismatch: {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data
    return _node(
        out,
        (a, b),
        (
            lambda g: g @ b.data.T,
            lambda g: a.data.T @ g,
        ),
    )


def transpose(a):
    a = _coerce(a)
    return _node(a.data.T.copy(), (a,), (lambda g: g.T,))


def sum_all(a):
    a = _coerce(a)
    out = np.array([[a.data.sum()]], dtype=a.data.dtype)
    return _node(out, (a,), (lambda g: _broadcast_to(g, a.data.shape),))


def sum_axis(a, axis: int):
    a = _coerce(a)
    out = a.data.sum(axis=axis, keepdims=True)
    return _node(out, (a,), (lambda g: _broadcast_to(g, a.data.shape),))


def mean_all(a):
    a = _coerce(a)
    return mul(sum_all(a), 1.0 / a.data.size)


def pow_const(a, p):
    a = _coerce(a)
    p = float(p)
    out = a.data**p
    return _node(out, (a,), (lambda g: g * (a.data ** (p - 1.0) * p),))


def square(a):
    a = _coerce(a)
    return _node(a.data * a.data, (a,), (lambda g: g * (a.data * 2.0),))


def sqrt(a):
    a = _coerce(a)
    out = np.sqrt(a.data)
    return _node(out, (a,), (lambda g: g / (out * 2.0),))


def exp(a):
    a = _coerce(a)
    out = np.exp(a.data)
    return _node(out, (a,), (lambda g: g * out,))


def log(a):
    a = _coerce(a)
    return _node(np.log(a.data), (a,), (lambda g: g / a.data,))


# ---------------------------------------------------------------------------
# activations


def relu(a):
    a = _coerce(a)
    mask = (a.data > 0).astype(a.data.dtype)
    return _node(a.data * mask, (a,), (lambda g: g * mask,))


def slope_mask(pre: np.ndarray, slope: float, out: np.ndarray | None = None) -> np.ndarray:
    """LeakyReLU's derivative at `pre`: 1 where pre > 0, else `slope` (NaN
    included), formed in `out` when given, else in a new array of pre's
    dtype. The slope lies in (0, 1), so it is max(pre > 0, slope)."""
    if out is None:
        out = np.empty(pre.shape, pre.dtype)
    # a bool array cast into out: faster than a comparison into a float out
    np.copyto(out, pre > 0)
    return np.maximum(out, slope, out=out)


def leaky_relu(a, slope: float = 0.2):
    if not 0.0 < slope < 1.0:
        raise ConfigError(f"leaky_relu slope must be in (0, 1), got {slope}")
    a = _coerce(a)
    mask = slope_mask(a.data, slope)
    return _node(a.data * mask, (a,), (lambda g: g * mask,))


def logistic(d: np.ndarray, out: np.ndarray | None = None,
             scratch: np.ndarray | None = None) -> np.ndarray:
    """Logistic function without overflow: e = exp(-|d|) lies in [0, 1].

    Where d >= 0, e is exp(-d) and 1 / (1 + e) is the usual form; elsewhere e
    is exp(d) and e / (1 + e) is the same value without exp(-d) overflowing.
    The numerator and the result are formed in `out`, which may be d itself,
    and the denominator 1 + e in `scratch` when given (a spent buffer of d's
    shape): max(e, d >= 0) is 1 where d >= 0 and e elsewhere (NaN where d is
    NaN).
    """
    pos = d >= 0
    e = np.exp(np.negative(np.abs(d, out=out), out=out), out=out)
    den = np.add(1.0, e, out=scratch)
    np.maximum(e, pos, out=e)
    return np.divide(e, den, out=e)


def sigmoid(a):
    a = _coerce(a)
    out = logistic(a.data)
    return _node(out, (a,), (lambda g: g * out * (1.0 - out),))


def softmax_rows(a):
    a = _coerce(a)
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)
    return _node(
        out,
        (a,),
        (lambda g: out * (g - (g * out).sum(axis=1, keepdims=True)),),
    )


def clip(a, lo: float, hi: float):
    a = _coerce(a)
    mask = ((a.data >= lo) & (a.data <= hi)).astype(a.data.dtype)
    return _node(np.clip(a.data, lo, hi), (a,), (lambda g: g * mask,))


# ---------------------------------------------------------------------------
# structural primitives


def concat_cols(a, b):
    a, b = _coerce(a), _coerce(b)
    if a.data.shape[0] != b.data.shape[0]:
        raise ShapeError(f"concat_cols row mismatch: {a.data.shape} vs {b.data.shape}")
    w = a.data.shape[1]
    out = np.concatenate([a.data, b.data], axis=1)
    return _node(out, (a, b), (lambda g: g[:, :w], lambda g: g[:, w:]))


def slice_cols(a, j0: int, j1: int):
    a = _coerce(a)
    total = a.data.shape[1]
    out = a.data[:, j0:j1].copy()
    return _node(out, (a,), (lambda g: _embed_cols(g, j0, total),))


def _embed_cols(g: np.ndarray, j0: int, total: int) -> np.ndarray:
    """VJP of slice_cols: place g at columns j0.. of a zero matrix `total` wide."""
    out = np.zeros((g.shape[0], total), dtype=g.dtype)
    out[:, j0 : j0 + g.shape[1]] = g
    return out


def concat_rows(a, b):
    a, b = _coerce(a), _coerce(b)
    if a.data.shape[1] != b.data.shape[1]:
        raise ShapeError(f"concat_rows col mismatch: {a.data.shape} vs {b.data.shape}")
    h = a.data.shape[0]
    out = np.concatenate([a.data, b.data], axis=0)
    return _node(out, (a, b), (lambda g: g[:h], lambda g: g[h:]))


def slice_rows(a, i0: int, i1: int):
    a = _coerce(a)
    total = a.data.shape[0]
    out = a.data[i0:i1, :].copy()
    return _node(out, (a,), (lambda g: _embed_rows(g, i0, total),))


def _embed_rows(g: np.ndarray, i0: int, total: int) -> np.ndarray:
    """VJP of slice_rows: place g at rows i0.. of a zero matrix `total` tall."""
    out = np.zeros((total, g.shape[1]), dtype=g.dtype)
    out[i0 : i0 + g.shape[0], :] = g
    return out


def pick_cols(a, idx):
    """Per-row gather: out[i, 0] = a[i, idx[i]]."""
    a = _coerce(a)
    idx = np.asarray(idx, dtype=np.int64).reshape(-1)
    n, c = a.data.shape
    if idx.shape[0] != n:
        raise ShapeError(f"pick_cols: {idx.shape[0]} indices for {n} rows")
    if idx.size and ((idx < 0).any() or (idx >= c).any()):
        raise ShapeError(f"pick_cols: column index out of range [0, {c})")
    out = a.data[np.arange(n), idx].reshape(n, 1)
    return _node(out, (a,), (lambda g: _scatter_cols(g, idx, c),))


def _scatter_cols(g: np.ndarray, idx, total: int) -> np.ndarray:
    """VJP of pick_cols: g[i, 0] placed at column idx[i] of row i."""
    n = g.shape[0]
    out = np.zeros((n, total), dtype=g.dtype)
    out[np.arange(n), idx] = g[:, 0]
    return out


# ---------------------------------------------------------------------------
# affine layer


def linear(x, W, b):
    """Affine map x @ W + b with the bias row broadcast over rows; one tape node."""
    x, W, b = _coerce(x), _coerce(W), _coerce(b)
    if x.data.shape[1] != W.data.shape[0]:
        raise ShapeError(
            f"linear: input {x.data.shape} does not conform with weight {W.data.shape}"
        )
    if b.data.shape != (1, W.data.shape[1]):
        raise ShapeError(
            f"linear: bias {b.data.shape} does not match weight {W.data.shape}"
        )
    return _node(
        x.data @ W.data + b.data,
        (x, W, b),
        (
            lambda g: g @ W.data.T,
            lambda g: x.data.T @ g,
            lambda g: g.sum(axis=0, keepdims=True),
        ),
    )


def affine(x: np.ndarray, layer: "Linear", out: np.ndarray | None = None) -> np.ndarray:
    """The layer's affine map x @ W + b: x @ W (into out, if given), then b added in place."""
    out = np.matmul(x, layer.W.data, out=out)
    out += layer.b.data
    return out


def add_affine_grads(layer: "Linear", x: np.ndarray, g: np.ndarray) -> None:
    """Add the affine map's parameter gradients at input x and output
    cotangent g, xᵀ g and Σ_rows g, to the layer's .grad."""
    layer.W.grad += x.T @ g
    layer.b.grad += g.sum(axis=0, keepdims=True)


def relu_inplace(x: np.ndarray) -> np.ndarray:
    """ReLU: x times its (x > 0) mask, formed in x."""
    return np.multiply(x, x > 0, out=x)


# elements per pass of a blocked walk (a draw, an Adam step, a slope mask):
# a block stays in cache
BLOCK = 32768


def slope_masks(sign: np.ndarray, slope: float, dtype=np.float64):
    """`slope_mask` over the rows of a 2-D array, one chunk at a time.

    Yields (rows, mask) per chunk of at most BLOCK elements (one row when a
    row is wider), each mask formed in one scratch block of `dtype` that the
    next chunk overwrites, so the caller may overwrite sign[rows] once it
    holds the mask. `sign` may be the pre-activation, the LeakyReLU's
    activation or the bool (pre > 0): all three are > 0 at the same places,
    NaN at none of them.
    """
    n, width = sign.shape
    step = BLOCK // width or 1
    scratch = np.empty((min(step, n), width), dtype)
    for start in range(0, n, step):
        chunk = sign[start : start + step]
        yield slice(start, start + step), slope_mask(chunk, slope, scratch[: len(chunk)])


def leaky_relu_inplace(x: np.ndarray, slope: float) -> np.ndarray:
    """LeakyReLU: x times its slope mask, formed in x one chunk at a time."""
    for rows, mask in slope_masks(x, slope, x.dtype):
        x[rows] *= mask
    return x


def xavier_uniform(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill out (d_in, d_out) with rng.uniform(-l, l)'s float64 bits, l =
    √(6 / (d_in + d_out)), each block cast once into a float32 out: the
    stream is the same at either dtype."""
    limit = float(np.sqrt(6.0 / sum(out.shape)))
    flat = out.reshape(-1)
    scratch = None if out.dtype == np.float64 else np.empty(min(flat.size, BLOCK))
    for start in range(0, flat.size, BLOCK):
        dest = flat[start : start + BLOCK]
        block = rng.random(out=dest if scratch is None else scratch[: dest.size])
        block *= limit - -limit
        block += -limit
        if block is not dest:
            dest[...] = block


class Linear:
    """Trainable affine layer: W (d_in, d_out) and b (1, d_out), unbound until
    its network is laid out (`Module.lay_out`), which draws W into its view."""

    def __init__(self, d_in: int, d_out: int):
        self.W = Parameter.unbound((d_in, d_out))
        self.b = Parameter.unbound((1, d_out))


class Module:
    """Owner of a network's parameters, found by one walk of its attributes.

    Sub-Modules and `Linear` layers come in the order they were set, a
    sub-Module's names prefixed with the attribute's and a layer giving
    `<layer>.W` and `<layer>.b`. Other attributes add nothing. A model lays
    out its parameters when it is built (`lay_out`): its `groups` hold one
    `ParamGroup` per network that Adam updates as a whole.
    """

    def lay_out(self, rng: np.random.Generator | None, *networks: tuple["Module", ...],
                dtype=np.float64) -> None:
        """Set `groups`, one ParamGroup of `dtype` per network (a tuple of
        parts), then draw each W into its view from rng, layers in the order
        set. With rng None the weights stay zeros: a model to load a
        checkpoint into."""
        self.groups = tuple(ParamGroup([p for part in net for p in part.params], dtype) for net in networks)
        if rng is not None:
            for _, layer in self._layers():
                xavier_uniform(rng, layer.W.data)

    def _layers(self, prefix: str = ""):
        """(name, layer) of every Linear, in the order the attributes were set."""
        for name, part in vars(self).items():
            if isinstance(part, Module):
                yield from part._layers(f"{prefix}{name}.")
            elif isinstance(part, Linear):
                yield prefix + name, part

    def named_params(self) -> list[tuple[str, Parameter]]:
        return [(f"{name}.{field}", getattr(layer, field))
                for name, layer in self._layers() for field in ("W", "b")]

    @property
    def params(self) -> list[Parameter]:
        return [p for _, p in self.named_params()]

    def arrays(self) -> dict[str, np.ndarray]:
        """Every array a checkpoint holds by its key: each parameter's value
        as `param/<name>`. A load reads into them in place."""
        return {f"param/{name}": p.data for name, p in self.named_params()}


# ---------------------------------------------------------------------------
# reverse pass


def _replay(output: Tensor, capture: frozenset):
    """Walk the tape in reverse from `output`, accumulating cotangent arrays.

    Returns (leaves, captured): `leaves` pairs every leaf tensor reached with
    its cotangent; `captured` maps id(t) -> cotangent for requested interior
    or leaf tensors.
    """
    tape = _STATE.tape
    cot: dict[int, np.ndarray] = {id(output): np.ones((1, 1), dtype=output.data.dtype)}
    holders: dict[int, Tensor] = {id(output): output}
    captured: dict[int, np.ndarray] = {}
    ref = output._tape_ref
    if ref is not None:
        gen, idx = ref
        if gen != tape.generation:
            raise ContractError(
                "output was recorded on a tape that has been cleared; "
                "re-run the forward pass"
            )
        for node in reversed(tape.nodes[: idx + 1]):
            nid = id(node)
            if nid not in cot:
                continue
            g = cot.pop(nid)
            holders.pop(nid)
            if nid in capture:
                captured[nid] = g
            for p, vjp in zip(node.parents, node.vjps):
                if not p.requires_grad:
                    continue
                contrib = vjp(g)
                pid = id(p)
                if pid in cot:
                    # never in place: a VJP may hand back its input or a view of it
                    cot[pid] = cot[pid] + contrib
                else:
                    cot[pid] = contrib
                    holders[pid] = p
    leaves = [(holders[tid], g) for tid, g in cot.items()]
    for tid, g in cot.items():
        if tid in capture:
            captured[tid] = g
    return leaves, captured


def backward(loss) -> None:
    """Accumulate d(loss)/dθ into every reachable Parameter, then clear the tape."""
    loss = _coerce(loss)
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    leaves, _ = _replay(loss, frozenset())
    for t, g in leaves:
        if isinstance(t, Parameter):
            t.grad += g
    _STATE.tape.clear()


def grad(output, wrt) -> list[Tensor]:
    """Cotangents of a scalar `output` for each tensor in `wrt`, as constants.

    Leaves the tape intact and touches no Parameter.grad.
    """
    output = _coerce(output)
    if output.data.size != 1:
        raise ContractError(f"grad expects a scalar output, got shape {output.data.shape}")
    wrt = list(wrt)
    _, captured = _replay(output, frozenset(id(w) for w in wrt))
    return [Tensor(captured.get(id(w), np.zeros_like(w.data))) for w in wrt]
