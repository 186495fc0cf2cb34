"""Dense float64 tensors with tape-based reverse-mode differentiation.

A forward pass runs inside a ``with Tape() as tape:`` block; every operation
whose inputs require gradients appends a record to the tape.  ``backward``
replays the records in exact reverse execution order, accumulating gradients
additively, so a tensor used twice receives the sum of both contributions.
It pops each record as it replays it: a record's closure, and the
activations that closure saved, are freed as soon as its gradients are out,
so a training step never holds much more than its forward did.  Outside any
tape the same ops run as plain NumPy, which is how inference and
finite-difference probes stay cheap.

Every gradient, a parameter's too, is ``None`` until a record reaches it and
then the sum of what the records put there, the first bound uncopied; a
parameter no record reached keeps ``None``, which clipping skips and the
optimizers and ``grad_check`` read as zeros.  Gradient arrays are only ever
rebound, never mutated in place, so the views a backward hands out stay safe.

Parameter arrays are read-only: ``ParamStore.writable()`` is the one way to
write them in place, and each time it closes it bumps the store's
``version``.  A layout a forward builds from parameters alone (a BiRNN's
stacked weights, an FM kernel's tables) is therefore built once per version
(``ParamStore.prepared``), and a stray in-place write raises instead of
leaving such a layout stale.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, ContractError

NEG_INF = -1e30  # finite stand-in for -inf; keeps every forward value in range

_TAPES: list["Tape"] = []


class Tensor:
    """N-dimensional float64 array plus a gradient slot."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Execution record of one forward pass, replayed in reverse by backward()."""

    def __init__(self):
        self._records: list[tuple[Tensor, object]] = []
        self._replayed = False

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPES.pop()

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss) = 1 and propagate through the tape in reverse,
        once: a second pass would add every gradient again, and the fused
        sweeps' backward overwrites the activations it reads.  Each record is
        popped before it runs, so the tape ends empty and what a record saved
        dies with it."""
        if loss.data.ndim != 0:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if self._replayed:
            raise ContractError("backward on a tape that was already replayed; record a new forward")
        self._replayed = True
        loss.grad = np.ones((), dtype=np.float64)
        records = self._records
        while records:
            out, fn = records.pop()
            if out.grad is not None:
                fn()


def backward(tape: Tape, loss: Tensor) -> None:
    tape.backward(loss)


def _ensure(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _acc(t: Tensor, g: np.ndarray) -> None:
    # the first contribution is bound, not copied; later ones rebind the sum
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _record(parents: tuple, out: Tensor, fn) -> None:
    if not _TAPES:
        return
    if not any(p.requires_grad for p in parents):
        return
    out.requires_grad = True
    _TAPES[-1]._records.append((out, fn))


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape``, undoing NumPy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _check_axis(t: Tensor, axis: int) -> int:
    if not -t.ndim <= axis < t.ndim:
        raise ContractError(f"axis {axis} out of range for shape {t.shape}")
    return axis % t.ndim


# ---------------------------------------------------------------------------
# elementwise and arithmetic ops


def add(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    out = Tensor(a.data + b.data)

    def bw():
        g = out.grad
        _acc(a, _unbroadcast(g, a.data.shape))
        _acc(b, _unbroadcast(g, b.data.shape))

    _record((a, b), out, bw)
    return out


def sub(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    out = Tensor(a.data - b.data)

    def bw():
        g = out.grad
        _acc(a, _unbroadcast(g, a.data.shape))
        _acc(b, _unbroadcast(-g, b.data.shape))

    _record((a, b), out, bw)
    return out


def mul(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    out = Tensor(a.data * b.data)

    def bw():
        g = out.grad
        _acc(a, _unbroadcast(g * b.data, a.data.shape))
        _acc(b, _unbroadcast(g * a.data, b.data.shape))

    _record((a, b), out, bw)
    return out


def matmul(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ContractError(f"matmul needs at least 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ContractError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)

    def bw():
        g = out.grad
        _acc(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        _acc(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    _record((a, b), out, bw)
    return out


def relu(a) -> Tensor:
    a = _ensure(a)
    out = Tensor(np.maximum(a.data, 0.0))

    def bw():
        _acc(a, out.grad * (a.data > 0.0))

    _record((a,), out, bw)
    return out


def logistic(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The sigmoid on plain arrays, as ``(1 + tanh(a / 2)) / 2``: no ``exp``,
    so no overflow.  With ``out`` (which may be ``a`` itself) it is computed
    in place there."""
    out = np.multiply(a, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def sigmoid(a) -> Tensor:
    a = _ensure(a)
    y = logistic(a.data)
    out = Tensor(y)

    def bw():
        _acc(a, out.grad * y * (1.0 - y))

    _record((a,), out, bw)
    return out


def tanh(a) -> Tensor:
    a = _ensure(a)
    y = np.tanh(a.data)
    out = Tensor(y)

    def bw():
        _acc(a, out.grad * (1.0 - y * y))

    _record((a,), out, bw)
    return out


# ---------------------------------------------------------------------------
# softmax family


def softmax(a, axis: int = -1) -> Tensor:
    """Max-shifted softmax along ``axis``; rows sum to 1 for finite input."""
    a = _ensure(a)
    ax = _check_axis(a, axis)
    m = a.data.max(axis=ax, keepdims=True)
    e = np.exp(a.data - m)
    y = e / e.sum(axis=ax, keepdims=True)
    out = Tensor(y)

    def bw():
        g = out.grad
        _acc(a, y * (g - (g * y).sum(axis=ax, keepdims=True)))

    _record((a,), out, bw)
    return out


def log_softmax(a, axis: int = -1) -> Tensor:
    a = _ensure(a)
    ax = _check_axis(a, axis)
    shifted = a.data - a.data.max(axis=ax, keepdims=True)
    y = shifted - np.log(np.exp(shifted).sum(axis=ax, keepdims=True))
    out = Tensor(y)

    def bw():
        g = out.grad
        _acc(a, g - np.exp(y) * g.sum(axis=ax, keepdims=True))

    _record((a,), out, bw)
    return out


# ---------------------------------------------------------------------------
# shape and indexing ops


def reshape(a, shape: tuple) -> Tensor:
    a = _ensure(a)
    out = Tensor(a.data.reshape(shape))

    def bw():
        _acc(a, out.grad.reshape(a.data.shape))

    _record((a,), out, bw)
    return out


def transpose_last(a) -> Tensor:
    """Swap the last two axes."""
    a = _ensure(a)
    if a.ndim < 2:
        raise ContractError(f"transpose_last needs at least 2 dims, got shape {a.shape}")
    out = Tensor(np.swapaxes(a.data, -1, -2))

    def bw():
        _acc(a, np.swapaxes(out.grad, -1, -2))

    _record((a,), out, bw)
    return out


def concat(tensors, axis: int = -1) -> Tensor:
    parts = [_ensure(t) for t in tensors]
    if not parts:
        raise ContractError("concat of an empty sequence")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    ax = axis % out.ndim
    sizes = [p.data.shape[ax] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def bw():
        pieces = np.split(out.grad, offsets, axis=ax)
        for p, piece in zip(parts, pieces):
            _acc(p, piece)

    _record(tuple(parts), out, bw)
    return out


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` entries along ``axis``."""
    a = _ensure(a)
    ax = _check_axis(a, axis)
    if start < 0 or start + length > a.shape[ax]:
        raise ContractError(f"narrow [{start}:{start + length}) out of range for axis {ax} of shape {a.shape}")
    key = (slice(None),) * ax + (slice(start, start + length),)
    out = Tensor(a.data[key])

    def bw():
        buf = np.zeros_like(a.data)
        buf[key] = out.grad
        _acc(a, buf)

    _record((a,), out, bw)
    return out


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _ensure(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def bw():
        g = out.grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _acc(a, np.broadcast_to(g, a.data.shape))

    _record((a,), out, bw)
    return out


def gather_rows(a, indices) -> Tensor:
    """Index axis 0 with an integer array; backward scatter-adds into the source."""
    a = _ensure(a)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ContractError(f"gather index out of range [0, {a.shape[0]})")
    out = Tensor(a.data[idx])

    def bw():
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, out.grad)
        _acc(a, buf)

    _record((a,), out, bw)
    return out


def pick(a, indices) -> Tensor:
    """Select one entry per row of a 2-d tensor: out[i] = a[i, indices[i]]."""
    a = _ensure(a)
    if a.ndim != 2:
        raise ContractError(f"pick needs a 2-d tensor, got shape {a.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.shape != (a.shape[0],):
        raise ContractError(f"pick indices shape {idx.shape} does not match {a.shape[0]} rows")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[1]):
        raise ContractError(f"pick index out of range [0, {a.shape[1]})")
    rows = np.arange(a.shape[0])
    out = Tensor(a.data[rows, idx])

    def bw():
        buf = np.zeros_like(a.data)
        np.add.at(buf, (rows, idx), out.grad)
        _acc(a, buf)

    _record((a,), out, bw)
    return out


# ---------------------------------------------------------------------------
# parameters


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform (fan_in, fan_out) init on +/- sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def embedding_init(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """Unit-variance-ish rows: uniform on +/- sqrt(3 / dim)."""
    limit = np.sqrt(3.0 / dim)
    return rng.uniform(-limit, limit, size=(n, dim))


class ParamStore:
    """Named parameters, whose gradients follow the module's one rule:
    ``zero_grads`` sets every ``grad`` to ``None``, and a backward binds
    what reaches a trainable one.  A frozen one (``trainable=False``, such
    as fixed word vectors), or one no record reached, keeps ``None``.

    Every parameter array is read-only (``flags.writeable`` is False)
    outside ``writable()``, the one writer: the optimizers, ``load_values``
    and ``grad_check`` write through it, and so must any caller.  A view
    taken while the store is open stays writable, so take none there.

    Registration order is stable and drives checkpoint layout, so model
    construction must touch parameters in a deterministic order.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        # bumped each time the outermost ``writable()`` block closes
        self.version = 0
        self._open = 0
        # owner -> the layout ``prepared`` built for it at this version
        self._prepared: dict = {}

    def register(self, name: str, data: np.ndarray, trainable: bool = True) -> Tensor:
        if name in self._params:
            raise ContractError(f"parameter {name!r} registered twice")
        t = Tensor(np.array(data, dtype=np.float64), requires_grad=trainable)
        t.data.setflags(write=self._open > 0)
        self._params[name] = t
        return t

    @contextmanager
    def writable(self):
        """Open every parameter array for in-place writes for the block.  When
        the outermost block closes, by an exception too, the arrays are
        read-only again, ``version`` is bumped and every prepared layout is
        dropped.  Blocks nest."""
        if not self._open:
            for p in self._params.values():
                p.data.setflags(write=True)
        self._open += 1
        try:
            yield self
        finally:
            self._open -= 1
            if not self._open:
                for p in self._params.values():
                    p.data.setflags(write=False)
                self.version += 1
                self._prepared.clear()

    def prepared(self, owner, build):
        """``build(owner)``, a tuple of arrays made from parameters alone, built
        once per ``version`` for each ``owner`` and read-only.  While the
        store is open it is built on every call, since a write may follow."""
        value = None if self._open else self._prepared.get(owner)
        if value is None:
            value = build(owner)
            for a in value:
                a.setflags(write=False)
            if not self._open:
                self._prepared[owner] = value
        return value

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def trainable_items(self):
        return [(n, p) for n, p in self._params.items() if p.requires_grad]

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad = None

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        """Overwrite parameter data in place, all or nothing: every name,
        shape and numeric dtype is checked before one ``writable()`` block
        writes them all.  Names and shapes must match exactly."""
        missing = set(self._params) - set(values)
        extra = set(values) - set(self._params)
        if missing or extra:
            raise ContractError(f"parameter set mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        arrays = {}
        for name, arr in values.items():
            arr = arrays[name] = np.asarray(arr)
            expected = self._params[name].data.shape
            if arr.shape != expected:
                raise ContractError(f"parameter {name!r}: stored shape {arr.shape} != expected {expected}")
            if arr.dtype.kind not in "iuf":
                raise ContractError(f"parameter {name!r}: stored dtype {arr.dtype} is not a real number type")
        with self.writable():
            for name, arr in arrays.items():
                self._params[name].data[...] = arr


_ACTIVATIONS = {"none": lambda y: y, "relu": relu, "sigmoid": sigmoid}


class Dense:
    """Affine map with an optional pointwise activation."""

    def __init__(self, store: ParamStore, name: str, d_in: int, d_out: int,
                 activation: str, rng: np.random.Generator):
        if activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation {activation!r}; pick one of {sorted(_ACTIVATIONS)}")
        self.name = name
        self.d_in = d_in
        self.d_out = d_out
        self.activation = activation
        self.w = store.register(f"{name}.w", glorot(rng, d_in, d_out))
        self.b = store.register(f"{name}.b", np.zeros(d_out))

    def rows(self, x: np.ndarray) -> np.ndarray:
        """act(x W + b) of the rows of the array x, (rows, d_out), from one
        GEMM with the bias and the activation applied in place."""
        y = x.reshape(-1, self.d_in) @ self.w.data
        y += self.b.data
        if self.activation == "relu":
            np.maximum(y, 0.0, out=y)
        elif self.activation == "sigmoid":
            logistic(y, out=y)
        return y

    def __call__(self, x: Tensor) -> Tensor:
        """y = act(x W + b), composed from taped ops."""
        x = _ensure(x)
        if x.ndim < 2 or x.shape[-1] != self.d_in:
            raise ContractError(
                f"dense {self.name!r}: input shape {x.shape} incompatible with weight shape {self.w.shape}")
        return _ACTIVATIONS[self.activation](add(matmul(x, self.w), self.b))


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(forward_fn, store: ParamStore, eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central finite differences.

    ``forward_fn`` takes no arguments and returns a scalar Tensor.  It must be
    deterministic (two plain evaluations are compared first) and is rerun
    twice per parameter entry, so keep the probe configuration small.
    Relative error is |a - n| / max(1e-8, |a| + |n|).
    """
    first = forward_fn()
    second = forward_fn()
    if first.data.ndim != 0:
        raise ContractError(f"grad_check needs a scalar objective, got shape {first.data.shape}")
    if not np.array_equal(first.data, second.data):
        raise ContractError("forward function is not deterministic; disable dropout before grad checking")

    store.zero_grads()
    with Tape() as tape:
        loss = forward_fn()
    backward(tape, loss)
    analytic = {name: np.zeros_like(p.data) if p.grad is None else np.array(p.grad)
                for name, p in store.trainable_items()}

    worst = 0.0
    for name, p in store.trainable_items():
        flat = p.data.flat
        aflat = analytic[name].reshape(-1)
        for i in range(p.data.size):
            keep = flat[i]
            with store.writable():
                flat[i] = keep + eps
            hi = float(forward_fn().data)
            with store.writable():
                flat[i] = keep - eps
            lo = float(forward_fn().data)
            with store.writable():
                flat[i] = keep
            numeric = (hi - lo) / (2.0 * eps)
            err = abs(aflat[i] - numeric) / max(1e-8, abs(aflat[i]) + abs(numeric))
            if err > worst:
                worst = err
    return worst
