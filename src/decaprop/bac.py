"""Bidirectional attention connectors (BAC).

A connector aligns two sequences with scaled dot-product attention over
ReLU-projected rows, then compresses each position's (aligned, original)
pair into three scalars with factorization machines applied to the
concatenation, difference, and elementwise product.  The 3-wide outputs are
what gets propagated between layers, so connector cost stays negligible
next to the encoders.  Every attention call takes the (batch, len) mask of
its keys; padded keys get no weight.

The FM score, a connector's compression with FM scorers (``fm_compress``),
``affinity`` and ``attend`` are each one tape record with a closed-form
backward.  An FM scores each column block of its input with one GEMM
against [V | w] and its squared term with one GEMV, x² times the row sums
of V²; ``FMKernel.scores`` and ``FMKernel.backward`` hold that math for the
kernel's own record and for ``fm_compress``.  ``attention_weights`` and
``attention_weights_backward`` are the one masked softmax, which ``attend``
and the gated blocks' record (``decacore.gated_attend``) share.  The tests
hold each op against a taped composition as reference, to within 1e-12
relative; ``affinity`` and ``attend`` round exactly like theirs.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError
from .numerics import (
    NEG_INF, Dense, ParamStore, Tensor, _acc, _record, _unbroadcast, concat, glorot,
    mul, sub, transpose_last,
)


def _with_rows(xs: list):
    """Each 2-d column block of an input laid side by side, with the slice
    of a weight's rows it meets."""
    start = 0
    for x in xs:
        yield x, slice(start, start + x.shape[1])
        start += x.shape[1]


class FMKernel:
    """Second-order factorization machine over the last axis.

    Scores x -> w0 + sum_i w_i x_i + sum_{i<j} <v_i, v_j> x_i x_j using the
    O(k*n) identity 0.5 * sum_f [(x @ V)_f^2 - (x^2 @ V^2)_f].
    """

    def __init__(self, store: ParamStore, name: str, input_dim: int, factors: int,
                 rng: np.random.Generator):
        if factors < 1:
            raise ConfigError(f"fm kernel needs >= 1 factor, got {factors}")
        self.input_dim = input_dim
        self.factors = factors
        self.w0 = store.register(f"{name}.w0", np.zeros(1))
        self.w = store.register(f"{name}.w", glorot(rng, input_dim, 1))
        self.v = store.register(f"{name}.v", glorot(rng, input_dim, factors))

    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """[V | w], (n, k + 1), which every block meets in one GEMM, and the
        row sums of V², (n,), which the squared term meets in one GEMV."""
        v = self.v.data
        return np.concatenate([v, self.w.data], axis=1), (v * v).sum(axis=1)

    def scores(self, xs: list) -> tuple[np.ndarray, np.ndarray]:
        """Scores, (rows, 1), of rows whose input is the 2-d column blocks
        ``xs`` side by side, and the [xV | x·w] (rows, k + 1) that
        ``backward`` reuses.  Each block meets its own rows of [V | w] in
        one GEMM, and Σ_f (x²V²)_f is x² times the row sums of V², so the
        input is never concatenated and x²V² never built."""
        vw, v2 = self._tables()
        for i, (x, rows) in enumerate(_with_rows(xs)):
            if i == 0:
                xvw, x2v2 = x @ vw[rows], (x * x) @ v2[rows]
            else:
                xvw += x @ vw[rows]
                x2v2 += (x * x) @ v2[rows]
        k = self.factors
        xv = xvw[:, :k]
        pair = (xv * xv).sum(axis=-1, keepdims=True) - x2v2[:, None]
        return (self.w0.data + xvw[:, k:]) + pair * 0.5, xvw

    def backward(self, xs: list, xvw: np.ndarray, g: np.ndarray,
                 need_dx: bool) -> list | None:
        """The closed form of ``scores``' backward for the blocks ``xs``, their
        [xV | x·w] and the upstream gradient g (rows, 1):
        dV = Xᵀ(g ⊙ xV) - (X²ᵀ g) ⊙ V, dw = Xᵀ g and dw0 = Σ g are
        accumulated, and with ``need_dx`` the blocks of
        dx = g (w + xV Vᵀ) - outer(g, Σ_f V²) ⊙ x are returned."""
        vw, v2 = self._tables()
        v, k = self.v.data, self.factors
        # [g ⊙ xV, g] meets [V, w] in one GEMM per block for dx and for (dV, dw)
        g_xv = g * xvw
        g_xv[:, k:] = g
        d_vw = np.empty_like(vw)
        dxs = []
        for x, rows in _with_rows(xs):
            x2 = x * x
            np.matmul(x.T, g_xv, out=d_vw[rows])
            d_vw[rows, :k] -= (x2.T @ g) * v[rows]
            if need_dx:
                dx = g_xv @ vw[rows].T
                gv2x = np.multiply(g, v2[rows], out=x2)
                gv2x *= x
                dx -= gv2x
                dxs.append(dx)
        _acc(self.v, d_vw[:, :k])
        _acc(self.w, d_vw[:, k:])
        _acc(self.w0, g.sum(axis=0))
        return dxs if need_dx else None

    def __call__(self, x: Tensor) -> Tensor:
        """Scores (..., n) -> (..., 1) as one tape record, from ``scores``
        and ``backward`` on the rows of x as one block."""
        if x.ndim < 2 or x.shape[-1] != self.input_dim:
            raise ContractError(f"fm kernel expects width {self.input_dim}, got shape {x.shape}")
        n = self.input_dim
        y, xvw = self.scores([x.data.reshape(-1, n)])
        out = Tensor(y.reshape(x.shape[:-1] + (1,)))

        def bw():
            dxs = self.backward([x.data.reshape(-1, n)], xvw, out.grad.reshape(-1, 1),
                                x.requires_grad)
            if dxs is not None:
                _acc(x, dxs[0].reshape(x.shape))

        _record((x, self.w0, self.w, self.v), out, bw)
        return out


class MLPScorer:
    """Ablation stand-in: width-preserving ReLU layer followed by a scalar map."""

    def __init__(self, store: ParamStore, name: str, input_dim: int, rng: np.random.Generator):
        self.hidden = Dense(store, f"{name}.hidden", input_dim, input_dim, "relu", rng)
        self.out = Dense(store, f"{name}.out", input_dim, 1, "none", rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.out(self.hidden(x))


def make_scorer(store: ParamStore, name: str, input_dim: int, kind: str, factors: int,
                rng: np.random.Generator):
    """FM kernel, or one of its ablation stand-ins: a single affine map to one
    scalar (``linear``) or a ReLU layer followed by one (``nonlinear``)."""
    if kind == "fm":
        return FMKernel(store, name, input_dim, factors, rng)
    if kind == "linear":
        return Dense(store, name, input_dim, 1, "none", rng)
    if kind == "nonlinear":
        return MLPScorer(store, name, input_dim, rng)
    raise ConfigError(f"unknown connector scorer {kind!r}; pick one of ['fm', 'linear', 'nonlinear']")


def compress(aligned: Tensor, original: Tensor, scorers: tuple) -> Tensor:
    """The three scores of each (aligned, original) row pair, (..., 3):
    ``g_cat([a; o])``, ``g_sub(a - o)`` and ``g_mul(a ⊙ o)`` for the scorers
    (g_cat, g_sub, g_mul), composed from taped ops.  The ``linear`` and
    ``nonlinear`` stand-ins run it, and it is the reference of
    ``fm_compress``."""
    g_cat, g_sub, g_mul = scorers
    both = concat([aligned, original], -1)
    diff = sub(aligned, original)
    prod = mul(aligned, original)
    return concat([g_cat(both), g_sub(diff), g_mul(prod)], -1)


def _compress_inputs(a: np.ndarray, o: np.ndarray) -> tuple:
    """The FM kernels' inputs as column blocks of rows: ([a, o], [a - o],
    [a ⊙ o])."""
    d = a.shape[-1]
    a, o = a.reshape(-1, d), o.reshape(-1, d)
    return [a, o], [a - o], [a * o]


def fm_compress(aligned: Tensor, original: Tensor, kernels: tuple) -> Tensor:
    """``compress`` with FM kernels, as one tape record.  Each kernel scores
    its own blocks with its own GEMMs; the record keeps the three [xV | x·w]
    and the two inputs, and the backward rebuilds a - o and a ⊙ o.  With
    ([dcat_a, dcat_o], dsub, dmul) the kernels' input gradients,
    da = dcat_a + dsub + dmul ⊙ o and do = dcat_o - dsub + dmul ⊙ a."""
    a, o = aligned, original
    d = a.shape[-1]
    if a.shape != o.shape or [k.input_dim for k in kernels] != [2 * d, d, d]:
        raise ContractError(f"compress: aligned {a.shape} and original {o.shape} do not fit "
                            f"kernels of widths {[k.input_dim for k in kernels]}")
    scored = [k.scores(xs) for k, xs in zip(kernels, _compress_inputs(a.data, o.data))]
    out = Tensor(np.concatenate([y for y, _ in scored], axis=1).reshape(a.shape[:-1] + (3,)))
    xvws = [xvw for _, xvw in scored]

    def bw():
        g = out.grad.reshape(-1, 3)
        need = a.requires_grad or o.requires_grad
        dxs = [k.backward(xs, xvw, g[:, j:j + 1], need) for j, (k, xs, xvw)
               in enumerate(zip(kernels, _compress_inputs(a.data, o.data), xvws))]
        if not need:
            return
        (da, do), (dsub,), (dmul,) = dxs
        if a.requires_grad:
            da += dsub
            da += dmul * o.data.reshape(-1, d)
            _acc(a, da.reshape(a.shape))
        if o.requires_grad:
            do -= dsub
            dmul *= a.data.reshape(-1, d)
            do += dmul
            _acc(o, do.reshape(o.shape))

    _record((a, o) + tuple(p for k in kernels for p in (k.w0, k.w, k.v)), out, bw)
    return out


def affinity(fp: Tensor, fq: Tensor) -> Tensor:
    """Scaled dot product of every pair of already-projected rows, (..., lp, lq),
    as one tape record."""
    if fp.ndim < 2 or fq.ndim < 2 or fp.shape[-1] != fq.shape[-1]:
        raise ContractError(f"affinity needs rows of one width, got {fp.shape} and {fq.shape}")
    scale = 1.0 / np.sqrt(fp.shape[-1])
    e = fp.data @ np.swapaxes(fq.data, -1, -2)
    e *= scale
    out = Tensor(e)

    def bw():
        g = out.grad * scale
        if fp.requires_grad:
            _acc(fp, _unbroadcast(g @ fq.data, fp.shape))
        if fq.requires_grad:
            _acc(fq, _unbroadcast(np.swapaxes(g, -1, -2) @ fp.data, fq.shape))

    _record((fp, fq), out, bw)
    return out


def attention_weights(e: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The masked softmax of scores ``e`` over their last axis: ``mask``
    (..., lk) zeroes the weight of padded keys.  Built in one (..., lq, lk)
    buffer: mask, shift by the row max, exp and normalise in place."""
    y = e + (1.0 - np.asarray(mask, dtype=np.float64)[..., None, :]) * NEG_INF
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    return y


def attention_weights_backward(gy: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The scores' gradient y ⊙ (gy - Σ gy ⊙ y) from the weights y and their
    gradient gy, computed in gy's buffer."""
    gy -= (gy * y).sum(axis=-1, keepdims=True)
    gy *= y
    return gy


def attend(e: Tensor, values: Tensor, mask: np.ndarray) -> Tensor:
    """Masked softmax of ``e`` over its last axis, then the weighted sum of
    ``values`` rows; ``mask`` (..., lk) zeroes the weight of padded keys.

    One tape record, whose backward keeps the weights y
    (``attention_weights``): dvalues = yᵀ g and de = y ⊙ (gy - Σ gy ⊙ y)
    with gy = g valuesᵀ.
    """
    if values.ndim < 2 or e.shape[-1] != values.shape[-2]:
        raise ContractError(f"attend: weights over {e.shape[-1]} keys, values shape {values.shape}")
    y = attention_weights(e.data, mask)
    out = Tensor(y @ values.data)

    def bw():
        g = out.grad
        if values.requires_grad:
            _acc(values, _unbroadcast(np.swapaxes(y, -1, -2) @ g, values.shape))
        if e.requires_grad:
            gy = g @ np.swapaxes(values.data, -1, -2)
            _acc(e, _unbroadcast(attention_weights_backward(gy, y), e.shape))

    _record((e, values), out, bw)
    return out


class BAC:
    """One bidirectional attention connector instance.

    Both sequences must share a width and one ReLU projection.  The same
    three scorers compress both directions.  ``BAC.calls`` counts connector
    applications across all instances; a caller reads the difference over
    the work it wants counted.
    """

    calls = 0

    def __init__(self, store: ParamStore, name: str, dim: int, factors: int,
                 rng: np.random.Generator, scorer: str = "fm"):
        self.proj = Dense(store, f"{name}.proj", dim, dim, "relu", rng)
        self.g_cat = make_scorer(store, f"{name}.g_cat", 2 * dim, scorer, factors, rng)
        self.g_sub = make_scorer(store, f"{name}.g_sub", dim, scorer, factors, rng)
        self.g_mul = make_scorer(store, f"{name}.g_mul", dim, scorer, factors, rng)

    def _compress(self, aligned: Tensor, original: Tensor) -> Tensor:
        scorers = (self.g_cat, self.g_sub, self.g_mul)
        fused = isinstance(self.g_cat, FMKernel)
        return (fm_compress if fused else compress)(aligned, original, scorers)

    def __call__(self, p: Tensor, q: Tensor,
                 p_mask: np.ndarray, q_mask: np.ndarray) -> tuple[Tensor, Tensor]:
        """Compress both directions: returns (g_p, g_q), 3 scalars per position."""
        BAC.calls += 1
        e = affinity(self.proj(p), self.proj(q))
        a = attend(transpose_last(e), p, p_mask)
        b = attend(e, q, q_mask)
        return self._compress(b, p), self._compress(a, q)

    def one_sided(self, p: Tensor, q: Tensor, q_mask: np.ndarray) -> Tensor:
        """Left-side compression only; skips the question-side alignment work,
        so only the question keys' mask is needed."""
        BAC.calls += 1
        b = attend(affinity(self.proj(p), self.proj(q)), q, q_mask)
        return self._compress(b, p)
