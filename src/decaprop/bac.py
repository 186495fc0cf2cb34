"""Bidirectional attention connectors (BAC).

A connector aligns two sequences with scaled dot-product attention over
ReLU-projected rows, then compresses each position's (aligned, original)
pair into three scalars with factorization machines applied to the
concatenation, difference, and elementwise product.  The 3-wide outputs are
what gets propagated between layers, so connector cost stays negligible
next to the encoders.  Every attention call takes the (batch, len) mask of
its keys; padded keys get no weight.

The FM score, ``affinity`` and ``attend`` are each one tape record with a
closed-form backward.  Their forward values round exactly like the taped
compositions they replace, which the tests keep as their reference.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError
from .numerics import (
    NEG_INF, Dense, ParamStore, Tensor, _acc, _record, _unbroadcast, concat, glorot,
    mul, sub, transpose_last,
)


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

    def __call__(self, x: Tensor) -> Tensor:
        """Scores (..., n) -> (..., 1) as one tape record.  The backward is
        the closed form of the identity: with g the upstream gradient,
        dx = g (w + xV Vᵀ - x ⊙ Σ_f V²), dV = Xᵀ(g ⊙ xV) - (X²ᵀ g) ⊙ V,
        dw = Xᵀ g and dw0 = Σ g; it reuses xV from the forward."""
        if x.ndim < 2 or x.shape[-1] != self.input_dim:
            raise ContractError(f"fm kernel expects width {self.input_dim}, got shape {x.shape}")
        w0, w, v = self.w0, self.w, self.v
        xv = x.data @ v.data
        x2v2 = (x.data * x.data) @ (v.data * v.data)
        pair = (xv * xv).sum(axis=-1, keepdims=True) - x2v2.sum(axis=-1, keepdims=True)
        out = Tensor((w0.data + x.data @ w.data) + pair * 0.5)

        def bw():
            k = self.factors
            flat_x = x.data.reshape(-1, self.input_dim)
            g = out.grad.reshape(-1, 1)
            # [g ⊙ xV, g] meets [V, w] in one GEMM for dx and in one for (dV, dw)
            g_xv = np.concatenate([g * xv.reshape(-1, k), g], axis=1)
            gx = g * flat_x
            d_vw = flat_x.T @ g_xv
            _acc(v, d_vw[:, :k] - np.einsum("ri,ri->i", gx, flat_x)[:, None] * v.data)
            _acc(w, d_vw[:, k:])
            _acc(w0, _unbroadcast(out.grad, w0.shape))
            if x.requires_grad:
                dx = g_xv @ np.concatenate([v.data, w.data], axis=1).T
                gx *= (v.data * v.data).sum(axis=1)
                dx -= gx
                _acc(x, dx.reshape(x.shape))

        _record((x, w0, w, v), out, bw)
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


def attend(e: Tensor, values: Tensor, mask: np.ndarray) -> Tensor:
    """Masked softmax of ``e`` over its last axis, then the weighted sum of
    ``values`` rows; ``mask`` (..., lk) zeroes the weight of padded keys.

    One tape record.  The softmax is built in one (..., lq, lk) buffer
    (mask, shift by the row max, exp and normalise in place), which the
    backward keeps as y: dvalues = yᵀ g and de = y ⊙ (gy - Σ gy ⊙ y) with
    gy = g valuesᵀ.
    """
    if values.ndim < 2 or e.shape[-1] != values.shape[-2]:
        raise ContractError(f"attend: weights over {e.shape[-1]} keys, values shape {values.shape}")
    y = e.data + (1.0 - np.asarray(mask, dtype=np.float64)[..., None, :]) * NEG_INF
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    out = Tensor(y @ values.data)

    def bw():
        g = out.grad
        if values.requires_grad:
            _acc(values, _unbroadcast(np.swapaxes(y, -1, -2) @ g, values.shape))
        if e.requires_grad:
            gy = g @ np.swapaxes(values.data, -1, -2)
            gy -= (gy * y).sum(axis=-1, keepdims=True)
            gy *= y
            _acc(e, _unbroadcast(gy, e.shape))

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
        both = concat([aligned, original], -1)
        diff = sub(aligned, original)
        prod = mul(aligned, original)
        return concat([self.g_cat(both), self.g_sub(diff), self.g_mul(prod)], -1)

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
