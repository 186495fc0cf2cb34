"""Bidirectional attention connectors (BAC).

A connector aligns two sequences with scaled dot-product attention over
ReLU-projected rows, then compresses each position's (aligned, original)
pair into three scalars with factorization machines applied to the
concatenation, difference, and elementwise product.  The 3-wide outputs are
what gets propagated between layers, so connector cost stays negligible
next to the encoders.  Every attention call takes the (batch, len) mask of
its keys; padded keys get no weight.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError
from .numerics import (
    Dense, ParamStore, Tensor, add, concat, glorot, masked_softmax, matmul,
    mul, sub, sum_, transpose_last,
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
        if x.shape[-1] != self.input_dim:
            raise ContractError(f"fm kernel expects width {self.input_dim}, got shape {x.shape}")
        linear = matmul(x, self.w)
        xv = matmul(x, self.v)
        x2v2 = matmul(mul(x, x), mul(self.v, self.v))
        pair = sub(sum_(mul(xv, xv), axis=-1, keepdims=True), sum_(x2v2, axis=-1, keepdims=True))
        return add(add(self.w0, linear), mul(pair, 0.5))


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
    """Scaled dot product of every pair of already-projected rows: (..., lp, lq)."""
    return mul(matmul(fp, transpose_last(fq)), 1.0 / np.sqrt(fp.shape[-1]))


def attend(e: Tensor, values: Tensor, mask: np.ndarray) -> Tensor:
    """Masked softmax of ``e`` over its last axis, then the weighted sum of
    ``values`` rows; ``mask`` (..., lk) zeroes the weight of padded keys."""
    m = np.asarray(mask, dtype=np.float64)[..., None, :]
    return matmul(masked_softmax(e, m, axis=-1), values)


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
