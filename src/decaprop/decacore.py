"""Interaction core: gated bi-attention, gated self-attention, and the dense
bank of one-sided connectors back into every encoder hierarchy.

Both gated blocks share one shape: project, align with scaled dot-product
attention, sigmoid-gate the original rows, and re-encode with a BiRNN.  The
self block is the same computation with the passage playing both roles and
no diagonal masking.  Attend, gate and multiply are one tape record
(``gated_attend``) with a closed-form backward.  It splits the gate's weight
into the rows that meet p and those that meet the attended rows A q, and
computes the pre-activation as p W1 + A (q W2) + b, so the attended rows
and the [p; A q] concat are never built.  The dense bank compresses (U^j vs
question layer k) for j in {1,2} and every k, appending 3 scalars per
connector to U^2.  Dropout runs when the call is given an ``rng``.
"""

from __future__ import annotations

import numpy as np

from .bac import BAC, affinity, attend, attention_weights, attention_weights_backward
from .errors import ConfigError, ContractError
from .numerics import Dense, ParamStore, Tensor, _acc, _record, concat, logistic
from .recurrent import BiRNN, variational_dropout


def gated_attend(e: Tensor, p: Tensor, q: Tensor, q_mask: np.ndarray, gate: Dense) -> Tensor:
    """The p rows gated by what they attend to, as one tape record:
    y ⊙ p with y = sigmoid([p; A q] W + b), A the masked softmax of the
    scores ``e`` over the q rows and W, b the sigmoid ``gate``'s weights.

    With W1, W2 the rows of W that meet p and A q, the gate's
    pre-activation is computed as p W1 + A (q W2) + b, so neither the
    attended rows A q nor the [p; A q] concat is built.  The record keeps
    A, q W2 and y.  With G the upstream gradient and gz = G ⊙ p ⊙ y (1 - y):
    dW1 = pᵀ gz, dW2 = qᵀ (Aᵀ gz), db = Σ gz, dp = gz W1ᵀ + G ⊙ y,
    dq = (Aᵀ gz) W2ᵀ and dA = gz (q W2)ᵀ, which the softmax backward turns
    into de.
    """
    d = p.shape[-1]
    w, b = gate.w, gate.b
    if w.shape != (2 * d, d) or q.shape[-1] != d or e.shape != p.shape[:-1] + q.shape[-2:-1]:
        raise ContractError(f"gated_attend: scores {e.shape}, p {p.shape} and q {q.shape} "
                            f"do not fit a gate of shape {w.shape}")
    w1, w2 = w.data[:d], w.data[d:]
    a = attention_weights(e.data, q_mask)
    qw = (q.data.reshape(-1, d) @ w2).reshape(q.shape)
    y = p.data.reshape(-1, d) @ w1
    y += (a @ qw).reshape(-1, d)
    y += b.data
    y = logistic(y, out=y).reshape(p.shape)
    out = Tensor(y * p.data)

    def bw():
        g = out.grad
        gz = g * p.data
        gz *= y
        gz *= 1.0 - y
        dqw = np.swapaxes(a, -1, -2) @ gz
        gz_rows = gz.reshape(-1, d)
        dw = np.empty_like(w.data)
        np.matmul(p.data.reshape(-1, d).T, gz_rows, out=dw[:d])
        np.matmul(q.data.reshape(-1, d).T, dqw.reshape(-1, d), out=dw[d:])
        _acc(w, dw)
        _acc(b, gz_rows.sum(axis=0))
        if p.requires_grad:
            dp = (gz_rows @ w1.T).reshape(p.shape)
            dp += g * y
            _acc(p, dp)
        if q.requires_grad:
            _acc(q, (dqw.reshape(-1, d) @ w2.T).reshape(q.shape))
        if e.requires_grad:
            da = gz @ np.swapaxes(qw, -1, -2)
            _acc(e, attention_weights_backward(da, a))

    _record((e, p, q, w, b), out, bw)
    return out


class GatedAttention:
    """Attend, gate, re-encode.  With ``gated=False`` the attention and gate
    are dropped and only the BiRNN re-encoding remains (ablation path)."""

    def __init__(self, store: ParamStore, name: str, dim: int, hidden: int,
                 rng: np.random.Generator, *, cell: str = "gru", dropout: float = 0.0,
                 gated: bool = True):
        self.gated = gated
        self.dropout = dropout
        if gated:
            self.proj = Dense(store, f"{name}.proj", dim, dim, "relu", rng)
            self.gate = Dense(store, f"{name}.gate", 2 * dim, dim, "sigmoid", rng)
        self.rnn = BiRNN(store, f"{name}.rnn", dim, hidden, cell, rng)

    def alignment(self, p: Tensor, q: Tensor, q_mask: np.ndarray) -> Tensor:
        """The q rows each p position attends to: (..., lp, width)."""
        if not self.gated:
            raise ContractError("alignment is undefined for an ungated block")
        return attend(affinity(self.proj(p), self.proj(q)), q, q_mask)

    def __call__(self, p: Tensor, q: Tensor, p_mask: np.ndarray, q_mask: np.ndarray,
                 rng: np.random.Generator | None = None) -> Tensor:
        """Gated p rows re-encoded; with ``rng`` they get dropout first."""
        if self.gated:
            p = gated_attend(affinity(self.proj(p), self.proj(q)), p, q, q_mask, self.gate)
        p = variational_dropout(p, self.dropout, rng)
        return self.rnn(p, p_mask)


class DecaCore:
    """Gated attention stack plus the dense connector bank."""

    def __init__(self, store: ParamStore, name: str, input_dim: int, hidden: int,
                 layers: int, factors: int, rng: np.random.Generator, *,
                 cell: str = "gru", dropout: float = 0.0, gated: bool = True,
                 dense_core: bool = True, scorer: str = "fm"):
        if dense_core and layers < 1:
            raise ConfigError("dense core needs at least one encoder hierarchy")
        self.hidden = hidden
        self.layers = layers
        self.dense_core = dense_core
        self.bi_attn = GatedAttention(store, f"{name}.bi", input_dim, hidden, rng,
                                      cell=cell, dropout=dropout, gated=gated)
        self.self_attn = GatedAttention(store, f"{name}.self", hidden, hidden, rng,
                                        cell=cell, dropout=dropout, gated=gated)
        self.bank: dict[tuple[int, int], BAC] = {}
        if dense_core:
            for k in range(layers):
                for j in (0, 1):
                    self.bank[(k, j)] = BAC(store, f"{name}.bank{k}u{j + 1}", hidden, factors,
                                            rng, scorer=scorer)

    @property
    def output_dim(self) -> int:
        if not self.dense_core:
            return self.hidden
        return self.hidden + 3 * 2 * self.layers

    def __call__(self, p_enc: Tensor, q_enc: Tensor, question_states: list[Tensor],
                 p_mask: np.ndarray, q_mask: np.ndarray,
                 rng: np.random.Generator | None = None) -> Tensor:
        """m, what the answer layer consumes: the self-attention output u2,
        followed by the bank's columns when the dense core is on."""
        u1 = self.bi_attn(p_enc, q_enc, p_mask, q_mask, rng)
        u2 = self.self_attn(u1, u1, p_mask, p_mask, rng)
        if not self.dense_core:
            return u2
        if len(question_states) != self.layers:
            raise ContractError(
                f"dense core built for {self.layers} hierarchies, got {len(question_states)}")
        blocks = [u2]
        for k in range(self.layers):
            for j, u in enumerate((u1, u2)):
                blocks.append(self.bank[(k, j)].one_sided(u, question_states[k], q_mask))
        return concat(blocks, -1)
