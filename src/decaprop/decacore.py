"""Interaction core: gated bi-attention, gated self-attention, and the dense
bank of one-sided connectors back into every encoder hierarchy.

Both gated blocks share one shape: project, align with scaled dot-product
attention, sigmoid-gate the original rows, and re-encode with a BiRNN.  The
self block is the same computation with the passage playing both roles and
no diagonal masking.  Projection, attention, gate and multiply are one tape
record, ``bac.gated_attend``, beside the connector record whose projection
and scores it shares.  The dense bank compresses (U^j vs question layer k)
for j in {1,2} and every k, appending 3 scalars per connector to U^2.
Dropout runs when the call is given an ``rng``.  This module only wires
blocks together; it makes no tape record of its own.
"""

from __future__ import annotations

import numpy as np

from .bac import BAC, gated_attend
from .errors import ConfigError, ContractError
from .numerics import Dense, ParamStore, Tensor, concat
from .recurrent import BiRNN, variational_dropout


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

    def __call__(self, p: Tensor, q: Tensor, p_mask: np.ndarray, q_mask: np.ndarray,
                 rng: np.random.Generator | None = None) -> Tensor:
        """Gated p rows re-encoded; with ``rng`` they get dropout first."""
        if self.gated:
            p = gated_attend(p, q, q_mask, self.proj, self.gate)
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
