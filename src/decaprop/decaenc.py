"""Densely connected encoder: stacked BiRNN layers whose every pair of
passage/question hierarchies is compared by an attention connector.

Layer l+1 consumes [H_l; g_l] (width h+3), so lower-layer alignment signal
propagates upward through the chain; afterwards connectors are also applied
across all (i, j) layer pairs, giving n*h + 3*n^2 output columns per
position.  Diagonal pairs reuse the in-chain connector outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bac import BAC
from .errors import ConfigError
from .numerics import ParamStore, Tensor, concat
from .recurrent import BiRNN, variational_dropout


@dataclass
class DecaEncOutput:
    passage: Tensor
    question: Tensor
    passage_states: list[Tensor] = field(default_factory=list)
    question_states: list[Tensor] = field(default_factory=list)


def encoder_output_width(layers: int, hidden: int, connectors: bool, cross: bool,
                         concat_layers: bool) -> int:
    if connectors:
        pairs = layers * layers if cross else layers
        return layers * hidden + 3 * pairs
    return layers * hidden if concat_layers else hidden


class DecaEnc:
    """The encoder stack; with connectors off it degrades to plain stacked BiRNNs."""

    def __init__(self, store: ParamStore, name: str, input_dim: int, hidden: int,
                 layers: int, factors: int, rng: np.random.Generator, *,
                 cell: str = "gru", dropout: float = 0.0, connectors: bool = True,
                 cross_hierarchy: bool = True, concat_layers: bool = True,
                 scorer: str = "fm"):
        if layers < 1:
            raise ConfigError(f"encoder needs >= 1 layer, got {layers}")
        self.hidden = hidden
        self.layers = layers
        self.dropout = dropout
        self.connectors = connectors
        self.cross_hierarchy = cross_hierarchy
        self.concat_layers = concat_layers

        self.rnns: list[BiRNN] = []
        width = input_dim
        for i in range(layers):
            self.rnns.append(BiRNN(store, f"{name}.rnn{i}", width, hidden, cell, rng))
            width = hidden + 3 if connectors else hidden

        self.chain: list[BAC] = []
        self.cross: dict[tuple[int, int], BAC] = {}
        if connectors:
            for i in range(layers):
                self.chain.append(BAC(store, f"{name}.bac{i}{i}", hidden, factors, rng,
                                      scorer=scorer))
            # off-diagonal connectors are registered even when cross-hierarchy
            # is disabled, so the H chain draws the same init stream either way
            for i in range(layers):
                for j in range(layers):
                    if i != j:
                        self.cross[(i, j)] = BAC(store, f"{name}.bac{i}{j}", hidden, factors, rng,
                                                 scorer=scorer)

    @property
    def output_dim(self) -> int:
        return encoder_output_width(self.layers, self.hidden, self.connectors,
                                    self.cross_hierarchy, self.concat_layers)

    def __call__(self, p0: Tensor, q0: Tensor,
                 p_mask: np.ndarray | None = None, q_mask: np.ndarray | None = None,
                 training: bool = False, rng: np.random.Generator | None = None) -> DecaEncOutput:
        p_in, q_in = p0, q0
        p_states, q_states = [], []
        diag: list[tuple[Tensor, Tensor]] = []
        for i, rnn in enumerate(self.rnns):
            p_in = variational_dropout(p_in, self.dropout, rng, training)
            q_in = variational_dropout(q_in, self.dropout, rng, training)
            h_p = rnn(p_in, p_mask)
            h_q = rnn(q_in, q_mask)
            p_states.append(h_p)
            q_states.append(h_q)
            if self.connectors:
                g_p, g_q = self.chain[i](h_p, h_q, p_mask, q_mask)
                diag.append((g_p, g_q))
                p_in = concat([h_p, g_p], -1)
                q_in = concat([h_q, g_q], -1)
            else:
                p_in, q_in = h_p, h_q

        if not self.connectors:
            if self.concat_layers and self.layers > 1:
                p_enc = concat(p_states, -1)
                q_enc = concat(q_states, -1)
            else:
                p_enc, q_enc = p_states[-1], q_states[-1]
            return DecaEncOutput(p_enc, q_enc, p_states, q_states)

        z_p, z_q = [], []
        for i in range(self.layers):
            for j in range(self.layers):
                if i == j:
                    g_p, g_q = diag[i]
                elif self.cross_hierarchy:
                    g_p, g_q = self.cross[(i, j)](p_states[i], q_states[j], p_mask, q_mask)
                else:
                    continue
                z_p.append(g_p)
                z_q.append(g_q)
        p_enc = concat(p_states + z_p, -1)
        q_enc = concat(q_states + z_q, -1)
        return DecaEncOutput(p_enc, q_enc, p_states, q_states)
