"""Densely connected encoder: stacked BiRNN layers whose every pair of
passage/question hierarchies is compared by an attention connector.

Layer l+1 consumes [H_l; g_l] (width h+3), so lower-layer alignment signal
propagates upward through the chain; afterwards connectors are also applied
across all (i, j) layer pairs, giving n*h + 3*n^2 output columns per
position.  Diagonal pairs reuse the in-chain connector outputs.  Connector
(i, j) is ``DecaEnc.bac[(i, j)]``; ``output_dim`` is the one place the width
law is written.  Dropout runs when the call is given an ``rng``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bac import BAC
from .errors import ConfigError
from .numerics import ParamStore, Tensor, concat
from .recurrent import BiRNN, variational_dropout


@dataclass
class DecaEncOutput:
    passage: Tensor
    question: Tensor
    question_states: list[Tensor]   # one (batch, lq, hidden) per layer, for the core


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

        # connector (i, j) compares passage layer i with question layer j.  The
        # diagonal ones are registered first, then the rest row by row; those
        # are registered even when cross-hierarchy is disabled, so the H chain
        # draws the same init stream either way
        self.bac: dict[tuple[int, int], BAC] = {}
        if connectors:
            pairs = [(i, j) for i in range(layers) for j in range(layers)]
            for i, j in sorted(pairs, key=lambda ij: ij[0] != ij[1]):
                self.bac[(i, j)] = BAC(store, f"{name}.bac{i}{j}", hidden, factors, rng,
                                       scorer=scorer)

    @property
    def output_dim(self) -> int:
        if not self.connectors:
            return self.layers * self.hidden if self.concat_layers else self.hidden
        pairs = self.layers * self.layers if self.cross_hierarchy else self.layers
        return self.layers * self.hidden + 3 * pairs

    def __call__(self, p0: Tensor, q0: Tensor, p_mask: np.ndarray, q_mask: np.ndarray,
                 rng: np.random.Generator | None = None) -> DecaEncOutput:
        """Encode both sides; with ``rng`` each layer's inputs get dropout."""
        p_in, q_in = p0, q0
        p_states, q_states = [], []
        z: dict[tuple[int, int], tuple[Tensor, Tensor]] = {}
        for i, rnn in enumerate(self.rnns):
            p_in = variational_dropout(p_in, self.dropout, rng)
            q_in = variational_dropout(q_in, self.dropout, rng)
            h_p = rnn(p_in, p_mask)
            h_q = rnn(q_in, q_mask)
            p_states.append(h_p)
            q_states.append(h_q)
            if self.connectors:
                z[(i, i)] = self.bac[(i, i)](h_p, h_q, p_mask, q_mask)
                if i + 1 < self.layers:  # the next layer's input
                    g_p, g_q = z[(i, i)]
                    p_in = concat([h_p, g_p], -1)
                    q_in = concat([h_q, g_q], -1)
            else:
                p_in, q_in = h_p, h_q

        if not self.connectors:
            if self.concat_layers and self.layers > 1:
                return DecaEncOutput(concat(p_states, -1), concat(q_states, -1), q_states)
            return DecaEncOutput(p_states[-1], q_states[-1], q_states)

        n = self.layers
        pairs = [(i, j) for i in range(n) for j in range(n) if i == j or self.cross_hierarchy]
        for i, j in pairs:
            if i != j:
                z[(i, j)] = self.bac[(i, j)](p_states[i], q_states[j], p_mask, q_mask)
        return DecaEncOutput(concat(p_states + [z[ij][0] for ij in pairs], -1),
                             concat(q_states + [z[ij][1] for ij in pairs], -1), q_states)
