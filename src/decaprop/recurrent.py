"""GRU/LSTM cells, bidirectional runners, and variational dropout.

Cells are step functions over (batch, dim) slices.  Every cell's state is a
tuple whose first entry is the hidden output: ``(h,)`` for a GRU, ``(h, c)``
for an LSTM.  ``BiRNN`` drives the cells over a sequence under a required
(batch, len) padding mask.  A masked step keeps the previous state, so the
states at real positions are bit-identical to running each sequence
unpadded; an all-ones mask runs every step.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError
from .numerics import (
    ParamStore, Tensor, add, concat, glorot, matmul, mul,
    sigmoid, stack, sub, tanh, unstack,
)


class GRUCell:
    """Gated recurrent unit: z/r gates, candidate from the reset-gated state."""

    def __init__(self, store: ParamStore, name: str, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        d = input_dim + hidden_dim
        self.w_z = store.register(f"{name}.w_z", glorot(rng, d, hidden_dim))
        self.w_r = store.register(f"{name}.w_r", glorot(rng, d, hidden_dim))
        self.w_h = store.register(f"{name}.w_h", glorot(rng, d, hidden_dim))
        self.b_z = store.register(f"{name}.b_z", np.zeros(hidden_dim))
        self.b_r = store.register(f"{name}.b_r", np.zeros(hidden_dim))
        self.b_h = store.register(f"{name}.b_h", np.zeros(hidden_dim))

    def initial_state(self, batch: int) -> tuple[Tensor]:
        return (Tensor(np.zeros((batch, self.hidden_dim))),)

    def step(self, x: Tensor, state: tuple[Tensor]) -> tuple[Tensor]:
        if x.shape[-1] != self.input_dim:
            raise ContractError(f"gru cell expects input width {self.input_dim}, got shape {x.shape}")
        h, = state
        xh = concat([x, h], -1)
        z = sigmoid(add(matmul(xh, self.w_z), self.b_z))
        r = sigmoid(add(matmul(xh, self.w_r), self.b_r))
        xrh = concat([x, mul(r, h)], -1)
        cand = tanh(add(matmul(xrh, self.w_h), self.b_h))
        # (1 - z) * h + z * cand, written to reuse h
        return (add(h, mul(z, sub(cand, h))),)


class LSTMCell:
    """Standard LSTM with forget/input/output gates and a tanh candidate."""

    def __init__(self, store: ParamStore, name: str, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        d = input_dim + hidden_dim
        for gate in ("i", "f", "o", "c"):
            setattr(self, f"w_{gate}", store.register(f"{name}.w_{gate}", glorot(rng, d, hidden_dim)))
            setattr(self, f"b_{gate}", store.register(f"{name}.b_{gate}", np.zeros(hidden_dim)))

    def initial_state(self, batch: int) -> tuple[Tensor, Tensor]:
        z = np.zeros((batch, self.hidden_dim))
        return Tensor(z), Tensor(z.copy())

    def step(self, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        if x.shape[-1] != self.input_dim:
            raise ContractError(f"lstm cell expects input width {self.input_dim}, got shape {x.shape}")
        h, c = state
        xh = concat([x, h], -1)
        i = sigmoid(add(matmul(xh, self.w_i), self.b_i))
        f = sigmoid(add(matmul(xh, self.w_f), self.b_f))
        o = sigmoid(add(matmul(xh, self.w_o), self.b_o))
        cand = tanh(add(matmul(xh, self.w_c), self.b_c))
        c_new = add(mul(f, c), mul(i, cand))
        h_new = mul(o, tanh(c_new))
        return h_new, c_new


_CELLS = {"gru": GRUCell, "lstm": LSTMCell}


class BiRNN:
    """Two independent directional passes whose states are concatenated.

    ``output_dim`` is split ceil/floor across the directions, so odd widths
    are allowed.  Initial states are zero.  The (batch, len) ``mask`` freezes
    the state at padded steps, which also makes the backward pass start from
    zero until the first real token is reached from the right.
    """

    def __init__(self, store: ParamStore, name: str, input_dim: int, output_dim: int,
                 cell: str, rng: np.random.Generator):
        if cell not in _CELLS:
            raise ConfigError(f"unknown rnn cell {cell!r}; pick one of {sorted(_CELLS)}")
        if output_dim < 2:
            raise ConfigError(f"birnn output width must be >= 2, got {output_dim}")
        self.input_dim = input_dim
        self.output_dim = output_dim
        self.cell_kind = cell
        fwd_dim = (output_dim + 1) // 2
        bwd_dim = output_dim // 2
        self.fwd = _CELLS[cell](store, f"{name}.fwd", input_dim, fwd_dim, rng)
        self.bwd = _CELLS[cell](store, f"{name}.bwd", input_dim, bwd_dim, rng)

    def _sweep(self, cell, xs: list[Tensor], mask: np.ndarray, order) -> list[Tensor]:
        """The cell's hidden output at each step, in the order ``order`` visits them."""
        state = cell.initial_state(xs[0].shape[0])
        hs: list[Tensor] = []
        for t in order:
            new = cell.step(xs[t], state)
            m = mask[:, t:t + 1]
            keep, hold = Tensor(m), Tensor(1.0 - m)
            state = tuple(add(mul(keep, n), mul(hold, old)) for n, old in zip(new, state))
            hs.append(state[0])
        return hs

    def _sweeps(self, x: Tensor, mask: np.ndarray) -> tuple[list[Tensor], list[Tensor]]:
        """Both directions over a (batch, len, d_in) input: the forward and
        the backward states, each listed in time order."""
        if x.ndim != 3:
            raise ContractError(f"birnn expects a 3-d (batch, len, width) input, got shape {x.shape}")
        if x.shape[1] == 0:
            raise ContractError("birnn on an empty sequence")
        if x.shape[-1] != self.input_dim:
            raise ContractError(f"birnn expects input width {self.input_dim}, got shape {x.shape}")
        xs = unstack(x, axis=1)
        length = len(xs)
        fwd = self._sweep(self.fwd, xs, mask, range(length))
        bwd = self._sweep(self.bwd, xs, mask, range(length - 1, -1, -1))
        return fwd, bwd[::-1]

    def __call__(self, x: Tensor, mask: np.ndarray) -> Tensor:
        """Map (batch, len, d_in) -> (batch, len, d_out); ``mask`` is (batch, len)."""
        fwd, bwd = self._sweeps(x, mask)
        return concat([stack(fwd, axis=1), stack(bwd, axis=1)], -1)

    def final_states(self, x: Tensor, mask: np.ndarray) -> Tensor:
        """Concat of the forward state at the last real step and the backward
        state at the first step: (batch, d_out).  An all-masked row yields zeros."""
        fwd, bwd = self._sweeps(x, mask)
        return concat([fwd[-1], bwd[0]], -1)


def variational_dropout(seq: Tensor, rate: float,
                        rng: np.random.Generator | None = None) -> Tensor:
    """One Bernoulli mask over the feature axis, shared across all time steps,
    drawn from ``rng``; without an ``rng`` (eval mode) the identity.

    Scaled by 1/(1-rate) so eval mode matches in expectation.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if seq.ndim != 3:
        raise ContractError(f"variational dropout expects a 3-d sequence, got shape {seq.shape}")
    if rate == 0.0 or rng is None:
        return seq
    keep = (rng.random((seq.shape[0], 1, seq.shape[-1])) >= rate).astype(np.float64)
    return mul(seq, Tensor(keep / (1.0 - rate)))
