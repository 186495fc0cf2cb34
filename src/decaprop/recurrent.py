"""GRU/LSTM cells, bidirectional runners, and variational dropout.

Cells are step functions over (batch, dim) slices.  Every cell's state is a
tuple whose first entry is the hidden output: ``(h,)`` for a GRU, ``(h, c)``
for an LSTM.  ``step`` composes the gate math from taped ops; it is the
reference that the fused sweeps are tested against.

``BiRNN`` drives each direction as one fused op (``_sweep``): one GEMM
projects the input of every timestep, the loop does only the recurrent
matmuls in numpy, and a hand-written backpropagation through time is
recorded on the tape as a single record.  The gate math rounds like
``step`` does.  A (batch, len) padding mask is required: a masked step keeps
the previous state, so the states at real positions are bit-identical to
running each sequence unpadded; an all-ones mask runs every step.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError
from .numerics import (
    ParamStore, Tensor, _acc, _record, add, concat, glorot, logistic, matmul, mul,
    sigmoid, sub, tanh,
)


class GRUCell:
    """Gated recurrent unit: z/r gates, candidate from the reset-gated state."""

    gates = ("z", "r", "h")

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

    def scan(self, xp: np.ndarray, mask: np.ndarray, order: range,
             us: list[np.ndarray]) -> tuple[np.ndarray, ...]:
        """The forward loop of a fused sweep: the state after every step,
        (batch, len, h), followed by what else ``bptt`` needs.  ``xp`` holds
        the projected input plus biases for every step, ``us`` the recurrent
        weight rows of each gate."""
        n = self.hidden_dim
        u_zr, u_h = np.concatenate(us[:2], axis=1), us[2]
        batch, length, _ = xp.shape
        hs, cand = np.empty((batch, length, n)), np.empty((batch, length, n))
        zr = np.empty((batch, length, 2 * n))
        h = np.zeros((batch, n))
        for t in order:
            gates = logistic(xp[:, t, :2 * n] + h @ u_zr)
            z, r = gates[:, :n], gates[:, n:]
            c = np.tanh(xp[:, t, 2 * n:] + (r * h) @ u_h)
            zr[:, t], cand[:, t] = gates, c
            # (1 - z) * h + z * cand, written to reuse h
            h = _blend(mask[:, t:t + 1], h + z * (c - h), h)
            hs[:, t] = h
        return hs, zr, cand

    def bptt(self, saved: tuple, mask: np.ndarray, order: range, us: list[np.ndarray],
             g_seq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Backpropagation through ``scan``: the gradients of the projected
        input, (batch, len, 3h), and of the recurrent rows, (h, 3h), given
        ``g_seq``, the gradient of the state after every step."""
        hs, zr, cand = saved
        n = self.hidden_dim
        h_prev = _shifted(hs, order)
        z, r = zr[:, :, :n], zr[:, :, n:]
        # the factors that do not depend on the incoming gradient, for all steps at once
        k_h = z * (1.0 - cand * cand)
        k_z = (cand - h_prev) * z * (1.0 - z)
        k_r = h_prev * r * (1.0 - r)
        keep = 1.0 - z
        u_zr_t, u_h_t = np.concatenate(us[:2], axis=1).T, us[2].T
        dxp = np.empty(zr.shape[:2] + (3 * n,))
        dh = np.zeros_like(g_seq[:, 0])
        for t in reversed(order):
            dh = dh + g_seq[:, t]
            m = mask[:, t:t + 1]
            dn = m * dh
            da = dxp[:, t]
            np.multiply(dn, k_h[:, t], out=da[:, 2 * n:])
            d_rh = da[:, 2 * n:] @ u_h_t
            np.multiply(dn, k_z[:, t], out=da[:, :n])
            np.multiply(d_rh, k_r[:, t], out=da[:, n:2 * n])
            d_prev = dn * keep[:, t] + d_rh * r[:, t] + da[:, :2 * n] @ u_zr_t
            dh = (1.0 - m) * dh + d_prev
        du = np.concatenate([h_prev.reshape(-1, n).T @ dxp[:, :, :2 * n].reshape(-1, 2 * n),
                             (r * h_prev).reshape(-1, n).T @ dxp[:, :, 2 * n:].reshape(-1, n)],
                            axis=1)
        return dxp, du


class LSTMCell:
    """Standard LSTM with forget/input/output gates and a tanh candidate."""

    gates = ("i", "f", "o", "c")

    def __init__(self, store: ParamStore, name: str, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        d = input_dim + hidden_dim
        for gate in self.gates:
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

    def scan(self, xp: np.ndarray, mask: np.ndarray, order: range,
             us: list[np.ndarray]) -> tuple[np.ndarray, ...]:
        """The forward loop of a fused sweep; see ``GRUCell.scan``."""
        n = self.hidden_dim
        u = np.concatenate(us, axis=1)
        batch, length, _ = xp.shape
        hs, cs, tanh_c = (np.empty((batch, length, n)) for _ in range(3))
        acts = np.empty((batch, length, 4 * n))
        h, c = np.zeros((batch, n)), np.zeros((batch, n))
        for t in order:
            a = xp[:, t] + h @ u
            acts[:, t, :3 * n] = logistic(a[:, :3 * n])
            acts[:, t, 3 * n:] = np.tanh(a[:, 3 * n:])
            i, f, o, cand = (acts[:, t, k * n:(k + 1) * n] for k in range(4))
            c_new = f * c + i * cand
            tanh_c[:, t] = tc = np.tanh(c_new)
            m = mask[:, t:t + 1]
            h, c = _blend(m, o * tc, h), _blend(m, c_new, c)
            hs[:, t], cs[:, t] = h, c
        return hs, cs, acts, tanh_c

    def bptt(self, saved: tuple, mask: np.ndarray, order: range, us: list[np.ndarray],
             g_seq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Backpropagation through ``scan``; see ``GRUCell.bptt``."""
        hs, cs, acts, tanh_c = saved
        n = self.hidden_dim
        c_prev = _shifted(cs, order)
        i, f, o, cand = (acts[:, :, k * n:(k + 1) * n] for k in range(4))
        # the factors that do not depend on the incoming gradient, for all
        # steps at once: d(pre-activation) per d(cell) for i, f and c, per
        # d(h) for o, and d(cell) per d(h)
        k_gates = np.concatenate([cand * i * (1.0 - i), c_prev * f * (1.0 - f),
                                  tanh_c * o * (1.0 - o), i * (1.0 - cand * cand)], axis=2)
        k_c = o * (1.0 - tanh_c * tanh_c)
        u_t = np.concatenate(us, axis=1).T
        dxp = np.empty_like(acts)
        dh = np.zeros_like(g_seq[:, 0])
        dc = np.zeros_like(dh)
        for t in reversed(order):
            dh = dh + g_seq[:, t]
            m = mask[:, t:t + 1]
            dhn = m * dh
            dcn = m * dc + dhn * k_c[:, t]
            da = np.multiply(np.concatenate([dcn, dcn, dhn, dcn], axis=1), k_gates[:, t],
                             out=dxp[:, t])
            dh, dc = (1.0 - m) * dh + da @ u_t, (1.0 - m) * dc + dcn * f[:, t]
        return dxp, _shifted(hs, order).reshape(-1, n).T @ dxp.reshape(-1, 4 * n)


def _blend(m: np.ndarray, new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """The padding rule for a (batch, 1) mask column: a masked row keeps its
    old state."""
    return m * new + (1.0 - m) * old


def _shifted(states: np.ndarray, order: range) -> np.ndarray:
    """The state each step of a sweep starts from: the state after the step
    visited before it, zeros at the first."""
    prev = np.zeros_like(states)
    if order.step > 0:
        prev[:, 1:] = states[:, :-1]
    else:
        prev[:, :-1] = states[:, 1:]
    return prev


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

    def _sweeps(self, x: Tensor, mask: np.ndarray, last_only: bool) -> tuple[Tensor, Tensor]:
        """Both directions over a (batch, len, d_in) input: the forward and
        the backward states in time order, or with ``last_only`` the state
        after each direction's last step."""
        if x.ndim != 3:
            raise ContractError(f"birnn expects a 3-d (batch, len, width) input, got shape {x.shape}")
        if x.shape[1] == 0:
            raise ContractError("birnn on an empty sequence")
        if x.shape[-1] != self.input_dim:
            raise ContractError(f"birnn expects input width {self.input_dim}, got shape {x.shape}")
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != x.shape[:2]:
            raise ContractError(f"birnn mask shape {mask.shape} does not match input shape {x.shape}")
        return (_sweep(self.fwd, x, mask, False, last_only),
                _sweep(self.bwd, x, mask, True, last_only))

    def __call__(self, x: Tensor, mask: np.ndarray) -> Tensor:
        """Map (batch, len, d_in) -> (batch, len, d_out); ``mask`` is (batch, len)."""
        return concat(self._sweeps(x, mask, False), -1)

    def final_states(self, x: Tensor, mask: np.ndarray) -> Tensor:
        """Concat of the forward state at the last real step and the backward
        state at the first step: (batch, d_out).  An all-masked row yields zeros."""
        return concat(self._sweeps(x, mask, True), -1)


def _sweep(cell, x: Tensor, mask: np.ndarray, reverse: bool, last_only: bool) -> Tensor:
    """One direction of a BiRNN as one tape record: the state after every
    step, (batch, len, h) in time order, or with ``last_only`` the state after
    the last step visited, (batch, h).

    Each gate weight is a (d_in + h, h) matrix: its first d_in rows act on the
    input, the rest on the state.  They are sliced on every call, because the
    optimizer and checkpoint loads write parameters in place.
    """
    d_in, n = cell.input_dim, cell.hidden_dim
    weights = [getattr(cell, f"w_{g}") for g in cell.gates]
    biases = [getattr(cell, f"b_{g}") for g in cell.gates]
    w_x = np.concatenate([w.data[:d_in] for w in weights], axis=1)
    us = [w.data[d_in:] for w in weights]
    batch, length, _ = x.shape
    flat_x = x.data.reshape(batch * length, d_in)
    xp = (flat_x @ w_x + np.concatenate([b.data for b in biases])).reshape(batch, length, -1)
    order = range(length - 1, -1, -1) if reverse else range(length)
    saved = cell.scan(xp, mask, order, us)
    hs = saved[0]
    out = Tensor(hs[:, order[-1]] if last_only else hs)

    def bw():
        if last_only:
            g_seq = np.zeros_like(hs)
            g_seq[:, order[-1]] = out.grad
        else:
            g_seq = out.grad
        dxp, du = cell.bptt(saved, mask, order, us, g_seq)
        flat = dxp.reshape(batch * length, -1)
        if x.requires_grad:
            _acc(x, (flat @ w_x.T).reshape(x.shape))
        dw_x = flat_x.T @ flat
        db = flat.sum(axis=0)
        for k, (w, b) in enumerate(zip(weights, biases)):
            cols = slice(k * n, (k + 1) * n)
            _acc(w, np.concatenate([dw_x[:, cols], du[:, cols]]))
            _acc(b, db[cols])

    _record((x, *weights, *biases), (out,), bw)
    return out


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
