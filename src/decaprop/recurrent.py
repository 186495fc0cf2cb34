"""GRU/LSTM cells, bidirectional runners, and variational dropout.

Cells are step functions over (batch, dim) slices.  Every cell's state is a
tuple whose first entry is the hidden output: ``(h,)`` for a GRU, ``(h, c)``
for an LSTM.  ``step`` composes the gate math from taped ops; it is the
reference that the fused sweeps are tested against.

``BiRNN`` runs both directions as one fused op (``_birnn``) with one tape
record.  One GEMM projects the input of every timestep for both directions.
Only that projection is then laid out time-major and gate-major, one
contiguous ``(len, G, 2, batch, h)`` buffer for G gates: index 0 of the
direction axis is the forward direction at time ``s`` and index 1 the
backward direction at time ``len - 1 - s``, so step ``s`` of one loop
advances both, and each gate of a step is one contiguous block.  The
recurrent rows are laid out ``(G, 2, h, h)``, so one broadcast matmul writes
a step's recurrent product straight into its gate block, where the
activations are kept.  The cells' ``scan`` and ``bptt`` are that loop and
its hand-written backpropagation through time, which returns the input
gradients batch-major again for one ``dx`` and one ``dW_x`` GEMM; it takes
the gradient of the state after every step, ``final_states``' too
(``_take_grad``).  A narrower direction (odd widths) is padded with zero
weight columns; its padded unit stays exactly zero.

The stacked weights halve the sigmoid gates' pre-activations
(``_stacked_weights``), so one tanh over a step's gate block and one add give
twice each sigmoid: the GRU works with 2z and 2r, and its step makes 12
numpy calls (an LSTM step 10, and 2 more where a row is masked).  Scaling
by a power of two is exact, so the gate math rounds like ``step`` does.  A
(batch, len) 0/1 padding mask is required: a masked step keeps the previous
state, so the states at real positions are bit-identical to running each
sequence unpadded; an all-ones mask runs every step.  The GRU folds the
mask into its update gate's pre-activation (NEG_INF shuts the gate
exactly), so neither its loop nor its backward reads a mask; the LSTM keeps
the state of a masked row with a masked copy.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError
from .numerics import (
    NEG_INF, ParamStore, Tensor, _acc, _record, add, concat, glorot, matmul, mul,
    sigmoid, sub, tanh,
)


class GRUCell:
    """Gated recurrent unit: z/r gates, candidate from the reset-gated state."""

    gates = ("z", "r", "h")
    # the factor on each gate's input columns and bias, and on its recurrent
    # rows, in the stacked weights: the sigmoid gates' pre-activations are
    # halved, and the candidate's recurrent rows meet 2 r h
    x_scale = np.array([0.5, 0.5, 1.0])[:, None]
    u_scale = np.array([0.5, 0.5, 0.5])[:, None]

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

    @staticmethod
    def scan(xp: np.ndarray, mask: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, ...]:
        """The forward loop of a stacked sweep.  ``xp`` is the projected
        input plus biases, gate-major and contiguous, (len, 3, 2, batch, h),
        and ``u`` the recurrent rows, (3, 2, h, h), both scaled by
        ``x_scale`` and ``u_scale``; ``mask`` is the 0/1 mask, (len, 2,
        batch, 1).  Returns the states, (len + 1, 2, batch, h) with the zero
        initial state first, and the activations 2z, 2r and candidate, gate
        by gate, (len, 3, 2, batch, h).  It writes into ``xp``."""
        length, _, _, batch, n = xp.shape
        # a masked step's update gate is shut: tanh(NEG_INF + finite) is -1
        # exactly, so 2z = 0 and the step adds an exact zero to h
        np.copyto(xp[:, 0], NEG_INF, where=mask == 0.0)
        u_zr, u_h = u[:2], u[2]
        hs = np.zeros((length + 1, 2, batch, n))
        acts = np.empty((length, 3, 2, batch, n))
        rh = np.empty((2, batch, n))
        # each step's views come from iterating the buffers, and ``out`` is
        # given by position: both cost less per call at these sizes
        for h, h_new, zr, z2, r2, c, x_zr, x_c in zip(
                hs[:-1], hs[1:], acts[:, :2], acts[:, 0], acts[:, 1], acts[:, 2],
                xp[:, :2], xp[:, 2]):
            # the pre-activations are halved, so tanh + 1 is twice the sigmoid
            np.matmul(h, u_zr, zr)
            zr += x_zr
            np.tanh(zr, zr)
            zr += 1.0
            # 2 r h against half the candidate's recurrent rows
            np.multiply(r2, h, rh)
            np.matmul(rh, u_h, c)
            c += x_c
            np.tanh(c, c)
            # h + z (c - h)
            np.subtract(c, h, h_new)
            h_new *= z2
            h_new *= 0.5
            h_new += h
        return hs, acts

    @staticmethod
    def bptt(saved: tuple, u: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Backpropagation through ``scan``: the gradients of the projected
        input, (batch, len, 2, 3, h), and of the recurrent rows, (2, h, 3h),
        as ``scan`` took them (scaled), given ``g``, the gradient of the
        state after every step, time-major as ``scan``'s states (len, 2,
        batch, h).

        It runs once per forward, as ``Tape.backward`` does: it overwrites
        the saved activations and returns its input gradients in their buffer.
        """
        hs, acts = saved
        _, _, _, batch, n = acts.shape
        h_prev = hs[:-1]
        z2, r2, cand = acts[:, 0], acts[:, 1], acts[:, 2]
        # the factors that do not depend on the incoming gradient, for all
        # steps at once, in the buffer the loop turns into the gradients.  The
        # gradients are those of the halved pre-activations: 2z = 1 + t for
        # t = tanh(a / 2), so d(2z)/d(a / 2) = 1 - t^2 = 2z (2 - 2z), and
        # likewise for r.  A masked step has 2z = 0, so its gate factors are
        # 0 and keep = 1 - z passes dh on whole
        dxp = np.empty_like(acts)
        k_z, k_r, k_h = dxp[:, 0], dxp[:, 1], dxp[:, 2]
        np.multiply(r2, h_prev, out=k_r)
        k_r *= np.subtract(2.0, r2, out=k_h)
        np.subtract(cand, h_prev, out=k_z)
        k_z *= z2
        np.multiply(cand, cand, out=k_h)
        np.subtract(1.0, k_h, out=k_h)
        k_h *= z2
        k_h *= 0.5
        keep = np.multiply(z2, -0.5, out=z2)
        keep += 1.0
        k_z *= keep
        u_zr_t, u_h_t = _rows_t(u[:2]), _rows_t(u[2:])
        dh = np.zeros(g.shape[1:])
        d_rh, tmp = np.empty_like(dh), np.empty_like(dh)
        da_zr = np.empty((2, batch, 2, n))
        da_rows, da_gates = da_zr.reshape(2, batch, 2 * n), da_zr.transpose(2, 0, 1, 3)
        for g_s, da, da_z, da_r, da_c, keep_s, r2_s in zip(
                g[::-1], dxp[::-1, :2], k_z[::-1], k_r[::-1], k_h[::-1], keep[::-1], r2[::-1]):
            dh += g_s
            da_c *= dh
            # the gradient of 2 r h
            np.matmul(da_c, u_h_t, d_rh)
            da_z *= dh
            da_r *= d_rh
            dh *= keep_s
            np.multiply(d_rh, r2_s, tmp)
            dh += tmp
            np.copyto(da_gates, da)
            np.matmul(da_rows, u_zr_t, tmp)
            dh += tmp
        del g, g_s
        # the activations' buffer takes the gradients batch-major, so 2 r h
        # is formed first; the batch-major states are built one at a time
        rh = r2 * h_prev
        dproj = _batch_major(dxp, out=acts)
        del dxp, da, da_z, da_r, da_c, k_z, k_r, k_h
        states = _batch_major(h_prev)
        du_zr = _outer(states, dproj[..., :2, :])
        du_h = _outer(_batch_major(rh, out=states), dproj[..., 2:, :])
        del rh, states
        return dproj, np.concatenate([du_zr, du_h], axis=2)


class LSTMCell:
    """Standard LSTM with forget/input/output gates and a tanh candidate."""

    gates = ("i", "f", "o", "c")
    # as ``GRUCell.x_scale``: the pre-activations of the sigmoid gates i, f
    # and o are halved
    x_scale = u_scale = np.array([0.5, 0.5, 0.5, 1.0])[:, None]

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

    @staticmethod
    def scan(xp: np.ndarray, mask: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, ...]:
        """The forward loop of a stacked sweep; see ``GRUCell.scan``.  The
        states and cells come first, each (len + 1, 2, batch, h), then the
        activations i, f, o and candidate, (len, 4, 2, batch, h), the cells'
        tanh and the mask."""
        length, _, _, batch, n = xp.shape
        hs, cs = np.zeros((length + 1, 2, batch, n)), np.zeros((length + 1, 2, batch, n))
        acts, tanh_c = np.empty((length, 4, 2, batch, n)), np.empty((length, 2, batch, n))
        # where each step's masked rows keep their state; None at a step
        # without one
        masked = _wide(mask, n) == 0.0
        frozen_at = [m if any_m else None for m, any_m in zip(masked, masked.any(axis=(1, 2, 3)))]
        ic = np.empty((2, batch, n))
        for h, h_new, c, c_new, a, sig, x_a, tc, frozen in zip(
                hs[:-1], hs[1:], cs[:-1], cs[1:], acts, acts[:, :3], xp, tanh_c, frozen_at):
            np.matmul(h, u, a)
            a += x_a
            # one tanh for all four gates; the sigmoid gates' pre-activations
            # are halved, so (tanh + 1) / 2 is their sigmoid
            np.tanh(a, a)
            sig += 1.0
            sig *= 0.5
            np.multiply(a[1], c, c_new)
            np.multiply(a[0], a[3], ic)
            c_new += ic
            np.tanh(c_new, tc)
            np.multiply(a[2], tc, h_new)
            if frozen is not None:
                np.copyto(h_new, h, where=frozen)
                np.copyto(c_new, c, where=frozen)
        return hs, cs, acts, tanh_c, mask

    @staticmethod
    def bptt(saved: tuple, u: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Backpropagation through ``scan``; see ``GRUCell.bptt``.  It too
        returns its input gradients in the buffer of the activations."""
        hs, cs, acts, tanh_c, mask = saved
        _, _, batch, n = tanh_c.shape
        i, f, o, cand = (acts[:, k] for k in range(4))
        # the factors that do not depend on the incoming gradient, for all
        # steps at once: d(pre-activation) per d(cell) for i, f and c, per
        # d(h) for o, and d(cell) per d(h); the loop turns the gate factors
        # into the gradients in place.  A sigmoid gate a = (1 + tanh(p / 2)) / 2
        # is taken by its halved pre-activation p / 2, whose factor is twice
        # a (1 - a) times the other operand
        dxp = np.empty_like(acts)
        tmp = np.empty_like(tanh_c)
        for k, other in enumerate((cand, cs[:-1], tanh_c)):
            np.multiply(other, acts[:, k], out=dxp[:, k])
            dxp[:, k] *= np.subtract(1.0, acts[:, k], out=tmp)
        sig = dxp[:, :3]
        sig *= 2.0
        np.multiply(cand, cand, out=tmp)
        np.multiply(i, np.subtract(1.0, tmp, out=tmp), out=dxp[:, 3])
        k_c = np.multiply(tanh_c, tanh_c, out=tmp)
        np.subtract(1.0, k_c, out=k_c)
        k_c *= o
        mask = _wide(mask, n)
        u_t = _rows_t(u)
        dh = np.zeros(g.shape[1:])
        dc, dhn, dcn, d_next = (np.zeros_like(dh) for _ in range(4))
        da_t = np.empty((2, batch, 4, n))
        da_rows, da_gates = da_t.reshape(2, batch, 4 * n), da_t.transpose(2, 0, 1, 3)
        for g_s, da, da_if, da_o, da_c, m, k_c_s, f_s in zip(
                g[::-1], dxp[::-1], dxp[::-1, :2], dxp[::-1, 2], dxp[::-1, 3], mask[::-1],
                k_c[::-1], f[::-1]):
            dh += g_s
            # dh and dc keep (1 - m) times themselves, exactly, for a 0/1 mask
            np.multiply(dh, m, dhn)
            dh -= dhn
            np.multiply(dc, m, dcn)
            dc -= dcn
            np.multiply(dhn, k_c_s, d_next)
            dcn += d_next
            da_if *= dcn
            da_o *= dhn
            da_c *= dcn
            np.copyto(da_gates, da)
            np.matmul(da_rows, u_t, d_next)
            dh += d_next
            np.multiply(dcn, f_s, d_next)
            dc += d_next
        del k_c, k_c_s, tmp, mask, m, g, g_s
        dproj = _batch_major(dxp, out=acts)
        del dxp, da, da_if, da_o, da_c
        return dproj, _outer(_batch_major(hs[:-1]), dproj)


def _time_major(a: np.ndarray) -> np.ndarray:
    """(batch, len, 2, ..., w) -> (len, ..., 2, batch, w), with the second
    direction time-reversed: step s holds time s of the forward direction and
    time len - 1 - s of the backward one."""
    out = np.empty((a.shape[1],) + a.shape[3:-1] + (2, a.shape[0], a.shape[-1]))
    # the batch axis moves next to the last; ``transpose`` with the axes
    # spelled out costs less per call than ``moveaxis``
    axes = (1, *range(2, a.ndim - 2), 0, a.ndim - 2)
    out[..., 0, :, :] = a[:, :, 0].transpose(axes)
    out[..., 1, :, :] = a[:, ::-1, 1].transpose(axes)
    return out


def _wide(mask: np.ndarray, n: int) -> np.ndarray:
    """A (..., 1) mask repeated to width ``n``: elementwise ops with it are
    several times faster than with the broadcast column."""
    return np.repeat(mask, n, axis=-1)


def _rows_t(u: np.ndarray) -> np.ndarray:
    """Gate-major recurrent rows, (k, 2, h, h), as the contiguous transposed
    rows of both directions, (2, k*h, h): one GEMM per direction takes a
    gate-by-gate gradient row, (2, batch, k*h), back to the state."""
    k, _, n, _ = u.shape
    return np.ascontiguousarray(u.transpose(1, 0, 3, 2)).reshape(2, k * n, n)


def _batch_major(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The inverse of ``_time_major``, written into the memory of ``out``
    (any contiguous array of the same size) if it is given."""
    shape = (a.shape[-2], a.shape[0], 2) + a.shape[1:-3] + (a.shape[-1],)
    out = np.empty(shape) if out is None else out.reshape(shape)
    axes = (a.ndim - 3, *range(a.ndim - 3), a.ndim - 2)
    out[:, :, 0] = a[..., 0, :, :].transpose(axes)
    out[:, :, 1] = a[::-1, ..., 1, :, :].transpose(axes)
    return out


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per direction, the sum over (row, step) of ``a^T b`` for batch-major
    (batch, len, 2, h) states ``a`` and gate gradients ``b``, (batch, len, 2,
    k, h): the gradient of the recurrent rows that act on ``a``, (2, h, k*h)."""
    rows = a.shape[0] * a.shape[1]
    return np.matmul(a.reshape(rows, 2, -1).transpose(1, 2, 0),
                     b.reshape(rows, 2, -1).transpose(1, 0, 2))


_CELLS = {"gru": GRUCell, "lstm": LSTMCell}


class BiRNN:
    """Two independent directional passes whose states are concatenated.

    ``output_dim`` is split ceil/floor across the directions, so odd widths
    are allowed.  Initial states are zero.  The (batch, len) ``mask`` freezes
    the state at padded steps, which also makes the backward pass start from
    zero until the first real token is reached from the right.  It must hold
    only 0/1 values.
    """

    def __init__(self, store: ParamStore, name: str, input_dim: int, output_dim: int,
                 cell: str, rng: np.random.Generator):
        if cell not in _CELLS:
            raise ConfigError(f"unknown rnn cell {cell!r}; pick one of {sorted(_CELLS)}")
        if output_dim < 2:
            raise ConfigError(f"birnn output width must be >= 2, got {output_dim}")
        self.input_dim = input_dim
        self.output_dim = output_dim
        fwd_dim = (output_dim + 1) // 2
        bwd_dim = output_dim // 2
        self.fwd = _CELLS[cell](store, f"{name}.fwd", input_dim, fwd_dim, rng)
        self.bwd = _CELLS[cell](store, f"{name}.bwd", input_dim, bwd_dim, rng)

    def _run(self, x: Tensor, mask: np.ndarray, last_only: bool) -> Tensor:
        if x.ndim != 3:
            raise ContractError(f"birnn expects a 3-d (batch, len, width) input, got shape {x.shape}")
        if x.shape[1] == 0:
            raise ContractError("birnn on an empty sequence")
        if x.shape[-1] != self.input_dim:
            raise ContractError(f"birnn expects input width {self.input_dim}, got shape {x.shape}")
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != x.shape[:2]:
            raise ContractError(f"birnn mask shape {mask.shape} does not match input shape {x.shape}")
        # the fused op keeps or replaces a state; it does not blend weights
        if ((mask != 0.0) & (mask != 1.0)).any():
            raise ContractError("birnn mask must hold only 0/1 values")
        return _birnn(self, x, mask, last_only)

    def __call__(self, x: Tensor, mask: np.ndarray) -> Tensor:
        """Map (batch, len, d_in) -> (batch, len, d_out); ``mask`` is (batch, len)."""
        return self._run(x, mask, False)

    def final_states(self, x: Tensor, mask: np.ndarray) -> Tensor:
        """Concat of the forward state at the last real step and the backward
        state at the first step: (batch, d_out).  An all-masked row yields zeros."""
        return self._run(x, mask, True)


def _stacked_weights(rnn: BiRNN) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The input rows, (d_in, 2*G*h), laid out (direction, gate, unit), the
    recurrent rows, gate-major (G, 2, h, h), and the biases, (2*G*h,), of
    both directions, with the narrower direction padded by zeros to the
    wider one's h.

    Each gate weight is a (d_in + h, h) matrix: its first d_in rows act on the
    input, the rest on the state.  Each part is stacked times its cell's
    ``x_scale`` or ``u_scale``: the sigmoid gates' input columns, biases and
    recurrent rows are halved, so that ``scan`` gets 2 sigmoid(a) = 1 +
    tanh(a / 2) from one tanh, and the GRU's candidate rows are halved to
    meet 2 r h.  A power of two scales every product and sum exactly, so the
    sweep's states round as the plain gate math does, and a parameter's
    gradient is the stacked gradient times the same scale.  The rows are
    copied on every call, because the optimizer and checkpoint loads write
    parameters in place.
    """
    d_in, n, cell = rnn.input_dim, rnn.fwd.hidden_dim, rnn.fwd
    gates = len(cell.gates)
    w_x = np.zeros((d_in, 2, gates, n))
    u = np.zeros((gates, 2, n, n))
    b = np.zeros((2, gates, n))
    for d, c in enumerate((rnn.fwd, rnn.bwd)):
        h = c.hidden_dim
        for k, gate in enumerate(c.gates):
            w = getattr(c, f"w_{gate}").data
            w_x[:, d, k, :h], u[k, d, :h, :h] = w[:d_in], w[d_in:]
            b[d, k, :h] = getattr(c, f"b_{gate}").data
    w_x *= cell.x_scale
    u *= cell.u_scale[:, None, None]
    b *= cell.x_scale
    return w_x.reshape(d_in, -1), u, b.reshape(-1)


def _birnn(rnn: BiRNN, x: Tensor, mask: np.ndarray, last_only: bool) -> Tensor:
    """Both directions of a BiRNN as one tape record: the concatenated states
    after every step, (batch, len, d_out) in time order, or with
    ``last_only`` after each direction's last step, (batch, d_out)."""
    cells = (rnn.fwd, rnn.bwd)
    n, h_b = rnn.fwd.hidden_dim, rnn.bwd.hidden_dim
    weights = [getattr(c, f"w_{g}") for c in cells for g in c.gates]
    biases = [getattr(c, f"b_{g}") for c in cells for g in c.gates]
    w_x, u, b = _stacked_weights(rnn)
    batch, length, d_in = x.shape
    flat_x = x.data.reshape(batch * length, d_in)
    proj = flat_x @ w_x
    proj += b
    m = _time_major(np.repeat(mask[:, :, None, None], 2, axis=2))
    xp = _time_major(proj.reshape(batch, length, 2, len(rnn.fwd.gates), n))
    del proj
    saved = rnn.fwd.scan(xp, m, u)
    del xp
    hs = saved[0]
    out = Tensor(_join(hs[-1].transpose(1, 0, 2) if last_only else _batch_major(hs[1:]), h_b))

    def bw():
        dproj, du = rnn.fwd.bptt(saved, u, _take_grad(out, n, length, last_only))
        flat = dproj.reshape(batch * length, -1)
        if x.requires_grad:
            _acc(x, (flat @ w_x.T).reshape(x.shape))
        dw_x = (flat_x.T @ flat).reshape(d_in, 2, -1, n)
        db = flat.sum(axis=0).reshape(2, -1, n)
        du = du.reshape(2, n, -1, n)
        # a stacked weight is its parameter times a scale, and so is its gradient
        dw_x *= rnn.fwd.x_scale
        du *= rnn.fwd.u_scale
        db *= rnn.fwd.x_scale
        for d, c in enumerate(cells):
            h = c.hidden_dim
            for k, gate in enumerate(c.gates):
                _acc(getattr(c, f"w_{gate}"), np.concatenate([dw_x[:, d, k, :h], du[d, :h, k, :h]]))
                _acc(getattr(c, f"b_{gate}"), db[d, k, :h])

    _record((x, *weights, *biases), out, bw)
    return out


def _take_grad(out: Tensor, n: int, length: int, last_only: bool) -> np.ndarray:
    """The gradient of a BiRNN's output as ``bptt`` takes it, time-major per
    step, taken off the output: the batch-major gradient is freed before
    ``bptt`` allocates its buffers, and ``bptt`` holds the only reference to
    the time-major one, which it frees after its loop.  With ``last_only``
    it is zero but at step len - 1, each direction's last state."""
    g, out.grad = _split(out.grad, n), None
    if not last_only:
        return _time_major(g)
    steps = np.zeros((length, 2, g.shape[0], n))
    steps[-1] = g.transpose(1, 0, 2)
    return steps


def _join(states: np.ndarray, h_b: int) -> np.ndarray:
    """(..., 2, h) states of both directions -> (..., h + h_b), dropping the
    backward direction's padded unit if it has one."""
    if h_b == states.shape[-1]:
        return states.reshape(states.shape[:-2] + (-1,))
    return np.concatenate([states[..., 0, :], states[..., 1, :h_b]], axis=-1)


def _split(grad: np.ndarray, n: int) -> np.ndarray:
    """The inverse of ``_join``: (..., d_out) -> (..., 2, n), zero at a
    padded unit."""
    if grad.shape[-1] == 2 * n:
        return grad.reshape(grad.shape[:-1] + (2, n))
    out = np.zeros(grad.shape[:-1] + (2, n))
    out[..., 0, :], out[..., 1, :n - 1] = grad[..., :n], grad[..., n:]
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
