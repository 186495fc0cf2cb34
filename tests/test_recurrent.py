"""Recurrent cells: hand-evaluated fixed points, gate-forcing identities,
mask semantics, direction symmetry, the fused BiRNN op against the stepwise
cells, saturated gates, and dropout mask sharing."""

import numpy as np
import pytest

from decaprop.errors import ConfigError, ContractError
from decaprop.numerics import (ParamStore, Tape, Tensor, add, backward, concat, grad_check,
                               mul, narrow, reshape, sum_)
from decaprop.recurrent import BiRNN, GRUCell, LSTMCell, variational_dropout


def _zeroed(store: ParamStore) -> None:
    with store.writable():
        for _, p in store.items():
            p.data[:] = 0.0


# ---------------------------------------------------------------------------
# GRU


def test_gru_zero_params_halves_state(rng):
    store = ParamStore()
    cell = GRUCell(store, "g", 3, 2, rng)
    _zeroed(store)
    h, = cell.step(Tensor(np.zeros((1, 3))), (Tensor(np.array([[2.0, 4.0]])),))
    np.testing.assert_allclose(h.data, [[1.0, 2.0]], atol=1e-15)


def test_gru_closed_update_gate_keeps_state(rng):
    store = ParamStore()
    cell = GRUCell(store, "g", 3, 2, rng)
    with store.writable():
        cell.b_z.data[:] = -50.0  # z ~ 0 everywhere
    h_prev = Tensor(rng.normal(size=(1, 2)))
    h, = cell.step(Tensor(rng.normal(size=(1, 3))), (h_prev,))
    np.testing.assert_allclose(h.data, h_prev.data, atol=1e-6)


def test_gru_dim_mismatch(rng):
    cell = GRUCell(ParamStore(), "g", 3, 2, rng)
    with pytest.raises(ContractError):
        cell.step(Tensor(np.zeros((1, 4))), (Tensor(np.zeros((1, 2))),))


def test_gru_grad(rng):
    store = ParamStore()
    cell = GRUCell(store, "g", 3, 2, rng)
    x = Tensor(rng.normal(size=(2, 3)))

    def forward():
        state = cell.initial_state(2)
        state = cell.step(x, state)
        state = cell.step(x, state)
        return sum_(state[0])

    assert grad_check(forward, store) < 1e-4


# ---------------------------------------------------------------------------
# LSTM


def test_lstm_zero_params_hand_value(rng):
    store = ParamStore()
    cell = LSTMCell(store, "l", 3, 1, rng)
    _zeroed(store)
    h, c = cell.step(Tensor(np.zeros((1, 3))), (Tensor(np.zeros((1, 1))), Tensor(np.array([[2.0]]))))
    np.testing.assert_allclose(c.data, [[1.0]], atol=1e-15)
    np.testing.assert_allclose(h.data, [[0.5 * np.tanh(1.0)]], atol=1e-15)


def test_lstm_memory_passthrough(rng):
    store = ParamStore()
    cell = LSTMCell(store, "l", 3, 2, rng)
    with store.writable():
        cell.b_f.data[:] = 50.0   # forget gate ~ 1
        cell.b_i.data[:] = -50.0  # input gate ~ 0
    c_prev = Tensor(rng.normal(size=(1, 2)))
    _, c = cell.step(Tensor(rng.normal(size=(1, 3))), (Tensor(np.zeros((1, 2))), c_prev))
    np.testing.assert_allclose(c.data, c_prev.data, atol=1e-6)


def test_lstm_grad(rng):
    store = ParamStore()
    cell = LSTMCell(store, "l", 3, 2, rng)
    x = Tensor(rng.normal(size=(2, 3)))

    def forward():
        state = cell.initial_state(2)
        state = cell.step(x, state)
        state = cell.step(x, state)
        return sum_(state[0])

    assert grad_check(forward, store) < 1e-4


# ---------------------------------------------------------------------------
# BiRNN


def test_birnn_shapes(rng):
    store = ParamStore()
    rnn = BiRNN(store, "r", 10, 32, "gru", rng)
    out = rnn(Tensor(rng.normal(size=(1, 5, 10))), np.ones((1, 5)))
    assert out.shape == (1, 5, 32)
    out = rnn(Tensor(rng.normal(size=(2, 5, 10))), np.ones((2, 5)))
    assert out.shape == (2, 5, 32)
    for bad in (np.zeros((5, 10)), np.zeros((1, 2, 5, 10))):
        with pytest.raises(ContractError):
            rnn(Tensor(bad), np.ones(bad.shape[:-1]))
        with pytest.raises(ContractError):
            rnn.final_states(Tensor(bad), np.ones(bad.shape[:-1]))
    # a mask must name every (row, step) of the input, not broadcast onto it
    for bad_mask in (np.ones((1, 5)), np.ones((2, 4)), np.ones(5)):
        with pytest.raises(ContractError, match="mask shape"):
            rnn(Tensor(np.zeros((2, 5, 10))), bad_mask)
        with pytest.raises(ContractError, match="mask shape"):
            rnn.final_states(Tensor(np.zeros((2, 5, 10))), bad_mask)
    # a padding mask, not a weighting
    for bad_mask in (np.full((2, 5), 0.5), np.full((2, 5), np.nan)):
        with pytest.raises(ContractError, match="0/1"):
            rnn(Tensor(np.zeros((2, 5, 10))), bad_mask)
        with pytest.raises(ContractError, match="0/1"):
            rnn.final_states(Tensor(np.zeros((2, 5, 10))), bad_mask)


def test_birnn_odd_width_splits_ceil_floor(rng):
    store = ParamStore()
    rnn = BiRNN(store, "r", 4, 75, "gru", rng)
    assert rnn.fwd.hidden_dim == 38
    assert rnn.bwd.hidden_dim == 37
    out = rnn(Tensor(rng.normal(size=(1, 3, 4))), np.ones((1, 3)))
    assert out.shape == (1, 3, 75)
    with pytest.raises(ContractError):
        rnn(Tensor(rng.normal(size=(3, 4))), np.ones(3))


def test_birnn_empty_sequence(rng):
    rnn = BiRNN(ParamStore(), "r", 4, 6, "gru", rng)
    with pytest.raises(ContractError):
        rnn(Tensor(np.zeros((2, 0, 4))), np.ones((2, 0)))


def test_birnn_unknown_cell(rng):
    with pytest.raises(ConfigError):
        BiRNN(ParamStore(), "r", 4, 6, "rnn", rng)


def test_birnn_single_step_equals_cells(rng):
    store = ParamStore()
    rnn = BiRNN(store, "r", 4, 6, "gru", rng)
    x = Tensor(rng.normal(size=(1, 4)))
    out = rnn(Tensor(x.data[:, None]), np.ones((1, 1)))
    h_f, = rnn.fwd.step(x, rnn.fwd.initial_state(1))
    h_b, = rnn.bwd.step(x, rnn.bwd.initial_state(1))
    np.testing.assert_allclose(out.data[0, 0, :3], h_f.data[0], atol=1e-15)
    np.testing.assert_allclose(out.data[0, 0, 3:], h_b.data[0], atol=1e-15)


def test_birnn_masked_matches_unpadded(rng):
    """Right-padding plus a mask reproduces per-row unpadded runs."""
    store = ParamStore()
    rnn = BiRNN(store, "r", 3, 6, "lstm", rng)
    lengths = [4, 2, 3]
    rows = [rng.normal(size=(n, 3)) for n in lengths]
    padded = np.zeros((3, 4, 3))
    mask = np.zeros((3, 4))
    for i, row in enumerate(rows):
        padded[i, :lengths[i]] = row
        mask[i, :lengths[i]] = 1.0
    out = rnn(Tensor(padded), mask)
    for i, row in enumerate(rows):
        solo = rnn(Tensor(row[None]), np.ones((1, len(row))))
        np.testing.assert_allclose(out.data[i, :lengths[i]], solo.data[0], atol=1e-12)


def test_birnn_direction_symmetry(rng):
    """With both direction cells sharing weights, reversing the input swaps
    and time-flips the two output halves."""
    store = ParamStore()
    rnn = BiRNN(store, "r", 3, 8, "gru", rng)
    with store.writable():
        for attr in ("w_z", "w_r", "w_h", "b_z", "b_r", "b_h"):
            getattr(rnn.bwd, attr).data[:] = getattr(rnn.fwd, attr).data
    x = rng.normal(size=(1, 5, 3))
    mask = np.ones((1, 5))
    out = rnn(Tensor(x), mask).data
    out_rev = rnn(Tensor(x[:, ::-1, :].copy()), mask).data
    np.testing.assert_allclose(out_rev[:, :, :4], out[:, ::-1, 4:], atol=1e-12)
    np.testing.assert_allclose(out_rev[:, :, 4:], out[:, ::-1, :4], atol=1e-12)


def test_birnn_final_states(rng):
    store = ParamStore()
    rnn = BiRNN(store, "r", 3, 6, "gru", rng)
    x = rng.normal(size=(2, 4, 3))
    mask = np.array([[1, 1, 1, 0], [1, 1, 1, 1]], dtype=np.float64)
    seq = rnn(Tensor(x), mask)
    fin = rnn.final_states(Tensor(x), mask)
    assert fin.shape == (2, 6)
    # forward half at the last real step, backward half at step 0
    np.testing.assert_allclose(fin.data[0, :3], seq.data[0, 2, :3], atol=1e-15)
    np.testing.assert_allclose(fin.data[1, :3], seq.data[1, 3, :3], atol=1e-15)
    np.testing.assert_allclose(fin.data[:, 3:], seq.data[:, 0, 3:], atol=1e-15)


def test_birnn_final_states_all_masked_row_is_zero(rng):
    store = ParamStore()
    rnn = BiRNN(store, "r", 3, 6, "gru", rng)
    x = rng.normal(size=(2, 3, 3))
    mask = np.array([[1, 1, 0], [0, 0, 0]], dtype=np.float64)
    fin = rnn.final_states(Tensor(x), mask)
    np.testing.assert_allclose(fin.data[1], np.zeros(6), atol=1e-15)


def test_birnn_grad_with_mask(rng):
    store = ParamStore()
    rnn = BiRNN(store, "r", 3, 4, "gru", rng)
    x = Tensor(rng.normal(size=(2, 3, 3)))
    mask = np.array([[1, 1, 1], [1, 0, 0]], dtype=np.float64)
    assert grad_check(lambda: sum_(rnn(x, mask)), store) < 1e-4


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_birnn_grad_check_after_a_cached_forward(cell, rng):
    """A forward first caches the stacked weights; ``grad_check`` writes each
    probe through the store's writer, so every probe's forward rebuilds
    them from the probed values."""
    store = ParamStore()
    rnn = BiRNN(store, "r", 3, 5, cell, rng)
    x = Tensor(rng.normal(size=(2, 4, 3)))
    mask = _lengths_mask([4, 2], 4)
    rnn(x, mask)
    version = store.version
    assert grad_check(lambda: sum_(rnn(x, mask)), store) < 1e-4
    assert store.version > version


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_birnn_final_states_grad_with_mask(cell, rng):
    """Finite differences of ``final_states`` with an odd width (a padded
    backward unit), a partly masked row and an all-masked row."""
    store = ParamStore()
    rnn = BiRNN(store, "r", 3, 5, cell, rng)
    x = Tensor(rng.normal(size=(3, 4, 3)))
    mask = _lengths_mask([4, 2, 0], 4)
    coef = Tensor(rng.normal(size=(3, 5)))
    assert grad_check(lambda: sum_(mul(rnn.final_states(x, mask), coef)), store) < 1e-4


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_birnn_saturated_gates_stay_finite(cell, rng):
    """Inputs scaled so that gate pre-activations reach beyond +-1e3: the
    sigmoid's exp never overflows (a RuntimeWarning fails the test), states
    stay in [-1, 1] and every gradient is finite."""
    store = ParamStore()
    rnn = BiRNN(store, "r", 4, 7, cell, rng)
    x = Tensor(rng.normal(size=(3, 5, 4)) * 1e4, requires_grad=True)
    mask = _lengths_mask([5, 2, 0], 5)
    w_x = np.concatenate([getattr(c, f"w_{g}").data[:4] for c in (rnn.fwd, rnn.bwd)
                          for g in c.gates], axis=1)
    assert np.abs(x.data.reshape(-1, 4) @ w_x).max() > 1e3
    for run in (BiRNN.__call__, BiRNN.final_states):
        store.zero_grads()
        x.grad = None
        with Tape() as tape:
            out = run(rnn, x, mask)
            loss = sum_(mul(out, Tensor(rng.normal(size=out.shape))))
        backward(tape, loss)
        assert np.isfinite(out.data).all() and np.abs(out.data).max() <= 1.0
        assert np.isfinite(x.grad).all()
        assert all(np.isfinite(p.grad).all() for _, p in store.items())
    np.testing.assert_array_equal(out.data[2], np.zeros(7))


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_birnn_padded_positions_are_exact(cell, rng):
    """At a padded position the fused sweep's forward half repeats the last
    real state and its backward half is exactly 0, bit for bit, and the
    padded inputs get an exact zero gradient, even when those inputs are
    +-1e6.  The GRU shuts its update gate there through the pre-activation
    (NEG_INF), so an input that large must not leak past it."""
    store = ParamStore()
    rnn = BiRNN(store, "r", 4, 7, cell, rng)
    lengths, length = [6, 3, 1, 0], 6
    mask = _lengths_mask(lengths, length)
    x = rng.normal(size=(4, length, 4))
    padded = mask == 0.0
    x[padded] = rng.choice([-1e6, 1e6], size=(int(padded.sum()), 4))
    x = Tensor(x, requires_grad=True)
    with Tape() as tape:
        out = rnn(x, mask)
        loss = sum_(mul(out, Tensor(rng.normal(size=out.shape))))
    backward(tape, loss)
    n = rnn.fwd.hidden_dim
    assert np.isfinite(out.data).all()
    for i, real in enumerate(lengths):
        last = out.data[i, real - 1, :n] if real else np.zeros(n)
        for t in range(real, length):
            np.testing.assert_array_equal(out.data[i, t, :n], last)
            np.testing.assert_array_equal(out.data[i, t, n:], np.zeros(7 - n))
    np.testing.assert_array_equal(x.grad[padded], np.zeros((int(padded.sum()), 4)))
    assert np.abs(x.grad[~padded]).max() > 0.0


# ---------------------------------------------------------------------------
# hand-written ops against their tape-composed references


def _stepwise_direction(cell, x: Tensor, mask: np.ndarray, order) -> dict:
    """``cell.step`` over the visited steps with the mask blend: the state
    after each step, keyed by time."""
    batch, _, width = x.shape
    state = cell.initial_state(batch)
    hs = {}
    for t in order:
        new = cell.step(reshape(narrow(x, 1, t, 1), (batch, width)), state)
        m = mask[:, t:t + 1]
        state = tuple(add(mul(Tensor(m), n), mul(Tensor(1.0 - m), old))
                      for n, old in zip(new, state))
        hs[t] = state[0]
    return hs


def _stepwise_birnn(rnn: BiRNN, x: Tensor, mask: np.ndarray, last_only: bool) -> Tensor:
    length = x.shape[1]
    fwd = _stepwise_direction(rnn.fwd, x, mask, range(length))
    bwd = _stepwise_direction(rnn.bwd, x, mask, range(length - 1, -1, -1))
    if last_only:
        return concat([fwd[length - 1], bwd[0]], -1)
    return concat([reshape(concat([fwd[t], bwd[t]], -1), (x.shape[0], 1, -1))
                   for t in range(length)], 1)


def _lengths_mask(lengths: list[int], length: int) -> np.ndarray:
    return (np.arange(length)[None, :] < np.array(lengths)[:, None]).astype(np.float64)


# row lengths, padded length, input width, output width
BIRNN_EDGES = {
    "mixed_lengths": ([5, 2, 4], 5, 4, 6),
    "odd_width": ([3, 1], 3, 3, 7),
    "length_1": ([1, 1], 1, 4, 6),
    "batch_1": ([4], 4, 3, 5),
    "all_masked_row": ([3, 0], 3, 4, 6),
    # a 2/1 split: the backward direction runs with a padded unit
    "narrow_backward": ([3, 2], 3, 4, 3),
    # the time reversal over many steps, next to a length-1 and an all-masked row
    "long_mixed": ([9, 4, 1, 0], 9, 3, 6),
}


def _birnn_case(cell: str):
    def make(edge, rng):
        lengths, length, d_in, width = edge
        store = ParamStore()
        rnn = BiRNN(store, "r", d_in, width, cell, rng)
        x = rng.normal(0.0, 0.8, size=(len(lengths), length, d_in))
        return store, rnn, x, _lengths_mask(lengths, length)
    return make


# op name: (make, hand-written op, tape-composed reference, edge shapes), where
# make(edge, rng) returns (store, module, input array, mask) for one edge shape.
FUSED_OPS = {
    "gru_birnn": (_birnn_case("gru"), BiRNN.__call__,
                  lambda rnn, x, m: _stepwise_birnn(rnn, x, m, False), BIRNN_EDGES),
    "gru_final_states": (_birnn_case("gru"), BiRNN.final_states,
                         lambda rnn, x, m: _stepwise_birnn(rnn, x, m, True), BIRNN_EDGES),
    "lstm_birnn": (_birnn_case("lstm"), BiRNN.__call__,
                   lambda rnn, x, m: _stepwise_birnn(rnn, x, m, False), BIRNN_EDGES),
    "lstm_final_states": (_birnn_case("lstm"), BiRNN.final_states,
                          lambda rnn, x, m: _stepwise_birnn(rnn, x, m, True), BIRNN_EDGES),
}
FUSED_CASES = [(op, edge) for op, row in FUSED_OPS.items() for edge in row[3]]


def _run_with_grads(fn, store: ParamStore, module, x_data: np.ndarray, mask: np.ndarray,
                    coef: np.ndarray, x_grad: bool = True) -> dict[str, np.ndarray]:
    """The op's output and the gradients of a weighted sum of it with
    respect to every parameter and, with ``x_grad``, the input."""
    store.zero_grads()
    x = Tensor(x_data, requires_grad=x_grad)
    with Tape() as tape:
        out = fn(module, x, mask)
        loss = sum_(mul(out, Tensor(coef)))
    backward(tape, loss)
    values = {"output": out.data.copy()}
    if x_grad:
        values["x.grad"] = x.grad
    values.update((f"{name}.grad", p.grad.copy()) for name, p in store.items())
    return values


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.abs(b).max()
    diff = np.abs(a - b).max()
    return 0.0 if diff == 0.0 else diff / scale


def _check_fused_op(op: str, edge, rng: np.random.Generator, x_grad: bool = True) -> None:
    """The hand-written op and its tape-composed reference on the case
    ``edge``: the output and every gradient within 1e-12 relative."""
    make, fused, reference, _ = FUSED_OPS[op]
    store, module, x, mask = make(edge, rng)
    coef = rng.normal(size=fused(module, Tensor(x), mask).shape)
    got = _run_with_grads(fused, store, module, x, mask, coef, x_grad)
    want = _run_with_grads(reference, store, module, x, mask, coef, x_grad)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].shape == want[key].shape, key
        assert _rel_err(got[key], want[key]) <= 1e-12, key
    # no comparison is vacuous: over two or more steps every weight and bias
    # takes part (in one step from a zero state the recurrent rows do not)
    if x_grad:
        assert np.abs(want["x.grad"]).max() > 0.0
    if x.shape[1] > 1:
        assert all(np.abs(want[f"{name}.grad"]).max() > 0.0 for name, _ in store.items())


@pytest.mark.parametrize("op,edge", FUSED_CASES, ids=[f"{op}-{edge}" for op, edge in FUSED_CASES])
def test_fused_op_matches_tape_reference(op, edge):
    _check_fused_op(op, FUSED_OPS[op][3][edge], np.random.default_rng(11))


def _draw_birnn_edge(rng: np.random.Generator) -> tuple:
    """A seeded random edge in the form of ``BIRNN_EDGES``: batch 1-5, a
    padded length of 1-11 that the longest row fills, other rows of any
    length down to fully masked, input widths 1-8 and output widths 2-9
    (odd ones included)."""
    batch, length = int(rng.integers(1, 6)), int(rng.integers(1, 12))
    lengths = [int(n) for n in rng.integers(0, length + 1, size=batch)]
    lengths[int(rng.integers(batch))] = length
    return lengths, length, int(rng.integers(1, 9)), int(rng.integers(2, 10))


@pytest.mark.parametrize("op", list(FUSED_OPS))
def test_fused_op_matches_tape_reference_on_random_shapes(op):
    """Seeded shape fuzzing of every ``FUSED_OPS`` row, with the input
    needing a gradient or not; it guards the hand-written backpropagation
    through time on shapes the hand-picked edges do not reach."""
    rng = np.random.default_rng(2025)
    for trial in range(40):
        edge, x_grad = _draw_birnn_edge(rng), bool(rng.integers(2))
        try:
            _check_fused_op(op, edge, rng, x_grad)
        except AssertionError as exc:
            raise AssertionError(
                f"{op} trial {trial}, edge {edge}, x_grad {x_grad}: {exc}") from exc


# ---------------------------------------------------------------------------
# variational dropout


def test_dropout_identity_cases(rng):
    x = Tensor(rng.normal(size=(2, 5, 4)))
    assert variational_dropout(x, 0.0, rng) is x
    assert variational_dropout(x, 0.5, None) is x  # no rng: eval mode
    # only (batch, len, width) sequences, in eval mode too
    for shape in ((2, 3), (2, 3, 4, 5)):
        with pytest.raises(ContractError):
            variational_dropout(Tensor(np.ones(shape)), 0.5, None)


def test_dropout_mask_shared_over_time():
    rng = np.random.default_rng(7)
    x = Tensor(np.ones((2, 6, 8)))
    y = variational_dropout(x, 0.5, rng)
    # every time step sees the same mask, scaled by 1/(1-rate)
    for t in range(1, 6):
        np.testing.assert_allclose(y.data[:, t], y.data[:, 0], atol=1e-15)
    kept = y.data[:, 0][y.data[:, 0] != 0]
    np.testing.assert_allclose(kept, 2.0, atol=1e-15)
    # examples draw independent masks
    assert not np.array_equal(y.data[0], y.data[1])


def test_dropout_bad_rate(rng):
    x = Tensor(np.ones((2, 3)))
    with pytest.raises(ConfigError):
        variational_dropout(x, 1.0, rng)
    with pytest.raises(ConfigError):
        variational_dropout(x, -0.1, rng)
