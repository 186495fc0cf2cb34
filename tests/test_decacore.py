"""Interaction core: gate forcing identities, attention normalization and
equivariance, connector bank accounting, and fused output widths."""

import numpy as np
import pytest

from decaprop.bac import BAC, affinity, attend, gated_attend
from decaprop.decacore import DecaCore, GatedAttention
from decaprop.errors import ContractError
from decaprop.numerics import ParamStore, Tensor, grad_check, sum_


def build_block(dim=6, hidden=4, seed=0, **kwargs):
    store = ParamStore()
    block = GatedAttention(store, "attn", dim, hidden,
                           np.random.default_rng(seed), **kwargs)
    return block, store


def real(x):
    """An all-ones mask for a sequence whose every position is real."""
    return np.ones(x.shape[:-1])


def weights(block, p, q, q_mask):
    """Attention weights of the block: its attention applied to identity values."""
    eye = Tensor(np.broadcast_to(np.eye(q.shape[-2]), q.shape[:-2] + (q.shape[-2],) * 2))
    return attend(affinity(block.proj(p), block.proj(q)), eye, q_mask)


def build_core(input_dim=10, hidden=6, layers=2, seed=0, **kwargs):
    store = ParamStore()
    core = DecaCore(store, "core", input_dim, hidden, layers, 2,
                    np.random.default_rng(seed), **kwargs)
    return core, store


def stages(core, p, q):
    """(u1, u2): the core's two gated blocks run on their own, all positions real."""
    u1 = core.bi_attn(p, q, real(p), real(q))
    return u1, core.self_attn(u1, u1, real(u1), real(u1))


# ---------------------------------------------------------------------------
# gated attention


def test_block_output_shape(rng):
    block, _ = build_block()
    p = Tensor(rng.normal(size=(2, 5, 6)))
    q = Tensor(rng.normal(size=(2, 3, 6)))
    out = block(p, q, real(p), real(q))
    assert out.shape == (2, 5, 4)


def test_alignment_rows_sum_to_one(rng):
    block, _ = build_block()
    p = Tensor(rng.normal(size=(2, 5, 6)))
    q = Tensor(rng.normal(size=(2, 3, 6)))
    q_mask = np.array([[1, 1, 1], [1, 1, 0]], dtype=np.float64)
    a = weights(block, p, q, q_mask)
    np.testing.assert_allclose(a.data.sum(axis=-1), np.ones((2, 5)), atol=1e-9)
    np.testing.assert_allclose(a.data[1, :, 2], np.zeros(5), atol=1e-200)


def test_gate_values_strictly_inside_unit_interval(rng):
    block, _ = build_block()
    p = Tensor(rng.normal(size=(1, 4, 6)))
    q = Tensor(rng.normal(size=(1, 3, 6)))
    attended = attend(affinity(block.proj(p), block.proj(q)), q, real(q)).data
    gate = block.gate(Tensor(np.concatenate([p.data, attended], axis=-1)))
    assert np.all(gate.data > 0.0) and np.all(gate.data < 1.0)


def test_open_gate_reduces_to_plain_rnn(rng):
    block, store = build_block()
    with store.writable():
        block.gate.w.data[:] = 0.0
        block.gate.b.data[:] = 50.0  # sigmoid -> 1
    p = Tensor(rng.normal(size=(1, 4, 6)))
    q = Tensor(rng.normal(size=(1, 3, 6)))
    out = block(p, q, real(p), real(q))
    np.testing.assert_allclose(out.data, block.rnn(p, real(p)).data, atol=1e-6)


def test_closed_gate_feeds_zeros(rng):
    block, store = build_block()
    with store.writable():
        block.gate.w.data[:] = 0.0
        block.gate.b.data[:] = -50.0  # sigmoid -> 0
    p = Tensor(rng.normal(size=(1, 4, 6)))
    q = Tensor(rng.normal(size=(1, 3, 6)))
    out = block(p, q, real(p), real(q))
    zeros = block.rnn(Tensor(np.zeros((1, 4, 6))), real(p))
    np.testing.assert_allclose(out.data, zeros.data, atol=1e-6)


def test_gated_attend_shape_contract(rng):
    """Rows, mask, projection and gate must fit one another: p and q of the
    width d over the same batch, a (..., lq) mask, a (d, d) projection and
    a (2d, d) gate weight."""
    block, _ = build_block()
    wide, _ = build_block(dim=4)
    p = Tensor(rng.normal(size=(2, 5, 6)))
    q = Tensor(rng.normal(size=(2, 3, 6)))
    for pp, qq, mask, proj in ((p, q, np.ones((2, 4)), block.proj),                 # lq mismatch
                               (Tensor(np.zeros((2, 5, 4))), q, np.ones((2, 3)), block.proj),
                               (p, Tensor(np.zeros((2, 3, 4))), np.ones((2, 3)), block.proj),
                               (p, Tensor(np.zeros((1, 3, 6))), np.ones((1, 3)), block.proj),
                               (p, q, np.ones((2, 3)), wide.proj)):                # projection
        with pytest.raises(ContractError):
            gated_attend(pp, qq, mask, proj, block.gate)
    assert gated_attend(p, q, np.ones((2, 3)), block.proj, block.gate).shape == p.shape


def test_ungated_block_skips_attention(rng):
    block, store = build_block(gated=False)
    assert not any("gate" in n or "proj" in n for n in store.names())
    p = Tensor(rng.normal(size=(1, 4, 6)))
    q = Tensor(rng.normal(size=(1, 3, 6)))
    out = block(p, q, real(p), real(q))
    np.testing.assert_allclose(out.data, block.rnn(p, real(p)).data, atol=1e-15)


def test_self_attention_single_position_weight_is_one(rng):
    block, _ = build_block()
    x = Tensor(rng.normal(size=(1, 1, 6)))
    a = weights(block, x, x, real(x))
    np.testing.assert_allclose(a.data, [[[1.0]]], atol=1e-12)


def test_self_attention_permutation_equivariance(rng):
    block, _ = build_block()
    x = rng.normal(size=(1, 4, 6))
    perm = np.array([2, 0, 3, 1])
    mask = np.ones((1, 4))
    a = weights(block, Tensor(x), Tensor(x), mask).data[0]
    a_perm = weights(block, Tensor(x[:, perm]), Tensor(x[:, perm]), mask).data[0]
    np.testing.assert_allclose(a_perm, a[perm][:, perm], atol=1e-12)


# ---------------------------------------------------------------------------
# core


def test_core_output_width_and_counts(rng):
    core, _ = build_core(layers=2, hidden=6)
    assert core.output_dim == 6 + 6 * 2
    p = Tensor(rng.normal(size=(2, 5, 10)))
    q = Tensor(rng.normal(size=(2, 3, 10)))
    states = [Tensor(rng.normal(size=(2, 3, 6))) for _ in range(2)]
    calls = BAC.calls
    m = core(p, q, states, real(p), real(q))
    assert BAC.calls - calls == 4  # 2n one-sided connectors
    assert m.shape == (2, 5, 18)
    u1, u2 = stages(core, p, q)
    assert u1.shape == (2, 5, 6)
    assert u2.shape == (2, 5, 6)


def test_core_width_fixed_point():
    core, _ = build_core(input_dim=20, hidden=64, layers=3)
    assert core.output_dim == 64 + 18


def test_core_without_bank_returns_u2(rng):
    core, _ = build_core(layers=2, hidden=6, dense_core=False)
    assert core.output_dim == 6
    p = Tensor(rng.normal(size=(1, 4, 10)))
    q = Tensor(rng.normal(size=(1, 3, 10)))
    m = core(p, q, [], real(p), real(q))
    np.testing.assert_allclose(m.data, stages(core, p, q)[1].data, atol=1e-15)


def test_core_zero_kernels_leave_u2_block(rng):
    core, store = build_core(layers=2, hidden=6)
    with store.writable():
        for name, p in store.items():
            if ".bank" in name and ".g_" in name:
                p.data[:] = 0.0
    p = Tensor(rng.normal(size=(1, 4, 10)))
    q = Tensor(rng.normal(size=(1, 3, 10)))
    states = [Tensor(rng.normal(size=(1, 3, 6))) for _ in range(2)]
    m = core(p, q, states, real(p), real(q))
    np.testing.assert_allclose(m.data[..., :6], stages(core, p, q)[1].data, atol=1e-15)
    np.testing.assert_allclose(m.data[..., 6:], np.zeros((1, 4, 12)), atol=1e-15)


def test_core_ungated_keeps_widths(rng):
    core, _ = build_core(layers=2, hidden=6, gated=False)
    p = Tensor(rng.normal(size=(1, 4, 10)))
    q = Tensor(rng.normal(size=(1, 3, 10)))
    states = [Tensor(rng.normal(size=(1, 3, 6))) for _ in range(2)]
    m = core(p, q, states, real(p), real(q))
    assert m.shape == (1, 4, 18)


def test_core_state_count_contract(rng):
    core, _ = build_core(layers=2, hidden=6)
    p = Tensor(rng.normal(size=(1, 4, 10)))
    q = Tensor(rng.normal(size=(1, 3, 10)))
    with pytest.raises(ContractError):
        core(p, q, [Tensor(rng.normal(size=(1, 3, 6)))], real(p), real(q))


def test_core_gradients(rng):
    store = ParamStore()
    core = DecaCore(store, "core", 5, 4, 1, 2, np.random.default_rng(0))
    p = Tensor(rng.normal(0.0, 0.6, size=(1, 3, 5)))
    q = Tensor(rng.normal(0.0, 0.6, size=(1, 2, 5)))
    states = [Tensor(rng.normal(0.0, 0.6, size=(1, 2, 4)))]

    def forward():
        return sum_(core(p, q, states, real(p), real(q)))

    assert grad_check(forward, store) < 1e-4
