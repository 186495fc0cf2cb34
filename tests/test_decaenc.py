"""Densely connected encoder: width laws, connector call accounting, chain
widths, cross-hierarchy isolation, and padding invariance."""

import numpy as np
import pytest

from decaprop.bac import BAC
from decaprop.decaenc import DecaEnc
from decaprop.errors import ConfigError, ContractError
from decaprop.numerics import ParamStore, Tensor, add, grad_check, sum_


def build(layers=2, hidden=6, input_dim=7, seed=0, **kwargs):
    store = ParamStore()
    enc = DecaEnc(store, "enc", input_dim, hidden, layers, 2,
                  np.random.default_rng(seed), **kwargs)
    return enc, store


def data(rng, batch=2, lp=5, lq=3, d=7):
    p = Tensor(rng.normal(size=(batch, lp, d)))
    q = Tensor(rng.normal(size=(batch, lq, d)))
    p_mask = np.ones((batch, lp))
    p_mask[1, 3:] = 0.0
    q_mask = np.ones((batch, lq))
    q_mask[1, 2:] = 0.0
    return p, q, p_mask, q_mask


# ---------------------------------------------------------------------------
# width law


def enc_width(layers, hidden, **kwargs):
    return build(layers=layers, hidden=hidden, **kwargs)[0].output_dim


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("h", [32, 50, 64, 75])
def test_output_width_law(n, h):
    assert enc_width(n, h) == n * h + 3 * n * n
    assert enc_width(n, h, cross_hierarchy=False) == n * h + 3 * n


def test_output_width_without_connectors():
    assert enc_width(3, 10, connectors=False, concat_layers=True) == 30
    assert enc_width(3, 10, connectors=False, concat_layers=False) == 10


@pytest.mark.parametrize("n,h,expect", [(3, 50, 177), (2, 32, 76), (4, 32, 176)])
def test_width_law_fixed_points(n, h, expect):
    assert enc_width(n, h) == expect


def test_forward_shapes_match_width_law(rng):
    for cross, width in ((True, 24), (False, 18)):
        enc, _ = build(layers=2, hidden=6, cross_hierarchy=cross)
        p, q, pm, qm = data(rng)
        out = enc(p, q, pm, qm)
        assert enc.output_dim == width
        assert out.passage.shape == (2, 5, width)
        assert out.question.shape == (2, 3, width)
        assert len(out.question_states) == 2
        assert out.question_states[0].shape == (2, 3, 6)


def test_odd_hidden_width(rng):
    enc, _ = build(layers=2, hidden=5)
    p, q, pm, qm = data(rng)
    out = enc(p, q, pm, qm)
    assert out.passage.shape == (2, 5, 2 * 5 + 12)


# ---------------------------------------------------------------------------
# connector accounting


@pytest.mark.parametrize("n", [1, 2, 3])
def test_connector_call_counts(rng, n):
    enc, _ = build(layers=n, hidden=6)
    p, q, pm, qm = data(rng)
    calls = BAC.calls
    enc(p, q, pm, qm)
    assert BAC.calls - calls == n * n

    enc_nocross, _ = build(layers=n, hidden=6, cross_hierarchy=False)
    calls = BAC.calls
    enc_nocross(p, q, pm, qm)
    assert BAC.calls - calls == n

    enc_plain, _ = build(layers=n, hidden=6, connectors=False)
    calls = BAC.calls
    enc_plain(p, q, pm, qm)
    assert BAC.calls - calls == 0


def test_chain_widths():
    enc, _ = build(layers=3, hidden=6, input_dim=26)
    assert [r.input_dim for r in enc.rnns] == [26, 9, 9]
    enc_plain, _ = build(layers=3, hidden=6, input_dim=26, connectors=False)
    assert [r.input_dim for r in enc_plain.rnns] == [26, 6, 6]


def test_connector_map_registration_order():
    """Diagonal connectors first, then the others row by row, with or without
    cross-hierarchy, so the init stream does not depend on that flag."""
    for cross in (True, False):
        enc, store = build(layers=3, hidden=6, cross_hierarchy=cross)
        assert list(enc.bac) == [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2),
                                 (1, 0), (1, 2), (2, 0), (2, 1)]
        names = [n.split(".")[1] for n, _ in store.items() if ".bac" in n]
        assert list(dict.fromkeys(names)) == [f"bac{i}{j}" for i, j in enc.bac]
    assert build(layers=3, hidden=6, connectors=False)[0].bac == {}


def test_diagonal_block_equals_standalone_connector(rng):
    """The first Z block in the output is the chain connector applied to the
    layer-one states, which lead the output."""
    enc, _ = build(layers=2, hidden=6)
    p, q, pm, qm = data(rng)
    out = enc(p, q, pm, qm)
    h_p = Tensor(out.passage.data[..., :6])
    g_p, g_q = enc.bac[(0, 0)](h_p, out.question_states[0], pm, qm)
    nh = 2 * 6
    np.testing.assert_allclose(out.passage.data[..., nh:nh + 3], g_p.data, atol=1e-12)
    np.testing.assert_allclose(out.question.data[..., nh:nh + 3], g_q.data, atol=1e-12)


def test_cross_flag_only_changes_z_block(rng):
    """Same seed with and without cross-hierarchy: H chain and diagonal Z
    entries are identical because off-diagonal connectors always draw their
    init, whether or not they run."""
    enc_on, _ = build(layers=3, hidden=6, cross_hierarchy=True)
    enc_off, _ = build(layers=3, hidden=6, cross_hierarchy=False)
    p, q, pm, qm = data(rng)
    out_on = enc_on(p, q, pm, qm)
    out_off = enc_off(p, q, pm, qm)
    n, h = 3, 6
    np.testing.assert_array_equal(out_on.passage.data[..., :n * h],
                                  out_off.passage.data[..., :n * h])
    for i in range(n):
        on_block = out_on.passage.data[..., n * h + 3 * (i * n + i): n * h + 3 * (i * n + i) + 3]
        off_block = out_off.passage.data[..., n * h + 3 * i: n * h + 3 * i + 3]
        np.testing.assert_array_equal(on_block, off_block)


def test_padding_rows_do_not_leak(rng):
    enc, _ = build(layers=2, hidden=6)
    p, q, pm, qm = data(rng)
    p2 = Tensor(np.array(p.data))
    p2.data[1, 3:] = 55.0  # masked positions
    out1 = enc(p, q, pm, qm)
    out2 = enc(p2, q, pm, qm)
    np.testing.assert_allclose(out1.passage.data[1, :3], out2.passage.data[1, :3],
                               atol=1e-12)
    np.testing.assert_allclose(out1.question.data, out2.question.data, atol=1e-12)


# ---------------------------------------------------------------------------
# contracts and training hooks


def test_layer_width_contract(rng):
    enc, _ = build(layers=2, hidden=6, input_dim=7)
    with pytest.raises(ContractError, match="input width"):
        enc(Tensor(rng.normal(size=(2, 5, 8))), Tensor(rng.normal(size=(2, 3, 8))),
            np.ones((2, 5)), np.ones((2, 3)))


def test_needs_at_least_one_layer():
    with pytest.raises(ConfigError):
        build(layers=0)


def test_dropout_training_vs_eval(rng):
    enc, _ = build(layers=2, hidden=6, dropout=0.4)
    p, q, pm, qm = data(rng)
    eval_out = enc(p, q, pm, qm)
    eval_again = enc(p, q, pm, qm)
    np.testing.assert_array_equal(eval_out.passage.data, eval_again.passage.data)
    train_out = enc(p, q, pm, qm, rng=np.random.default_rng(1))
    assert not np.allclose(train_out.passage.data, eval_out.passage.data)


def test_gradients_through_two_layers(rng):
    store = ParamStore()
    enc = DecaEnc(store, "enc", 4, 4, 2, 2, np.random.default_rng(0))
    p = Tensor(rng.normal(0.0, 0.6, size=(1, 3, 4)))
    q = Tensor(rng.normal(0.0, 0.6, size=(1, 2, 4)))

    def forward():
        out = enc(p, q, np.ones((1, 3)), np.ones((1, 2)))
        return add(sum_(out.passage), sum_(out.question))

    assert grad_check(forward, store) < 1e-4
