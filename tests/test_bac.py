"""Attention connectors: the factorization-machine fast path against a naive
double loop, the attention primitive against a plain numpy oracle and on
analytic cases, and compression contracts."""

import numpy as np
import pytest

from decaprop.bac import BAC, FMKernel, MLPScorer, affinity, attend, make_scorer
from decaprop.decacore import GatedAttention
from decaprop.errors import ConfigError, ContractError
from decaprop.numerics import Dense, ParamStore, Tensor, add, grad_check, sum_, transpose_last


def naive_fm(x: np.ndarray, w0: float, w: np.ndarray, v: np.ndarray) -> float:
    """Direct second-order evaluation: w0 + sum w_i x_i + sum_{i<j} <v_i,v_j> x_i x_j."""
    n = x.shape[0]
    total = w0 + float(w @ x)
    for i in range(n):
        for j in range(i + 1, n):
            total += float(v[i] @ v[j]) * x[i] * x[j]
    return total


def real(*xs):
    """All-ones masks for sequences whose every position is real."""
    return [np.ones(x.shape[:-1]) for x in xs]


# ---------------------------------------------------------------------------
# factorization machine


def test_fm_zero_kernel_scores_zero(rng):
    store = ParamStore()
    kernel = FMKernel(store, "k", 4, 2, rng)
    for _, p in store.items():
        p.data[:] = 0.0
    out = kernel(Tensor(rng.normal(size=4)[None]))
    assert out.shape == (1, 1)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-15)


def test_fm_hand_value(rng):
    # x=[1,2], w0=1, w=[1,1], v=[[1],[1]] -> 1 + (1+2) + 1*1*2 = 6
    store = ParamStore()
    kernel = FMKernel(store, "k", 2, 1, rng)
    kernel.w0.data[:] = 1.0
    kernel.w.data[:] = 1.0
    kernel.v.data[:] = 1.0
    out = kernel(Tensor(np.array([[1.0, 2.0]])))
    np.testing.assert_allclose(out.data, 6.0, atol=1e-12)


def test_fm_fast_path_matches_naive(rng):
    store = ParamStore()
    kernel = FMKernel(store, "k", 10, 4, rng)
    kernel.w0.data[:] = rng.normal()
    for _ in range(50):
        x = rng.normal(size=10)
        expect = naive_fm(x, float(kernel.w0.data[0]),
                          kernel.w.data[:, 0], kernel.v.data)
        got = kernel(Tensor(x[None]))
        np.testing.assert_allclose(got.data, expect, atol=1e-10)


def test_fm_batched_shapes(rng):
    store = ParamStore()
    kernel = FMKernel(store, "k", 6, 3, rng)
    out = kernel(Tensor(rng.normal(size=(2, 5, 6))))
    assert out.shape == (2, 5, 1)


def test_fm_width_contract(rng):
    kernel = FMKernel(ParamStore(), "k", 6, 3, rng)
    with pytest.raises(ContractError):
        kernel(Tensor(np.zeros((2, 5))))
    with pytest.raises(ContractError):
        kernel(Tensor(np.zeros(6)))  # a bare vector, not a row


def test_fm_needs_a_factor(rng):
    with pytest.raises(ConfigError):
        FMKernel(ParamStore(), "k", 6, 0, rng)


def test_scorer_variants(rng):
    store = ParamStore()
    x = Tensor(rng.normal(size=(4, 5)))
    for kind, cls in (("linear", Dense), ("nonlinear", MLPScorer)):
        scorer = make_scorer(store, kind, 5, kind, 3, rng)
        assert isinstance(scorer, cls)
        assert scorer(x).shape == (4, 1)
    assert [n for n in store.names() if n.startswith("linear.")] == ["linear.w", "linear.b"]
    with pytest.raises(ConfigError):
        make_scorer(store, "s", 5, "quadratic", 3, rng)


# ---------------------------------------------------------------------------
# attention primitive


def test_affinity_unit_vectors():
    e = affinity(Tensor(np.array([[1.0, 0.0]])), Tensor(np.array([[1.0, 0.0]])))
    np.testing.assert_allclose(e.data, [[1.0 / np.sqrt(2.0)]], atol=1e-12)


def test_affinity_orthogonal_is_zero():
    e = affinity(Tensor(np.array([[1.0, 1.0]])), Tensor(np.array([[1.0, -1.0]])))
    np.testing.assert_allclose(e.data, [[0.0]], atol=1e-15)


def test_affinity_shape(rng):
    e = affinity(Tensor(rng.normal(size=(5, 8))), Tensor(rng.normal(size=(7, 8))))
    assert e.shape == (5, 7)


def test_affinity_width_mismatch(rng):
    with pytest.raises(ContractError):
        affinity(Tensor(rng.normal(size=(5, 8))), Tensor(rng.normal(size=(7, 9))))


def relu_proj(layer: Dense, x: np.ndarray) -> np.ndarray:
    return np.maximum(x @ layer.w.data + layer.b.data, 0.0)


def oracle_attend(fp: np.ndarray, fq: np.ndarray, values: np.ndarray,
                  mask: np.ndarray) -> np.ndarray:
    """softmax(mask(fp . fq^T / sqrt(d))) . values in plain numpy."""
    e = fp @ np.swapaxes(fq, -1, -2) / np.sqrt(fp.shape[-1])
    e = np.where(mask[:, None, :] > 0, e, -np.inf)
    w = np.exp(e - e.max(axis=-1, keepdims=True))
    return (w / w.sum(axis=-1, keepdims=True)) @ values


P_MASK = np.array([[1, 1, 1, 1], [1, 1, 0, 0]], dtype=np.float64)
Q_MASK = np.array([[1, 1, 1], [1, 0, 0]], dtype=np.float64)


def test_attention_matches_numpy_oracle(rng):
    bac = BAC(ParamStore(), "c", 5, 2, rng)
    p = rng.normal(size=(2, 4, 5))
    q = rng.normal(size=(2, 3, 5))
    fp, fq = relu_proj(bac.proj, p), relu_proj(bac.proj, q)
    aligned_q = oracle_attend(fp, fq, q, Q_MASK)  # question rows per passage position
    aligned_p = oracle_attend(fq, fp, p, P_MASK)  # passage rows per question position

    got = attend(affinity(Tensor(fp), Tensor(fq)), Tensor(q), Q_MASK)
    np.testing.assert_allclose(got.data, aligned_q, rtol=0, atol=1e-12)

    g_p, g_q = bac(Tensor(p), Tensor(q), P_MASK, Q_MASK)
    want_p = bac._compress(Tensor(aligned_q), Tensor(p)).data
    want_q = bac._compress(Tensor(aligned_p), Tensor(q)).data
    np.testing.assert_allclose(g_p.data, want_p, rtol=0, atol=1e-12)
    np.testing.assert_allclose(g_q.data, want_q, rtol=0, atol=1e-12)
    solo = bac.one_sided(Tensor(p), Tensor(q), Q_MASK)
    np.testing.assert_allclose(solo.data, want_p, rtol=0, atol=1e-12)


def test_gated_attended_values_match_numpy_oracle(rng):
    block = GatedAttention(ParamStore(), "attn", 6, 4, rng)
    p = rng.normal(size=(2, 5, 6))
    q = rng.normal(size=(2, 3, 6))
    q_mask = np.array([[1, 1, 1], [1, 1, 0]], dtype=np.float64)
    want = oracle_attend(relu_proj(block.proj, p), relu_proj(block.proj, q), q, q_mask)
    got = block.alignment(Tensor(p), Tensor(q), q_mask)
    np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)


def test_align_uniform_row_gives_column_mean(rng):
    p = Tensor(rng.normal(size=(4, 3)))
    q = Tensor(rng.normal(size=(5, 3)))
    e = Tensor(np.zeros((4, 5)))
    p_mask, q_mask = real(p, q)
    a, b = attend(transpose_last(e), p, p_mask), attend(e, q, q_mask)
    np.testing.assert_allclose(b.data, np.tile(q.data.mean(axis=0), (4, 1)), atol=1e-12)
    np.testing.assert_allclose(a.data, np.tile(p.data.mean(axis=0), (5, 1)), atol=1e-12)


def test_align_hard_attention_selects_row(rng):
    p = Tensor(rng.normal(size=(3, 4)))
    q = Tensor(rng.normal(size=(2, 4)))
    e = np.full((3, 2), -1e3)
    e[0, 1] = 1e3
    e[1, 0] = 1e3
    e[2, 1] = 1e3
    b = attend(Tensor(e), q, *real(q))
    np.testing.assert_allclose(b.data[0], q.data[1], atol=1e-9)
    np.testing.assert_allclose(b.data[1], q.data[0], atol=1e-9)


def test_align_shape_contract(rng):
    with pytest.raises(ContractError):
        attend(transpose_last(Tensor(np.zeros((3, 2)))), Tensor(np.zeros((4, 5))), np.ones(3))


# ---------------------------------------------------------------------------
# full connector


def test_bac_output_shapes(rng):
    store = ParamStore()
    bac = BAC(store, "c", 8, 3, rng)
    p, q = Tensor(rng.normal(size=(5, 8))), Tensor(rng.normal(size=(7, 8)))
    g_p, g_q = bac(p, q, *real(p, q))
    assert g_p.shape == (5, 3)
    assert g_q.shape == (7, 3)


def test_bac_batched_with_masks(rng):
    store = ParamStore()
    bac = BAC(store, "c", 6, 3, rng)
    p = Tensor(rng.normal(size=(2, 4, 6)))
    q = Tensor(rng.normal(size=(2, 3, 6)))
    p_mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0]], dtype=np.float64)
    q_mask = np.array([[1, 1, 1], [1, 0, 0]], dtype=np.float64)
    g_p, g_q = bac(p, q, p_mask, q_mask)
    assert g_p.shape == (2, 4, 3)
    assert g_q.shape == (2, 3, 3)


def test_bac_mask_blocks_padding_influence(rng):
    """Changing values at masked question positions must not move g_p."""
    store = ParamStore()
    bac = BAC(store, "c", 6, 3, rng)
    p = Tensor(rng.normal(size=(1, 4, 6)))
    q1 = rng.normal(size=(1, 3, 6))
    q2 = np.array(q1)
    q2[0, 2] = 77.0
    q_mask = np.array([[1, 1, 0]], dtype=np.float64)
    p_mask = np.ones((1, 4))
    g1, _ = bac(p, Tensor(q1), p_mask, q_mask)
    g2, _ = bac(p, Tensor(q2), p_mask, q_mask)
    np.testing.assert_allclose(g1.data, g2.data, atol=1e-12)


def test_bac_zero_kernels_give_zero_outputs(rng):
    store = ParamStore()
    bac = BAC(store, "c", 5, 2, rng)
    for name, p in store.items():
        if ".g_" in name:
            p.data[:] = 0.0
    p, q = Tensor(rng.normal(size=(4, 5))), Tensor(rng.normal(size=(6, 5)))
    g_p, g_q = bac(p, q, *real(p, q))
    np.testing.assert_allclose(g_p.data, np.zeros((4, 3)), atol=1e-15)
    np.testing.assert_allclose(g_q.data, np.zeros((6, 3)), atol=1e-15)


def test_bac_identical_sequences_symmetric(rng):
    store = ParamStore()
    bac = BAC(store, "c", 5, 2, rng)
    p = Tensor(rng.normal(size=(4, 5)))
    g_p, g_q = bac(p, p, *real(p, p))
    np.testing.assert_allclose(g_p.data, g_q.data, atol=1e-12)


def test_bac_one_sided_matches_left_output(rng):
    store = ParamStore()
    bac = BAC(store, "c", 6, 3, rng)
    p = Tensor(rng.normal(size=(2, 4, 6)))
    q = Tensor(rng.normal(size=(2, 3, 6)))
    q_mask = np.array([[1, 1, 1], [1, 1, 0]], dtype=np.float64)
    p_mask = np.ones((2, 4))
    g_p, _ = bac(p, q, p_mask, q_mask)
    solo = bac.one_sided(p, q, q_mask)
    np.testing.assert_allclose(solo.data, g_p.data, atol=1e-15)


def test_bac_width_contract(rng):
    bac = BAC(ParamStore(), "c", 5, 2, rng)
    with pytest.raises(ContractError):
        bac(Tensor(np.zeros((4, 6))), Tensor(np.zeros((3, 5))), np.ones(4), np.ones(3))


def test_bac_gradients(rng):
    store = ParamStore()
    bac = BAC(store, "c", 4, 2, rng)
    p = Tensor(rng.normal(0.0, 0.6, size=(3, 4)))
    q = Tensor(rng.normal(0.0, 0.6, size=(2, 4)))

    def forward():
        g_p, g_q = bac(p, q, *real(p, q))
        return add(sum_(g_p), sum_(g_q))

    assert grad_check(forward, store) < 1e-4
