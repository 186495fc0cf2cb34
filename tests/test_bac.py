"""Attention connectors: the factorization-machine fast path against a naive
double loop, the attention primitive against a plain numpy oracle and on
analytic cases, the two records with a hand-written backward (the FM
connector and the gated-attention block) and the closed forms they share
against taped references on hand-picked and on seeded random shapes, what
the connector record keeps, and compression contracts."""

import tracemalloc

import numpy as np
import pytest

from decaprop.bac import (BAC, FMKernel, MLPScorer, _fm_compress, _fm_compress_backward,
                          _scores, _scores_backward, affinity, attend, attention_weights,
                          attention_weights_backward, compress, gated_attend, make_scorer)
from decaprop.decacore import GatedAttention
from decaprop.errors import ConfigError, ContractError
from decaprop.numerics import (Dense, ParamStore, Tape, Tensor, _acc, _record, add, backward,
                               concat, grad_check, logistic, mul, sum_, transpose_last)


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
    """The gated record's rows, sigmoid([p; A q] W + b) ⊙ p, with the
    attended rows A q from the plain numpy oracle."""
    block = GatedAttention(ParamStore(), "attn", 6, 4, rng)
    p = rng.normal(size=(2, 5, 6))
    q = rng.normal(size=(2, 3, 6))
    q_mask = np.array([[1, 1, 1], [1, 1, 0]], dtype=np.float64)
    attended = oracle_attend(relu_proj(block.proj, p), relu_proj(block.proj, q), q, q_mask)
    gate = np.concatenate([p, attended], axis=-1) @ block.gate.w.data + block.gate.b.data
    want = logistic(gate) * p
    got = gated_attend(Tensor(p), Tensor(q), q_mask, block.proj, block.gate)
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


def test_attend_zeroes_masked_keys(rng):
    e = rng.normal(size=(2, 1, 5))
    mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=np.float64)
    weights = attend(Tensor(e), Tensor(np.eye(5)), mask).data[:, 0]
    assert np.all(weights[0, 3:] < 1e-200)
    np.testing.assert_allclose(weights.sum(axis=-1), np.ones(2), atol=1e-12)
    # masked keys do not influence the real ones
    e[0, 0, 3:] = 99.0
    np.testing.assert_allclose(attend(Tensor(e), Tensor(np.eye(5)), mask).data[0, 0, :3],
                               weights[0, :3], atol=1e-12)


def test_attend_grad(rng):
    store = ParamStore()
    e = store.register("e", 0.8 * rng.normal(size=(2, 3, 4)))
    values = store.register("values", 0.8 * rng.normal(size=(2, 4, 2)))
    mask = np.array([[1, 1, 1, 0], [1, 1, 0, 0]], dtype=np.float64)
    coef = Tensor(rng.normal(size=(2, 3, 2)))
    assert grad_check(lambda: sum_(mul(attend(e, values, mask), coef)), store) < 1e-6


# ---------------------------------------------------------------------------
# records with a hand-written backward, and the closed forms they share,
# against taped references


def _closed_form(inputs: list, params: tuple, y: np.ndarray, backward_fn) -> Tensor:
    """``y`` as one tape record whose backward is ``backward_fn(g)``: it
    accumulates the gradients of ``params`` itself and returns those of
    ``inputs``, in order, or none if it accumulates those too.  It runs a
    closed form the records share on its own."""
    out = Tensor(y)

    def bw():
        for t, g in zip(inputs, backward_fn(out.grad)):
            _acc(t, g)

    _record(tuple(inputs) + params, out, bw)
    return out


def fm_closed_form(kernel: FMKernel, x: Tensor) -> Tensor:
    """``FMKernel.scores`` and ``FMKernel.backward`` on the rows of x."""
    rows = x.data.reshape(-1, kernel.input_dim)
    tables = kernel.tables()
    y, xvw = kernel.scores([rows], tables)

    def backward_fn(g):
        g = g.reshape(-1, 1)
        d_vw, (dx,) = kernel.backward([rows], xvw, g, tables)
        kernel.accumulate(d_vw, g.sum(axis=0))
        return [dx.reshape(x.shape)]
    return _closed_form([x], (kernel.w0, kernel.w, kernel.v), y.reshape(x.shape[:-1] + (1,)),
                        backward_fn)


def attend_closed_form(e: Tensor, values: Tensor, mask: np.ndarray, transposed: bool) -> Tensor:
    """``attention_weights`` and its backward, then the weighted sum of the
    values rows; with ``transposed`` the scores are laid out (keys, queries)
    and the softmax runs over axis -2, as the records run it."""
    axis = -2 if transposed else -1
    y = attention_weights(e.data, mask, axis=axis)
    weights_t = y if transposed else np.swapaxes(y, -1, -2)  # (..., keys, queries)

    def backward_fn(g):
        if transposed:
            gy = values.data @ np.swapaxes(g, -1, -2)
        else:
            gy = g @ np.swapaxes(values.data, -1, -2)
        return [attention_weights_backward(gy, y, axis), weights_t @ g]
    return _closed_form([e, values], (), np.swapaxes(weights_t, -1, -2) @ values.data,
                        backward_fn)


def scores_closed_form(proj: Dense, p: Tensor, q: Tensor) -> Tensor:
    """``_scores`` and ``_scores_backward``: the scores of the rows p and q
    under the ReLU projection, (..., lq, lp).  ``_scores_backward`` adds the
    rows' gradients to zero ones of its own and accumulates them into p and
    q itself."""
    pd, qd = p.data.reshape((-1,) + p.shape[-2:]), q.data.reshape((-1,) + q.shape[-2:])
    e = _scores(proj, pd, qd)

    def backward_fn(g):
        d = pd.shape[-1]
        _scores_backward(proj, p, q, pd, qd, g.reshape(e.shape).copy(),
                         np.zeros((pd.size // d, d)), np.zeros((qd.size // d, d)))
        return []
    return _closed_form([p, q], (proj.w, proj.b), e.reshape(p.shape[:-2] + e.shape[1:]),
                        backward_fn)


def dense_closed_form(layer: Dense, x: Tensor) -> Tensor:
    """``Dense.rows`` with the closed-form backward: with g the upstream
    gradient times act'(y) (1[y > 0] or y (1 - y)), dW = Xᵀg, db = Σ g and
    dx = g Wᵀ."""
    rows = x.data.reshape(-1, layer.d_in)
    y = layer.rows(rows)

    def backward_fn(g):
        g = g.reshape(-1, layer.d_out)
        if layer.activation == "relu":
            g = g * (y > 0.0)
        elif layer.activation == "sigmoid":
            g = g * y * (1.0 - y)
        _acc(layer.w, rows.T @ g)
        _acc(layer.b, g.sum(axis=0))
        return [(g @ layer.w.data.T).reshape(x.shape)]
    return _closed_form([x], (layer.w, layer.b), y.reshape(x.shape[:-1] + (layer.d_out,)),
                        backward_fn)


def compress_closed_form(kernels: tuple, a: Tensor, o: Tensor) -> Tensor:
    """``_fm_compress`` and ``_fm_compress_backward`` on the rows of a and o."""
    d = a.shape[-1]
    tables = [k.tables() for k in kernels]
    ad, od = a.data.reshape(1, -1, d), o.data.reshape(1, -1, d)
    y = np.empty(ad.shape[:-1] + (3,))
    _fm_compress(kernels, tables, ad, od, y)

    def backward_fn(g):
        da, do = _fm_compress_backward(kernels, tables, ad, od, g.reshape(y.shape))
        return [da.reshape(a.shape), do.reshape(o.shape)]
    params = tuple(t for k in kernels for t in (k.w0, k.w, k.v))
    return _closed_form([a, o], params, y.reshape(a.shape[:-1] + (3,)), backward_fn)


def _fm_case(edge, rng):
    shape, factors = edge
    store = ParamStore()
    kernel = FMKernel(store, "fm", shape[-1], factors, rng)
    kernel.w0.data[:] = rng.normal()
    return store, [rng.normal(size=shape)], lambda x: fm_closed_form(kernel, x), kernel


def _attend_case(edge, rng):
    """``lengths`` are the real keys of each example; with ``transposed`` the
    scores are laid out (keys, queries): the taped ``attend`` gets them
    through ``transpose_last``, as the stand-in connectors' passage side
    does."""
    lengths, queries, keys, width, transposed = edge
    batch = (len(lengths),) if lengths else ()
    mask = _key_mask(lengths, keys)
    scores = rng.normal(size=batch + ((keys, queries) if transposed else (queries, keys)))
    arrays = [scores, rng.normal(size=batch + (keys, width))]

    def taped(e, values):
        return attend(transpose_last(e) if transposed else e, values, mask)
    return (ParamStore(), arrays,
            lambda e, values: attend_closed_form(e, values, mask, transposed), taped)


def _live_projection(store: ParamStore, width: int, rng) -> Dense:
    """A ReLU projection whose positive bias keeps rows of both sides live:
    at width 1 a ReLU dead on every row of one side would zero the
    projection's gradient."""
    proj = Dense(store, "proj", width, width, "relu", rng)
    proj.b.data[:] = 0.5 + np.abs(rng.normal(size=width))
    return proj


def _affinity_case(edge, rng):
    """The scores of raw rows under a ReLU projection, against the taped
    projection and ``affinity``."""
    p_shape, q_rows = edge
    store = ParamStore()
    proj = _live_projection(store, p_shape[-1], rng)
    arrays = [rng.normal(size=p_shape), rng.normal(size=p_shape[:-2] + (q_rows, p_shape[-1]))]
    return (store, arrays, lambda p, q: scores_closed_form(proj, p, q),
            lambda p, q: transpose_last(affinity(proj(p), proj(q))))


def _constant(op, arrays: list, frozen: int):
    """``op`` with its input ``frozen`` fixed to a tensor that needs no
    gradient; the other inputs stay arguments."""
    fixed = Tensor(arrays[frozen])
    return lambda *args: op(*args[:frozen], fixed, *args[frozen:])


def _randomize_zeros(store: ParamStore, rng) -> None:
    """Random values for the parameters that start at zero (biases, FM w0),
    so that no comparison rests on a zero term."""
    for _, p in store.items():
        if not p.data.any():
            p.data[...] = rng.normal(size=p.shape)


def _dense_case(edge, rng):
    """With ``frozen`` set, x needs no gradient."""
    shape, activation, frozen = edge
    store = ParamStore()
    layer = Dense(store, "dense", shape[-1], 4, activation, rng)
    layer.b.data[:] = rng.normal(size=4)

    def closed(x):
        return dense_closed_form(layer, x)

    arrays = [rng.normal(size=shape)]
    if frozen:
        return store, [], _constant(closed, arrays, 0), _constant(layer, arrays, 0)
    return store, arrays, closed, layer


def _compress_case(edge, rng):
    """The FM compression the connector record runs, against ``compress``
    with the taped FM scorers.  ``frozen`` names an input (0 aligned,
    1 original) that needs no gradient."""
    shape, factors, frozen = edge
    store = ParamStore()
    width = shape[-1]
    kernels = tuple(FMKernel(store, f"c.{name}", n, factors, rng)
                    for name, n in (("g_cat", 2 * width), ("g_sub", width), ("g_mul", width)))
    _randomize_zeros(store, rng)
    arrays = [rng.normal(size=shape), rng.normal(size=shape)]

    def closed(a, o):
        return compress_closed_form(kernels, a, o)

    def taped(a, o):
        return compress(a, o, kernels)
    if frozen is None:
        return store, arrays, closed, taped
    return (store, [arrays[1 - frozen]], _constant(closed, arrays, frozen),
            _constant(taped, arrays, frozen))


def _connector_case(edge, rng):
    """The FM connector record (``BAC.__call__``, its two outputs side by
    side, or ``BAC.one_sided``) against the taped composition: the ReLU
    ``Dense`` projection of each side, ``affinity``, ``attend`` over the
    question keys and, two-sided, over ``transpose_last`` of the scores,
    and ``compress`` with the FM scorers.  The key lengths are per example
    ([] for a 2-d call); ``frozen`` names an input (0 p, 1 q) that needs no
    gradient."""
    p_lengths, q_lengths, lp, lq, width, factors, two_sided, frozen = edge
    batch = (len(p_lengths),) if p_lengths else ()
    p_mask, q_mask = _key_mask(p_lengths, lp), _key_mask(q_lengths, lq)
    store = ParamStore()
    bac = BAC(store, "c", width, factors, rng)
    _randomize_zeros(store, rng)
    # a positive projection bias keeps rows of both sides live: at width 1 a
    # ReLU dead on every row of one side would zero the projection's gradient
    bac.proj.b.data[:] = 0.5 + np.abs(bac.proj.b.data)
    scorers = (bac.g_cat, bac.g_sub, bac.g_mul)

    def fused(p, q):
        if two_sided:
            return concat(list(bac(p, q, p_mask, q_mask)), -2)
        return bac.one_sided(p, q, q_mask)

    def taped(p, q):
        e = affinity(bac.proj(p), bac.proj(q))
        g_p = compress(attend(e, q, q_mask), p, scorers)
        if not two_sided:
            return g_p
        return concat([g_p, compress(attend(transpose_last(e), p, p_mask), q, scorers)], -2)

    arrays = [rng.normal(size=batch + (lp, width)), rng.normal(size=batch + (lq, width))]
    if frozen is None:
        return store, arrays, fused, taped
    return (store, [arrays[1 - frozen]], _constant(fused, arrays, frozen),
            _constant(taped, arrays, frozen))


def _key_mask(lengths: list, keys: int) -> np.ndarray:
    """(batch, keys) mask with ``lengths`` real keys per example; with no
    lengths, one all-real (keys,) row."""
    return (np.arange(keys) < np.array(lengths or keys)[..., None]).astype(np.float64)


def _gate_case(edge, rng):
    """``gated_attend`` against the taped composition of the gated block:
    ``mul(gate(concat([p, attend(affinity(proj(p), proj(q)), q, mask)])), p)``.
    With ``self_block`` the passage rows are also the keys (lq = lp), as in
    the self-attention block; ``frozen`` names an input (0 p, 1 q) that
    needs no gradient."""
    lengths, lp, lq, width, self_block, frozen = edge
    batch = (len(lengths),) if lengths else ()
    mask = _key_mask(lengths, lq)
    store = ParamStore()
    proj = _live_projection(store, width, rng)
    gate = Dense(store, "gate", 2 * width, width, "sigmoid", rng)
    gate.b.data[:] = rng.normal(size=width)

    def fused(p, q):
        return gated_attend(p, q, mask, proj, gate)

    def taped(p, q):
        return mul(gate(concat([p, attend(affinity(proj(p), proj(q)), q, mask)], -1)), p)

    arrays = [rng.normal(size=batch + (lp, width))]
    if self_block:
        return (store, arrays, lambda p: fused(p, p), lambda p: taped(p, p))
    arrays.append(rng.normal(size=batch + (lq, width)))
    if frozen is None:
        return store, arrays, fused, taped
    return (store, [arrays[1 - frozen]], _constant(fused, arrays, frozen),
            _constant(taped, arrays, frozen))


# op name: (make, edge shapes), where make(edge, rng) returns (store, input
# arrays, the record or closed form, its taped reference) for one edge shape.
# ``connector`` and ``gate`` are the records the model runs; the other rows
# hold the closed forms those records share, or ``Dense.rows``, against the
# taped op of the same math.
CONNECTOR_OPS = {
    # input shape, factors
    "fm": (_fm_case, {"2d": ((5, 6), 3), "3d": ((2, 4, 6), 3), "factors_1": ((3, 4), 1),
                      "width_1": ((2, 3, 1), 2), "one_row": ((1, 6), 3)}),
    # key lengths per example ([] for a 2-d call), queries, keys, value width, transposed
    "attend": (_attend_case, {"2d": ([], 3, 4, 2, False), "3d_padded": ([4, 2], 3, 4, 5, False),
                              "one_real_key": ([3, 1], 2, 3, 4, False),
                              "lk_1": ([1, 1], 3, 1, 2, False), "one_row": ([3], 1, 3, 2, False),
                              "transposed": ([4, 2], 3, 4, 5, True)}),
    # passage shape, question rows
    "affinity": (_affinity_case, {"2d": ((3, 5), 4), "3d": ((2, 3, 5), 4),
                                  "width_1": ((2, 3, 1), 2), "one_row": ((1, 1, 4), 3)}),
    # input shape, activation, x needs no gradient
    "dense": (_dense_case, {"none_2d": ((5, 3), "none", False), "relu_2d": ((6, 3), "relu", False),
                            "relu_3d": ((2, 4, 3), "relu", False),
                            "sigmoid_3d": ((2, 4, 3), "sigmoid", False),
                            "no_x_grad": ((2, 4, 3), "relu", True),
                            "one_row": ((1, 3), "sigmoid", False)}),
    # input shape, factors, the input that needs no gradient (None: neither)
    "compress": (_compress_case, {"2d": ((5, 4), 3, None), "3d": ((2, 4, 5), 3, None),
                                  "factors_1": ((3, 4), 1, None), "width_1": ((2, 3, 1), 2, None),
                                  "one_row": ((1, 4), 2, None),
                                  "no_aligned_grad": ((2, 3, 4), 2, 0),
                                  "no_original_grad": ((2, 3, 4), 2, 1)}),
    # key lengths of p and of q per example ([] for a 2-d call), lp, lq, width,
    # factors, two-sided, the input that needs no gradient (None: neither)
    "connector": (_connector_case, {
        "two_sided": ([4, 4], [3, 3], 4, 3, 5, 3, True, None),
        "one_sided": ([4, 2], [3, 2], 4, 3, 5, 3, False, None),
        "2d": ([], [], 4, 3, 5, 3, True, None),
        "padded": ([5, 2, 3], [3, 1, 2], 5, 3, 4, 2, True, None),
        "lp_1": ([1, 1], [3, 2], 1, 3, 4, 2, True, None),
        "lq_1": ([4, 2], [1, 1], 4, 1, 4, 2, True, None),
        "one_sided_lq_1": ([4, 2], [1, 1], 4, 1, 4, 2, False, None),
        "batch_1": ([3], [2], 3, 2, 4, 2, True, None),
        "width_1": ([3, 2], [2, 2], 3, 2, 1, 2, True, None),
        "factors_1": ([3, 2], [2, 1], 3, 2, 4, 1, True, None),
        "no_p_grad": ([4, 2], [3, 2], 4, 3, 4, 2, True, 0),
        "no_q_grad": ([4, 2], [3, 2], 4, 3, 4, 2, True, 1),
        "one_sided_no_q_grad": ([4, 2], [3, 2], 4, 3, 4, 2, False, 1)}),
    # key lengths per example ([] for a 2-d call), lp, lq, width, self block,
    # the input that needs no gradient (None: neither)
    "gate": (_gate_case, {"2d": ([], 4, 3, 3, False, None),
                          "3d_padded": ([3, 1], 5, 3, 4, False, None),
                          "lq_1": ([1, 1], 4, 1, 3, False, None),
                          "self": ([5, 3], 5, 5, 3, True, None),
                          "batch_1": ([2], 3, 2, 3, False, None),
                          "width_1": ([3, 2], 4, 3, 1, False, None),
                          "no_p_grad": ([3, 2], 4, 3, 3, False, 0),
                          "no_q_grad": ([3, 2], 4, 3, 3, False, 1)}),
}
CONNECTOR_CASES = [(op, edge) for op, (_, edges) in CONNECTOR_OPS.items() for edge in edges]
# gradients that are zero in exact arithmetic: at width 1 the FM's pairwise
# term is x²v² - x²v², and a softmax over one key is constant
VANISHING = {("fm", "width_1"): {"fm.v.grad"}, ("attend", "lk_1"): {"input0.grad"},
             ("compress", "width_1"): {"c.g_sub.v.grad", "c.g_mul.v.grad"},
             ("connector", "width_1"): {"c.g_sub.v.grad", "c.g_mul.v.grad"},
             ("connector", "one_sided_lq_1"): {"c.proj.w.grad", "c.proj.b.grad"},
             ("gate", "lq_1"): {"proj.w.grad", "proj.b.grad"}}


def _outputs_and_grads(fn, store: ParamStore, arrays: list, coef: np.ndarray) -> dict:
    """The op's output and the gradients of a weighted sum of it with
    respect to every input and parameter.  Every input needs a gradient;
    an op closes over those that do not."""
    store.zero_grads()
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = fn(*inputs)
        loss = sum_(mul(out, Tensor(coef)))
    backward(tape, loss)
    values = {"output": out.data.copy()}
    values.update((f"input{i}.grad", t.grad) for i, t in enumerate(inputs))
    values.update((f"{name}.grad", p.grad.copy()) for name, p in store.items())
    return values


def _check_against_reference(op: str, edge, rng: np.random.Generator,
                             vanishing: set) -> None:
    """The record or closed form and its taped reference on the case
    ``edge``: the output and every gradient within 1e-12 relative.  Keys in ``vanishing``
    are zero in exact arithmetic and are held to rounding level instead."""
    make, _ = CONNECTOR_OPS[op]
    store, arrays, fused, reference = make(edge, rng)
    coef = rng.normal(size=fused(*map(Tensor, arrays)).shape)
    got = _outputs_and_grads(fused, store, arrays, coef)
    want = _outputs_and_grads(reference, store, arrays, coef)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].shape == want[key].shape, key
        if key in vanishing:
            # both sides at rounding level of the O(1) terms that cancel
            assert max(np.abs(got[key]).max(), np.abs(want[key]).max()) <= 1e-14, key
            continue
        scale = np.abs(want[key]).max()
        assert scale > 0.0, key  # no comparison is vacuous
        assert np.abs(got[key] - want[key]).max() <= 1e-12 * scale, key


@pytest.mark.parametrize("op,edge", CONNECTOR_CASES,
                         ids=[f"{op}-{edge}" for op, edge in CONNECTOR_CASES])
def test_connector_op_matches_tape_reference(op, edge):
    _check_against_reference(op, CONNECTOR_OPS[op][1][edge], np.random.default_rng(12),
                             VANISHING.get((op, edge), set()))


# Seeded random edges for every op of CONNECTOR_OPS, in the same form as its
# hand-picked ones: batch 1-5, lengths and widths 1-9 (odd ones included),
# factors 1-4, padded keys, and which input needs no gradient.  Each draw
# returns the edge and the gradients that vanish in exact arithmetic on it.


def _lengths(rng, keys: int) -> list:
    """Real keys per example for a batch of 1-5; at least one real key each."""
    return list(rng.integers(1, keys + 1, size=rng.integers(1, 6)))


def _draw_fm(rng):
    width = int(rng.integers(1, 10))
    lead = tuple(rng.integers(1, 10, size=rng.integers(1, 3)))
    return (lead + (width,), int(rng.integers(1, 5))), {"fm.v.grad"} if width == 1 else set()


def _draw_attend(rng):
    keys = int(rng.integers(1, 10))
    lengths = _lengths(rng, keys)
    edge = (lengths, int(rng.integers(1, 10)), keys, int(rng.integers(1, 10)),
            bool(rng.integers(2)))
    # over one real key the softmax is constant: the scores get no gradient
    return edge, {"input0.grad"} if max(lengths) == 1 else set()


def _draw_affinity(rng):
    shape = (int(rng.integers(1, 6)), int(rng.integers(1, 10)), int(rng.integers(1, 10)))
    return (shape, int(rng.integers(1, 10))), set()


def _draw_dense(rng):
    shape = (int(rng.integers(1, 6)), int(rng.integers(1, 10)), int(rng.integers(1, 10)))
    return (shape, ("none", "relu", "sigmoid")[rng.integers(3)], bool(rng.integers(2))), set()


def _draw_compress(rng):
    width = int(rng.integers(1, 10))
    shape = (int(rng.integers(1, 6)), int(rng.integers(1, 10)), width)
    frozen = (None, 0, 1)[rng.integers(3)]
    vanishing = {"c.g_sub.v.grad", "c.g_mul.v.grad"} if width == 1 else set()
    return (shape, int(rng.integers(1, 5)), frozen), vanishing


def _draw_connector(rng):
    lp, lq, width = (int(n) for n in rng.integers(1, 10, size=3))
    p_lengths = _lengths(rng, lp)
    q_lengths = list(rng.integers(1, lq + 1, size=len(p_lengths)))
    two_sided = bool(rng.integers(2))
    edge = (p_lengths, q_lengths, lp, lq, width, int(rng.integers(1, 5)), two_sided,
            (None, 0, 1)[rng.integers(3)])
    vanishing = {"c.g_sub.v.grad", "c.g_mul.v.grad"} if width == 1 else set()
    # softmaxes over one real key each are constant: the projection gets no
    # gradient
    if max(q_lengths) == 1 and (not two_sided or max(p_lengths) == 1):
        vanishing |= {"c.proj.w.grad", "c.proj.b.grad"}
    return edge, vanishing


def _draw_gate(rng):
    self_block = bool(rng.integers(2))
    lp = int(rng.integers(1, 10))
    lq = lp if self_block else int(rng.integers(1, 10))
    lengths = _lengths(rng, lq)
    frozen = None if self_block else (None, 0, 1)[rng.integers(3)]
    edge = (lengths, lp, lq, int(rng.integers(1, 10)), self_block, frozen)
    # a softmax over one real key is constant: the projection gets no gradient
    return edge, {"proj.w.grad", "proj.b.grad"} if max(lengths) == 1 else set()


FUZZ_DRAWS = {"fm": _draw_fm, "attend": _draw_attend, "affinity": _draw_affinity,
              "dense": _draw_dense, "compress": _draw_compress, "connector": _draw_connector,
              "gate": _draw_gate}


@pytest.mark.parametrize("op", list(CONNECTOR_OPS))
def test_connector_op_matches_tape_reference_on_random_shapes(op):
    rng = np.random.default_rng(2024)
    for trial in range(64):
        edge, vanishing = FUZZ_DRAWS[op](rng)
        try:
            _check_against_reference(op, edge, rng, vanishing)
        except AssertionError as exc:
            raise AssertionError(f"{op} trial {trial}, edge {edge}: {exc}") from exc


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


def test_connector_record_keeps_no_row_arrays(rng):
    """The taped FM connector keeps its attention weights, (batch, lq, lp),
    and the FM tables, and recomputes the rest in its backward: a two-sided
    call at (32, 40, 32)/(32, 3, 32) leaves live, beyond its output, less
    than one (32, 40, 32) array.  The composed connector kept its ReLU
    projections, attended rows and FM [xV | x·w], about 1 MB."""
    bac = BAC(ParamStore(), "c", 32, 8, rng)
    p = Tensor(rng.normal(size=(32, 40, 32)), requires_grad=True)
    q = Tensor(rng.normal(size=(32, 3, 32)), requires_grad=True)
    masks = real(p, q)
    bac(p, q, *masks)  # warm-up: first-call allocations are not the record's
    tracemalloc.start()
    try:
        with Tape() as tape:
            before = tracemalloc.get_traced_memory()[0]
            g_p, g_q = bac(p, q, *masks)
            kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tape) == 3  # the connector record and the two narrows handing out its sides
    output = (g_p.data.size + g_q.data.size) * 8
    assert kept - output < p.data.nbytes, f"{kept - output} bytes kept beyond the output"


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


def _score_extent(store: ParamStore, proj: str, p: np.ndarray, q: np.ndarray) -> float:
    """The largest score of rows p and q under the ReLU projection named
    ``proj``, as ``bac._scores`` computes it."""
    w, b = store[f"{proj}.w"].data, store[f"{proj}.b"].data
    fp, fq = np.maximum(p @ w + b, 0.0), np.maximum(q @ w + b, 0.0)
    return float(np.abs(fq @ np.swapaxes(fp, -1, -2)).max() / np.sqrt(w.shape[0]))


@pytest.mark.parametrize("op, edge, proj", [
    ("connector", "padded", "c.proj"), ("connector", "one_sided", "c.proj"),
    ("gate", "3d_padded", "proj")])
def test_records_take_scores_far_past_exp_range(op, edge, proj):
    """Inputs scaled so that the scores reach about 1e3, past the ~709 at
    which exp overflows: each record's softmax subtracts the max of its
    keys first, so its outputs and gradients stay finite, with no
    RuntimeWarning, and within 1e-12 relative of the taped reference."""
    rng = np.random.default_rng(31)
    make, edges = CONNECTOR_OPS[op]
    store, arrays, fused, reference = make(edges[edge], rng)
    while _score_extent(store, proj, *arrays) < 1e3:
        arrays = [1.25 * a for a in arrays]
    coef = rng.normal(size=fused(*map(Tensor, arrays)).shape)
    got = _outputs_and_grads(fused, store, arrays, coef)
    want = _outputs_and_grads(reference, store, arrays, coef)
    assert got.keys() == want.keys()
    for key in want:
        assert np.isfinite(got[key]).all(), key
        scale = np.abs(want[key]).max()
        assert scale > 0.0, key
        assert np.abs(got[key] - want[key]).max() <= 1e-12 * scale, key
