"""Bidirectional attention connectors (BAC).

A connector aligns two sequences with scaled dot-product attention over
ReLU-projected rows, then compresses each position's (aligned, original)
pair into three scalars with factorization machines applied to the
concatenation, difference, and elementwise product.  The 3-wide outputs are
what gets propagated between layers, so connector cost stays negligible
next to the encoders.  Every attention call takes the (batch, len) mask of
its keys; padded keys get no weight.

With FM scorers a connector call is one tape record (``_connector``), and
each gated block of the core attends, gates and multiplies in one record
(``gated_attend``).  Both attention mechanisms project p and q with one
shared ReLU layer and score them by scaled dot product: ``_scores`` and
``_scores_backward`` hold that math, with the scores laid out (batch, lq,
lp), so a softmax over the question keys reduces along axis 1 and one over
the passage keys along the contiguous last axis; ``_scores_backward`` ends
both records' backward, and the self block's rows (q is p) are projected
once per pass.  Each record keeps only its attention weights (and the
connector its FM tables, the gate q W2 and its sigmoid) and recomputes the
projections in its backward (recompute for memory, as in Chen et al.
2016); the connector also recomputes the attended rows and each kernel's
[xV | x·w].  The two-sided connector outputs both sides' triples as one
(..., lp + lq, 3) array, which two ``narrow``s hand out.

An FM scores each column block of its input with one GEMM against [V | w]
and its squared term with one GEMV, x² times the row sums of V²;
``FMKernel.scores`` and ``FMKernel.backward`` hold that math for the
connector record, from tables (``FMKernel.tables``) built once per
parameter version (``ParamStore.prepared``): once per training step, and
once for all of inference.
``attention_weights`` and ``attention_weights_backward`` are the one
masked softmax of both records.

``affinity``, ``attend``, ``compress`` and ``FMKernel.__call__`` are
composed from taped ops: the ``linear`` and ``nonlinear`` stand-in scorers
run them, and the tests hold both records against them to within 1e-12
relative.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError
from .numerics import (
    NEG_INF, Dense, ParamStore, Tensor, _acc, _record, add, concat, glorot, logistic,
    matmul, mul, narrow, softmax, sub, sum_, transpose_last,
)


def _with_rows(xs: list):
    """Each 2-d column block of an input laid side by side, with the slice
    of a weight's rows it meets."""
    start = 0
    for x in xs:
        yield x, slice(start, start + x.shape[1])
        start += x.shape[1]


def _xvw(xs: list, vw: np.ndarray) -> np.ndarray:
    """[xV | x·w], (rows, k + 1), of the rows whose input is the column
    blocks ``xs`` side by side: one GEMM per block."""
    for i, (x, rows) in enumerate(_with_rows(xs)):
        if i == 0:
            xvw = x @ vw[rows]
        else:
            xvw += x @ vw[rows]
    return xvw


class FMKernel:
    """Second-order factorization machine over the last axis.

    Scores x -> w0 + sum_i w_i x_i + sum_{i<j} <v_i, v_j> x_i x_j using the
    O(k*n) identity 0.5 * sum_f [(x @ V)_f^2 - (x^2 @ V^2)_f].
    """

    def __init__(self, store: ParamStore, name: str, input_dim: int, factors: int,
                 rng: np.random.Generator):
        if factors < 1:
            raise ConfigError(f"fm kernel needs >= 1 factor, got {factors}")
        self.input_dim = input_dim
        self.factors = factors
        self.store = store
        self.w0 = store.register(f"{name}.w0", np.zeros(1))
        self.w = store.register(f"{name}.w", glorot(rng, input_dim, 1))
        self.v = store.register(f"{name}.v", glorot(rng, input_dim, factors))

    def tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The kernel's tables (``_fm_tables``) at its store's parameter
        version, built once per version."""
        return self.store.prepared(self, _fm_tables)

    def scores(self, xs: list, tables: tuple) -> tuple[np.ndarray, np.ndarray]:
        """Scores, (rows,), of rows whose input is the 2-d column blocks
        ``xs`` side by side, and their [xV | x·w], (rows, k + 1).  Each block
        meets its own rows of [V | w] in one GEMM, and Σ_f (x²V²)_f is x²
        times the row sums of V², so the input is never concatenated and
        x²V² never built."""
        vw, v2, _ = tables
        xvw = _xvw(xs, vw)
        sq = np.empty_like(xs[0])
        for i, (x, rows) in enumerate(_with_rows(xs)):
            x2v2_block = np.multiply(x, x, out=sq[:, :x.shape[1]]) @ v2[rows]
            if i == 0:
                x2v2 = x2v2_block
            else:
                x2v2 += x2v2_block
        k = self.factors
        xv = xvw[:, :k]
        pair = np.einsum("ij,ij->i", xv, xv)
        pair -= x2v2
        pair *= 0.5
        y = xvw[:, k] + self.w0.data
        y += pair
        return y, xvw

    def backward(self, xs: list, xvw: np.ndarray, g: np.ndarray,
                 tables: tuple) -> tuple[np.ndarray, list]:
        """The closed form of ``scores``' backward for the blocks ``xs``, their
        [xV | x·w] and the upstream gradient g (rows, 1): returns
        d[V | w] = [Xᵀ(g ⊙ xV) - (X²ᵀ g) ⊙ V | Xᵀ g] and the blocks of
        dx = g (w + xV Vᵀ) - (g ⊙ x) ⊙ Σ_f V².  With gx = g ⊙ x formed once
        per block, X²ᵀ g is Σ_rows x ⊙ gx and the correction is gx times the
        row sums of V², so neither x² nor an outer product is built."""
        vw, v2, vw_t = tables
        k = self.factors
        # [g ⊙ xV, g], built in xvw's buffer, meets [V, w] in one GEMM per
        # block for dx and for d[V | w]
        g_xv = np.multiply(g, xvw, out=xvw)
        g_xv[:, k:] = g
        d_vw = np.empty_like(vw)
        dxs = []
        buf = np.empty_like(xs[0])
        for x, rows in _with_rows(xs):
            np.matmul(x.T, g_xv, out=d_vw[rows])
            gx = np.multiply(g, x, out=buf[:, :x.shape[1]])
            d_vw[rows, :k] -= np.einsum("ij,ij->j", x, gx)[:, None] * vw[rows, :k]
            dx = g_xv @ vw_t[:, rows]
            gx *= v2[rows]
            dx -= gx
            dxs.append(dx)
        return d_vw, dxs

    def accumulate(self, d_vw: np.ndarray, dw0: np.ndarray) -> None:
        """Accumulate d[V | w] and dw0 into the kernel's parameters."""
        k = self.factors
        _acc(self.v, d_vw[:, :k])
        _acc(self.w, d_vw[:, k:])
        _acc(self.w0, dw0)

    def __call__(self, x: Tensor) -> Tensor:
        """Scores (..., n) -> (..., 1), composed from taped ops."""
        if x.ndim < 2 or x.shape[-1] != self.input_dim:
            raise ContractError(f"fm kernel expects width {self.input_dim}, got shape {x.shape}")
        linear = matmul(x, self.w)
        xv = matmul(x, self.v)
        x2v2 = matmul(mul(x, x), mul(self.v, self.v))
        pair = sub(sum_(mul(xv, xv), axis=-1, keepdims=True), sum_(x2v2, axis=-1, keepdims=True))
        return add(add(self.w0, linear), mul(pair, 0.5))


def _fm_tables(kernel: FMKernel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """[V | w], (n, k + 1), which every block meets in one GEMM, the row sums
    of V², (n,), which the squared term meets in one GEMV, and [V | w]ᵀ laid
    out for the backward's GEMM."""
    v = kernel.v.data
    vw = np.concatenate([v, kernel.w.data], axis=1)
    return vw, (v * v).sum(axis=1), np.ascontiguousarray(vw.T)


class MLPScorer:
    """Ablation stand-in: width-preserving ReLU layer followed by a scalar map."""

    def __init__(self, store: ParamStore, name: str, input_dim: int, rng: np.random.Generator):
        self.hidden = Dense(store, f"{name}.hidden", input_dim, input_dim, "relu", rng)
        self.out = Dense(store, f"{name}.out", input_dim, 1, "none", rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.out(self.hidden(x))


def make_scorer(store: ParamStore, name: str, input_dim: int, kind: str, factors: int,
                rng: np.random.Generator):
    """FM kernel, or one of its ablation stand-ins: a single affine map to one
    scalar (``linear``) or a ReLU layer followed by one (``nonlinear``)."""
    if kind == "fm":
        return FMKernel(store, name, input_dim, factors, rng)
    if kind == "linear":
        return Dense(store, name, input_dim, 1, "none", rng)
    if kind == "nonlinear":
        return MLPScorer(store, name, input_dim, rng)
    raise ConfigError(f"unknown connector scorer {kind!r}; pick one of ['fm', 'linear', 'nonlinear']")


def compress(aligned: Tensor, original: Tensor, scorers: tuple) -> Tensor:
    """The three scores of each (aligned, original) row pair, (..., 3):
    ``g_cat([a; o])``, ``g_sub(a - o)`` and ``g_mul(a ⊙ o)`` for the scorers
    (g_cat, g_sub, g_mul), composed from taped ops.  The ``linear`` and
    ``nonlinear`` stand-ins run it, and with FM scorers it is the reference
    of the connector record's compression."""
    g_cat, g_sub, g_mul = scorers
    both = concat([aligned, original], -1)
    diff = sub(aligned, original)
    prod = mul(aligned, original)
    return concat([g_cat(both), g_sub(diff), g_mul(prod)], -1)


def _compress_inputs(a: np.ndarray, o: np.ndarray) -> tuple:
    """The FM kernels' inputs from (rows, d) aligned and original rows, as
    column blocks: ([a, o], [a - o], [a ⊙ o])."""
    return [a, o], [a - o], [a * o]


def _fm_compress(kernels: tuple, tables: list, a: np.ndarray, o: np.ndarray,
                 out: np.ndarray) -> None:
    """``compress`` with FM kernels on (batch, l, d) aligned rows ``a`` and
    original rows ``o``, written into ``out``, (batch, l, 3)."""
    d = a.shape[-1]
    for j, (kernel, t, xs) in enumerate(zip(kernels, tables, _compress_inputs(
            a.reshape(-1, d), o.reshape(-1, d)))):
        out[..., j] = kernel.scores(xs, t)[0].reshape(out.shape[:-1])


def _fm_compress_backward(kernels: tuple, tables: list, a: np.ndarray, o: np.ndarray,
                          g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The backward of ``_fm_compress`` for the upstream gradient g, (batch,
    l, 3): accumulates the kernels' parameter gradients and returns those of
    ``a`` and ``o``, (rows, d).  Each kernel's [xV | x·w] is recomputed.
    With ([dcat_a, dcat_o], dsub, dmul) the kernels' input gradients,
    da = dcat_a + dsub + dmul ⊙ o and do = dcat_o - dsub + dmul ⊙ a."""
    d = a.shape[-1]
    a, o = a.reshape(-1, d), o.reshape(-1, d)
    g = g.reshape(-1, 3)
    dxs = []
    for j, (kernel, t, xs) in enumerate(zip(kernels, tables, _compress_inputs(a, o))):
        gj = g[:, j:j + 1]
        d_vw, dx = kernel.backward(xs, _xvw(xs, t[0]), gj, t)
        kernel.accumulate(d_vw, gj.sum(axis=0))
        dxs.append(dx)
    (da, do), (dsub,), (dmul,) = dxs
    da += dsub
    do -= dsub
    da += np.multiply(dmul, o, out=dsub)
    dmul *= a
    do += dmul
    return da, do


def _scores(proj: Dense, pd: np.ndarray, qd: np.ndarray) -> np.ndarray:
    """The scores E = s fq fpᵀ, (batch, lq, lp), of the rows pd, (batch, lp,
    d), and qd, (batch, lq, d), with fp, fq their ReLU projections by
    ``proj`` (once if ``qd is pd``) and s = 1/√d."""
    batch, lp, d = pd.shape
    fp = proj.rows(pd).reshape(batch, lp, d)
    fq = fp if qd is pd else proj.rows(qd).reshape(batch, -1, d)
    e = fq @ np.swapaxes(fp, -1, -2)
    e *= 1.0 / np.sqrt(d)
    return e


def _scores_backward(proj: Dense, p: Tensor, q: Tensor, pd: np.ndarray, qd: np.ndarray,
                     de: np.ndarray, dp: np.ndarray, dq: np.ndarray) -> None:
    """The backward of ``_scores`` for the scores' gradient ``de``, which it
    scales in place, and the end of both records' backward: accumulates the
    projection's gradients, adds the rows' gradients to the record's own
    ``dp`` and ``dq``, (batch·lp, d) and (batch·lq, d), and accumulates each
    into p or q if it needs one.  With the projections recomputed, dfp = s
    dEᵀ fq and dfq = s dE fp masked by the ReLU, dW = pᵀ dfp + qᵀ dfq and the
    rows get dfp Wᵀ and dfq Wᵀ."""
    batch, lp, d = pd.shape
    de *= 1.0 / np.sqrt(d)
    fp = proj.rows(pd)
    fq = fp if qd is pd else proj.rows(qd)
    dfp = (np.swapaxes(de, -1, -2) @ fq.reshape(batch, -1, d)).reshape(-1, d)
    dfq = (de @ fp.reshape(batch, lp, d)).reshape(-1, d)
    dfp *= fp > 0.0
    dfq *= fq > 0.0
    del fp, fq
    dw = pd.reshape(-1, d).T @ dfp
    dw += qd.reshape(-1, d).T @ dfq
    _acc(proj.w, dw)
    _acc(proj.b, dfp.sum(axis=0) + dfq.sum(axis=0))
    w_t = proj.w.data.T
    for t, dt, df in ((p, dp, dfp), (q, dq, dfq)):
        if t.requires_grad:
            dt += df @ w_t
            _acc(t, dt.reshape(t.shape))


def _rows_of(p: Tensor, q: Tensor, width: int) -> tuple[np.ndarray, np.ndarray] | None:
    """p and q as (batch, lp, d) and (batch, lq, d) arrays (one if q is p),
    or None if they are not two sets of rows of ``width`` over the same
    leading axes."""
    if (p.ndim < 2 or q.ndim != p.ndim or p.shape[:-2] != q.shape[:-2]
            or p.shape[-1] != width or q.shape[-1] != width):
        return None
    pd = p.data.reshape(-1, p.shape[-2], width)
    return pd, (pd if q is p else q.data.reshape(-1, q.shape[-2], width))


def _connector(bac: "BAC", p: Tensor, q: Tensor, p_mask: np.ndarray | None,
               q_mask: np.ndarray) -> Tensor:
    """One FM connector call as one tape record: (..., lp + lq, 3), the
    passage side's triples then the question side's, or with no ``p_mask``
    the passage side's alone, (..., lp, 3).

    With E the scores (``_scores``), the passage rows attend with
    A = softmax over axis 1 and the question rows with B = softmax over the
    last axis, each under its keys' mask.  The attended rows Aᵀq and B p are
    compressed against p and q.  The record keeps A and B and the FM tables.
    Its backward recomputes Aᵀq and B p and, with da, db their gradients
    from the compression backward: dq += A da, dp += Bᵀ db, and the weights'
    gradients q daᵀ and db pᵀ meet the softmax backward in dE, which
    ``_scores_backward`` takes through the projection into p and q."""
    two = p_mask is not None
    proj = bac.proj
    d = proj.d_in
    rows = _rows_of(p, q, d)
    if (rows is None or np.shape(q_mask) != q.shape[:-1]
            or (two and np.shape(p_mask) != p.shape[:-1])):
        raise ContractError(f"connector of width {d}: p {p.shape}, q {q.shape} and their "
                            "masks do not fit")
    pd, qd = rows
    batch, lp, _ = pd.shape
    lq = qd.shape[1]
    kernels = bac.kernels
    tables = [k.tables() for k in kernels]

    e = _scores(proj, pd, qd)
    att_p = attention_weights(e, np.reshape(q_mask, (batch, lq)), axis=-2)
    att_q = attention_weights(e, np.reshape(p_mask, (batch, lp))) if two else None
    del e
    y = np.empty((batch, lp + lq if two else lp, 3))
    _fm_compress(kernels, tables, np.swapaxes(att_p, -1, -2) @ qd, pd, y[:, :lp])
    if two:
        _fm_compress(kernels, tables, att_q @ pd, qd, y[:, lp:])
    out = Tensor(y.reshape(p.shape[:-2] + y.shape[1:]))

    def bw():
        g = out.grad.reshape(batch, -1, 3)
        da, dp = _fm_compress_backward(kernels, tables, np.swapaxes(att_p, -1, -2) @ qd,
                                       pd, g[:, :lp])
        da = da.reshape(batch, lp, d)
        dq = att_p @ da
        de = attention_weights_backward(qd @ np.swapaxes(da, -1, -2), att_p, axis=-2)
        del da
        if two:
            db, dq_o = _fm_compress_backward(kernels, tables, att_q @ pd, qd, g[:, lp:])
            dq += dq_o.reshape(batch, lq, d)
            del dq_o
            db = db.reshape(batch, lq, d)
            if p.requires_grad:
                dp += (np.swapaxes(att_q, -1, -2) @ db).reshape(-1, d)
            de += attention_weights_backward(db @ np.swapaxes(pd, -1, -2), att_q)
            del db
        _scores_backward(proj, p, q, pd, qd, de, dp, dq.reshape(-1, d))

    _record((p, q) + bac.params, out, bw)
    return out


def gated_attend(p: Tensor, q: Tensor, q_mask: np.ndarray, proj: Dense, gate: Dense) -> Tensor:
    """The p rows gated by what they attend to, as one tape record:
    y ⊙ p with y = sigmoid([p; A q] W + b), where A is the masked softmax
    over the q rows of the scores of p and q under the ReLU projection
    ``proj`` (``_scores``), and W, b are the sigmoid ``gate``'s weights.

    With W1, W2 the rows of W that meet p and A q, the gate's
    pre-activation is computed as p W1 + A (q W2) + b, so neither the
    attended rows A q nor the [p; A q] concat is built.  The record keeps
    A, laid out (batch, lq, lp) like the scores, q W2 and y; its backward
    recomputes the projections.  With G the upstream gradient and
    gz = G ⊙ p ⊙ y (1 - y): dW1 = pᵀ gz, dW2 = qᵀ (Aᵀ gz), db = Σ gz,
    dp = gz W1ᵀ + G ⊙ y, dq = (Aᵀ gz) W2ᵀ and dA = gz (q W2)ᵀ, which the
    softmax backward turns into dE for ``_scores_backward``.
    """
    d = p.shape[-1]
    w, b = gate.w, gate.b
    rows = _rows_of(p, q, d)
    if (rows is None or np.shape(q_mask) != q.shape[:-1] or proj.w.shape != (d, d)
            or w.shape != (2 * d, d)):
        raise ContractError(f"gated_attend: p {p.shape}, q {q.shape} and the q mask do not fit "
                            f"a projection of shape {proj.w.shape} and a gate of shape {w.shape}")
    pd, qd = rows
    batch, lp, _ = pd.shape
    lq = qd.shape[1]
    w1, w2 = w.data[:d], w.data[d:]
    a = attention_weights(_scores(proj, pd, qd), np.reshape(q_mask, (batch, lq)), axis=-2)
    qw = (qd.reshape(-1, d) @ w2).reshape(batch, lq, d)
    y = pd.reshape(-1, d) @ w1
    y += (np.swapaxes(a, -1, -2) @ qw).reshape(-1, d)
    y += b.data
    y = logistic(y, out=y).reshape(p.shape)
    out = Tensor(y * p.data)

    def bw():
        g = out.grad
        gz = g * p.data
        gz *= y
        gz *= 1.0 - y
        gz = gz.reshape(batch, lp, d)
        dqw = a @ gz
        gz_rows = gz.reshape(-1, d)
        dw = np.empty_like(w.data)
        np.matmul(pd.reshape(-1, d).T, gz_rows, out=dw[:d])
        np.matmul(qd.reshape(-1, d).T, dqw.reshape(-1, d), out=dw[d:])
        _acc(w, dw)
        _acc(b, gz_rows.sum(axis=0))
        dp = gz_rows @ w1.T
        dp += (g * y).reshape(-1, d)
        dq = dqw.reshape(-1, d) @ w2.T
        de = attention_weights_backward(qw @ np.swapaxes(gz, -1, -2), a, axis=-2)
        del gz, gz_rows, dqw
        _scores_backward(proj, p, q, pd, qd, de, dp, dq)

    _record((p, q, proj.w, proj.b, w, b), out, bw)
    return out


def affinity(fp: Tensor, fq: Tensor) -> Tensor:
    """Scaled dot product of every pair of already-projected rows, (..., lp, lq),
    composed from taped ops."""
    if fp.ndim < 2 or fq.ndim < 2 or fp.shape[-1] != fq.shape[-1]:
        raise ContractError(f"affinity needs rows of one width, got {fp.shape} and {fq.shape}")
    return mul(matmul(fp, transpose_last(fq)), 1.0 / np.sqrt(fp.shape[-1]))


def attention_weights(e: np.ndarray, mask: np.ndarray, axis: int = -1) -> np.ndarray:
    """The masked softmax of scores ``e`` over their keys: the last axis, or
    with ``axis=-2`` the second-last, for scores laid out (..., lk, lq).
    ``mask`` (..., lk) zeroes the weight of padded keys.  Built in one
    buffer of e's shape: mask, shift by the max, exp and normalise in
    place."""
    m = 1.0 - np.asarray(mask, dtype=np.float64)
    y = e + (m[..., None, :] if axis == -1 else m[..., :, None]) * NEG_INF
    y -= y.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    return y


def attention_weights_backward(gy: np.ndarray, y: np.ndarray, axis: int = -1) -> np.ndarray:
    """The scores' gradient y ⊙ (gy - Σ gy ⊙ y), the sum over the keys'
    ``axis``, from the weights y and their gradient gy, computed in gy's
    buffer."""
    gy -= (gy * y).sum(axis=axis, keepdims=True)
    gy *= y
    return gy


def attend(e: Tensor, values: Tensor, mask: np.ndarray) -> Tensor:
    """Masked softmax of ``e`` over its last axis, then the weighted sum of
    ``values`` rows, composed from taped ops; ``mask`` (..., lk) zeroes the
    weight of padded keys."""
    if values.ndim < 2 or e.shape[-1] != values.shape[-2]:
        raise ContractError(f"attend: weights over {e.shape[-1]} keys, values shape {values.shape}")
    penalty = (1.0 - np.asarray(mask, dtype=np.float64)[..., None, :]) * NEG_INF
    return matmul(softmax(add(e, Tensor(penalty)), -1), values)


class BAC:
    """One bidirectional attention connector instance.

    Both sequences must share a width and one ReLU projection.  The same
    three scorers compress both directions.  With FM scorers each call is
    one tape record (``_connector``).  ``BAC.calls`` counts connector
    applications across all instances; a caller reads the difference over
    the work it wants counted.
    """

    calls = 0

    def __init__(self, store: ParamStore, name: str, dim: int, factors: int,
                 rng: np.random.Generator, scorer: str = "fm"):
        self.proj = Dense(store, f"{name}.proj", dim, dim, "relu", rng)
        self.g_cat = make_scorer(store, f"{name}.g_cat", 2 * dim, scorer, factors, rng)
        self.g_sub = make_scorer(store, f"{name}.g_sub", dim, scorer, factors, rng)
        self.g_mul = make_scorer(store, f"{name}.g_mul", dim, scorer, factors, rng)
        # the scorers, and the parameters a connector record with FM
        # scorers has as parents
        self.kernels = (self.g_cat, self.g_sub, self.g_mul)
        if scorer == "fm":
            self.params = (self.proj.w, self.proj.b) + tuple(
                t for k in self.kernels for t in (k.w0, k.w, k.v))

    def _compress(self, aligned: Tensor, original: Tensor) -> Tensor:
        """``compress`` with this connector's scorers, composed from taped ops."""
        return compress(aligned, original, self.kernels)

    def __call__(self, p: Tensor, q: Tensor,
                 p_mask: np.ndarray, q_mask: np.ndarray) -> tuple[Tensor, Tensor]:
        """Compress both directions: returns (g_p, g_q), 3 scalars per position."""
        BAC.calls += 1
        if isinstance(self.g_cat, FMKernel):
            both = _connector(self, p, q, p_mask, q_mask)
            lp = p.shape[-2]
            return narrow(both, -2, 0, lp), narrow(both, -2, lp, q.shape[-2])
        e = affinity(self.proj(p), self.proj(q))
        a = attend(transpose_last(e), p, p_mask)
        b = attend(e, q, q_mask)
        return self._compress(b, p), self._compress(a, q)

    def one_sided(self, p: Tensor, q: Tensor, q_mask: np.ndarray) -> Tensor:
        """Left-side compression only; skips the question-side alignment work,
        so only the question keys' mask is needed."""
        BAC.calls += 1
        if isinstance(self.g_cat, FMKernel):
            return _connector(self, p, q, None, q_mask)
        b = attend(affinity(self.proj(p), self.proj(q)), q, q_mask)
        return self._compress(b, p)
