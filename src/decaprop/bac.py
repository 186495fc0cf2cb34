"""Bidirectional attention connectors (BAC).

A connector aligns two sequences with scaled dot-product attention over
ReLU-projected rows, then compresses each position's (aligned, original)
pair into three scalars with factorization machines applied to the
concatenation, difference, and elementwise product.  The 3-wide outputs are
what gets propagated between layers, so connector cost stays negligible
next to the encoders.  Every attention call takes the (batch, len) mask of
its keys; padded keys get no weight.

With FM scorers a connector call is one tape record with a closed-form
backward.  The forward runs the projections, the affinity, both masked
softmaxes, the attended rows and the FM compression; the record keeps only
references to p and q, the attention weights and each kernel's tables, and
its backward recomputes the projections, the attended rows and each
kernel's [xV | x·w] (recompute for memory, as in Chen et al. 2016).  The
scores are laid out (batch, lq, lp): the softmax over the question keys
reduces along axis 1, a few contiguous rows, and the one over the passage
keys along the contiguous last axis.  The two-sided call outputs both
sides' triples as one (..., lp + lq, 3) array, which two ``narrow``s hand
out.  The ``linear`` and ``nonlinear`` stand-ins run the taped composition
(``affinity``, ``attend``, ``compress``), which is also the connector
record's reference in the tests.

An FM scores each column block of its input with one GEMM against [V | w]
and its squared term with one GEMV, x² times the row sums of V²;
``FMKernel.scores`` and ``FMKernel.backward`` hold that math for the
kernel's own record and for the connector's, from tables built once per
call.  ``attention_weights`` and ``attention_weights_backward`` are the one
masked softmax, which ``attend``, the connector and the gated blocks'
record (``decacore.gated_attend``) share.  The tests hold each op against a
taped composition as reference, to within 1e-12 relative; ``affinity`` and
``attend`` round exactly like theirs.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError
from .numerics import (
    NEG_INF, Dense, ParamStore, Tensor, _acc, _record, _unbroadcast, concat, glorot,
    mul, narrow, sub, transpose_last,
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
        self.w0 = store.register(f"{name}.w0", np.zeros(1))
        self.w = store.register(f"{name}.w", glorot(rng, input_dim, 1))
        self.v = store.register(f"{name}.v", glorot(rng, input_dim, factors))

    def tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """[V | w], (n, k + 1), which every block meets in one GEMM, the row
        sums of V², (n,), which the squared term meets in one GEMV, and
        [V | w]ᵀ laid out for the backward's GEMM.  A record builds them
        once, for its forward and its backward."""
        v = self.v.data
        vw = np.concatenate([v, self.w.data], axis=1)
        return vw, (v * v).sum(axis=1), np.ascontiguousarray(vw.T)

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
        """Scores (..., n) -> (..., 1) as one tape record, from ``scores``
        and ``backward`` on the rows of x as one block."""
        if x.ndim < 2 or x.shape[-1] != self.input_dim:
            raise ContractError(f"fm kernel expects width {self.input_dim}, got shape {x.shape}")
        n = self.input_dim
        tables = self.tables()
        y, xvw = self.scores([x.data.reshape(-1, n)], tables)
        out = Tensor(y.reshape(x.shape[:-1] + (1,)))

        def bw():
            g = out.grad.reshape(-1, 1)
            d_vw, dxs = self.backward([x.data.reshape(-1, n)], xvw, g, tables)
            self.accumulate(d_vw, g.sum(axis=0))
            _acc(x, dxs[0].reshape(x.shape))

        _record((x, self.w0, self.w, self.v), out, bw)
        return out


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


def _connector(bac: "BAC", p: Tensor, q: Tensor, p_mask: np.ndarray | None,
               q_mask: np.ndarray) -> Tensor:
    """One FM connector call as one tape record: (..., lp + lq, 3), the
    passage side's triples then the question side's, or with no ``p_mask``
    the passage side's alone, (..., lp, 3).

    With fp, fq the projected rows and s = 1/√d, the scores are
    E = s fq fpᵀ, (batch, lq, lp); the passage rows attend with
    A = softmax over axis 1 and the question rows with B = softmax over the
    last axis, each under its keys' mask.  The attended rows Aᵀq and B p are
    compressed against p and q.  The record keeps A and B and the FM tables.
    Its backward recomputes Aᵀq and B p and, with da, db their gradients
    from the compression backward: dq += A da, dp += Bᵀ db, and the weights'
    gradients q daᵀ and db pᵀ meet the softmax backward in dE; then
    dfp = s dEᵀ fq and dfq = s dE fp go through the recomputed ReLU
    projections into dW, db and the inputs."""
    two = p_mask is not None
    proj = bac.proj
    d = proj.d_in
    if (p.ndim < 2 or q.ndim != p.ndim or p.shape[:-2] != q.shape[:-2]
            or p.shape[-1] != d or q.shape[-1] != d or np.shape(q_mask) != q.shape[:-1]
            or (two and np.shape(p_mask) != p.shape[:-1])):
        raise ContractError(f"connector of width {d}: p {p.shape}, q {q.shape} and their "
                            "masks do not fit")
    lp, lq = p.shape[-2], q.shape[-2]
    pd, qd = p.data.reshape(-1, lp, d), q.data.reshape(-1, lq, d)
    batch = pd.shape[0]
    kernels = (bac.g_cat, bac.g_sub, bac.g_mul)
    tables = [k.tables() for k in kernels]
    scale = 1.0 / np.sqrt(d)

    fp = proj.rows(pd).reshape(batch, lp, d)
    e = proj.rows(qd).reshape(-1, lq, d) @ np.swapaxes(fp, -1, -2)
    e *= scale
    del fp
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
        de *= scale
        fp, fq = proj.rows(pd), proj.rows(qd)
        dfp = (np.swapaxes(de, -1, -2) @ fq.reshape(batch, lq, d)).reshape(-1, d)
        dfq = (de @ fp.reshape(batch, lp, d)).reshape(-1, d)
        del de
        dfp *= fp > 0.0
        dfq *= fq > 0.0
        del fp, fq
        dw = pd.reshape(-1, d).T @ dfp
        dw += qd.reshape(-1, d).T @ dfq
        _acc(proj.w, dw)
        _acc(proj.b, dfp.sum(axis=0) + dfq.sum(axis=0))
        if p.requires_grad:
            dp += dfp @ proj.w.data.T
            _acc(p, dp.reshape(p.shape))
        if q.requires_grad:
            dq = dq.reshape(-1, d)
            dq += dfq @ proj.w.data.T
            _acc(q, dq.reshape(q.shape))

    params = (proj.w, proj.b) + tuple(t for k in kernels for t in (k.w0, k.w, k.v))
    _record((p, q) + params, out, bw)
    return out


def affinity(fp: Tensor, fq: Tensor) -> Tensor:
    """Scaled dot product of every pair of already-projected rows, (..., lp, lq),
    as one tape record."""
    if fp.ndim < 2 or fq.ndim < 2 or fp.shape[-1] != fq.shape[-1]:
        raise ContractError(f"affinity needs rows of one width, got {fp.shape} and {fq.shape}")
    scale = 1.0 / np.sqrt(fp.shape[-1])
    e = fp.data @ np.swapaxes(fq.data, -1, -2)
    e *= scale
    out = Tensor(e)

    def bw():
        g = out.grad * scale
        if fp.requires_grad:
            _acc(fp, _unbroadcast(g @ fq.data, fp.shape))
        if fq.requires_grad:
            _acc(fq, _unbroadcast(np.swapaxes(g, -1, -2) @ fp.data, fq.shape))

    _record((fp, fq), out, bw)
    return out


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
    ``values`` rows; ``mask`` (..., lk) zeroes the weight of padded keys.

    One tape record, whose backward keeps the weights y
    (``attention_weights``): dvalues = yᵀ g and de = y ⊙ (gy - Σ gy ⊙ y)
    with gy = g valuesᵀ.
    """
    if values.ndim < 2 or e.shape[-1] != values.shape[-2]:
        raise ContractError(f"attend: weights over {e.shape[-1]} keys, values shape {values.shape}")
    y = attention_weights(e.data, mask)
    out = Tensor(y @ values.data)

    def bw():
        g = out.grad
        if values.requires_grad:
            _acc(values, _unbroadcast(np.swapaxes(y, -1, -2) @ g, values.shape))
        if e.requires_grad:
            gy = g @ np.swapaxes(values.data, -1, -2)
            _acc(e, _unbroadcast(attention_weights_backward(gy, y), e.shape))

    _record((e, values), out, bw)
    return out


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

    def _compress(self, aligned: Tensor, original: Tensor) -> Tensor:
        """``compress`` with this connector's scorers, composed from taped ops."""
        return compress(aligned, original, (self.g_cat, self.g_sub, self.g_mul))

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
