"""Span pointer: two chained BiRNNs produce start/end position logits, the
loss is the mean negative log-likelihood of the gold endpoints, and decoding
maximizes p_start[k] * p_end[l] over ordered pairs k <= l.  The pointer
takes the passage mask and the loss the passage lengths; both are required.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, DataError
from .numerics import (
    NEG_INF, ParamStore, Tensor, add, glorot, log_softmax, matmul, mul, pick,
    reshape, sum_,
)
from .recurrent import BiRNN, variational_dropout


class PointerLayer:
    """Start logits from BiRNN(m), end logits from a second BiRNN on top."""

    def __init__(self, store: ParamStore, name: str, input_dim: int, hidden: int,
                 rng: np.random.Generator, *, cell: str = "gru", dropout: float = 0.0):
        self.dropout = dropout
        self.rnn_start = BiRNN(store, f"{name}.rnn_start", input_dim, hidden, cell, rng)
        self.rnn_end = BiRNN(store, f"{name}.rnn_end", hidden, hidden, cell, rng)
        self.w_start = store.register(f"{name}.w_start", glorot(rng, hidden, 1))
        self.w_end = store.register(f"{name}.w_end", glorot(rng, hidden, 1))

    def __call__(self, m: Tensor, p_mask: np.ndarray,
                 rng: np.random.Generator | None = None) -> tuple[Tensor, Tensor]:
        """(batch, len, width) -> (start_logits, end_logits), each (batch, len);
        padded positions are pushed to -inf.  With ``rng`` the BiRNN inputs
        get dropout."""
        if not np.all(p_mask.sum(axis=-1) > 0):
            raise ContractError("pointer layer: some row has every position masked")
        h1 = self.rnn_start(variational_dropout(m, self.dropout, rng), p_mask)
        h2 = self.rnn_end(variational_dropout(h1, self.dropout, rng), p_mask)
        s1 = reshape(matmul(h1, self.w_start), h1.shape[:-1])
        s2 = reshape(matmul(h2, self.w_end), h2.shape[:-1])
        penalty = Tensor((1.0 - p_mask) * NEG_INF)
        return add(s1, penalty), add(s2, penalty)


def span_loss(start_logits: Tensor, end_logits: Tensor, y1, y2, lengths) -> Tensor:
    """Mean over the batch of -(log p1[y1] + log p2[y2]), in log space.
    Logits are (batch, len), and ``y1``, ``y2`` and ``lengths`` hold one
    entry per row; each span must end before its example's length."""
    if start_logits.ndim != 2:
        raise ContractError(f"span loss expects (batch, len) logits, got shape {start_logits.shape}")
    if start_logits.shape != end_logits.shape:
        raise ContractError(
            f"start/end logits differ in shape: {start_logits.shape} vs {end_logits.shape}")
    batch = start_logits.shape[0]
    y1, y2, limit = (np.asarray(a, dtype=np.int64) for a in (y1, y2, lengths))
    for name, a in (("y1", y1), ("y2", y2), ("lengths", limit)):
        if a.shape != (batch,):
            raise ContractError(f"span loss: {name} has shape {a.shape}, want ({batch},)")
    bad = np.flatnonzero((y1 < 0) | (y1 > y2) | (y2 >= limit))
    if bad.size:
        i = bad[0]
        raise DataError(f"example {i}: invalid span ({y1[i]}, {y2[i]}) for length {limit[i]}")
    lp1 = pick(log_softmax(start_logits, -1), y1)
    lp2 = pick(log_softmax(end_logits, -1), y2)
    return mul(sum_(add(lp1, lp2)), -1.0 / start_logits.shape[0])


def decode_span(p1: np.ndarray, p2: np.ndarray, max_span_len: int | None = None,
                lengths=None) -> tuple[int, int] | list[tuple[int, int]]:
    """Best (start, end) pair maximizing p1[start] * p2[end] with start <= end,
    and end - start < ``max_span_len`` when that is set.

    ``p1`` and ``p2`` are one distribution of shape (len,), which gives one
    pair, or a block of shape (rows, len), which gives a list of pairs, one
    per row.  ``lengths`` holds each row's real positions (default: all of
    them); scores at or past a row's length are excluded.  Ties break to the
    smaller start, then the smaller end, matching an exhaustive scan in that
    order.  For each end the best start is the first argmax of p1 up to it
    (within the cap).  That start never decreases as the end grows, so the
    first argmax over ends keeps the tie rule.
    """
    p1 = np.asarray(p1, dtype=np.float64)
    p2 = np.asarray(p2, dtype=np.float64)
    if p1.ndim not in (1, 2) or p1.shape != p2.shape:
        raise ContractError(f"decode expects matching 1-d or 2-d distributions, got "
                            f"{p1.shape} vs {p2.shape}")
    one = p1.ndim == 1
    p1, p2 = np.atleast_2d(p1, p2)
    rows, n = p1.shape
    if n == 0:
        raise ContractError("decode on empty distributions")
    if max_span_len is not None and max_span_len < 1:
        raise ContractError(f"max_span_len must be >= 1, got {max_span_len}")
    lens = np.full(rows, n) if lengths is None else np.asarray(lengths)
    if lens.shape != (rows,):
        raise ContractError(f"decode needs one length per row: {rows} rows, lengths of "
                            f"shape {lens.shape}")
    if ((lens < 1) | (lens > n)).any():
        raise ContractError(f"decode lengths must lie in 1..{n}, got {lens.tolist()}")

    row, pos = np.arange(rows)[:, None], np.arange(n)
    if max_span_len is None or max_span_len >= n:
        # running first argmax: the last position that set a strict new maximum
        new = np.ones((rows, n), dtype=bool)
        new[:, 1:] = p1[:, 1:] > np.maximum.accumulate(p1, axis=1)[:, :-1]
        start = np.maximum.accumulate(np.where(new, pos, 0), axis=1)
    else:
        # first argmax over each window; the -inf padding before position 0
        # never beats a probability
        w = max_span_len
        padded = np.concatenate([np.full((rows, w - 1), -np.inf), p1], axis=1)
        start = pos - (w - 1) + sliding_window_view(padded, w, axis=1).argmax(axis=-1)
    score = p1[row, start] * p2
    score[pos >= lens[:, None]] = -np.inf
    end = score.argmax(axis=1)
    spans = [(int(k), int(l)) for k, l in zip(start[row[:, 0], end], end)]
    return spans[0] if one else spans
