"""Pointer layer and span decoding: distribution contracts, hand-computable
losses, and the running-max decoder against exhaustive search."""

import numpy as np
import pytest

from decaprop.answer import PointerLayer, decode_span, span_loss
from decaprop.errors import ContractError, DataError
from decaprop.numerics import ParamStore, Tensor, grad_check, softmax


def exhaustive_decode(p1: np.ndarray, p2: np.ndarray,
                      max_span_len: int | None = None) -> tuple[int, int]:
    """Brute-force argmax over every k <= l pair, first hit wins ties."""
    best, best_pair = -1.0, (0, 0)
    n = p1.shape[0]
    for k in range(n):
        stop = n if max_span_len is None else min(n, k + max_span_len)
        for l in range(k, stop):
            score = p1[k] * p2[l]
            if score > best:
                best, best_pair = score, (k, l)
    return best_pair


def distributions(layer, m, p_mask):
    """Start/end probability distributions over positions."""
    s1, s2 = layer(m, p_mask)
    return softmax(s1, -1), softmax(s2, -1)


def build_layer(input_dim=6, hidden=4, seed=0):
    store = ParamStore()
    layer = PointerLayer(store, "ptr", input_dim, hidden,
                         np.random.default_rng(seed))
    return layer, store


# ---------------------------------------------------------------------------
# pointer distributions


def test_pointer_distributions_normalized(rng):
    layer, _ = build_layer()
    m = Tensor(rng.normal(size=(2, 5, 6)))
    mask = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0]], dtype=np.float64)
    p1, p2 = distributions(layer, m, mask)
    assert p1.shape == (2, 5)
    np.testing.assert_allclose(p1.data.sum(axis=-1), np.ones(2), atol=1e-9)
    np.testing.assert_allclose(p2.data.sum(axis=-1), np.ones(2), atol=1e-9)


def test_pointer_zero_weights_uniform(rng):
    layer, store = build_layer()
    with store.writable():
        layer.w_start.data[:] = 0.0
        layer.w_end.data[:] = 0.0
    m = Tensor(rng.normal(size=(1, 4, 6)))
    p1, p2 = distributions(layer, m, np.ones((1, 4)))
    np.testing.assert_allclose(p1.data, np.full((1, 4), 0.25), atol=1e-12)
    np.testing.assert_allclose(p2.data, np.full((1, 4), 0.25), atol=1e-12)


def test_pointer_masks_padding(rng):
    layer, _ = build_layer()
    m = Tensor(rng.normal(size=(1, 5, 6)))
    mask = np.array([[1, 1, 1, 0, 0]], dtype=np.float64)
    p1, p2 = distributions(layer, m, mask)
    assert np.all(p1.data[0, 3:] < 1e-12)
    assert np.all(p2.data[0, 3:] < 1e-12)


def test_pointer_rejects_fully_masked_row(rng):
    layer, _ = build_layer()
    m = Tensor(rng.normal(size=(1, 3, 6)))
    with pytest.raises(ContractError):
        layer(m, np.zeros((1, 3)))


def test_pointer_single_sequence_input(rng):
    layer, _ = build_layer()
    s, e = layer(Tensor(rng.normal(size=(1, 4, 6))), np.ones((1, 4)))
    assert s.shape == (1, 4)
    assert e.shape == (1, 4)
    with pytest.raises(ContractError):
        layer(Tensor(rng.normal(size=(4, 6))), np.ones((1, 4)))


# ---------------------------------------------------------------------------
# span loss


def test_span_loss_uniform_hand_value():
    zeros = Tensor(np.zeros((2, 4)))
    loss = span_loss(zeros, zeros, np.array([0, 2]), np.array([1, 3]), np.array([4, 4]))
    np.testing.assert_allclose(loss.data, 2.0 * np.log(4.0), atol=1e-12)


def test_span_loss_perfect_prediction_is_zero():
    s = np.full((1, 4), -1e3)
    e = np.full((1, 4), -1e3)
    s[0, 1] = 1e3
    e[0, 2] = 1e3
    loss = span_loss(Tensor(s), Tensor(e), np.array([1]), np.array([2]), np.array([4]))
    np.testing.assert_allclose(loss.data, 0.0, atol=1e-9)


def test_span_loss_batch_mean(rng):
    s = Tensor(rng.normal(size=(2, 5)))
    e = Tensor(rng.normal(size=(2, 5)))
    y1 = np.array([0, 1])
    y2 = np.array([2, 4])
    lengths = np.array([5, 5])
    both = span_loss(s, e, y1, y2, lengths).data
    a = span_loss(Tensor(s.data[:1]), Tensor(e.data[:1]), y1[:1], y2[:1], lengths[:1]).data
    b = span_loss(Tensor(s.data[1:]), Tensor(e.data[1:]), y1[1:], y2[1:], lengths[1:]).data
    np.testing.assert_allclose(both, (a + b) / 2.0, atol=1e-12)
    # one example is a batch of one; bare 1-d logits are rejected
    with pytest.raises(ContractError):
        span_loss(Tensor(s.data[0]), Tensor(e.data[0]), y1[:1], y2[:1], lengths[:1])


def test_span_loss_finite_for_extreme_logits():
    s = Tensor(np.array([[-1e3, 1e3, 0.0]]))
    e = Tensor(np.array([[0.0, -1e3, 1e3]]))
    loss = span_loss(s, e, np.array([0]), np.array([1]), np.array([3]))
    assert np.isfinite(loss.data)


@pytest.mark.parametrize("y1,y2", [(-1, 2), (3, 2), (0, 9)])
def test_span_loss_invalid_targets(y1, y2):
    zeros = Tensor(np.zeros((1, 4)))
    with pytest.raises(DataError, match="example 0"):
        span_loss(zeros, zeros, np.array([y1]), np.array([y2]), np.array([4]))


@pytest.mark.parametrize("y1,y2,lengths", [
    ([0], [0], [5, 5]),                    # fewer targets than rows
    ([0, 1, 2], [0, 1, 2], [5, 5, 5]),     # more targets than rows
    ([0, 1], [0, 1], [5]),                 # fewer lengths than rows
    ([[0], [1]], [[0], [1]], [[5], [5]]),  # a column, not one entry per row
    (0, 0, 5),                             # scalars
], ids=["fewer_targets", "more_targets", "short_lengths", "column", "scalars"])
def test_span_loss_needs_one_target_and_length_per_row(y1, y2, lengths):
    """Targets and lengths of any other shape than (batch,) are a contract
    error, not an IndexError or a silent broadcast."""
    s = Tensor(np.zeros((2, 5)))
    with pytest.raises(ContractError, match="span loss"):
        span_loss(s, s, np.array(y1), np.array(y2), np.array(lengths))


def test_span_loss_names_the_first_bad_example():
    zeros = Tensor(np.zeros((4, 5)))
    with pytest.raises(DataError, match="example 1: invalid span \\(3, 2\\) for length 5"):
        span_loss(zeros, zeros, np.array([0, 3, 0, -1]), np.array([1, 2, 9, 0]),
                  np.array([5, 5, 5, 5]))


def test_span_loss_respects_true_lengths():
    zeros = Tensor(np.zeros((1, 6)))
    with pytest.raises(DataError):
        span_loss(zeros, zeros, np.array([0]), np.array([4]),
                  lengths=np.array([3]))


# ---------------------------------------------------------------------------
# decoding


def test_decode_hand_cases():
    assert decode_span(np.array([0.1, 0.7, 0.2]), np.array([0.2, 0.1, 0.7])) == (1, 2)
    assert decode_span(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == (0, 1)
    # full tie: lexicographically smallest pair wins
    assert decode_span(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == (0, 0)


def test_decode_respects_order_constraint(rng):
    # end mass before start mass: the decoder may not pick l < k
    p1 = np.array([0.01, 0.01, 0.97, 0.01])
    p2 = np.array([0.97, 0.01, 0.01, 0.01])
    k, l = decode_span(p1, p2)
    assert k <= l


def test_decode_matches_exhaustive_random(rng):
    for _ in range(300):
        n = int(rng.integers(1, 50))
        p1 = rng.dirichlet(np.ones(n))
        p2 = rng.dirichlet(np.ones(n))
        assert decode_span(p1, p2) == exhaustive_decode(p1, p2)


def test_decode_matches_exhaustive_with_ties(rng):
    """Dyadic masses collide exactly in float, forcing real tie-breaks."""
    for _ in range(300):
        n = int(rng.integers(2, 12))
        p1 = rng.choice([0.0, 0.25, 0.5], size=n)
        p2 = rng.choice([0.0, 0.25, 0.5], size=n)
        assert decode_span(p1, p2) == exhaustive_decode(p1, p2)


def test_decode_with_span_cap(rng):
    for _ in range(200):
        n = int(rng.integers(2, 30))
        cap = int(rng.integers(1, 8))
        p1 = rng.dirichlet(np.ones(n))
        p2 = rng.dirichlet(np.ones(n))
        got = decode_span(p1, p2, max_span_len=cap)
        assert got == exhaustive_decode(p1, p2, max_span_len=cap)
        assert got[1] - got[0] < cap


@pytest.mark.parametrize("cap", [None, 1, 3, 50], ids=["no-cap", "cap1", "cap3", "cap-wide"])
@pytest.mark.parametrize("masses", ["dirichlet", "ties"])
def test_decode_block_matches_each_row(rng, cap, masses):
    """A block of rows of different lengths decodes each row as the
    exhaustive scan of its real prefix does; the large masses past a row's
    length are never picked."""
    for _ in range(100):
        rows, n = int(rng.integers(1, 8)), int(rng.integers(1, 25))
        lengths = rng.integers(1, n + 1, size=rows)
        if masses == "ties":
            p1 = rng.choice([0.0, 0.25, 0.5], size=(rows, n))
            p2 = rng.choice([0.0, 0.25, 0.5], size=(rows, n))
        else:
            p1 = rng.dirichlet(np.ones(n), size=rows)
            p2 = rng.dirichlet(np.ones(n), size=rows)
        past = np.arange(n) >= lengths[:, None]
        p1[past] = p2[past] = 1.0
        got = decode_span(p1, p2, cap, lengths)
        assert got == [exhaustive_decode(p1[r, :m], p2[r, :m], cap)
                       for r, m in enumerate(lengths)]
        assert decode_span(p1[0, :lengths[0]], p2[0, :lengths[0]], cap) == got[0]


def test_decode_rejects_bad_inputs():
    with pytest.raises(ContractError, match="empty"):
        decode_span(np.zeros(0), np.zeros(0))
    with pytest.raises(ContractError, match="max_span_len must be >= 1, got 0"):
        decode_span(np.full(3, 0.25), np.full(3, 0.25), max_span_len=0)
    with pytest.raises(ContractError):
        decode_span(np.zeros(3), np.zeros(4))
    with pytest.raises(ContractError, match="1-d or 2-d"):
        decode_span(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)))
    block = np.full((2, 3), 0.25)
    with pytest.raises(ContractError, match="one length per row"):
        decode_span(block, block, lengths=[3])
    for bad in ([3, 0], [4, 3]):
        with pytest.raises(ContractError, match=r"lengths must lie in 1\.\.3"):
            decode_span(block, block, lengths=bad)


# ---------------------------------------------------------------------------
# gradients


def test_pointer_loss_gradients(rng):
    layer, store = build_layer()
    m = Tensor(rng.normal(0.0, 0.6, size=(2, 4, 6)))
    mask = np.array([[1, 1, 1, 1], [1, 1, 1, 0]], dtype=np.float64)
    y1 = np.array([0, 1])
    y2 = np.array([2, 2])

    def forward():
        s, e = layer(m, mask)
        return span_loss(s, e, y1, y2, lengths=np.array([4, 3]))

    assert grad_check(forward, store) < 1e-4
