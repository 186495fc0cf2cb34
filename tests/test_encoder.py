"""Input featurization: vocabularies, word vectors, char composition,
match/frequency features, and padding invariants."""

import numpy as np
import pytest

from decaprop.data import TokenizedExample
from decaprop.encoder import (Featurizer, InputEncoder, Vocab, binary_match,
                              norm_frequency, random_embeddings)
from decaprop.errors import ConfigError
from decaprop.numerics import ParamStore
from decaprop.training import collate


def example(pid="x"):
    return TokenizedExample(
        id=pid,
        passage_tokens=["the", "cat", "sat", "on", "the", "mat"],
        question_tokens=["cat", "where"],
        answer_start=5, answer_end=5, answer_texts=["mat"])


# ---------------------------------------------------------------------------
# vocab


def test_vocab_reserves_pad_and_unk():
    v = Vocab(["b", "a"])
    assert v.encode("<pad>") == 0
    assert v.encode("<unk>") == 1
    assert v.encode("b") == 2
    assert v.encode("missing") == 1
    assert len(v) == 4


def test_vocab_build_sorted_unique():
    v = Vocab.build([["b", "a"], ["a", "c"]])
    assert v.tokens[2:] == ["a", "b", "c"]


def test_vocab_duplicate_rejected():
    with pytest.raises(ConfigError):
        Vocab(["a", "a"])


# ---------------------------------------------------------------------------
# word vectors


def test_random_embeddings_pad_zero(rng):
    vocab = Vocab(["a", "b"])
    m = random_embeddings(rng, vocab, 5)
    assert m.shape == (4, 5)
    np.testing.assert_allclose(m[0], np.zeros(5))
    assert np.abs(m[1:]).max() <= np.sqrt(3.0 / 5.0) + 1e-12


# ---------------------------------------------------------------------------
# surface features


def test_binary_match_case_insensitive():
    out = binary_match(["The", "cat", "sat"], ["CAT", "dog"])
    np.testing.assert_allclose(out, [0.0, 1.0, 0.0])


def test_norm_frequency():
    out = norm_frequency(["a", "b", "A", "c"])
    np.testing.assert_allclose(out, [0.5, 0.25, 0.5, 0.25])


# ---------------------------------------------------------------------------
# featurizer


def test_featurizer_side_shapes():
    fz = Featurizer.build([example()], max_word_len=4)
    side = fz.side(["the", "cat"], ["cat"])
    assert side["word"].shape == (2,)
    assert side["chars"].shape == (2, 4)
    assert side["char_mask"].shape == (2, 4)
    np.testing.assert_allclose(side["match"], [0.0, 1.0])


def test_featurizer_truncates_long_words():
    fz = Featurizer.build([example()], max_word_len=3)
    ids, mask = fz.char_ids("elephant")
    assert ids.shape == (3,)
    np.testing.assert_allclose(mask, np.ones(3))


def test_featurizer_example_targets():
    fz = Featurizer.build([example()], max_word_len=4)
    feat = fz.example(example())
    assert feat["y1"] == 5 and feat["y2"] == 5
    assert feat["p"]["word"].shape == (6,)
    assert feat["q"]["word"].shape == (2,)


def test_unlabeled_example_carries_no_targets():
    fz = Featurizer.build([example()], max_word_len=4)
    unlabeled = example()
    unlabeled.answer_start = unlabeled.answer_end = None
    feat = fz.example(unlabeled)
    assert "y1" not in feat and "y2" not in feat
    labeled = fz.example(example())
    # a batch carries targets only when every example has them
    for feats in ([feat], [labeled, feat], [feat, labeled]):
        batch = collate(feats)
        assert "y1" not in batch and "y2" not in batch
    batch = collate([labeled, labeled])
    np.testing.assert_array_equal(batch["y1"], [5, 5])
    np.testing.assert_array_equal(batch["y2"], [5, 5])


# ---------------------------------------------------------------------------
# input encoder


def build_encoder(seed=0):
    ex = example()
    fz = Featurizer.build([ex], max_word_len=4)
    rng = np.random.default_rng(seed)
    word_matrix = random_embeddings(rng, fz.vocab, 5)
    store = ParamStore()
    enc = InputEncoder(store, "input", word_matrix, len(fz.char_vocab),
                       char_dim=3, char_hidden=4, cell="gru", rng=rng)
    return enc, fz, store


def test_encoder_output_width():
    enc, fz, _ = build_encoder()
    assert enc.output_dim == 5 + 4 + 2
    batch = collate([fz.example(example())])
    p, q = enc(batch)
    assert p.shape == (1, 6, 11)
    assert q.shape == (1, 2, 11)


def test_encoder_word_embeddings_frozen():
    enc, fz, store = build_encoder()
    trainable = {name for name, _ in store.trainable_items()}
    assert not any("word" in n for n in trainable)
    assert any("char_emb" in n for n in trainable)


def test_encoder_pad_rows_zero():
    enc, fz, _ = build_encoder()
    short = example("short")
    short.passage_tokens = short.passage_tokens[:3]
    short.answer_start = short.answer_end = 2
    batch = collate([fz.example(example()), fz.example(short)])
    p, _ = enc(batch)
    np.testing.assert_allclose(p.data[1, 3:], np.zeros((3, 11)), atol=1e-15)


def test_encoder_batch_matches_single():
    """Padding one side of the batch must not change the other's features."""
    enc, fz, _ = build_encoder()
    ex = example()
    short = example("short")
    short.passage_tokens = short.passage_tokens[:3]
    short.answer_start = short.answer_end = 2
    both = collate([fz.example(ex), fz.example(short)])
    alone = collate([fz.example(ex)])
    p_both, q_both = enc(both)
    p_alone, q_alone = enc(alone)
    np.testing.assert_allclose(p_both.data[0], p_alone.data[0], atol=1e-12)
    np.testing.assert_allclose(q_both.data[0], q_alone.data[0], atol=1e-12)
