"""Input featurization: vocabularies, word vectors, char composition,
match/frequency features, padding invariants, and the per-spelling char
path (the featurizer's char table, the encoder's distinct-row char BiRNN)
against the per-position one."""

import numpy as np
import pytest

from decaprop.data import TokenizedExample
from decaprop.encoder import (Featurizer, InputEncoder, Vocab, binary_match, distinct_rows,
                              norm_frequency, random_embeddings)
from decaprop.errors import ConfigError
from decaprop.numerics import (ParamStore, Tape, Tensor, add, backward, gather_rows, mul,
                               narrow, reshape, sum_)
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


def _build_per_occurrence(examples, max_word_len: int) -> Featurizer:
    """The featurizer built by walking every char of every token occurrence."""
    token_lists = [ex.passage_tokens for ex in examples] + [ex.question_tokens for ex in examples]
    seen, chars = {}, {}
    for tokens in token_lists:
        for t in tokens:
            seen.setdefault(t, None)
            for ch in t[:max_word_len]:
                chars.setdefault(ch, None)
    return Featurizer(Vocab(sorted(seen)), Vocab(sorted(chars)), max_word_len)


def test_featurizer_build_matches_per_occurrence_build():
    """Vocabulary, char vocabulary and char table built from the distinct
    tokens equal those of the occurrence-wise walk, on mixed-case and
    non-ASCII tokens and on tokens longer than ``max_word_len``, whose
    later chars count nowhere."""
    examples = [
        TokenizedExample(id="a", passage_tokens=["Straße", "straße", "Ünïcode", "naïve", "The",
                                                 "the", "THE", "über", "the"],
                         question_tokens=["Über", "ß"], answer_start=0, answer_end=0,
                         answer_texts=["Straße"]),
        TokenizedExample(id="b",
                         passage_tokens=["zzzzzzQ", "abcdefghijk", "日本語テキスト", "x"],
                         question_tokens=["abcdefghijk", "Éé"], answer_start=1, answer_end=1,
                         answer_texts=["abcdefghijk"]),
    ]
    for max_word_len in (1, 3, 6, 16):
        got = Featurizer.build(examples, max_word_len)
        want = _build_per_occurrence(examples, max_word_len)
        assert got.vocab.tokens == want.vocab.tokens
        assert got.char_vocab.tokens == want.char_vocab.tokens
        np.testing.assert_array_equal(got.char_table, want.char_table)
    # chars past max_word_len are left out: "Q" ends "zzzzzzQ" only
    assert "Q" not in Featurizer.build(examples, 6).char_vocab
    assert "Q" in Featurizer.build(examples, 7).char_vocab


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


def _reference_match(tokens, other):
    """Match features as they were computed before each side was lowercased
    once: every token lowercased where it is read."""
    pool = {t.lower() for t in other}
    return np.array([1.0 if t.lower() in pool else 0.0 for t in tokens])


def _reference_frequency(tokens):
    if not tokens:
        return np.zeros(0)
    counts: dict[str, int] = {}
    for t in tokens:
        key = t.lower()
        counts[key] = counts.get(key, 0) + 1
    return np.array([counts[t.lower()] / len(tokens) for t in tokens])


def test_match_and_frequency_stay_byte_equal():
    """``Featurizer.example`` lowercases each side once; its match and
    frequency features, and ``binary_match`` and ``norm_frequency``, stay
    byte-equal to per-read lowercasing on mixed-case and non-ASCII tokens
    (the final sigma, a dotted capital I, a titlecase digraph, ß)."""
    rng = np.random.default_rng(17)
    pool = ["The", "the", "THE", "Straße", "STRASSE", "strasse", "ΣΊΣΥΦΟΣ", "σίσυφος",
            "Σ", "İstanbul", "i̇stanbul", "ǅemal", "ǆemal", "Ǆ", "Ωmega", "ωMEGA", "cat",
            "Cat", "<pad>", "<unk>", "", "ÉTÉ", "été", "x"]
    fz = Featurizer.build([example()], max_word_len=4)
    for _ in range(40):
        p = [pool[i] for i in rng.integers(0, len(pool), size=int(rng.integers(0, 30)))]
        q = [pool[i] for i in rng.integers(0, len(pool), size=int(rng.integers(0, 6)))]
        feat = fz.example(TokenizedExample(id="m", passage_tokens=p, question_tokens=q))
        for side, tokens, other in (("p", p, q), ("q", q, p)):
            match, freq = _reference_match(tokens, other), _reference_frequency(tokens)
            for got, want in ((feat[side]["match"], match), (feat[side]["freq"], freq),
                              (binary_match(tokens, other), match),
                              (norm_frequency(tokens), freq)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (side, tokens, other)


# ---------------------------------------------------------------------------
# featurizer


def test_featurizer_side_shapes():
    fz = Featurizer.build([example()], max_word_len=4)
    side = fz.side(["the", "cat"], ["the", "cat"], ["cat"])
    assert side["word"].shape == (2,)
    assert side["chars"].shape == (2, 4)
    assert "char_mask" not in side  # the encoder derives it from the ids
    np.testing.assert_allclose(side["match"], [0.0, 1.0])


def test_featurizer_truncates_long_words():
    fz = Featurizer.build([example()], max_word_len=3)
    ids = fz.char_ids("elephant")
    assert ids.shape == (3,)
    assert (ids != 0).all()


def test_featurizer_rejects_a_word_length_under_one():
    for bad in (0, -1, 2.0):
        with pytest.raises(ConfigError):
            Featurizer(Vocab(["a"]), Vocab(["a"]), max_word_len=bad)


def _per_token_chars(fz, tokens):
    """Char rows spelled out token by token with ``char_ids``: the reference
    for the featurizer's table lookup."""
    chars = np.zeros((len(tokens), fz.max_word_len), dtype=np.int64)
    for i, t in enumerate(tokens):
        chars[i] = fz.char_ids(t)
    return chars


def test_char_table_matches_per_token_char_ids():
    """Table rows by word id, and ``char_ids`` at UNK positions, give the
    per-token rows byte for byte: in-vocab and out-of-vocabulary tokens, the
    literal ``<pad>`` and ``<unk>``, characters outside the char vocabulary
    and words longer than ``max_word_len``, in vocab and out."""
    rng = np.random.default_rng(16)
    letters = list("abcdefgh<>")

    def word(longest):
        return "".join(rng.choice(letters, size=int(rng.integers(1, longest + 1))))

    known = sorted({word(11) for _ in range(40)})
    # 'g' and 'h' are missing from the char vocabulary
    fz = Featurizer(Vocab(known), Vocab(list("abcdef<>")), max_word_len=6)
    unknown = [w for w in (word(14) for _ in range(30)) if w not in fz.vocab]
    fixed = ["<pad>", "<unk>", "<PAD>", "ghgh", "abcdefabcdef", known[0], max(known, key=len)]
    for _ in range(6):
        pool = known + unknown
        drawn = [pool[i] for i in rng.integers(0, len(pool), size=int(rng.integers(0, 25)))]
        tokens = drawn + fixed
        order = rng.permutation(len(tokens))
        tokens = [tokens[i] for i in order]
        side = fz.side(tokens, [t.lower() for t in tokens], known[:3])
        assert (side["word"] == 1).sum() >= 3 and (side["word"] > 1).sum() >= 2
        want = _per_token_chars(fz, tokens)
        got = side["chars"]
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    empty = fz.side([], [], known[:1])
    assert empty["chars"].shape == (0, 6) and empty["chars"].dtype == np.int64


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


def test_distinct_rows_round_trips():
    rng = np.random.default_rng(3)
    for n in (0, 1, 2, 57):
        keys = rng.integers(0, 3, size=(n, 4))
        first, inv = distinct_rows(keys)
        np.testing.assert_array_equal(keys[first][inv], keys)
        assert len({tuple(row) for row in keys[first]}) == len(first)
        assert len(first) == len({tuple(row) for row in keys})


def _per_position_char_states(enc, batch):
    """The char BiRNN run at every position of both sides: the reference for
    the encoder's one run per distinct row of char ids."""
    bsz, lp = batch["p_word"].shape
    lq = batch["q_word"].shape[1]
    wl = batch["p_chars"].shape[-1]
    ids = np.concatenate([batch["p_chars"].reshape(-1, wl), batch["q_chars"].reshape(-1, wl)])
    ch = enc.char_rnn.final_states(gather_rows(enc.char_emb, ids), ids != 0)
    return (reshape(narrow(ch, 0, 0, bsz * lp), (bsz, lp, enc.char_hidden)),
            reshape(narrow(ch, 0, bsz * lp, bsz * lq), (bsz, lq, enc.char_hidden)))


def _char_batch(case):
    """A collated batch for one edge case of the distinct-row char path."""
    fz = build_encoder()[1]
    ex, short = example(), example("short")
    short.passage_tokens = ["mat", "the", "unseen"]
    short.question_tokens = ["the"]
    if case == "repeats_and_padding":
        return collate([fz.example(ex), fz.example(short), fz.example(ex)])
    batch = collate([fz.example(ex)])
    if case == "batch_of_one":
        return batch
    # a real position whose char row is all masked, beside padding-free rows
    assert case == "all_masked_row"
    batch["p_chars"][0, 2] = 0
    return batch


@pytest.mark.parametrize("case", ["repeats_and_padding", "batch_of_one", "all_masked_row"])
def test_distinct_char_states_match_per_position(case):
    """Char states, and the gradients of ``char_emb`` and every
    ``char_rnn`` weight, from one BiRNN run per distinct row equal those of
    a run at every position within 1e-12 relative."""
    enc, _, store = build_encoder(seed=4)
    batch = _char_batch(case)
    lo, hi = enc.word_dim, enc.word_dim + enc.char_hidden
    rng = np.random.default_rng(8)
    coef_p = rng.normal(size=batch["p_word"].shape + (enc.char_hidden,))
    coef_q = rng.normal(size=batch["q_word"].shape + (enc.char_hidden,))

    def run(char_states):
        store.zero_grads()
        with Tape() as tape:
            ch_p, ch_q = char_states()
            loss = add(sum_(mul(ch_p, Tensor(coef_p))), sum_(mul(ch_q, Tensor(coef_q))))
        backward(tape, loss)
        values = {"p": ch_p.data.copy(), "q": ch_q.data.copy()}
        values.update((name, p.grad.copy()) for name, p in store.trainable_items())
        return values

    def deduplicated():
        p, q = enc(batch)
        return narrow(p, -1, lo, hi - lo), narrow(q, -1, lo, hi - lo)

    got = run(deduplicated)
    want = run(lambda: _per_position_char_states(enc, batch))
    assert got.keys() == want.keys() and "input.char_emb" in want
    for key, ref in want.items():
        scale = np.abs(ref).max()
        assert scale > 0.0, key
        assert np.abs(got[key] - ref).max() <= 1e-12 * scale, key
    wl = batch["p_chars"].shape[-1]
    keys = np.concatenate([batch["p_chars"].reshape(-1, wl), batch["q_chars"].reshape(-1, wl)])
    assert len(distinct_rows(keys)[0]) < len(keys)
