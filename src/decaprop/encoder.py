"""Token featurization: word vectors, char-level BiRNN states, match and
frequency indicators.

Each position becomes a row of width ``word_dim + char_hidden + 2``.  Word
vectors are frozen; the char embedding and char RNN train normally.  Padding
rows come out zero without a mask multiply: the PAD word vector is zero, an
all-masked char row leaves the char RNN at its zero state, and ``collate``
pads match and frequency with zeros.  No layer reads them either: their one
reader, DecaEnc's first BiRNN, keeps its state at masked steps and gives
those rows exact zero gradients.

A token's char row depends only on its spelling, and its char state only on
that row and the parameters.  So the char work is done once per spelling:
``Featurizer`` looks char rows up in a table with one row per vocabulary id
(only UNK positions spell their token out), and ``InputEncoder`` runs the
char BiRNN once per distinct row of the batch and gathers the states back to
the positions.  A char id is never 0 at a real character, so a row's char
mask is ``ids != 0``; no batch carries it as a second array that could
contradict the ids.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .errors import ConfigError
from .numerics import ParamStore, Tensor, concat, embedding_init, gather_rows
from .recurrent import BiRNN

PAD = "<pad>"
UNK = "<unk>"


class Vocab:
    """Token <-> index map with PAD at 0 (all-zero embedding) and UNK at 1."""

    def __init__(self, tokens):
        self.tokens = [PAD, UNK] + list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ConfigError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def encode(self, token: str) -> int:
        return self.index.get(token, 1)

    def encode_all(self, tokens) -> np.ndarray:
        return np.array([self.encode(t) for t in tokens], dtype=np.int64)

    @classmethod
    def build(cls, token_lists) -> "Vocab":
        return cls(sorted(set().union(*token_lists)))


def random_embeddings(rng: np.random.Generator, vocab: Vocab, dim: int) -> np.ndarray:
    """Frozen random word vectors for desk-scale runs; PAD row is zero."""
    matrix = embedding_init(rng, len(vocab), dim)
    matrix[0] = 0.0
    return matrix


def binary_match(tokens: list[str], other: list[str]) -> np.ndarray:
    """1.0 where the (lowercased) token also occurs in the other sequence."""
    return _match([t.lower() for t in tokens], [t.lower() for t in other])


def norm_frequency(tokens: list[str]) -> np.ndarray:
    """Occurrence count of each (lowercased) token within its own sequence,
    divided by length."""
    return _frequency([t.lower() for t in tokens])


def _match(lower: list[str], other_lower: list[str]) -> np.ndarray:
    """``binary_match`` of already lowercased sequences."""
    pool = set(other_lower)
    return np.array([1.0 if t in pool else 0.0 for t in lower])


def _frequency(lower: list[str]) -> np.ndarray:
    """``norm_frequency`` of an already lowercased sequence."""
    if not lower:
        return np.zeros(0)
    counts = Counter(lower)
    n = len(lower)
    return np.array([counts[t] / n for t in lower])


class Featurizer:
    """Turns token lists into the integer/float arrays the model consumes.

    ``char_table`` holds the char ids of every vocabulary token, row ``i``
    for ``vocab.tokens[i]`` (row 0 spells the literal ``<pad>``), built once
    here: |vocab| x ``max_word_len`` int64s, fixed for the featurizer's
    life.  ``side`` takes a token's chars from it by word id.  A position
    whose word id is UNK (an out-of-vocabulary token, or a literal
    ``<unk>``) is spelled out by ``char_ids`` instead.  A char id is never 0
    at a real character (unknown characters are UNK, 1), so the char mask is
    ``chars != 0``.
    """

    def __init__(self, vocab: Vocab, char_vocab: Vocab, max_word_len: int = 16):
        self.vocab = vocab
        self.char_vocab = char_vocab
        if not isinstance(max_word_len, (int, np.integer)) or max_word_len < 1:
            raise ConfigError(f"max_word_len must be an integer >= 1, got {max_word_len!r}")
        self.max_word_len = max_word_len
        self.char_table = np.zeros((len(vocab), max_word_len), dtype=np.int64)
        for row, token in zip(self.char_table, vocab.tokens):
            row[:] = self.char_ids(token)

    def char_ids(self, token: str) -> np.ndarray:
        """The char ids of ``token``, truncated to ``max_word_len`` and padded
        with 0."""
        ids = np.zeros(self.max_word_len, dtype=np.int64)
        for i, ch in enumerate(token[: self.max_word_len]):
            ids[i] = self.char_vocab.encode(ch)
        return ids

    def side(self, tokens: list[str], lower: list[str], other_lower: list[str]) -> dict:
        """One side's features from its tokens, the same tokens lowercased,
        and the other side's tokens lowercased."""
        word = self.vocab.encode_all(tokens)
        chars = self.char_table[word]
        for i in np.flatnonzero(word == 1):
            chars[i] = self.char_ids(tokens[i])
        return {
            "word": word,
            "chars": chars,
            "match": _match(lower, other_lower),
            "freq": _frequency(lower),
        }

    def example(self, ex) -> dict:
        """Both sides' features, plus the span targets ``y1``/``y2`` when the
        example is labeled.  Each side is lowercased once, for both sides'
        match and frequency features."""
        p, q = ex.passage_tokens, ex.question_tokens
        p_lower, q_lower = [t.lower() for t in p], [t.lower() for t in q]
        feat = {"p": self.side(p, p_lower, q_lower), "q": self.side(q, q_lower, p_lower)}
        if ex.labeled:
            feat["y1"], feat["y2"] = ex.answer_start, ex.answer_end
        return feat

    def state(self) -> dict:
        """JSON-ready vocabularies, the form checkpoints store them in."""
        return {"tokens": self.vocab.tokens[2:], "char_tokens": self.char_vocab.tokens[2:],
                "max_word_len": self.max_word_len}

    @classmethod
    def from_state(cls, state: dict) -> "Featurizer":
        return cls(Vocab(state["tokens"]), Vocab(state["char_tokens"]), state["max_word_len"])

    @classmethod
    def build(cls, examples, max_word_len: int = 16) -> "Featurizer":
        token_lists = [ex.passage_tokens for ex in examples] + [ex.question_tokens for ex in examples]
        vocab = Vocab.build(token_lists)
        # every token occurrence is spelled like its vocabulary entry, so the
        # distinct tokens hold every char an occurrence does
        chars = set().union(*(t[:max_word_len] for t in vocab.tokens[2:]))
        return cls(vocab, Vocab(sorted(chars)), max_word_len)


def distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-d integer array: ``(first, inv)``, with
    ``keys[first]`` the distinct rows in lexicographic order and
    ``keys[first][inv] == keys``.  A lexsort and one row compare; much
    cheaper than ``np.unique(keys, axis=0)``."""
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inv = np.empty(len(keys), dtype=np.int64)
    inv[order] = np.cumsum(new) - 1
    return order[new], inv


class InputEncoder:
    """Builds the per-position representation [word; char; match; freq]."""

    def __init__(self, store: ParamStore, name: str, word_matrix: np.ndarray,
                 char_vocab_size: int, char_dim: int, char_hidden: int,
                 cell: str, rng: np.random.Generator):
        self.word_dim = word_matrix.shape[1]
        self.char_hidden = char_hidden
        self.word_emb = store.register(f"{name}.word_emb", word_matrix, trainable=False)
        char_matrix = embedding_init(rng, char_vocab_size, char_dim)
        char_matrix[0] = 0.0
        self.char_emb = store.register(f"{name}.char_emb", char_matrix)
        self.char_rnn = BiRNN(store, f"{name}.char_rnn", char_dim, char_hidden, cell, rng)

    @property
    def output_dim(self) -> int:
        return self.word_dim + self.char_hidden + 2

    def __call__(self, batch: dict) -> tuple[Tensor, Tensor]:
        """Embed both sides of a collated batch -> (passage, question) tensors."""
        bsz, lp = batch["p_word"].shape
        lq = batch["q_word"].shape[1]
        wl = batch["p_chars"].shape[-1]

        # one char-RNN run over the distinct char-id rows of both sides, each
        # masked where its ids are 0; gather_rows' scatter-add backward sums
        # the repeats' gradients
        all_ids = np.concatenate(
            [batch["p_chars"].reshape(-1, wl), batch["q_chars"].reshape(-1, wl)])
        first, inv = distinct_rows(all_ids)
        ids = all_ids[first]
        ch = self.char_rnn.final_states(gather_rows(self.char_emb, ids), ids != 0)
        ch_p = gather_rows(ch, inv[:bsz * lp].reshape(bsz, lp))
        ch_q = gather_rows(ch, inv[bsz * lp:].reshape(bsz, lq))

        sides = []
        for prefix, ch_side in (("p", ch_p), ("q", ch_q)):
            word = gather_rows(self.word_emb, batch[f"{prefix}_word"])
            match = Tensor(batch[f"{prefix}_match"][..., None])
            freq = Tensor(batch[f"{prefix}_freq"][..., None])
            sides.append(concat([word, ch_side, match, freq], -1))
        return sides[0], sides[1]
