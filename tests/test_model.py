"""Whole-model assembly: config handling, ablation transforms, forward
contract, and the connector-call ledger."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest

from decaprop.bac import BAC
from decaprop.encoder import Featurizer
from decaprop.errors import ConfigError, ContractError
from decaprop.model import (VARIANTS, ModelConfig, apply_variant, build_model)
from decaprop.numerics import Dense, Tape, backward
from decaprop.training import SyntheticTaskSpec, collate, gen_synthetic


def tiny_cfg(**kwargs):
    base = dict(word_dim=4, char_dim=3, char_hidden=2, max_word_len=4,
                hidden=4, layers=3, fm_factors=2)
    base.update(kwargs)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def tiny_batch():
    spec = SyntheticTaskSpec(vocab_size=15, passage_len=7, query_len=2,
                             span_min=1, span_max=1, distractors=0,
                             n_train=3, n_dev=1, seed=1)
    examples = gen_synthetic(spec, "train")
    featurizer = Featurizer.build(examples, 4)
    batch = collate([featurizer.example(ex) for ex in examples])
    return featurizer, batch


def test_config_round_trip():
    cfg = tiny_cfg(cell="lstm", max_span_len=3)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigError, match="unknown config key 'model.bogus'"):
        ModelConfig.from_dict({"hidden": 8, "bogus": 1})
    with pytest.raises(ConfigError, match="rnn widths"):
        tiny_cfg(hidden=1)
    with pytest.raises(ConfigError, match="dropout"):
        tiny_cfg(dropout=1.0)
    with pytest.raises(ConfigError, match="model.layers must be int, got True"):
        ModelConfig.from_dict({"layers": True})
    # retired knobs load at the value the code hard-wires, and at no other
    old = {"double_one_sided": False, "shared_projection": True, "char_pool": "final"}
    assert ModelConfig.from_dict({**tiny_cfg().to_dict(), **old}) == tiny_cfg()
    for key, value in (("char_pool", "max"), ("shared_projection", False),
                       ("double_one_sided", True), ("shared_projection", 1)):
        with pytest.raises(ConfigError, match=f"model.{key} was retired"):
            ModelConfig.from_dict({key: value})


def test_variant_table():
    base = tiny_cfg()
    assert apply_variant(base, "full") == base
    ra = apply_variant(base, "remove_all")
    assert not ra.encoder_connectors and ra.encoder_concat_layers and not ra.dense_core
    assert not apply_variant(base, "no_core").dense_core
    ne = apply_variant(base, "no_enc")
    assert not ne.encoder_connectors and not ne.encoder_concat_layers
    assert not apply_variant(base, "no_cross").cross_hierarchy
    assert not apply_variant(base, "no_gated").gated_attention
    assert apply_variant(base, "n2").layers == 2
    assert apply_variant(base, "n4").layers == 4
    assert apply_variant(base, "g_linear").connector == "linear"
    assert apply_variant(base, "g_nonlinear").connector == "nonlinear"
    with pytest.raises(ConfigError, match="unknown ablation variant"):
        apply_variant(base, "bogus")


def test_variant_does_not_mutate_base():
    base = tiny_cfg()
    apply_variant(base, "n2")
    assert base.layers == 3


def test_forward_contract(tiny_batch):
    featurizer, batch = tiny_batch
    model = build_model(tiny_cfg(), featurizer, seed=0)
    out = model.forward(batch)
    assert out.loss.shape == ()
    assert out.start_logits.shape == (3, 7)
    assert out.end_logits.shape == (3, 7)
    assert np.isfinite(out.loss.data)


def test_forward_without_labels_has_no_loss(tiny_batch):
    featurizer, batch = tiny_batch
    model = build_model(tiny_cfg(), featurizer, seed=0)
    labeled = model.forward(batch)
    unlabeled = model.forward({k: v for k, v in batch.items() if k not in ("y1", "y2")})
    assert unlabeled.loss is None and labeled.loss is not None
    np.testing.assert_array_equal(unlabeled.start_logits.data, labeled.start_logits.data)
    np.testing.assert_array_equal(unlabeled.end_logits.data, labeled.end_logits.data)
    assert unlabeled.connector_calls == labeled.connector_calls
    assert model.decode(unlabeled, batch["p_len"]) == model.predict(batch)


def test_connector_call_ledger(tiny_batch, monkeypatch):
    featurizer, batch = tiny_batch
    applied = [0]

    def counted(method):
        def wrapper(*args, **kwargs):
            applied[0] += 1
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(BAC, "__call__", counted(BAC.__call__))
    monkeypatch.setattr(BAC, "one_sided", counted(BAC.one_sided))

    def ledger(model):
        """connector_calls of two forwards in a row, each checked against the
        connector applications that forward made."""
        reported = []
        for _ in range(2):
            applied[0] = 0
            reported.append(model.forward(batch).connector_calls)
            assert reported[-1] == applied[0]
        assert reported[0] == reported[1]
        return reported[0]

    # full model: n^2 encoder connectors plus 2n one-sided core connectors
    for n in (2, 3):
        model = build_model(tiny_cfg(layers=n), featurizer, seed=0)
        assert ledger(model) == n * n + 2 * n
    ra = build_model(apply_variant(tiny_cfg(), "remove_all"), featurizer, seed=0)
    assert ledger(ra) == 0
    nc = build_model(apply_variant(tiny_cfg(), "no_core"), featurizer, seed=0)
    assert ledger(nc) == 9
    ne = build_model(apply_variant(tiny_cfg(), "no_enc"), featurizer, seed=0)
    assert ledger(ne) == 6
    ncross = build_model(apply_variant(tiny_cfg(), "no_cross"), featurizer, seed=0)
    assert ledger(ncross) == 3 + 6


def test_every_variant_constructs_and_backprops(tiny_batch):
    """One training step of every variant, GRU and LSTM, gives every
    trainable parameter a gradient, except no_cross's off-diagonal encoder
    connectors: they are registered only so that the init stream matches
    ``full``, no record reaches them, and their gradients stay None."""
    featurizer, batch = tiny_batch
    for cell, variant in itertools.product(("gru", "lstm"), VARIANTS):
        model = build_model(apply_variant(tiny_cfg(cell=cell), variant), featurizer, seed=0)
        with Tape() as tape:
            out = model.forward(batch, training=True, rng=np.random.default_rng(0))
        model.store.zero_grads()
        backward(tape, out.loss)
        total = sum(float(np.abs(p.grad).sum()) for _, p in model.store.trainable_items()
                    if p.grad is not None)
        assert np.isfinite(out.loss.data) and total > 0.0, (cell, variant)
        unreached = {n for n, p in model.store.trainable_items() if p.grad is None}
        expected = set()
        if variant == "no_cross":
            expected = {n for n in model.store.names() if re.match(r"enc\.bac(\d)(?!\1)\d\.", n)}
            assert expected
        assert unreached == expected, (cell, variant)


def test_dropout_training_needs_rng(tiny_batch):
    """Dropout runs only in training mode, with masks from the caller's rng."""
    featurizer, batch = tiny_batch
    model = build_model(tiny_cfg(dropout=0.3), featurizer, seed=0)
    with pytest.raises(ContractError, match="needs an rng"):
        model.forward(batch, training=True)
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    plain = model.forward(batch)
    # eval mode draws no mask even when handed an rng
    np.testing.assert_array_equal(model.forward(batch, rng=rng).start_logits.data,
                                  plain.start_logits.data)
    assert rng.bit_generator.state == state
    dropped = model.forward(batch, training=True, rng=rng)
    assert rng.bit_generator.state != state
    assert not np.array_equal(dropped.start_logits.data, plain.start_logits.data)
    # without dropout, training mode needs no rng
    no_drop = build_model(tiny_cfg(), featurizer, seed=0)
    np.testing.assert_array_equal(no_drop.forward(batch, training=True).start_logits.data,
                                  no_drop.forward(batch).start_logits.data)


def _c6_model(cell: str, layers: int):
    """The criterion-6 model (seed 0) and a batch of the 32 seed-0 examples of
    the criterion-6 task."""
    spec = SyntheticTaskSpec(vocab_size=100, passage_len=40, query_len=3, span_min=2,
                             span_max=2, distractors=1, n_train=32, seed=0)
    examples = gen_synthetic(spec, "train")
    cfg = ModelConfig(word_dim=16, char_dim=8, char_hidden=8, max_word_len=8, hidden=32,
                      layers=layers, fm_factors=8, cell=cell)
    featurizer = Featurizer.build(examples, cfg.max_word_len)
    model = build_model(cfg, featurizer, seed=0)
    return model, collate([featurizer.example(ex) for ex in examples])


def _c6_first_forward(cell: str, layers: int):
    """First training-mode forward of the criterion-6 model on its batch, and
    the tape it recorded."""
    model, batch = _c6_model(cell, layers)
    with Tape() as tape:
        out = model.forward(batch, training=True, rng=np.random.default_rng(0))
    return out, tape


@pytest.mark.parametrize("cell,layers,loss,calls", [
    ("gru", 2, 7.3927780413093656, 8), ("lstm", 4, 7.3807419392282725, 24)],
    ids=["gru_n2", "lstm_n4"])
def test_golden_first_step(cell, layers, loss, calls):
    """The same loss the benchmark checks its first step against, and
    n^2 + 2n connector calls."""
    out, _ = _c6_first_forward(cell, layers)
    assert abs(out.loss.item() - loss) <= 1e-9
    assert out.connector_calls == calls


@pytest.mark.parametrize("cell,layers,max_records", [("gru", 2, 51), ("lstm", 4, 99)],
                         ids=["gru_n2", "lstm_n4"])
def test_training_forward_tape_records(cell, layers, max_records):
    """Each BiRNN (both directions), FM connector call and gated block is
    one tape record; a two-sided connector hands out its sides with two
    narrows, and the input encoder gathers its per-spelling char states to
    each side in one record, and only a layer that another follows builds
    the next one's [H; g] inputs: the forward records 50 (GRU n2) and 98
    (LSTM n4) entries."""
    _, tape = _c6_first_forward(cell, layers)
    assert len(tape) < max_records


def test_training_step_projects_the_self_block_once(monkeypatch):
    """The self block attends over its own rows, so its record projects them
    once in the forward and once in the backward: a criterion-6 GRU n2
    training step calls ``Dense.rows`` 38 times, 40 when each side of the
    scores was projected on its own."""
    model, batch = _c6_model("gru", 2)
    layers = []
    rows = Dense.rows

    def counted(layer, x):
        layers.append(layer)
        return rows(layer, x)

    monkeypatch.setattr(Dense, "rows", counted)
    with Tape() as tape:
        out = model.forward(batch, training=True, rng=np.random.default_rng(0))
    model.store.zero_grads()
    backward(tape, out.loss)
    assert len(layers) == 38
    assert sum(layer is model.core.self_attn.proj for layer in layers) == 2


def test_backward_peak_stays_near_the_forward_live_set():
    """Backward frees each record as it replays it, so a criterion-6 GRU n2
    step's backward peaks (tracemalloc) at most 1.15x the memory its forward
    left live: 1.106 measured, against 1.67 when the tape held every record
    until the backward ended and 1.138 when ``zero_grads`` gave every
    parameter a zero array.  The first replayed BiRNN, the pointer's end
    sweep, sets the peak."""
    model, batch = _c6_model("gru", 2)
    tracemalloc.start()
    try:
        with Tape() as tape:
            out = model.forward(batch, training=True, rng=np.random.default_rng(0))
        live = tracemalloc.get_traced_memory()[0]
        model.store.zero_grads()
        tracemalloc.reset_peak()
        backward(tape, out.loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * live, f"backward peak {peak / live:.3f}x the forward's live memory"


@pytest.mark.parametrize("cell,layers", [("gru", 2), ("lstm", 2)], ids=["gru_n2", "lstm_n2"])
def test_batch_1_logits_match_a_mixed_length_batch(cell, layers):
    """Each example's eval-mode logits at batch 1 equal its real positions in
    one mixed-length batch of 32 (passages 8-80, queries 1-3), within 1e-12
    relative, and so do the decoded spans: padding changes no real position,
    and only the BLAS blocking of the batch shape may round differently.
    The benchmark's batch-1 predict workload checks the same invariant
    after its timed loop."""
    examples = []
    for k in range(32):
        spec = SyntheticTaskSpec(vocab_size=100, passage_len=8 + (k * 23) % 73, query_len=3,
                                 span_min=2, span_max=2, distractors=1, n_train=1, seed=k)
        ex, = gen_synthetic(spec, "train")
        ex.question_tokens = ex.question_tokens[:1 + k % 3]
        examples.append(ex)
    cfg = ModelConfig(word_dim=16, char_dim=8, char_hidden=8, max_word_len=8, hidden=32,
                      layers=layers, fm_factors=8, cell=cell)
    featurizer = Featurizer.build(examples, cfg.max_word_len)
    model = build_model(cfg, featurizer, seed=0)
    feats = [featurizer.example(ex) for ex in examples]
    batch = collate(feats)
    assert len(set(batch["p_len"])) > 20 and (batch["q_mask"] == 0.0).any()
    out = model.forward(batch)
    spans = model.decode(out, batch["p_len"])
    for i, (f, n) in enumerate(zip(feats, batch["p_len"])):
        single = collate([f])
        solo = model.forward(single)
        for got, want in ((out.start_logits, solo.start_logits),
                          (out.end_logits, solo.end_logits)):
            want = want.data[0]
            assert want.shape == (n,)
            assert np.abs(got.data[i, :n] - want).max() <= 1e-12 * np.abs(want).max(), i
        assert spans[i] == model.decode(solo, single["p_len"])[0], i


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_padding_rows_reach_nothing(cell):
    """Padded positions feed only masked BiRNN steps, so the input encoder
    need not zero them: nonzero PAD word and char vectors and nonzero padded
    match and frequency entries leave the loss, the logits at real positions
    and every trainable gradient bit-equal, with dropout on."""
    spec = SyntheticTaskSpec(vocab_size=15, passage_len=9, query_len=2, span_min=1,
                             span_max=2, distractors=0, n_train=4, seed=3)
    examples = gen_synthetic(spec, "train")
    for k, ex in enumerate(examples[1:], start=1):
        ex.passage_tokens = ex.passage_tokens[:max(ex.answer_end + 1, 9 - 2 * k)]
    examples[-1].question_tokens = examples[-1].question_tokens[:1]
    featurizer = Featurizer.build(examples, 4)
    batch = collate([featurizer.example(ex) for ex in examples])
    assert (batch["p_mask"] == 0.0).any() and (batch["q_mask"] == 0.0).any()

    runs = []
    for pad in (0.0, 3.0):
        model = build_model(tiny_cfg(cell=cell, layers=2, dropout=0.2), featurizer, seed=0)
        with model.store.writable():
            model.input.word_emb.data[0] = model.input.char_emb.data[0] = pad
        fed = dict(batch)
        for side in "pq":
            real = batch[f"{side}_mask"] == 1.0
            for name in ("match", "freq"):
                fed[f"{side}_{name}"] = np.where(real, batch[f"{side}_{name}"], pad)
        with Tape() as tape:
            out = model.forward(fed, training=True, rng=np.random.default_rng(5))
        backward(tape, out.loss)
        runs.append((out, model.store.trainable_items()))

    (zero, zero_grads), (nonzero, nonzero_grads) = runs
    assert zero.loss.item() == nonzero.loss.item()
    for i, n in enumerate(batch["p_len"]):
        for a, b in ((zero.start_logits, nonzero.start_logits),
                     (zero.end_logits, nonzero.end_logits)):
            np.testing.assert_array_equal(a.data[i, :n], b.data[i, :n])
    for (name, a), (_, b) in zip(zero_grads, nonzero_grads):
        np.testing.assert_array_equal(a.grad, b.grad, err_msg=name)


def test_predict_spans_within_length(tiny_batch):
    featurizer, batch = tiny_batch
    model = build_model(tiny_cfg(), featurizer, seed=0)
    for (k, l), n in zip(model.predict(batch), batch["p_len"]):
        assert 0 <= k <= l < n


def test_decode_needs_one_length_per_row(tiny_batch):
    featurizer, batch = tiny_batch
    model = build_model(tiny_cfg(), featurizer, seed=0)
    out = model.forward(batch)
    lengths = batch["p_len"]
    for bad in (lengths[:-1], np.concatenate([lengths, lengths[:1]]), lengths[:, None]):
        with pytest.raises(ContractError, match="one length per row"):
            model.decode(out, bad)


def test_predict_respects_span_cap(tiny_batch):
    featurizer, batch = tiny_batch
    model = build_model(tiny_cfg(max_span_len=1), featurizer, seed=0)
    assert all(k == l for k, l in model.predict(batch))


def test_same_seed_same_init(tiny_batch):
    featurizer, _ = tiny_batch
    a = build_model(tiny_cfg(), featurizer, seed=4)
    b = build_model(tiny_cfg(), featurizer, seed=4)
    for (name, pa), (_, pb) in zip(a.store.items(), b.store.items()):
        np.testing.assert_array_equal(pa.data, pb.data, err_msg=name)


def test_word_matrix_shape_checked(tiny_batch):
    featurizer, _ = tiny_batch
    from decaprop.model import DecaProp
    with pytest.raises(ConfigError, match="word matrix"):
        DecaProp(tiny_cfg(), np.zeros((5, 3)), char_vocab_size=6)
