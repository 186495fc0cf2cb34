"""Whole-model assembly: config handling, ablation transforms, forward
contract, and the connector-call ledger."""

import numpy as np
import pytest

from decaprop.bac import BAC
from decaprop.encoder import Featurizer
from decaprop.errors import ConfigError
from decaprop.model import (VARIANTS, ModelConfig, apply_variant, build_model)
from decaprop.numerics import Tape, backward
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
    with pytest.raises(ConfigError, match="unknown model config keys"):
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
    featurizer, batch = tiny_batch
    for variant in VARIANTS:
        model = build_model(apply_variant(tiny_cfg(), variant), featurizer, seed=0)
        with Tape() as tape:
            out = model.forward(batch, training=True, rng=np.random.default_rng(0))
        model.store.zero_grads()
        backward(tape, out.loss)
        total = sum(float(np.abs(p.grad).sum()) for _, p in model.store.trainable_items())
        assert np.isfinite(out.loss.data) and total > 0.0, variant


def test_predict_spans_within_length(tiny_batch):
    featurizer, batch = tiny_batch
    model = build_model(tiny_cfg(), featurizer, seed=0)
    for (k, l), n in zip(model.predict(batch), batch["p_len"]):
        assert 0 <= k <= l < n


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
