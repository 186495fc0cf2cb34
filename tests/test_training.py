"""Optimizers against hand-evaluated updates, schedule traces, answer
metrics, synthetic task construction, batching, and the training loop."""

import csv
import io
from dataclasses import replace

import numpy as np
import pytest

from decaprop import model as model_module, training as training_module
from decaprop.errors import ConfigError, ContractError, DataError, NumericError
from decaprop.model import DecaProp, ModelConfig, build_model
from decaprop.numerics import ParamStore
from decaprop.encoder import Featurizer
from decaprop.training import (SyntheticTaskSpec, TrainConfig, adadelta_step,
                               adam_step, clip_gradients, collate, em_f1, evaluate,
                               gen_synthetic, init_optimizer_state, lr_schedule,
                               normalize_answer, predict_batches, train_model)


def scalar_store(value=0.0, grad=1.0):
    store = ParamStore()
    p = store.register("w", np.array([value]))
    p.grad = np.array([grad])
    return store, p


# ---------------------------------------------------------------------------
# adam


def test_adam_first_step_hand_value():
    store, p = scalar_store(grad=1.0)
    state = init_optimizer_state("adam", store)
    adam_step(store, state, lr=1e-3)
    np.testing.assert_allclose(p.data, [-1e-3 / (1.0 + 1e-8)], atol=1e-15)


def test_adam_zero_gradient_no_move():
    store, p = scalar_store(grad=0.0)
    state = init_optimizer_state("adam", store)
    adam_step(store, state, lr=1e-3)
    np.testing.assert_allclose(p.data, [0.0], atol=1e-18)


def test_adam_deterministic_across_runs(rng):
    grads = rng.normal(size=10)

    def run():
        store, p = scalar_store()
        state = init_optimizer_state("adam", store)
        for g in grads:
            p.grad = np.array([g])
            adam_step(store, state, lr=1e-2)
        return p.data.copy()

    np.testing.assert_array_equal(run(), run())


def test_adam_rejects_wrong_state():
    store, _ = scalar_store()
    with pytest.raises(ContractError):
        adam_step(store, {"kind": "adadelta"})


# ---------------------------------------------------------------------------
# adadelta


def test_adadelta_first_step_hand_value():
    g = 2.0
    store, p = scalar_store(grad=g)
    state = init_optimizer_state("adadelta", store)
    adadelta_step(store, state, lr=0.5, rho=0.95, eps=1e-6)
    expect = 0.5 * (-np.sqrt(1e-6) / np.sqrt(1e-6 + 0.05 * g * g) * g)
    np.testing.assert_allclose(p.data, [expect], atol=1e-15)
    assert np.sign(p.data[0]) == -np.sign(g)


def test_adadelta_zero_gradient_no_move():
    store, p = scalar_store(grad=0.0)
    state = init_optimizer_state("adadelta", store)
    adadelta_step(store, state)
    np.testing.assert_allclose(p.data, [0.0], atol=1e-18)


def test_adadelta_accumulators_stay_nonnegative(rng):
    store, p = scalar_store()
    state = init_optimizer_state("adadelta", store)
    for g in rng.normal(size=50) * 10.0:
        p.grad = np.array([g])
        adadelta_step(store, state)
        assert state["g2"]["w"][0] >= 0.0
        assert state["dx2"]["w"][0] >= 0.0


def test_unknown_optimizer():
    store, _ = scalar_store()
    with pytest.raises(ConfigError):
        init_optimizer_state("sgd", store)


# ---------------------------------------------------------------------------
# clipping and scheduling


def test_clip_rescales_large_gradients():
    store = ParamStore()
    a = store.register("a", np.zeros(3))
    a.grad = np.array([3.0, 4.0, 0.0])  # norm 5
    norm = clip_gradients(store, 2.5)
    assert norm == pytest.approx(5.0)
    np.testing.assert_allclose(a.grad, [1.5, 2.0, 0.0], atol=1e-12)


def test_clip_leaves_small_gradients_alone():
    store = ParamStore()
    a = store.register("a", np.zeros(2))
    a.grad = np.array([0.3, 0.4])
    clip_gradients(store, 5.0)
    np.testing.assert_allclose(a.grad, [0.3, 0.4], atol=1e-15)


def test_lr_schedule_spec_trace():
    history = [50.0, 50.1, 50.05, 50.0, 49.9]
    assert lr_schedule(history, 1.0, patience=3) == pytest.approx(0.5)


def test_lr_schedule_improving_keeps_rate():
    assert lr_schedule([1.0, 2.0, 3.0], 1.0, patience=3) == 1.0
    assert lr_schedule([5.0], 1.0, patience=3) == 1.0


def test_lr_schedule_two_decays_quarter():
    history = [50.0, 49.0, 48.0, 47.0, 46.0, 45.0, 44.0]
    lr = 1.0
    for i in range(len(history)):
        lr = lr_schedule(history[:i + 1], lr, patience=3)
    assert lr == pytest.approx(0.25)


def test_lr_schedule_resets_after_decay():
    # decay at epoch 4; the next epoch must not decay again immediately
    history = [50.0, 49.0, 48.0, 47.0, 46.0]
    assert lr_schedule(history[:4], 1.0, patience=3) == pytest.approx(0.5)
    assert lr_schedule(history, 0.5, patience=3) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# answer metrics


def test_em_f1_normalization_cases():
    assert em_f1("The Cat", ["cat"]) == (1, 1.0)
    em, f1 = em_f1("cat sat", ["cat"])
    assert em == 0
    assert f1 == pytest.approx(2.0 / 3.0)
    assert em_f1("exact match", ["exact match"]) == (1, 1.0)


def test_em_f1_gold_list_order_irrelevant():
    golds = ["wrong answer", "the cat"]
    assert em_f1("cat", golds) == em_f1("cat", golds[::-1])


def test_em_f1_punctuation_and_articles():
    assert normalize_answer("The  Cat!") == "cat"
    assert em_f1("a dog.", ["DOG"]) == (1, 1.0)


def test_em_f1_no_overlap():
    assert em_f1("left", ["right"]) == (0, 0.0)


def test_em_f1_empty_golds_rejected():
    with pytest.raises(DataError):
        em_f1("anything", [])


def test_em_f1_empty_prediction():
    em, f1 = em_f1("", ["word"])
    assert em == 0 and f1 == 0.0


# ---------------------------------------------------------------------------
# synthetic task


def small_spec(**kwargs):
    base = dict(vocab_size=30, passage_len=12, query_len=2, span_min=1,
                span_max=2, distractors=1, n_train=20, n_dev=10, seed=3)
    base.update(kwargs)
    return SyntheticTaskSpec(**base)


def test_synthetic_key_occurs_once_before_answer():
    for ex in gen_synthetic(small_spec(), "train"):
        key = ex.question_tokens
        hits = [s for s in range(len(ex.passage_tokens) - len(key) + 1)
                if ex.passage_tokens[s:s + len(key)] == key]
        assert len(hits) == 1
        assert ex.answer_start == hits[0] + len(key)
        assert ex.answer_texts == [" ".join(
            ex.passage_tokens[ex.answer_start:ex.answer_end + 1])]


def test_synthetic_span_length_one_no_distractors():
    spec = small_spec(span_min=1, span_max=1, distractors=0)
    for ex in gen_synthetic(spec, "train"):
        assert ex.answer_end == ex.answer_start


def test_synthetic_deterministic():
    a = gen_synthetic(small_spec(), "train")
    b = gen_synthetic(small_spec(), "train")
    assert [e.passage_tokens for e in a] == [e.passage_tokens for e in b]


def test_synthetic_splits_disjoint():
    train = {tuple(e.passage_tokens) for e in gen_synthetic(small_spec(), "train")}
    dev = {tuple(e.passage_tokens) for e in gen_synthetic(small_spec(), "dev")}
    assert not train & dev


def test_synthetic_validation():
    with pytest.raises(ConfigError):
        gen_synthetic(small_spec(passage_len=2), "train")
    with pytest.raises(ConfigError):
        gen_synthetic(small_spec(), "validation")


# ---------------------------------------------------------------------------
# batching


def test_collate_pads_to_longest():
    spec = small_spec()
    examples = gen_synthetic(spec, "train")[:4]
    fz = Featurizer.build(examples, max_word_len=4)
    feats = [fz.example(e) for e in examples]
    feats[0]["p"] = {k: v[:7] for k, v in feats[0]["p"].items()}  # shorten one row
    batch = collate(feats)
    assert batch["p_word"].shape == (4, 12)
    assert batch["p_mask"][0, 7:].sum() == 0.0
    assert batch["p_mask"][1].sum() == 12.0
    np.testing.assert_array_equal(batch["p_word"][0, 7:], np.zeros(5, dtype=np.int64))
    assert batch["p_len"][0] == 7
    assert batch["y1"].shape == (4,)


def test_collate_empty_batch_rejected():
    with pytest.raises(ContractError):
        collate([])


# ---------------------------------------------------------------------------
# training loop


def tiny_setup(seed=0):
    spec = SyntheticTaskSpec(vocab_size=20, passage_len=8, query_len=2,
                             span_min=1, span_max=1, distractors=0,
                             n_train=12, n_dev=6, seed=seed)
    train = gen_synthetic(spec, "train")
    dev = gen_synthetic(spec, "dev")
    cfg = ModelConfig(word_dim=4, char_dim=3, char_hidden=2, max_word_len=4,
                      hidden=4, layers=2, fm_factors=2)
    fz = Featurizer.build(train + dev, cfg.max_word_len)
    model = build_model(cfg, fz, seed=seed)
    return model, fz, train, dev


def test_train_model_writes_csv_rows(tmp_path):
    model, fz, train, dev = tiny_setup()
    tcfg = TrainConfig(optimizer="adam", lr=5e-3, batch_size=4, max_epochs=2, seed=0)
    path = tmp_path / "metrics.csv"
    res = train_model(model, fz, train, dev, tcfg, csv_path=str(path),
                      clock=lambda: 0.0)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "split", "loss", "em", "f1", "lr", "wall_seconds"]
    assert [r[1] for r in rows[1:]] == ["train", "dev", "train", "dev"]
    train_row, dev_row = rows[1], rows[2]
    assert train_row[3] == "" and train_row[4] == ""  # train rows carry no EM/F1
    assert dev_row[3] != "" and dev_row[4] != ""
    assert res.steps == 6
    assert len(res.step_losses) == 6


def test_train_model_loss_decreases_on_memorizable_batch():
    model, fz, train, _ = tiny_setup()
    tcfg = TrainConfig(optimizer="adam", lr=5e-3, batch_size=12, max_epochs=80,
                       seed=0, target_loss=None)
    res = train_model(model, fz, train[:4], None, tcfg)
    assert res.step_losses[-1] < res.step_losses[0] * 0.25


def test_train_model_adadelta_runs():
    model, fz, train, dev = tiny_setup()
    tcfg = TrainConfig(optimizer="adadelta", lr=0.5, batch_size=6, max_epochs=1, seed=0)
    res = train_model(model, fz, train, dev, tcfg)
    assert res.steps == 2
    assert np.isfinite(res.step_losses).all()


def test_train_model_max_steps_stops_early():
    model, fz, train, dev = tiny_setup()
    tcfg = TrainConfig(optimizer="adam", lr=1e-3, batch_size=4, max_epochs=10,
                       max_steps=2, seed=0)
    res = train_model(model, fz, train, dev, tcfg)
    assert res.steps == 2


def test_train_model_stops_on_non_finite_gradient_norm(monkeypatch):
    model, fz, train, dev = tiny_setup()
    before = {name: p.data.copy() for name, p in model.store.items()}
    monkeypatch.setattr(training_module, "clip_gradients", lambda store, max_norm: np.inf)
    with pytest.raises(NumericError, match="diverged at step 1: gradient norm inf"):
        train_model(model, fz, train, dev, TrainConfig(batch_size=4, max_epochs=1))
    assert all(np.array_equal(p.data, before[name]) for name, p in model.store.items())


def test_train_model_empty_dataset_rejected():
    model, fz, _, _ = tiny_setup()
    tcfg = TrainConfig(max_epochs=1)
    with pytest.raises(DataError):
        train_model(model, fz, [], None, tcfg)


def test_evaluate_returns_percentages():
    model, fz, train, dev = tiny_setup()
    loss, em, f1, spans = evaluate(model, fz, dev, batch_size=3)
    assert 0.0 <= em <= 100.0
    assert 0.0 <= f1 <= 100.0
    assert len(spans) == len(dev)
    assert all(k <= l for k, l in spans)
    assert np.isfinite(loss)


def count_forwards(monkeypatch) -> list[int]:
    """Batch size of every DecaProp.forward call from now on."""
    calls = []
    original = DecaProp.forward

    def counted(self, batch, *args, **kwargs):
        calls.append(len(batch["p_len"]))
        return original(self, batch, *args, **kwargs)

    monkeypatch.setattr(DecaProp, "forward", counted)
    return calls


def test_evaluate_forwards_once_per_batch(monkeypatch):
    model, fz, _, dev = tiny_setup()
    calls = count_forwards(monkeypatch)
    evaluate(model, fz, dev, batch_size=4)
    assert calls == [4, 2]


def test_predict_computes_no_loss(monkeypatch):
    model, fz, _, dev = tiny_setup()
    batch = collate([fz.example(ex) for ex in dev[:4]])
    spans = model.decode(model.forward(batch), batch["p_len"])
    losses = []
    original = model_module.span_loss

    def counted(*args, **kwargs):
        losses.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(model_module, "span_loss", counted)
    assert "y1" in batch and model.predict(batch) == spans
    assert losses == []
    forwards = count_forwards(monkeypatch)
    evaluate(model, fz, dev, batch_size=4)
    assert len(losses) == len(forwards) == 2


def test_evaluate_matches_forward_and_predict():
    model, fz, _, dev = tiny_setup()
    loss, _, _, spans = evaluate(model, fz, dev, batch_size=4)
    batches = [collate([fz.example(ex) for ex in part]) for part in (dev[:4], dev[4:])]
    assert spans == model.predict(batches[0]) + model.predict(batches[1])
    losses = [model.forward(b).loss.item() for b in batches]
    assert loss == (losses[0] * 4 + losses[1] * 2) / 6
    # the unlabeled copies decode to the same spans, with no loss
    unlabeled = [replace(ex, answer_start=None, answer_end=None) for ex in dev]
    parts = list(predict_batches(model, fz, unlabeled, batch_size=4))
    assert [chunk for chunk, _, _ in parts] == [unlabeled[:4], unlabeled[4:]]
    assert all(out.loss is None for _, out, _ in parts)
    assert [s for _, _, chunk_spans in parts for s in chunk_spans] == spans


def test_unlabeled_examples_rejected_before_any_forward(monkeypatch):
    model, fz, train, dev = tiny_setup()
    unlabeled = replace(dev[3], answer_start=None, answer_end=None)
    calls = count_forwards(monkeypatch)
    tcfg = TrainConfig(max_epochs=1)
    with pytest.raises(DataError, match="example dev-3: no answer_start/answer_end"):
        evaluate(model, fz, dev[:3] + [unlabeled])
    with pytest.raises(DataError, match="example dev-3: no answer_start/answer_end"):
        train_model(model, fz, train + [unlabeled], None, tcfg)
    with pytest.raises(DataError, match="example dev-3: no answer_start/answer_end"):
        train_model(model, fz, train, [unlabeled], tcfg)
    assert calls == []


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(optimizer="sgd")
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(ablation="nonsense")
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"lr": 0.1, "bogus": 1})
    for bad in (dict(seed=-1), dict(decay_factor=0.0), dict(patience=0), dict(max_steps=0)):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            TrainConfig(**bad)
    for bad in (dict(seed=-1), dict(n_train=-3), dict(n_dev=-1), dict(distractors=-1)):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            SyntheticTaskSpec(**bad)
