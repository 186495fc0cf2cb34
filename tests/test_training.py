"""Optimizers against hand-evaluated updates, schedule traces, answer
metrics, synthetic task construction, batching, and the training loop."""

import csv
import hashlib
import io
import re
import string
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from decaprop import (bac as bac_module, model as model_module, recurrent as recurrent_module,
                      training as training_module)
from decaprop.checkpoint import load_checkpoint
from decaprop.data import TokenizedExample
from decaprop.errors import ConfigError, ContractError, DataError, NumericError
from decaprop.model import DecaProp, ModelConfig, build_model
from decaprop.numerics import ParamStore, Tape, backward
from decaprop.encoder import Featurizer
from decaprop.training import (SyntheticTaskSpec, TrainConfig, adadelta_step,
                               adam_step, clip_gradients, collate, em_f1, evaluate,
                               gen_synthetic, init_optimizer_state, lr_schedule,
                               normalize_answer, predict_batches, restore_model,
                               run_ablation, span_text, train_model)


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


def test_frozen_parameters_leave_clipping_and_adam_unchanged():
    """A frozen parameter carries no gradient array; clipping and Adam see
    only the trainable ones, exactly as in a store without it."""
    def run(with_frozen):
        store = ParamStore()
        if with_frozen:
            frozen = store.register("frozen", np.ones(2), trainable=False)
        w = store.register("w", np.zeros(2))
        state = init_optimizer_state("adam", store)
        norms = []
        for g in ([3.0, 4.0], [0.5, -1.0]):
            store.zero_grads()
            w.grad = np.array(g)
            norms.append(clip_gradients(store, 2.5))
            adam_step(store, state, lr=1e-2)
        if with_frozen:
            assert frozen.grad is None
            np.testing.assert_array_equal(frozen.data, np.ones(2))
        return norms, w.data.copy(), w.grad.copy()

    plain, with_frozen = run(False), run(True)
    assert plain[0] == with_frozen[0]
    np.testing.assert_array_equal(plain[1], with_frozen[1])
    np.testing.assert_array_equal(plain[2], with_frozen[2])


@pytest.mark.parametrize("kind", ["adam", "adadelta"])
def test_none_gradient_steps_like_a_zero_array(kind):
    """A parameter no record reached keeps a None gradient: clipping leaves
    it out of the norm and the scaling, and the optimizers step it as a
    zero gradient, so the values, the moments and the norms are bit-equal
    to a store that holds a zero array in its place."""
    def run(unreached):
        store = ParamStore()
        w = store.register("w", np.array([0.5, -0.25]))
        u = store.register("u", np.array([[1.0, -2.0], [0.0, 3.0]]))
        state = init_optimizer_state(kind, store)
        norms = []
        for g in ([3.0, 4.0], [0.5, -1.0], [-2.0, 0.0]):
            store.zero_grads()
            w.grad = np.array(g)
            u.grad = unreached()
            norms.append(clip_gradients(store, 2.5))
            training_module.OPTIMIZERS[kind](store, state)
        moments = [a for key in ("m", "v", "g2", "dx2") for a in state.get(key, {}).values()]
        return norms, [w.data, u.data, *moments]

    none_norms, none_arrays = run(lambda: None)
    zero_norms, zero_arrays = run(lambda: np.zeros((2, 2)))
    assert none_norms == zero_norms
    for a, b in zip(none_arrays, zero_arrays, strict=True):
        assert a.tobytes() == b.tobytes()


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


def _normalize_reference(text: str) -> str:
    """``normalize_answer`` dropping punctuation one character at a time."""
    punct = set(string.punctuation)
    text = text.lower()
    text = "".join(ch for ch in text if ch not in punct)
    text = re.sub(r"\b(a|an|the)\b", " ", text)
    return " ".join(text.split())


def _em_f1_reference(prediction: str, golds: list[str]) -> tuple[int, float]:
    """``em_f1`` normalizing the prediction and each gold once for EM and
    again for each token F1."""
    def token_f1(pred: str, gold: str) -> float:
        p, g = _normalize_reference(pred).split(), _normalize_reference(gold).split()
        if not p or not g:
            return float(p == g)
        overlap = sum((Counter(p) & Counter(g)).values())
        if overlap == 0:
            return 0.0
        precision, recall = overlap / len(p), overlap / len(g)
        return 2 * precision * recall / (precision + recall)

    norm = _normalize_reference(prediction)
    return (int(any(norm == _normalize_reference(g) for g in golds)),
            max(token_f1(prediction, g) for g in golds))


def _fuzzed_answer(rng) -> str:
    pieces = (list(string.ascii_letters + string.digits + string.punctuation + " \t\n")
              + ["é", "ß", "—", "“", "”", "İ", " a ", "An", " the ", "THE.", "a,b"])
    return "".join(pieces[i] for i in rng.integers(0, len(pieces), size=rng.integers(0, 25)))


def test_normalize_answer_matches_the_per_character_reference():
    rng = np.random.default_rng(20000)
    for _ in range(20000):
        text = _fuzzed_answer(rng)
        assert normalize_answer(text) == _normalize_reference(text), repr(text)


def test_em_f1_matches_the_reference_that_normalizes_twice():
    rng = np.random.default_rng(2)
    for _ in range(2000):
        prediction = _fuzzed_answer(rng)
        golds = [_fuzzed_answer(rng) for _ in range(rng.integers(1, 4))]
        if rng.random() < 0.3:
            golds.append(prediction.upper())
        assert em_f1(prediction, golds) == _em_f1_reference(prediction, golds)


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


def _scan_every_position(passage: list, key: list) -> list:
    """The key's starts from a slice compare at every position."""
    return [s for s in range(len(passage) - len(key) + 1) if passage[s:s + len(key)] == key]


def test_find_key_matches_every_position_scan():
    """Comparing only where the key's first token sits finds the same starts,
    on passages dense with the key, its prefixes, overlapping runs of one
    token (keys like [a, a]) and keys longer than the passage."""
    rng = np.random.default_rng(41)
    for _ in range(400):
        vocab = [f"t{i}" for i in range(int(rng.integers(1, 5)))]
        key = [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(1, 5))]
        passage = [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(0, 30))]
        for _ in range(int(rng.integers(0, 4))):  # plant the key and cut copies of it
            s = int(rng.integers(0, len(passage) + 1))
            passage[s:s] = key[:int(rng.integers(1, len(key) + 1))]
        assert training_module._find_key(passage, key) == _scan_every_position(passage, key)


# sha256 of the repr of each example's fields, taken before gen_synthetic's
# key search compared only at the key's first token
SYNTHETIC_DIGESTS = [
    (dict(vocab_size=100, passage_len=40, query_len=3, span_min=2, span_max=2, distractors=1,
          n_train=64, n_dev=16, seed=0), "train",
     "c3075a6ecc41ff100e508bf8e62f141fa54b2c99bb5e2ce8880d52b931509e8d"),
    (dict(vocab_size=100, passage_len=40, query_len=3, span_min=2, span_max=2, distractors=1,
          n_train=64, n_dev=16, seed=0), "dev",
     "0ecc001a4da216b9a8d0685200258accc225b5efb27c7552a38369d890e74464"),
    # a small vocabulary: many passages are drawn again for a second hit
    (dict(vocab_size=8, passage_len=60, query_len=2, span_min=1, span_max=3, distractors=4,
          n_train=50, seed=7), "train",
     "e80a5d8db3eb6eeef97b81341a3d80628019e34b6bb34eb5b22fc682460da923"),
    (dict(vocab_size=30, passage_len=120, query_len=1, span_min=1, span_max=4, distractors=2,
          n_train=40, seed=3), "train",
     "23cf7c77f93c7a3a4d35562a1ff76f372c824f13eb4470533d75a3d2d7934f93"),
]


@pytest.mark.parametrize("fields,split,digest", SYNTHETIC_DIGESTS)
def test_synthetic_examples_pinned(fields, split, digest):
    """gen_synthetic makes the same draws and returns the same examples."""
    h = hashlib.sha256()
    for ex in gen_synthetic(SyntheticTaskSpec(**fields), split):
        h.update(repr((ex.id, ex.passage_tokens, ex.question_tokens, ex.answer_start,
                       ex.answer_end, ex.answer_texts)).encode())
    assert h.hexdigest() == digest


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


def test_collate_pads_every_side_array():
    """Mixed lengths, a one-token question included: every array a side
    carries is padded with its dtype and trailing shape, real rows first."""
    examples = [
        TokenizedExample("a", ["the", "cat", "sat", "on", "mats"], ["cat"], 1, 1, ["cat"]),
        TokenizedExample("b", ["dogs", "bark"], ["do", "dogs", "x"], 0, 0, ["dogs"]),
        TokenizedExample("c", list("abcdefg"), ["bc", "d"], 2, 3, ["c d"]),
    ]
    fz = Featurizer.build(examples, max_word_len=3)
    feats = [fz.example(ex) for ex in examples]
    batch = collate(feats)
    assert "q_len" not in batch
    names = list(feats[0]["p"])
    assert set(batch) == ({f"{s}_{n}" for s in "pq" for n in names}
                          | {"p_mask", "q_mask", "p_len", "y1", "y2"})
    for side, longest in (("p", 7), ("q", 3)):
        lengths = [len(f[side][names[0]]) for f in feats]
        mask = batch[f"{side}_mask"]
        assert mask.dtype == np.float64 and mask.shape == (3, longest)
        for i, k in enumerate(lengths):
            assert mask[i].tolist() == [1.0] * k + [0.0] * (longest - k)
        for name in names:
            got = batch[f"{side}_{name}"]
            first = feats[0][side][name]
            assert got.dtype == first.dtype, (side, name)
            assert got.shape == (3, longest) + first.shape[1:], (side, name)
            for i, k in enumerate(lengths):
                np.testing.assert_array_equal(got[i, :k], feats[i][side][name])
                assert not got[i, k:].any(), (side, name, i)
    assert batch["p_len"].dtype == np.int64
    assert batch["p_len"].tolist() == batch["p_mask"].sum(axis=1).tolist() == [5, 2, 7]
    assert batch["q_mask"].sum(axis=1).tolist() == [1, 3, 2]
    assert {"word", "chars", "match", "freq"} <= set(names)


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


def test_word_vectors_get_no_gradient_in_training():
    model, fz, train, _ = tiny_setup()
    tcfg = TrainConfig(optimizer="adam", lr=5e-3, batch_size=6, max_epochs=1, seed=0)
    train_model(model, fz, train, None, tcfg)
    assert model.input.word_emb.grad is None
    assert all(p.grad.shape == p.data.shape for _, p in model.store.trainable_items())


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
    # the guard runs whether or not the gradients are clipped
    for clip_norm in (5.0, None):
        with pytest.raises(NumericError, match="diverged at step 1: gradient norm inf"):
            train_model(model, fz, train, dev,
                        TrainConfig(batch_size=4, max_epochs=1, clip_norm=clip_norm))
        assert all(np.array_equal(p.data, before[name]) for name, p in model.store.items())


def test_clip_without_a_bound_only_measures():
    store = ParamStore()
    a = store.register("a", np.zeros(3))
    a.grad = np.array([3.0, 4.0, 0.0])
    assert clip_gradients(store, None) == 5.0
    np.testing.assert_array_equal(a.grad, [3.0, 4.0, 0.0])


def test_train_model_resume_refuses_another_optimizer(tmp_path, monkeypatch):
    model, fz, train, dev = tiny_setup()
    path = tmp_path / "model.ckpt"
    tcfg = TrainConfig(lr=5e-3, batch_size=4, max_epochs=1, seed=0)
    train_model(model, fz, train, dev, tcfg, checkpoint_path=str(path))
    calls = count_forwards(monkeypatch)
    with pytest.raises(ConfigError, match="train.optimizer is 'adadelta', but the "
                                          "checkpoint was trained with 'adam'"):
        train_model(model, fz, train, dev, replace(tcfg, optimizer="adadelta", max_epochs=2),
                    resume=load_checkpoint(str(path)))
    assert calls == []


@pytest.mark.parametrize("rule", [dict(max_steps=3), dict(target_em=40.0)],
                         ids=["max_steps", "target_em"])
def test_resume_of_a_finished_run_takes_no_step(tmp_path, monkeypatch, rule):
    """A checkpoint that already met a stop rule is left as it is."""
    model, fz, train, dev = tiny_setup()
    path = tmp_path / "model.ckpt"
    tcfg = TrainConfig(lr=5e-3, batch_size=4, max_epochs=5, seed=0, **rule)
    first = train_model(model, fz, train, dev, tcfg, checkpoint_path=str(path))
    ck = load_checkpoint(str(path))
    assert first.steps == ck["train_state"]["step"] == 3
    assert "target_em" not in rule or ck["train_state"]["history"][-1] >= 40.0
    before = path.read_bytes()
    calls = count_forwards(monkeypatch)
    res = train_model(build_model(model.config, fz, seed=0), fz, train, dev, tcfg,
                      checkpoint_path=str(path), resume=ck)
    assert calls == [] and res.steps == 3 and res.step_losses == []
    assert path.read_bytes() == before
    # the resume measured no dev F1; the checkpoint keeps only the EM history
    assert first.final_f1 is not None and res.final_f1 is None
    assert res.best_em == first.best_em


def test_final_f1_is_unset_without_a_dev_set():
    model, fz, train, _ = tiny_setup()
    res = train_model(model, fz, train, None, TrainConfig(lr=5e-3, batch_size=4, max_epochs=1))
    assert res.steps == 3 and res.final_f1 is None
    task = SyntheticTaskSpec(vocab_size=20, passage_len=8, query_len=2, span_min=1,
                             span_max=1, distractors=0, n_train=4, n_dev=0, seed=0)
    lines = []
    rows = run_ablation(model.config, TrainConfig(batch_size=4, max_epochs=1), task,
                        variants=("full",), log=lines.append)
    assert rows[0]["f1"] is None and rows[0]["steps"] == 1
    assert lines == ["full: em=0.00 f1=n/a steps=1"]


def test_train_model_resume_refuses_another_model(tmp_path, monkeypatch):
    model, fz, train, dev = tiny_setup()
    path = tmp_path / "model.ckpt"
    tcfg = TrainConfig(lr=5e-3, batch_size=4, max_epochs=1, seed=0)
    train_model(model, fz, train, dev, tcfg, checkpoint_path=str(path))
    other = build_model(replace(model.config, dropout=0.1), fz, seed=0)
    calls = count_forwards(monkeypatch)
    with pytest.raises(ConfigError, match=r"^model.dropout is 0.1, but the checkpoint has "
                                          r"0.0; a resumed run keeps its model$"):
        train_model(other, fz, train, dev, replace(tcfg, max_epochs=2),
                    resume=load_checkpoint(str(path)))
    assert calls == []


def test_train_model_resume_refuses_other_examples(tmp_path, monkeypatch):
    model, fz, train, dev = tiny_setup()
    path = tmp_path / "model.ckpt"
    tcfg = TrainConfig(lr=5e-3, batch_size=4, max_epochs=1, seed=0)
    train_model(model, fz, train, dev, tcfg, checkpoint_path=str(path))
    ck = load_checkpoint(str(path))
    calls = count_forwards(monkeypatch)
    relabeled = [replace(dev[0], answer_texts=["other"])] + dev[1:]
    for train_ex, dev_ex in ((train[1:], dev), (train, relabeled), (train, None)):
        with pytest.raises(ConfigError, match="examples differ from those the checkpoint"):
            train_model(model, fz, train_ex, dev_ex, replace(tcfg, max_epochs=2), resume=ck)
    assert calls == []
    # a checkpoint written before the digest was kept resumes unchecked
    del ck["train_state"]["data_sha256"]
    res = train_model(model, fz, train[1:], dev, replace(tcfg, max_epochs=2), resume=ck)
    assert len(calls) > 0 and res.steps == 6


def test_restore_model_reproduces_trained_logits(tmp_path):
    model, fz, train, dev = tiny_setup()
    path = tmp_path / "model.ckpt"
    tcfg = TrainConfig(lr=5e-3, batch_size=4, max_epochs=2, seed=0)
    train_model(model, fz, train, dev, tcfg, checkpoint_path=str(path))
    ck = load_checkpoint(str(path))
    assert set(ck["extra"]) == {"featurizer"}
    restored, restored_fz = restore_model(ck, str(path))
    assert restored_fz.state() == fz.state()
    assert restored.config == model.config
    batch = collate([fz.example(ex) for ex in dev])
    want, got = model.forward(batch), restored.forward(batch)
    assert got.start_logits.data.tobytes() == want.start_logits.data.tobytes()
    assert got.end_logits.data.tobytes() == want.end_logits.data.tobytes()


def _prepared_setup(cell: str):
    spec = SyntheticTaskSpec(vocab_size=20, passage_len=9, query_len=2, span_min=1,
                             span_max=2, distractors=0, n_train=6, n_dev=1, seed=4)
    examples = gen_synthetic(spec, "train")
    cfg = ModelConfig(word_dim=4, char_dim=3, char_hidden=3, max_word_len=4,
                      hidden=5, layers=2, fm_factors=2, cell=cell)
    fz = Featurizer.build(examples, cfg.max_word_len)
    return cfg, fz, [fz.example(ex) for ex in examples]


def _optimizer_step(model, batch: dict, kind: str) -> None:
    """One step of optimizer ``kind``, from a fresh state, on ``batch``."""
    state = init_optimizer_state(kind, model.store)
    with Tape() as tape:
        out = model.forward(batch)
    model.store.zero_grads()
    backward(tape, out.loss)
    training_module.OPTIMIZERS[kind](model.store, state, lr=0.05)


def _logit_bytes(model, batch: dict) -> bytes:
    out = model.forward(batch)
    return out.start_logits.data.tobytes() + out.end_logits.data.tobytes()


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_predict_after_a_write_uses_the_new_weights(cell):
    """After ``load_values``, an Adam step and an Adadelta step, a model whose
    prepared layouts were cached before the write gives the logits of a
    freshly built model holding the same values, bit for bit."""
    cfg, fz, feats = _prepared_setup(cell)
    batch = collate(feats)
    model = build_model(cfg, fz, seed=0)
    rng = np.random.default_rng(9)
    writes = [lambda: model.store.load_values(
                  {n: p.data + rng.normal(0.0, 0.1, size=p.shape) for n, p in model.store.items()}),
              lambda: _optimizer_step(model, batch, "adam"),
              lambda: _optimizer_step(model, batch, "adadelta")]
    for write in writes:
        before = _logit_bytes(model, batch)
        write()
        fresh = build_model(cfg, fz, seed=1)
        fresh.store.load_values({n: p.data for n, p in model.store.items()})
        got = _logit_bytes(model, batch)
        assert got != before
        assert got == _logit_bytes(fresh, batch)


def test_a_second_batch_1_predict_builds_no_layouts(monkeypatch):
    """The BiRNNs' stacked weights and the FM kernels' tables are built once
    per parameter version: a second request builds none, and a request
    after an optimizer step builds each once again."""
    cfg, fz, feats = _prepared_setup("gru")
    model = build_model(cfg, fz, seed=0)
    built = Counter()
    for module, name in ((recurrent_module, "_stacked_weights"), (bac_module, "_fm_tables")):
        def counted(owner, build=getattr(module, name), name=name):
            built[name] += 1
            return build(owner)
        monkeypatch.setattr(module, name, counted)
    single = collate(feats[:1])
    counts = []
    for _ in range(2):
        model.predict(single)
        counts.append(dict(built))
        built.clear()
    # BiRNNs: the char encoder's, one per DecaEnc layer (it runs on p and on
    # q), the two gated blocks' and the pointer's two; FM kernels: three per
    # connector
    rnns = 1 + cfg.layers + 2 + 2
    assert counts[0] == {"_stacked_weights": rnns, "_fm_tables": 3 * (cfg.layers ** 2 + 2 * cfg.layers)}
    assert counts[1] == {}
    _optimizer_step(model, collate(feats), "adam")
    built.clear()
    model.predict(single)
    assert dict(built) == counts[0]


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
    assert all(loss is None for _, loss, _ in parts)
    assert [s for _, _, chunk_spans in parts for s in chunk_spans] == spans


def mixed_length_setup(lengths):
    """One synthetic example per passage length, and a small model over them."""
    examples = []
    for k, n in enumerate(lengths):
        spec = SyntheticTaskSpec(vocab_size=100, passage_len=n, query_len=3, span_min=2,
                                 span_max=2, distractors=1, n_train=1, seed=k)
        examples += gen_synthetic(spec, "train")
    cfg = ModelConfig(word_dim=8, char_dim=4, char_hidden=4, max_word_len=6, hidden=8,
                      layers=2, fm_factors=4)
    fz = Featurizer.build(examples, cfg.max_word_len)
    return build_model(cfg, fz, seed=0), fz, examples


def test_length_groups_match_one_padded_forward(monkeypatch):
    """A chunk with passages of 20-160 tokens runs in length groups whose
    logits at real positions match one padded forward of the whole chunk;
    spans, EM and F1 are equal and the loss is within rounding."""
    lengths = (20, 160, 35, 90, 41, 20, 120, 60, 80, 25, 150, 44)
    model, fz, examples = mixed_length_setup(lengths)
    full_batch = collate([fz.example(ex) for ex in examples])
    full = model.forward(full_batch)
    want_spans = model.decode(full, full_batch["p_len"])
    scores = [em_f1(span_text(ex, span), ex.answer_texts)
              for ex, span in zip(examples, want_spans)]

    groups = []
    original = DecaProp.forward

    def recorded(self, batch, *args, **kwargs):
        out = original(self, batch, *args, **kwargs)
        groups.append((batch["p_len"], out))
        return out

    monkeypatch.setattr(DecaProp, "forward", recorded)
    (chunk, loss, spans), = predict_batches(model, fz, examples, batch_size=len(examples))
    assert chunk == examples and spans == want_spans
    assert abs(loss - full.loss.item() * len(examples)) <= 1e-12 * abs(loss)
    # stable sort by length, a new group past twice the group's first length
    assert [list(p_len) for p_len, _ in groups] == [
        [20, 20, 25, 35], [41, 44, 60, 80], [90, 120, 150, 160]]
    order = sorted(range(len(lengths)), key=lengths.__getitem__)
    rows = [(out, r) for p_len, out in groups for r in range(len(p_len))]
    for i, (out, r) in zip(order, rows):
        n = lengths[i]
        assert out.start_logits.shape[1] <= 2 * n
        for got, want in ((out.start_logits, full.start_logits),
                          (out.end_logits, full.end_logits)):
            want = want.data[i, :n]
            assert np.abs(got.data[r, :n] - want).max() <= 1e-12 * np.abs(want).max(), i

    got_loss, em, f1, got_spans = evaluate(model, fz, examples, batch_size=len(examples))
    assert got_spans == want_spans
    assert abs(got_loss - full.loss.item()) <= 1e-12 * full.loss.item()
    assert em == 100.0 * float(np.mean([s[0] for s in scores]))
    assert f1 == 100.0 * float(np.mean([s[1] for s in scores]))


def test_length_groups_split_past_twice_the_first(monkeypatch):
    model, fz, examples = mixed_length_setup((41, 10, 100, 21, 20, 40))
    calls = count_forwards(monkeypatch)
    (_, _, spans), = predict_batches(model, fz, examples, batch_size=6)
    # groups [10, 20], [21, 40, 41] and [100]
    assert calls == [2, 3, 1]
    assert spans == [model.predict(collate([fz.example(ex)]))[0] for ex in examples]


def test_equal_lengths_forward_as_one_group(monkeypatch):
    model, fz, _, dev = tiny_setup()
    assert len({len(ex.passage_tokens) for ex in dev}) == 1
    want = model.forward(collate([fz.example(ex) for ex in dev])).loss.item()
    calls = count_forwards(monkeypatch)
    (_, loss, _), = predict_batches(model, fz, dev, batch_size=len(dev))
    assert calls == [len(dev)]
    assert loss == want * len(dev)


@pytest.mark.parametrize("batch_size", [0, -1])
def test_predict_batches_rejects_a_non_positive_batch_size(monkeypatch, batch_size):
    model, fz, _, dev = tiny_setup()
    calls = count_forwards(monkeypatch)
    with pytest.raises(ContractError, match=f"batch_size must be >= 1, got {batch_size}"):
        evaluate(model, fz, dev, batch_size=batch_size)
    with pytest.raises(ContractError, match="batch_size"):
        next(predict_batches(model, fz, dev, batch_size=batch_size))
    assert calls == []
    assert len(list(predict_batches(model, fz, dev, batch_size=1))) == len(dev)


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
    with pytest.raises(ConfigError, match="unknown config key 'train.ablation'"):
        TrainConfig.from_dict({"ablation": "full"})
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"lr": 0.1, "bogus": 1})
    for bad in (dict(seed=-1), dict(decay_factor=0.0), dict(patience=0), dict(max_steps=0)):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            TrainConfig(**bad)
    for bad in (dict(seed=-1), dict(n_train=-3), dict(n_dev=-1), dict(distractors=-1)):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            SyntheticTaskSpec(**bad)
