"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line.  Tolerances and budgets here are contractual; loosening them
is a release decision, not a test fix.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion lines.
"""

import time

import numpy as np
import pytest

from decaprop.answer import decode_span, span_loss
from decaprop.bac import BAC, FMKernel
from decaprop.decaenc import DecaEnc
from decaprop.encoder import Featurizer
from decaprop.gradcheck import run_gradcheck
from decaprop.model import VARIANTS, ModelConfig, apply_variant, build_model
from decaprop.numerics import NEG_INF, ParamStore, Tensor
from decaprop.training import (SyntheticTaskSpec, TrainConfig, em_f1,
                               gen_synthetic, train_model)


def report(num: int, desc: str, ok: bool, detail: str) -> None:
    line = f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_1_gradient_integrity():
    scenarios = ["dense_relu", "masked_softmax", "gru_cell", "lstm_cell",
                 "birnn_masked", "birnn_lstm_masked", "fm_kernel", "bac_two_sided",
                 "bac_one_sided", "gated_attention", "pointer_span_loss"]
    t0 = time.perf_counter()
    worst: dict[str, float] = {}
    for seed in range(10):
        for name, err in run_gradcheck(scenarios, seed=seed, eps=1e-5).items():
            worst[name] = max(worst.get(name, 0.0), err)
    elapsed = time.perf_counter() - t0
    peak = max(worst.values())
    report(1, "gradient integrity",
           peak < 1e-4 and elapsed < 300.0,
           f"{len(scenarios)} layer types x 10 seeds, max rel err {peak:.2e} < 1e-4, "
           f"{elapsed:.1f}s")


def test_criterion_2_fm_oracle():
    rng = np.random.default_rng(2024)
    store = ParamStore()
    worst = 0.0
    for case in range(1000):
        n = int(rng.integers(1, 33))
        k = int(rng.integers(1, 65))
        kernel = FMKernel(store, f"k{case}", n, k, rng)
        with store.writable():
            kernel.w0.data[:] = rng.normal()
            kernel.w.data[:] = rng.normal(size=(n, 1))
            kernel.v.data[:] = rng.normal(size=(n, k))
        x = rng.normal(size=n)
        naive = float(kernel.w0.data[0]) + float(kernel.w.data[:, 0] @ x)
        for i in range(n):
            for j in range(i + 1, n):
                naive += float(kernel.v.data[i] @ kernel.v.data[j]) * x[i] * x[j]
        fast = float(kernel(Tensor(x[None])).data[0, 0])
        worst = max(worst, abs(fast - naive))
    report(2, "fm oracle", worst <= 1e-10,
           f"1000 random (n<=32, k<=64) instances, max |fast - naive| {worst:.2e} <= 1e-10")


def test_criterion_3_shape_laws():
    rng = np.random.default_rng(3)
    widths_ok = True
    for n in (1, 2, 3, 4):
        for h in (32, 50, 64, 75):
            enc = DecaEnc(ParamStore(), "enc", 10, h, n, 4, rng)
            widths_ok &= enc.output_dim == n * h + 3 * n * n

    store = ParamStore()
    bac = BAC(store, "c", 8, 4, rng)
    g_p, g_q = bac(Tensor(rng.normal(size=(5, 8))), Tensor(rng.normal(size=(7, 8))),
                   np.ones(5), np.ones(7))
    triples_ok = g_p.shape == (5, 3) and g_q.shape == (7, 3)

    spec = SyntheticTaskSpec(vocab_size=15, passage_len=7, query_len=2,
                             span_min=1, span_max=1, distractors=0,
                             n_train=2, n_dev=1, seed=1)
    examples = gen_synthetic(spec, "train")
    featurizer = Featurizer.build(examples, 4)
    from decaprop.training import collate
    batch = collate([featurizer.example(ex) for ex in examples])
    calls_ok = True
    for n in (2, 3, 4):
        cfg = ModelConfig(word_dim=4, char_dim=3, char_hidden=2, max_word_len=4,
                          hidden=4, layers=n, fm_factors=2)
        model = build_model(cfg, featurizer, seed=0)
        calls_ok &= model.forward(batch).connector_calls == n * n + 2 * n

    report(3, "shape laws", widths_ok and triples_ok and calls_ok,
           "width nh+3n^2 over n in 1..4 x h in {32,50,64,75}, "
           "3-wide connector outputs, n^2+2n calls per forward")


def test_criterion_4_decode_oracle():
    rng = np.random.default_rng(44)
    ties = 0
    mismatches = 0
    for case in range(10000):
        n = int(rng.integers(1, 51))
        if case % 2 == 0:
            p1 = rng.dirichlet(np.ones(n))
            p2 = rng.dirichlet(np.ones(n))
        else:
            # tiny logit alphabet gives exactly repeated products, forcing ties
            a = np.exp(rng.integers(0, 3, size=n).astype(np.float64))
            b = np.exp(rng.integers(0, 3, size=n).astype(np.float64))
            p1, p2 = a / a.sum(), b / b.sum()
        scores = np.triu(np.outer(p1, p2))
        # first row-major argmax is exactly the smaller-k, then smaller-l rule
        flat = int(np.argmax(scores))
        expect = np.unravel_index(flat, scores.shape)
        if (scores == scores.reshape(-1)[flat]).sum() > 1:
            ties += 1
        if decode_span(p1, p2) != (int(expect[0]), int(expect[1])):
            mismatches += 1
    report(4, "decode oracle", mismatches == 0 and ties > 0,
           f"10000 pairs (len<=50), {mismatches} mismatches, {ties} tie cases exercised")


def test_criterion_5_loss_hand_value():
    n, width = 13, 20
    mask = np.zeros((2, width))
    mask[:, :n] = 1.0
    logits = Tensor((1.0 - mask) * NEG_INF)  # uniform over the n real positions
    loss = span_loss(logits, logits, np.array([3, 0]), np.array([7, 12]),
                     np.array([n, n]))
    gap = abs(float(loss.data) - 2.0 * np.log(n))
    report(5, "loss hand value", gap <= 1e-12,
           f"uniform 2-example batch, |loss - 2 ln {n}| = {gap:.2e} <= 1e-12")


def test_criterion_6_desk_scale_learnability():
    task = SyntheticTaskSpec(vocab_size=100, passage_len=40, query_len=3,
                             span_min=2, span_max=2, distractors=1,
                             n_train=2000, n_dev=500, seed=0)
    cfg = ModelConfig(word_dim=16, char_dim=8, char_hidden=8, max_word_len=8,
                      hidden=32, layers=2, fm_factors=8)
    train_ex = gen_synthetic(task, "train")
    dev_ex = gen_synthetic(task, "dev")
    featurizer = Featurizer.build(train_ex + dev_ex, cfg.max_word_len)

    tcfg = TrainConfig(optimizer="adam", lr=1e-3, batch_size=32, max_epochs=32,
                       max_steps=2000, target_em=95.0, seed=0)
    model = build_model(cfg, featurizer, seed=0)
    t0 = time.perf_counter()
    res = train_model(model, featurizer, train_ex, dev_ex, tcfg)
    wall = time.perf_counter() - t0

    # same data and step budget for the stripped architecture; the gap is
    # reported for inspection, not gated at this scale
    stripped = build_model(apply_variant(cfg, "remove_all"), featurizer, seed=0)
    tcfg2 = TrainConfig(optimizer="adam", lr=1e-3, batch_size=32, max_epochs=32,
                        max_steps=res.steps, seed=0)
    res2 = train_model(stripped, featurizer, train_ex, dev_ex, tcfg2)
    gap = res.best_em - res2.best_em

    report(6, "desk-scale learnability",
           res.best_em >= 95.0 and res.steps <= 2000 and wall < 600.0,
           f"full em {res.best_em:.2f} at {res.steps} steps in {wall:.0f}s; "
           f"remove_all em {res2.best_em:.2f} at equal budget "
           f"(full {'+' if gap >= 0 else ''}{gap:.2f})")


def test_criterion_7_overfit_every_variant():
    task = SyntheticTaskSpec(vocab_size=30, passage_len=10, query_len=2,
                             span_min=1, span_max=1, distractors=1,
                             n_train=8, n_dev=1, seed=0)
    train_ex = gen_synthetic(task, "train")
    base = ModelConfig(word_dim=8, char_dim=4, char_hidden=4, max_word_len=4,
                       hidden=16, layers=3, fm_factors=4)
    featurizer = Featurizer.build(train_ex, base.max_word_len)
    results = {}
    for variant in VARIANTS:
        model = build_model(apply_variant(base, variant), featurizer, seed=0)
        tcfg = TrainConfig(optimizer="adam", lr=5e-3, batch_size=8, max_epochs=300,
                           max_steps=300, target_loss=0.05, seed=0)
        res = train_model(model, featurizer, train_ex, None, tcfg)
        results[variant] = (res.step_losses[-1], res.steps)
    ok = all(loss < 0.05 and steps <= 300 for loss, steps in results.values())
    worst = max(results, key=lambda v: results[v][1])
    report(7, "overfit sanity", ok and len(results) == 10,
           f"8-example batch, all 10 variants to loss < 0.05; slowest "
           f"{worst} at {results[worst][1]} steps")


def _determinism_setup():
    task = SyntheticTaskSpec(vocab_size=20, passage_len=8, query_len=2,
                             span_min=1, span_max=1, distractors=0,
                             n_train=24, n_dev=8, seed=5)
    train_ex = gen_synthetic(task, "train")
    dev_ex = gen_synthetic(task, "dev")
    cfg = ModelConfig(word_dim=4, char_dim=3, char_hidden=2, max_word_len=4,
                      hidden=4, layers=2, fm_factors=2)
    featurizer = Featurizer.build(train_ex + dev_ex, cfg.max_word_len)
    return cfg, featurizer, train_ex, dev_ex


def test_criterion_8_determinism_and_resume(tmp_path):
    cfg, featurizer, train_ex, dev_ex = _determinism_setup()

    def run(tag: str, max_epochs: int, checkpoint=None, resume=None):
        model = build_model(cfg, featurizer, seed=0)
        tcfg = TrainConfig(optimizer="adam", lr=5e-3, batch_size=8,
                           max_epochs=max_epochs, seed=0)
        path = tmp_path / f"{tag}.csv"
        res = train_model(model, featurizer, train_ex, dev_ex, tcfg,
                          csv_path=str(path), clock=lambda: 0.0,
                          checkpoint_path=checkpoint, resume=resume)
        return res, path.read_bytes()

    res_a, csv_a = run("a", 4)
    res_b, csv_b = run("b", 4)
    identical = csv_a == csv_b and len(csv_a.splitlines()) == 9

    ckpt = str(tmp_path / "half.ckpt")
    run("c", 2, checkpoint=ckpt)
    from decaprop.checkpoint import load_checkpoint
    res_d, _ = run("d", 4, resume=load_checkpoint(ckpt))
    tail = np.array(res_a.step_losses[6:])
    resumed = np.array(res_d.step_losses)
    drift = float(np.abs(tail - resumed).max()) if tail.shape == resumed.shape else np.inf

    report(8, "determinism and resume", identical and drift <= 1e-9,
           f"identical seed/config CSVs byte-equal; resumed loss trajectory "
           f"drift {drift:.2e} <= 1e-9 over {len(resumed)} steps")


def test_criterion_9_metric_fixture():
    third = 2.0 / 3.0
    cases = [
        ("The Cat", ["cat"], 1, 1.0),                  # article + casing
        ("cat sat", ["cat"], 0, third),                # partial overlap
        ("a dog.", ["DOG"], 1, 1.0),                   # article + punctuation + casing
        ("New York City", ["new york city"], 1, 1.0),  # casing only
        ("york city", ["New York City"], 0, 0.8),      # missing token
        ("in the box", ["box"], 0, third),             # article dropped before overlap
        ("42", ["42!"], 1, 1.0),                       # punctuation only
        ("", ["answer"], 0, 0.0),                      # empty prediction
        ("completely wrong", ["right"], 0, 0.0),       # disjoint
        ("An Apple", ["banana", "apple"], 1, 1.0),     # later gold matches
    ]
    bad = []
    for pred, golds, want_em, want_f1 in cases:
        em, f1 = em_f1(pred, golds)
        if em != want_em or abs(f1 - want_f1) > 1e-12:
            bad.append((pred, golds, em, f1))
    report(9, "metric fixture", not bad,
           f"10 hand-scored cases, {len(bad)} disagreements")
