"""Optimization, evaluation metrics, synthetic span tasks, and the training
loop.  Everything here is deterministic given the seeds, which is what the
resume and reproducibility guarantees lean on.
"""

from __future__ import annotations

import csv
import re
import string
import time
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

import numpy as np

from .checkpoint import save_checkpoint
from .data import TokenizedExample
from .errors import ConfigError, ContractError, DataError, NumericError
from .model import (POSITIVE, VARIANTS, Config, DecaProp, ForwardResult, ModelConfig,
                    apply_variant, at_least, build_model, one_of)
from .numerics import ParamStore, Tape, backward
from .encoder import Featurizer


# ---------------------------------------------------------------------------
# optimizers


def init_optimizer_state(kind: str, store: ParamStore) -> dict:
    if kind == "adam":
        return {"kind": "adam", "t": 0,
                "m": {n: np.zeros_like(p.data) for n, p in store.trainable_items()},
                "v": {n: np.zeros_like(p.data) for n, p in store.trainable_items()}}
    if kind == "adadelta":
        return {"kind": "adadelta",
                "g2": {n: np.zeros_like(p.data) for n, p in store.trainable_items()},
                "dx2": {n: np.zeros_like(p.data) for n, p in store.trainable_items()}}
    raise ConfigError(f"unknown optimizer {kind!r}; pick 'adam' or 'adadelta'")


def adam_step(store: ParamStore, state: dict, lr: float = 1e-3,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """Bias-corrected Adam update from the gradients currently in the store."""
    if state.get("kind") != "adam":
        raise ContractError("adam_step on a non-adam optimizer state")
    state["t"] += 1
    t = state["t"]
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for name, p in store.trainable_items():
        g = p.grad
        m = state["m"][name]
        v = state["v"][name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def adadelta_step(store: ParamStore, state: dict, lr: float = 0.5,
                  rho: float = 0.95, eps: float = 1e-6) -> None:
    """Adadelta with a learning-rate multiplier on the (unscaled) update."""
    if state.get("kind") != "adadelta":
        raise ContractError("adadelta_step on a non-adadelta optimizer state")
    for name, p in store.trainable_items():
        g = p.grad
        g2 = state["g2"][name]
        dx2 = state["dx2"][name]
        g2 *= rho
        g2 += (1.0 - rho) * g * g
        dx = -np.sqrt(dx2 + eps) / np.sqrt(g2 + eps) * g
        dx2 *= rho
        dx2 += (1.0 - rho) * dx * dx
        p.data += lr * dx


def clip_gradients(store: ParamStore, max_norm: float) -> float:
    """Scale every gradient if the global l2 norm exceeds ``max_norm``."""
    total = 0.0
    for _, p in store.trainable_items():
        total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for _, p in store.trainable_items():
            p.grad = p.grad * scale
    return norm


def lr_schedule(history: list[float], current_lr: float,
                patience: int = 3, factor: float = 2.0) -> float:
    """Halve the rate when the latest epoch completes a ``patience``-long
    streak of epochs without a new best metric; the streak then resets."""
    best = -np.inf
    streak = 0
    decay_at = -1
    for i, value in enumerate(history):
        if value > best:
            best = value
            streak = 0
        else:
            streak += 1
            if streak == patience:
                decay_at = i
                streak = 0
    if decay_at == len(history) - 1 and history:
        return current_lr / factor
    return current_lr


# ---------------------------------------------------------------------------
# answer-string metrics


_ARTICLE_RE = re.compile(r"\b(a|an|the)\b")
_PUNCT = set(string.punctuation)


def normalize_answer(text: str) -> str:
    """Lowercase, drop punctuation, drop articles, collapse whitespace."""
    text = text.lower()
    text = "".join(ch for ch in text if ch not in _PUNCT)
    text = _ARTICLE_RE.sub(" ", text)
    return " ".join(text.split())


def _token_f1(prediction: str, gold: str) -> float:
    pred_tokens = normalize_answer(prediction).split()
    gold_tokens = normalize_answer(gold).split()
    if not pred_tokens or not gold_tokens:
        return float(pred_tokens == gold_tokens)
    common = Counter(pred_tokens) & Counter(gold_tokens)
    overlap = sum(common.values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def em_f1(prediction: str, golds: list[str]) -> tuple[int, float]:
    """Exact match (any gold) and best token-overlap F1 across golds."""
    if not golds:
        raise DataError("em_f1 needs at least one gold answer")
    norm_pred = normalize_answer(prediction)
    em = int(any(norm_pred == normalize_answer(g) for g in golds))
    f1 = max(_token_f1(prediction, g) for g in golds)
    return em, f1


# ---------------------------------------------------------------------------
# synthetic span-recovery task


@dataclass(frozen=True)
class SyntheticTaskSpec(Config):
    vocab_size: int = 100
    passage_len: int = 40
    query_len: int = 3
    span_min: int = 2
    span_max: int = 2
    distractors: int = 2
    n_train: int = 2000
    n_dev: int = 500
    seed: int = 0

    section = "task"
    rules = {"query_len": at_least(1), "span_min": at_least(1),
             "span_max": (lambda v, cfg: v >= cfg.span_min, "must be >= span_min"),
             "vocab_size": (lambda v, cfg: v > cfg.query_len, "must be > query_len"),
             "passage_len": (lambda v, cfg: v > cfg.query_len + cfg.span_max,
                             "must be > query_len + span_max to hold key + answer"),
             "distractors": at_least(0), "n_train": at_least(0), "n_dev": at_least(0),
             "seed": at_least(0)}


def _find_key(passage: list[str], key: list[str]) -> list[int]:
    hits = []
    for s in range(len(passage) - len(key) + 1):
        if passage[s:s + len(key)] == key:
            hits.append(s)
    return hits


def gen_synthetic(spec: SyntheticTaskSpec, split: str = "train") -> list[TokenizedExample]:
    """Passages of random tokens holding one key sequence followed by the
    answer span, plus partial-key distractors.  Splits draw from disjoint
    seed-offset streams, so train and dev never share an example.
    """
    offsets = {"train": 0, "dev": 1, "test": 2}
    if split not in offsets:
        raise ConfigError(f"unknown split {split!r}; pick one of {sorted(offsets)}")
    counts = {"train": spec.n_train, "dev": spec.n_dev, "test": spec.n_dev}
    rng = np.random.default_rng((spec.seed, 0x5EED, offsets[split]))
    tokens = [f"t{i:03d}" for i in range(spec.vocab_size)]

    examples = []
    for idx in range(counts[split]):
        while True:
            key = [tokens[i] for i in rng.choice(spec.vocab_size, size=spec.query_len, replace=False)]
            span_len = int(rng.integers(spec.span_min, spec.span_max + 1))
            total = spec.query_len + span_len
            pos = int(rng.integers(0, spec.passage_len - total + 1))
            passage = [tokens[i] for i in rng.integers(0, spec.vocab_size, size=spec.passage_len)]
            passage[pos:pos + spec.query_len] = key
            protected = set(range(pos, pos + total))

            if spec.query_len > 1:
                partial = key[:-1]
                placed = 0
                for _ in range(20 * spec.distractors):
                    if placed == spec.distractors:
                        break
                    s = int(rng.integers(0, spec.passage_len - len(partial) + 1))
                    window = set(range(s, s + len(partial)))
                    if window & protected:
                        continue
                    passage[s:s + len(partial)] = partial
                    placed += 1

            # the key must occur exactly once, else the pointer target is ambiguous
            if _find_key(passage, key) == [pos]:
                break

        start = pos + spec.query_len
        end = start + span_len - 1
        answer = " ".join(passage[start:end + 1])
        examples.append(TokenizedExample(
            id=f"{split}-{idx}", passage_tokens=passage, question_tokens=key,
            answer_start=start, answer_end=end, answer_texts=[answer]))
    return examples


# ---------------------------------------------------------------------------
# batching


def collate(feats: list[dict]) -> dict:
    """Pad a list of per-example feature dicts into one batch dict; the span
    targets ``y1``/``y2`` come along only when every example has them."""
    if not feats:
        raise ContractError("collate of an empty batch")
    batch: dict = {}
    for prefix in ("p", "q"):
        sides = [f[prefix] for f in feats]
        lens = np.array([s["word"].shape[0] for s in sides], dtype=np.int64)
        n = int(lens.max())
        wl = sides[0]["chars"].shape[1]
        bsz = len(sides)
        word = np.zeros((bsz, n), dtype=np.int64)
        chars = np.zeros((bsz, n, wl), dtype=np.int64)
        cmask = np.zeros((bsz, n, wl))
        match = np.zeros((bsz, n))
        freq = np.zeros((bsz, n))
        mask = np.zeros((bsz, n))
        for i, s in enumerate(sides):
            k = lens[i]
            word[i, :k] = s["word"]
            chars[i, :k] = s["chars"]
            cmask[i, :k] = s["char_mask"]
            match[i, :k] = s["match"]
            freq[i, :k] = s["freq"]
            mask[i, :k] = 1.0
        batch.update({f"{prefix}_word": word, f"{prefix}_chars": chars,
                      f"{prefix}_char_mask": cmask, f"{prefix}_match": match,
                      f"{prefix}_freq": freq, f"{prefix}_mask": mask,
                      f"{prefix}_len": lens})
    if all("y1" in f for f in feats):
        batch["y1"] = np.array([f["y1"] for f in feats], dtype=np.int64)
        batch["y2"] = np.array([f["y2"] for f in feats], dtype=np.int64)
    return batch


# ---------------------------------------------------------------------------
# training loop


@dataclass(frozen=True)
class TrainConfig(Config):
    optimizer: str = "adam"
    lr: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 10
    max_steps: Optional[int] = None
    seed: int = 0
    clip_norm: Optional[float] = 5.0
    patience: int = 3
    decay_factor: float = 2.0
    target_em: Optional[float] = None
    target_loss: Optional[float] = None
    ablation: str = "full"

    section = "train"
    rules = {"optimizer": one_of(("adam", "adadelta")), "lr": POSITIVE,
             "batch_size": at_least(1), "max_epochs": at_least(1), "max_steps": at_least(1),
             "seed": at_least(0), "clip_norm": POSITIVE, "patience": at_least(1),
             "decay_factor": POSITIVE, "ablation": one_of(VARIANTS)}


CSV_COLUMNS = ("epoch", "split", "loss", "em", "f1", "lr", "wall_seconds")


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


@dataclass
class TrainResult:
    steps: int = 0
    epochs: int = 0
    lr: float = 0.0
    dev_history: list[float] = None
    step_losses: list[float] = None
    rows: list[tuple] = None
    best_em: float = 0.0
    final_f1: float = 0.0


def _require_labels(examples: list[TokenizedExample], use: str) -> None:
    """Fail on the first example without an answer span."""
    for ex in examples:
        if not ex.labeled:
            raise DataError(f"example {ex.id}: no answer_start/answer_end, "
                            f"which {use} needs")


def span_text(ex: TokenizedExample, span: tuple[int, int]) -> str:
    """The passage tokens an inclusive (start, end) span covers, space-joined."""
    k, l = span
    return " ".join(ex.passage_tokens[k:l + 1])


def predict_batches(model: DecaProp, featurizer: Featurizer,
                    examples: list[TokenizedExample], batch_size: int = 32
                    ) -> Iterator[tuple[list[TokenizedExample], ForwardResult,
                                        list[tuple[int, int]]]]:
    """Forward each batch of ``examples`` once; yields the batch's examples,
    the forward result (its loss is None for unlabeled data) and the decoded
    spans."""
    feats = [featurizer.example(ex) for ex in examples]
    for lo in range(0, len(examples), batch_size):
        batch = collate(feats[lo:lo + batch_size])
        out = model.forward(batch, training=False)
        yield examples[lo:lo + batch_size], out, model.decode(out, batch["p_len"])


def evaluate(model: DecaProp, featurizer: Featurizer, examples: list[TokenizedExample],
             batch_size: int = 32) -> tuple[float, float, float, list[tuple[int, int]]]:
    """Mean loss, EM, F1 (both percentages) and the decoded spans."""
    if not examples:
        raise DataError("evaluate on an empty dataset")
    _require_labels(examples, "evaluation")
    total_loss = 0.0
    ems, f1s, spans = [], [], []
    for chunk, out, chunk_spans in predict_batches(model, featurizer, examples, batch_size):
        total_loss += out.loss.item() * len(chunk)
        for ex, span in zip(chunk, chunk_spans):
            em, f1 = em_f1(span_text(ex, span), ex.answer_texts)
            ems.append(em)
            f1s.append(f1)
        spans.extend(chunk_spans)
    return (total_loss / len(examples),
            100.0 * float(np.mean(ems)), 100.0 * float(np.mean(f1s)), spans)


def train_model(model: DecaProp, featurizer: Featurizer,
                train_examples: list[TokenizedExample],
                dev_examples: list[TokenizedExample] | None,
                tcfg: TrainConfig, *,
                csv_path: str | None = None,
                clock: Callable[[], float] = time.perf_counter,
                checkpoint_path: str | None = None,
                resume: dict | None = None,
                log: Callable[[str], None] | None = None) -> TrainResult:
    """Run the optimization loop; emits one train and one dev CSV row per epoch.

    Train rows carry the mean batch loss (EM/F1 left blank); dev rows carry
    loss, EM, and F1.  With ``checkpoint_path`` the full state, featurizer
    included, is saved after every epoch, so any of those checkpoints can be
    evaluated or resumed; ``resume`` (a loaded checkpoint dict) continues
    seamlessly.
    """
    if not train_examples:
        raise DataError("training on an empty dataset")
    _require_labels(train_examples + (dev_examples or []), "training")
    feats = [featurizer.example(ex) for ex in train_examples]

    rng = np.random.default_rng((tcfg.seed, 0x10AD))
    opt_state = init_optimizer_state(tcfg.optimizer, model.store)
    lr = tcfg.lr
    start_epoch = 0
    step = 0
    history: list[float] = []
    if resume is not None:
        model.store.load_values(resume["params"])
        opt_state = resume["optimizer"]
        rng.bit_generator.state = resume["rng_state"]
        ts = resume["train_state"]
        start_epoch = ts["epoch"]
        step = ts["step"]
        lr = ts["lr"]
        history = list(ts["history"])

    result = TrainResult(dev_history=history, step_losses=[], rows=[])
    t0 = clock()
    writer = None
    csv_handle = None
    if csv_path is not None:
        csv_handle = open(csv_path, "a" if resume is not None else "w", newline="")
        writer = csv.writer(csv_handle)
        if resume is None:
            writer.writerow(CSV_COLUMNS)

    def emit(epoch: int, split: str, loss: float, em, f1) -> None:
        row = (epoch, split, _fmt(loss), _fmt(em), _fmt(f1), _fmt(lr), _fmt(clock() - t0))
        result.rows.append(row)
        if writer is not None:
            writer.writerow(row)
            csv_handle.flush()
        if log is not None:
            log(f"epoch {epoch} {split}: loss={loss:.4f}"
                + (f" em={em:.2f} f1={f1:.2f}" if em != "" and em is not None else ""))

    stop = False
    epoch = start_epoch
    try:
        for epoch in range(start_epoch + 1, tcfg.max_epochs + 1):
            order = rng.permutation(len(feats))
            epoch_losses = []
            for lo in range(0, len(order), tcfg.batch_size):
                batch = collate([feats[i] for i in order[lo:lo + tcfg.batch_size]])
                with Tape() as tape:
                    out = model.forward(batch, training=True, rng=rng)
                loss_value = out.loss.item()
                if not np.isfinite(loss_value):
                    raise NumericError(f"training diverged at step {step + 1}: "
                                       f"loss {loss_value}")
                model.store.zero_grads()
                backward(tape, out.loss)
                if tcfg.clip_norm is not None:
                    norm = clip_gradients(model.store, tcfg.clip_norm)
                    if not np.isfinite(norm):
                        raise NumericError(f"training diverged at step {step + 1}: "
                                           f"gradient norm {norm}")
                if tcfg.optimizer == "adam":
                    adam_step(model.store, opt_state, lr=lr)
                else:
                    adadelta_step(model.store, opt_state, lr=lr)
                step += 1
                epoch_losses.append(loss_value)
                result.step_losses.append(loss_value)
                if tcfg.target_loss is not None and loss_value < tcfg.target_loss:
                    stop = True
                if tcfg.max_steps is not None and step >= tcfg.max_steps:
                    stop = True
                if stop:
                    break

            emit(epoch, "train", float(np.mean(epoch_losses)), "", "")
            if dev_examples:
                dev_loss, em, f1, _ = evaluate(model, featurizer, dev_examples, tcfg.batch_size)
                history.append(em)
                result.best_em = max(result.best_em, em)
                result.final_f1 = f1
                emit(epoch, "dev", dev_loss, em, f1)
                lr = lr_schedule(history, lr, tcfg.patience, tcfg.decay_factor)
                if tcfg.target_em is not None and em >= tcfg.target_em:
                    stop = True

            if checkpoint_path is not None:
                save_checkpoint(
                    checkpoint_path, model.store, model.config.to_dict(), opt_state,
                    rng.bit_generator.state,
                    {"epoch": epoch, "step": step, "lr": lr, "history": history},
                    extra={"featurizer": featurizer.state(), "seed": tcfg.seed})
            if stop:
                break
    finally:
        if csv_handle is not None:
            csv_handle.close()

    result.steps = step
    result.epochs = epoch
    result.lr = lr
    return result


# ---------------------------------------------------------------------------
# ablation runner


def run_ablation(base: ModelConfig, tcfg: TrainConfig, task: SyntheticTaskSpec,
                 variants: tuple[str, ...] = VARIANTS,
                 log: Callable[[str], None] | None = None) -> list[dict]:
    """Train every variant on one synthetic task; returns one row per variant."""
    train_ex = gen_synthetic(task, "train")
    dev_ex = gen_synthetic(task, "dev")
    featurizer = Featurizer.build(train_ex + dev_ex, base.max_word_len)
    rows = []
    for variant in variants:
        cfg = apply_variant(base, variant)
        model = build_model(cfg, featurizer, seed=tcfg.seed)
        run = replace(tcfg, ablation=variant)
        res = train_model(model, featurizer, train_ex, dev_ex, run)
        row = {"variant": variant, "em": res.best_em, "f1": res.final_f1,
               "steps": res.steps, "final_loss": res.step_losses[-1] if res.step_losses else None}
        rows.append(row)
        if log is not None:
            log(f"{variant}: em={row['em']:.2f} f1={row['f1']:.2f} steps={row['steps']}")
    return rows
