"""Optimization, evaluation metrics, synthetic span tasks, and the training
loop.  Everything here is deterministic given the seeds, which is what the
resume and reproducibility guarantees lean on.
"""

from __future__ import annotations

import csv
import hashlib
import re
import string
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from .checkpoint import save_checkpoint
from .data import TokenizedExample, _typed
from .errors import ConfigError, ContractError, DataError, IntegrityError, NumericError
from .model import (POSITIVE, VARIANTS, Config, DecaProp, ModelConfig, apply_variant,
                    at_least, build_model, one_of)
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
    raise ConfigError(f"unknown optimizer {kind!r}; pick one of {tuple(OPTIMIZERS)}")


def adam_step(store: ParamStore, state: dict, lr: float = 1e-3,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """Bias-corrected Adam update from the gradients currently in the store."""
    if state.get("kind") != "adam":
        raise ContractError("adam_step on a non-adam optimizer state")
    state["t"] += 1
    t = state["t"]
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    with store.writable():
        for name, p in store.trainable_items():
            g = 0.0 if p.grad is None else p.grad
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
    with store.writable():
        for name, p in store.trainable_items():
            g = 0.0 if p.grad is None else p.grad
            g2 = state["g2"][name]
            dx2 = state["dx2"][name]
            g2 *= rho
            g2 += (1.0 - rho) * g * g
            dx = -np.sqrt(dx2 + eps) / np.sqrt(g2 + eps) * g
            dx2 *= rho
            dx2 += (1.0 - rho) * dx * dx
            p.data += lr * dx


# optimizer name -> its step on the state ``init_optimizer_state`` builds
OPTIMIZERS = {"adam": adam_step, "adadelta": adadelta_step}


def clip_gradients(store: ParamStore, max_norm: float | None) -> float:
    """The global l2 norm of the gradients; every gradient is scaled down
    when it exceeds ``max_norm`` (None: never).  A ``None`` gradient is
    zero, and stays ``None``."""
    reached = [p for _, p in store.trainable_items() if p.grad is not None]
    norm = float(np.sqrt(sum(float((p.grad * p.grad).sum()) for p in reached)))
    if max_norm is not None and norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in reached:
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
_DROP_PUNCT = str.maketrans("", "", string.punctuation)


def normalize_answer(text: str) -> str:
    """Lowercase, drop punctuation, drop articles, collapse whitespace."""
    text = text.lower().translate(_DROP_PUNCT)
    text = _ARTICLE_RE.sub(" ", text)
    return " ".join(text.split())


def _token_f1(pred_tokens: list[str], gold_tokens: list[str]) -> float:
    """Token-overlap F1 of two normalized answers' tokens."""
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
    norm_golds = [normalize_answer(g) for g in golds]
    em = int(norm_pred in norm_golds)
    pred_tokens = norm_pred.split()
    f1 = max(_token_f1(pred_tokens, g.split()) for g in norm_golds)
    return em, f1


# ---------------------------------------------------------------------------
# synthetic span-recovery task


# Every split is drawn up front and held in memory, at about 70 µs and 1 KB
# per example for the default task shape: about 70 s and 1 GB at this bound.
# A count far past it would run for days and exhaust memory before the first
# training step, so it is refused when the config is read.
MAX_EXAMPLES = 1_000_000
_EXAMPLE_COUNT = ((lambda v, cfg: 0 <= v <= MAX_EXAMPLES),
                  f"must be >= 0 and <= {MAX_EXAMPLES}")


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
             "distractors": at_least(0), "n_train": _EXAMPLE_COUNT, "n_dev": _EXAMPLE_COUNT,
             "seed": at_least(0)}


def _find_key(passage: list[str], key: list[str]) -> list[int]:
    """Every start at which ``key`` occurs in ``passage``.  Only the
    positions holding the key's first token are compared, found with
    ``list.index``."""
    hits, end = [], max(len(passage) - len(key) + 1, 0)
    s = -1
    while True:
        try:
            s = passage.index(key[0], s + 1, end)
        except ValueError:
            return hits
        if passage[s:s + len(key)] == key:
            hits.append(s)


# passages drawn per example before gen_synthetic gives up on a task shape
_MAX_DRAWS = 1000


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
        for _ in range(_MAX_DRAWS):
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
        else:
            raise ConfigError(
                f"task.vocab_size {spec.vocab_size}, task.query_len {spec.query_len} and "
                f"task.passage_len {spec.passage_len} gave no passage holding its key "
                f"exactly once in {_MAX_DRAWS} draws; raise task.vocab_size or "
                "task.query_len")

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
    """Pad a list of per-example feature dicts into one batch dict.

    Every array a side (``p``, ``q``) carries becomes ``{side}_{name}``,
    zero-padded along its first axis with its dtype and trailing shape kept;
    ``{side}_mask`` marks the real positions and ``p_len`` counts them.  The
    span targets ``y1``/``y2`` come along only when every example has them.
    """
    if not feats:
        raise ContractError("collate of an empty batch")
    batch: dict = {}
    for prefix in ("p", "q"):
        sides = [f[prefix] for f in feats]
        names = list(sides[0])
        lens = np.array([len(s[names[0]]) for s in sides], dtype=np.int64)
        n = int(lens.max())
        for name in names:
            first = sides[0][name]
            padded = np.zeros((len(sides), n) + first.shape[1:], dtype=first.dtype)
            for row, s, k in zip(padded, sides, lens):
                row[:k] = s[name]
            batch[f"{prefix}_{name}"] = padded
        batch[f"{prefix}_mask"] = (np.arange(n) < lens[:, None]).astype(np.float64)
        if prefix == "p":
            batch["p_len"] = lens
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

    section = "train"
    rules = {"optimizer": one_of(tuple(OPTIMIZERS)), "lr": POSITIVE,
             "batch_size": at_least(1), "max_epochs": at_least(1), "max_steps": at_least(1),
             "seed": at_least(0), "clip_norm": POSITIVE, "patience": at_least(1),
             "decay_factor": POSITIVE}


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
    step_losses: list[float] = field(default_factory=list)
    best_em: float = 0.0
    # dev F1 of this call's last epoch; None when it evaluated no dev set
    final_f1: float | None = None


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
                    ) -> Iterator[tuple[list[TokenizedExample], float | None,
                                        list[tuple[int, int]]]]:
    """Forward ``examples`` in input-order chunks of ``batch_size``; yields
    each chunk, its summed loss (None for unlabeled data) and its decoded
    spans in input order.

    A chunk runs in length groups: sorted by passage length, ties by input
    index, a group ends before the first passage more than twice as long as
    the group's first.  Each group is collated, forwarded and decoded on its
    own, so no row is padded past twice its length.  The chunk's loss is the
    sum over groups of mean loss times rows.
    """
    if batch_size < 1:
        raise ContractError(f"predict_batches: batch_size must be >= 1, got {batch_size}")
    feats = [featurizer.example(ex) for ex in examples]
    for lo in range(0, len(examples), batch_size):
        chunk = examples[lo:lo + batch_size]
        lengths = [len(ex.passage_tokens) for ex in chunk]
        order = sorted(range(len(chunk)), key=lengths.__getitem__)
        groups, first = [], 0
        for k, i in enumerate(order):
            if lengths[i] > 2 * lengths[order[first]]:
                groups.append(order[first:k])
                first = k
        groups.append(order[first:])
        spans: list = [None] * len(chunk)
        # collate carries the targets only when every example has them
        loss = 0.0 if all(ex.labeled for ex in chunk) else None
        for group in groups:
            batch = collate([feats[lo + i] for i in group])
            out = model.forward(batch)
            for i, span in zip(group, model.decode(out, batch["p_len"])):
                spans[i] = span
            if loss is not None:
                loss += out.loss.item() * len(group)
        yield chunk, loss, spans


def evaluate(model: DecaProp, featurizer: Featurizer, examples: list[TokenizedExample],
             batch_size: int = 32) -> tuple[float, float, float, list[tuple[int, int]]]:
    """Mean loss, EM, F1 (both percentages) and the decoded spans."""
    if not examples:
        raise DataError("evaluate on an empty dataset")
    _require_labels(examples, "evaluation")
    total_loss = 0.0
    ems, f1s, spans = [], [], []
    for chunk, loss, chunk_spans in predict_batches(model, featurizer, examples, batch_size):
        total_loss += loss
        for ex, span in zip(chunk, chunk_spans):
            em, f1 = em_f1(span_text(ex, span), ex.answer_texts)
            ems.append(em)
            f1s.append(f1)
        spans.extend(chunk_spans)
    return (total_loss / len(examples),
            100.0 * float(np.mean(ems)), 100.0 * float(np.mean(f1s)), spans)


def check_resume(ck: dict, model_config: ModelConfig, tcfg: TrainConfig,
                 path: str | None = None) -> None:
    """Refuse to resume checkpoint ``ck`` (read from ``path``, if given) with a
    model or optimizer other than its own, since a resumed run keeps both,
    or with a train or rng state that the run cannot take up."""
    name = "the checkpoint" if path is None else f"the checkpoint {path}"
    for key, kind in (("epoch", int), ("step", int), ("lr", (int, float)), ("history", list)):
        _typed(ck["train_state"].get(key), kind, f"train_state.{key}", name, IntegrityError)
    try:
        np.random.default_rng(0).bit_generator.state = ck["rng_state"]
    except (KeyError, TypeError, ValueError) as exc:
        raise IntegrityError(f"{name}: rng_state is not a state of this run's generator "
                             f"({exc!r})") from exc
    kept = ModelConfig.from_dict(ck["model_config"]).to_dict()
    for key, value in model_config.to_dict().items():
        if value != kept[key]:
            raise ConfigError(f"model.{key} is {value!r}, but {name} has {kept[key]!r}; "
                              "a resumed run keeps its model")
    kind = ck["optimizer"].get("kind")
    if kind != tcfg.optimizer:
        raise ConfigError(f"train.optimizer is {tcfg.optimizer!r}, but the checkpoint "
                          f"was trained with {kind!r}")


def _examples_sha256(*splits: list[TokenizedExample]) -> str:
    """Digest of every field of every example, split by split."""
    rows = [[(ex.id, ex.passage_tokens, ex.question_tokens, ex.answer_start,
              ex.answer_end, ex.answer_texts) for ex in split] for split in splits]
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


def _done(tcfg: TrainConfig, step: int, losses: list[float], history: list[float]) -> bool:
    """Whether a run at ``step``, with step ``losses`` and dev EM ``history``,
    has met a stop rule: ``max_steps`` taken, the last loss under
    ``target_loss`` or the last dev EM at ``target_em``."""
    return ((tcfg.max_steps is not None and step >= tcfg.max_steps)
            or (tcfg.target_loss is not None and bool(losses)
                and losses[-1] < tcfg.target_loss)
            or (tcfg.target_em is not None and bool(history)
                and history[-1] >= tcfg.target_em))


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
    seamlessly.  A resume is refused (``check_resume``) for another model or
    optimizer, and for other training or dev examples.  Before every epoch
    and every step the run stops once a stop rule (``_done``) holds, so a
    resumed run that met ``max_steps`` or ``target_em`` takes no step.
    """
    if not train_examples:
        raise DataError("training on an empty dataset")
    _require_labels(train_examples + (dev_examples or []), "training")
    data_sha256 = _examples_sha256(train_examples, dev_examples or [])
    if resume is not None:
        check_resume(resume, model.config, tcfg)
        # checkpoints written before the digest was kept resume unchecked
        if resume["train_state"].get("data_sha256", data_sha256) != data_sha256:
            raise ConfigError("the training or dev examples differ from those the "
                              "checkpoint was trained on; a resumed run keeps its data")
    feats = [featurizer.example(ex) for ex in train_examples]

    rng = np.random.default_rng((tcfg.seed, 0x10AD))
    lr = tcfg.lr
    start_epoch = 0
    step = 0
    history: list[float] = []
    if resume is None:
        opt_state = init_optimizer_state(tcfg.optimizer, model.store)
    else:
        model.store.load_values(resume["params"])
        opt_state = resume["optimizer"]
        rng.bit_generator.state = resume["rng_state"]
        ts = resume["train_state"]
        start_epoch = ts["epoch"]
        step = ts["step"]
        lr = ts["lr"]
        history = list(ts["history"])

    result = TrainResult(best_em=max(history, default=0.0))
    t0 = clock()
    writer = None
    csv_handle = None
    if csv_path is not None:
        csv_handle = open(csv_path, "a" if resume is not None else "w", newline="")
        writer = csv.writer(csv_handle)
        if resume is None:
            writer.writerow(CSV_COLUMNS)

    def emit(epoch: int, split: str, loss: float, em, f1) -> None:
        if writer is not None:
            writer.writerow((epoch, split, _fmt(loss), _fmt(em), _fmt(f1), _fmt(lr),
                             _fmt(clock() - t0)))
            csv_handle.flush()
        if log is not None:
            log(f"epoch {epoch} {split}: loss={loss:.4f}"
                + (f" em={em:.2f} f1={f1:.2f}" if em != "" and em is not None else ""))

    try:
        for epoch in range(start_epoch + 1, tcfg.max_epochs + 1):
            if _done(tcfg, step, result.step_losses, history):
                break
            order = rng.permutation(len(feats))
            epoch_losses = []
            for lo in range(0, len(order), tcfg.batch_size):
                if _done(tcfg, step, result.step_losses, history):
                    break
                batch = collate([feats[i] for i in order[lo:lo + tcfg.batch_size]])
                # a diverging step overflows; the checks below report it
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    with Tape() as tape:
                        out = model.forward(batch, training=True, rng=rng)
                    loss_value = out.loss.item()
                    if not np.isfinite(loss_value):
                        raise NumericError(f"training diverged at step {step + 1}: "
                                           f"loss {loss_value}")
                    model.store.zero_grads()
                    backward(tape, out.loss)
                    norm = clip_gradients(model.store, tcfg.clip_norm)
                    if not np.isfinite(norm):
                        raise NumericError(f"training diverged at step {step + 1}: "
                                           f"gradient norm {norm}")
                OPTIMIZERS[tcfg.optimizer](model.store, opt_state, lr=lr)
                step += 1
                epoch_losses.append(loss_value)
                result.step_losses.append(loss_value)

            emit(epoch, "train", float(np.mean(epoch_losses)), "", "")
            if dev_examples:
                dev_loss, em, f1, _ = evaluate(model, featurizer, dev_examples, tcfg.batch_size)
                history.append(em)
                result.best_em = max(result.best_em, em)
                result.final_f1 = f1
                emit(epoch, "dev", dev_loss, em, f1)
                lr = lr_schedule(history, lr, tcfg.patience, tcfg.decay_factor)

            if checkpoint_path is not None:
                # restore_model reads what this writes
                save_checkpoint(
                    checkpoint_path, model.store, model.config.to_dict(), opt_state,
                    rng.bit_generator.state,
                    {"epoch": epoch, "step": step, "lr": lr, "history": history,
                     "data_sha256": data_sha256},
                    extra={"featurizer": featurizer.state()})
    finally:
        if csv_handle is not None:
            csv_handle.close()

    result.steps = step
    return result


def restore_model(ck: dict, path: str) -> tuple[DecaProp, Featurizer]:
    """The model and featurizer of a loaded ``train_model`` checkpoint ``ck``;
    ``path`` names it in errors."""
    if "featurizer" not in ck["extra"]:
        raise ConfigError(f"{path}: checkpoint has no featurizer state; "
                          "was it written by 'decaprop train'?")
    state = _typed(ck["extra"]["featurizer"], dict, "extra.featurizer", path, IntegrityError)
    for key in ("tokens", "char_tokens"):
        for token in _typed(state.get(key), list, f"extra.featurizer.{key}", path, IntegrityError):
            _typed(token, str, f"an entry of extra.featurizer.{key}", path, IntegrityError)
    featurizer = Featurizer.from_state(state)
    # every parameter, the frozen word vectors included, is then overwritten
    model = build_model(ModelConfig.from_dict(ck["model_config"]), featurizer)
    model.store.load_values(ck["params"])
    return model, featurizer


# ---------------------------------------------------------------------------
# ablation runner


def run_ablation(base: ModelConfig, tcfg: TrainConfig, task: SyntheticTaskSpec,
                 variants: tuple[str, ...] = tuple(VARIANTS),
                 log: Callable[[str], None] | None = None) -> list[dict]:
    """Train every variant on one synthetic task; returns one row per variant."""
    train_ex = gen_synthetic(task, "train")
    dev_ex = gen_synthetic(task, "dev")
    featurizer = Featurizer.build(train_ex + dev_ex, base.max_word_len)
    rows = []
    for variant in variants:
        cfg = apply_variant(base, variant)
        model = build_model(cfg, featurizer, seed=tcfg.seed)
        res = train_model(model, featurizer, train_ex, dev_ex, tcfg)
        row = {"variant": variant, "em": res.best_em, "f1": res.final_f1,
               "steps": res.steps, "final_loss": res.step_losses[-1] if res.step_losses else None}
        rows.append(row)
        if log is not None:
            f1 = "n/a" if row["f1"] is None else f"{row['f1']:.2f}"
            log(f"{variant}: em={row['em']:.2f} f1={f1} steps={row['steps']}")
    return rows
