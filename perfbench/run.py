#!/usr/bin/env python3
"""decaprop benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload train_c6 --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it name every metric with its unit, the environment and the
input mix.  A full record (and, when traced, every span) is written under
``.perfbench_out/``.  See README.md in this directory for the workloads and
what each metric means.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: the matrices are tiny, so
# more threads only add scheduling noise.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(SRC))
try:
    import numpy as np
    import decaprop
    from decaprop import (answer, bac, checkpoint, decacore, decaenc, encoder, model,
                          numerics, recurrent, training)
    from decaprop import (Featurizer, ModelConfig, SyntheticTaskSpec, Tape, Vocab,
                          build_model, em_f1, gen_synthetic)
except ImportError as exc:
    sys.exit(f"perfbench: cannot import decaprop from {SRC}: {exc}")
if SRC not in Path(decaprop.__file__).resolve().parents:
    sys.exit(f"perfbench: decaprop was imported from {decaprop.__file__}, not from {SRC}")

from tracing import Tracer, count_children, dump, forward_coverage, summarize  # noqa: E402

clock = time.perf_counter

# Criterion-6 configuration (tests/test_acceptance.py).
C6_MODEL = dict(word_dim=16, char_dim=8, char_hidden=8, max_word_len=8, hidden=32,
                layers=2, fm_factors=8)
C6_TASK = dict(vocab_size=100, passage_len=40, query_len=3, span_min=2, span_max=2,
               distractors=1)
BATCH = 32
MODEL_SEED = 0            # weights are program state, not workload input
REFERENCE_SEED = 0        # task seed of the fixed first training batch
TRAIN_POOL = 512          # training examples per run, reshuffled every epoch
MIXED_LENGTHS = (20, 160)  # passage lengths of eval_mixed and predict_b1
GOLDEN = (5 ** 0.5 - 1) / 2
EVAL_POOL = 1024
PREDICT_POOL = 512
SPAN_CHECKS = 64          # predict_b1 requests re-decoded through evaluate
SETUP_REPEATS = 40
CLIP_NORM = 5.0
LR = 1e-3

# Loss of the first training step, which always runs on the reference batch
# with freshly initialised weights; recorded when the benchmark was written.
# The tolerance leaves room for reassociated float sums, nothing more.
FIRST_STEP_LOSS = {"train_c6": 7.3927780413093656, "train_lstm_n4": 7.3807419392282725}
FIRST_STEP_TOL = 1e-9

# name: (runner kind, model overrides)
WORKLOADS = {
    "train_c6": ("train", {}),
    "train_lstm_n4": ("train", {"cell": "lstm", "layers": 4}),
    "eval_mixed": ("eval", {}),
    "predict_b1": ("predict", {}),
}

END_TO_END = {  # name: unit; every workload reports all of them
    "setup_s": "s", "ex_per_s": "examples/s", "peak_rss_mb": "MB",
}
# Printed but not in the result line.  On a 2-vCPU host whose speed swings
# by up to 1.8x for seconds to minutes at a time, the ten-seed spread of the
# median reached 0.27 and the five-seed spread of p90 0.12-0.19; the
# mean-based ex_per_s moves less, so it carries the op timings.
END_TO_END_PRINTED = {"op_ms_p50": "ms", "op_ms_p90": "ms"}
# What the generic end-to-end names mean on each workload kind.
ALIASES = {
    "train": {"ex_per_s": "train_ex_per_s", "op_ms_p50": "step_ms_p50", "op_ms_p90": "step_ms_p90"},
    "eval": {"ex_per_s": "eval_ex_per_s", "op_ms_p50": "batch_ms_p50", "op_ms_p90": "batch_ms_p90"},
    "predict": {"ex_per_s": "requests_per_s", "op_ms_p50": "request_ms_p50",
                "op_ms_p90": "request_ms_p90"},
}
PER_LAYER = {  # name: unit; reported by every traced run
    "numerics.records_per_step": "count", "numerics.forward_ms": "ms",
    "training.collate_ms": "ms", "training.forwards_per_eval_batch": "count",
    "training.useful_position_frac": "ratio",
    "encoder.input_ms": "ms", "encoder.input_records": "count",
    "recurrent.birnn_ms": "ms", "recurrent.birnn_calls": "count", "recurrent.timesteps": "count",
    "decaenc.ms": "ms", "decaenc.records": "count",
    "bac.connector_calls": "count", "bac.connector_ms": "ms", "bac.fm_ms": "ms",
    "decacore.ms": "ms", "decacore.records": "count", "decacore.gated_ms": "ms",
    "answer.pointer_ms": "ms", "answer.pointer_records": "count", "answer.decode_calls": "count",
    "checkpoint.bytes": "bytes",
    "runtime.gc_pause_ms": "ms", "runtime.gc_gen2_count": "count",
    "trace.overhead_frac": "ratio", "trace.block_coverage": "ratio",
}
# Layers that only some workloads call: printed by every traced run, but kept
# out of the result line, where a time that is 0 on every run is refused.
PER_LAYER_PRINTED = {
    "numerics.backward_ms": "ms", "training.optimizer_ms": "ms",
    "encoder.featurize_ms": "ms", "answer.decode_us": "us",
    "checkpoint.save_ms": "ms", "checkpoint.load_ms": "ms",
}
MIN_BLOCK_COVERAGE = 0.95


# ---------------------------------------------------------------------------
# inputs


def mixed_examples(seed: int, count: int) -> list:
    """Synthetic examples with passage lengths spread evenly over MIXED_LENGTHS.

    Lengths follow a golden-ratio sequence from a seed-chosen offset, so every
    run of consecutive examples (a batch, or the requests one run gets
    through) holds close to the uniform mix; a random draw would let the
    mix, not the code, set the run-to-run spread.  The seed also picks the
    tokens.  Each distinct length is one gen_synthetic call.
    """
    rng = np.random.default_rng((seed, 0x313D))
    lo, hi = MIXED_LENGTHS
    phase = (rng.random() + np.arange(count) * GOLDEN) % 1.0
    lengths = lo + (phase * (hi - lo + 1)).astype(np.int64)
    slots: dict[int, list[int]] = {}
    for i, n in enumerate(lengths.tolist()):
        slots.setdefault(n, []).append(i)
    examples = [None] * count
    for n, where in sorted(slots.items()):
        spec = SyntheticTaskSpec(**{**C6_TASK, "passage_len": n}, n_train=len(where),
                                 seed=int(rng.integers(2 ** 31)))
        for i, ex in zip(where, gen_synthetic(spec, "train")):
            examples[i] = ex
    return examples


def passage_lengths(job) -> list[int]:
    """Passage lengths of one operation's examples (feature dicts or examples)."""
    items = job if isinstance(job, list) else [job]
    return [len(x.passage_tokens) if hasattr(x, "passage_tokens") else x["p"]["word"].shape[0]
            for x in items]


# ---------------------------------------------------------------------------
# workload runners: setup() builds state, next_job(i) picks op i's input,
# run(job) is the timed call, check(i, job, result) the untimed output check.


class Runner:
    """Defaults for the hooks a workload does not need."""

    checkpoint_bytes = 0

    def __init__(self, name: str, seed: int, cfg: ModelConfig):
        self.name, self.seed, self.cfg = name, seed, cfg

    def records(self) -> int:
        """Tape records so far in the running op (0 outside a tape)."""
        return 0

    def setup_error(self) -> str | None:
        return None

    def post_check(self) -> dict[int, str]:
        """Checks made once after the timed loop: op index -> failure."""
        return {}


class TrainRun(Runner):
    tape = None

    def setup(self) -> None:
        task = SyntheticTaskSpec(**C6_TASK, n_train=TRAIN_POOL, seed=self.seed)
        reference = gen_synthetic(SyntheticTaskSpec(**C6_TASK, n_train=BATCH, seed=REFERENCE_SEED),
                                  "train")
        pool = gen_synthetic(task, "train")
        fz = Featurizer.build(reference + pool, self.cfg.max_word_len)
        self.reference = [fz.example(ex) for ex in reference]
        self.feats = [fz.example(ex) for ex in pool]
        self.model = build_model(self.cfg, fz, seed=MODEL_SEED)
        self.opt = training.init_optimizer_state("adam", self.model.store)
        self.rng = np.random.default_rng((self.seed, 0x10AD))
        self.order: list[int] = []

    def records(self) -> int:
        return len(self.tape) if self.tape is not None else 0

    def next_job(self, i: int) -> list[dict]:
        if i == 0:
            return self.reference
        if not self.order:
            self.order = self.rng.permutation(len(self.feats)).tolist()
        picked, self.order = self.order[:BATCH], self.order[BATCH:]
        return [self.feats[k] for k in picked]

    def run(self, job: list[dict]):
        batch = training.collate(job)
        try:
            with Tape() as tape:
                self.tape = tape
                out = self.model.forward(batch, training=True, rng=self.rng)
        finally:
            self.tape = None
        self.model.store.zero_grads()
        numerics.backward(tape, out.loss)
        training.clip_gradients(self.model.store, CLIP_NORM)
        training.adam_step(self.model.store, self.opt, lr=LR)
        return out

    def check(self, i: int, job, out) -> str | None:
        loss = out.loss.item()
        if not math.isfinite(loss):
            return f"loss {loss} is not finite"
        n = self.cfg.layers
        if out.connector_calls != n * n + 2 * n:
            return f"{out.connector_calls} connector calls, expected {n * n + 2 * n}"
        expected = FIRST_STEP_LOSS[self.name]
        if i == 0 and abs(loss - expected) > FIRST_STEP_TOL:
            return f"first-step loss {loss!r} differs from the reference {expected!r}"
        return None


class RestoredRun(Runner):
    """Shared set-up of eval_mixed and predict_b1: build the criterion-6
    model, write a checkpoint holding it and its featurizer, and serve from
    the model rebuilt out of that checkpoint alone."""

    pool: int

    def setup(self) -> None:
        self.examples = mixed_examples(self.seed, self.pool)
        fz = Featurizer.build(self.examples, self.cfg.max_word_len)
        built = build_model(self.cfg, fz, seed=MODEL_SEED)
        extra = {"featurizer": {"tokens": fz.vocab.tokens[2:],
                                "char_tokens": fz.char_vocab.tokens[2:],
                                "max_word_len": fz.max_word_len},
                 "seed": MODEL_SEED}
        path = OUT / f"{self.name}-{self.seed}-{os.getpid()}.ckpt"
        try:
            checkpoint.save_checkpoint(
                str(path), built.store, self.cfg.to_dict(),
                training.init_optimizer_state("adam", built.store),
                np.random.default_rng(MODEL_SEED).bit_generator.state,
                {"epoch": 0, "step": 0, "lr": LR, "history": []}, extra=extra)
            self.checkpoint_bytes = path.stat().st_size
            ck = checkpoint.load_checkpoint(str(path))
        finally:
            path.unlink(missing_ok=True)
        state = ck["extra"]["featurizer"]
        self.featurizer = Featurizer(Vocab(state["tokens"]), Vocab(state["char_tokens"]),
                                     state["max_word_len"])
        self.model = build_model(ModelConfig.from_dict(ck["model_config"]), self.featurizer,
                                 seed=int(ck["extra"]["seed"]))
        self.model.store.load_values(ck["params"])
        self.built = built

    def setup_error(self) -> str | None:
        saved = dict(self.built.store.items())
        for name, p in self.model.store.items():
            if not np.array_equal(p.data, saved[name].data):
                return f"parameter {name} changed in the checkpoint round trip"
        return None


class EvalRun(RestoredRun):
    pool = EVAL_POOL

    def next_job(self, i: int) -> list:
        lo = (i * BATCH) % self.pool
        return self.examples[lo:lo + BATCH]

    def run(self, job: list):
        return training.evaluate(self.model, self.featurizer, job, batch_size=BATCH)

    def check(self, i: int, job, result) -> str | None:
        loss, em, f1, spans = result
        if not math.isfinite(loss):
            return f"loss {loss} is not finite"
        if len(spans) != len(job):
            return f"{len(spans)} spans for {len(job)} examples"
        scores = []
        for ex, (start, end) in zip(job, spans):
            if not 0 <= start <= end < len(ex.passage_tokens):
                return f"span ({start}, {end}) outside a passage of {len(ex.passage_tokens)}"
            scores.append(em_f1(" ".join(ex.passage_tokens[start:end + 1]), ex.answer_texts))
        em_ref = 100.0 * float(np.mean([s[0] for s in scores]))
        f1_ref = 100.0 * float(np.mean([s[1] for s in scores]))
        if abs(em - em_ref) > 1e-9 or abs(f1 - f1_ref) > 1e-9:
            return f"evaluate reports EM/F1 {em}/{f1}, its spans give {em_ref}/{f1_ref}"
        return None


class PredictRun(RestoredRun):
    pool = PREDICT_POOL

    def setup(self) -> None:
        super().setup()
        self.answers: dict[int, tuple[int, int]] = {}

    def next_job(self, i: int):
        return self.examples[i % self.pool]

    def run(self, ex):
        batch = training.collate([self.featurizer.example(ex)])
        return self.model.predict(batch)[0]

    def check(self, i: int, ex, span) -> str | None:
        start, end = span
        if not 0 <= start <= end < len(ex.passage_tokens):
            return f"span ({start}, {end}) outside a passage of {len(ex.passage_tokens)}"
        if i < SPAN_CHECKS:
            self.answers[i] = span
        return None

    def post_check(self) -> dict[int, str]:
        """Each batch-1 span must equal the span evaluate decodes for it."""
        done = sorted(self.answers)
        if not done:
            return {}
        _, _, _, spans = training.evaluate(self.model, self.featurizer,
                                           [self.examples[i % self.pool] for i in done],
                                           batch_size=BATCH)
        return {i: f"batch-1 span {self.answers[i]} but evaluate decodes {tuple(span)}"
                for i, span in zip(done, spans) if tuple(span) != tuple(self.answers[i])}


RUNNERS = {"train": TrainRun, "eval": EvalRun, "predict": PredictRun}


# ---------------------------------------------------------------------------
# measurement


class OpLog:
    """Every operation attempted and its failure, if any."""

    def __init__(self, runner):
        self.runner = runner
        self.attempted = 0
        self.failures: dict[str, str] = {}

    def do(self, i: int, job) -> float | None:
        """Run op ``i`` on ``job``; returns its seconds, None if it failed."""
        runner = self.runner
        self.attempted += 1
        key = f"op{self.attempted - 1}"
        t0 = clock()
        try:
            result = runner.run(job)
        except Exception as exc:  # a raising op is counted as failed; the run goes on
            self.failures[key] = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            return None
        elapsed = clock() - t0
        error = runner.check(i, job, result)
        if error is not None:
            self.failures[key] = error
            return None
        return elapsed

    def phase(self, first: int, seconds: float, tracer: Tracer | None = None) -> dict:
        """Run ops from index ``first`` on for ``seconds``.

        With a tracer, each op's input runs twice in a row, untraced and then
        traced, and only the traced half is counted.  Both halves of a pair
        see the same examples; on train workloads the traced half runs on
        weights one optimizer step further on, which leaves the work the same.
        """
        times: list[float] = []
        ratios: list[float] = []
        lengths: list[int] = []
        padded = 0
        i = first
        deadline = clock() + seconds
        while clock() < deadline:
            job = self.runner.next_job(i)
            elapsed = self.do(i, job)
            if tracer is not None:
                install(tracer)
                try:
                    traced = self.do(i, job)
                finally:
                    tracer.restore()
                if elapsed is not None and traced is not None:
                    ratios.append(traced / elapsed)
                elapsed = traced
            i += 1
            if elapsed is None:
                continue
            times.append(elapsed)
            job_lengths = passage_lengths(job)
            lengths.extend(job_lengths)
            padded += len(job_lengths) * max(job_lengths)
        return {"ops": i - first, "times": times, "lengths": lengths,
                "useful_position_frac": sum(lengths) / padded if padded else 0.0,
                "overhead_ratios": ratios}


def percentile_ms(times: list[float], q: float) -> float:
    return float(np.percentile(times, q)) * 1e3 if times else float("nan")


def install(tracer: Tracer) -> None:
    """Wrap the public callables each layer is measured through."""
    seq_len = lambda self, x, *rest: x.shape[-2]  # noqa: E731
    tracer.wrap(model.DecaProp, "forward", "numerics.forward")
    tracer.wrap(numerics, "backward", "numerics.backward")
    tracer.wrap(training, "clip_gradients", "training.clip_gradients")
    tracer.wrap(training, "adam_step", "training.adam_step")
    tracer.wrap(training, "collate", "training.collate")
    tracer.wrap(training, "evaluate", "training.evaluate")
    tracer.wrap(encoder.Featurizer, "example", "encoder.featurize")
    tracer.wrap(encoder.InputEncoder, "__call__", "encoder.input")
    tracer.wrap(recurrent.BiRNN, "__call__", "recurrent.birnn", size=seq_len)
    tracer.wrap(recurrent.BiRNN, "final_states", "recurrent.birnn", size=seq_len)
    tracer.wrap(decaenc.DecaEnc, "__call__", "decaenc")
    tracer.wrap(bac.BAC, "__call__", "bac.connector")
    tracer.wrap(bac.BAC, "one_sided", "bac.connector")
    tracer.wrap(bac.FMKernel, "__call__", "bac.fm")
    tracer.wrap(decacore.DecaCore, "__call__", "decacore")
    tracer.wrap(decacore.GatedAttention, "__call__", "decacore.gated")
    tracer.wrap(answer.PointerLayer, "__call__", "answer.pointer")
    tracer.wrap(model, "span_loss", "answer.span_loss")
    tracer.wrap(model, "decode_span", "answer.decode")
    tracer.wrap(checkpoint, "save_checkpoint", "checkpoint.save")
    tracer.wrap(checkpoint, "load_checkpoint", "checkpoint.load")
    tracer.watch_gc()


def layer_metrics(setup_spans: list, op_trace: tuple, phase: dict,
                  checkpoint_bytes: int) -> dict[str, float]:
    """Per-layer metrics of a traced phase, per traced op unless named
    otherwise; checkpoint times are per call during set-up.  ``op_trace`` is
    what ``Tracer.take`` handed over after the phase."""
    op_spans, gc_pause_s, gc_gen2 = op_trace
    ops = phase["ops"]
    s = summarize(op_spans)
    setup = summarize(setup_spans)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "records": 0, "size": 0}

    def per_op(name: str, key: str, scale: float = 1.0) -> float:
        return scale * s.get(name, zero)[key] / ops

    def per_call_ms(table: dict, name: str) -> float:
        row = table.get(name, zero)
        return 1e3 * row["total_s"] / row["calls"] if row["calls"] else 0.0

    eval_batches = count_children(op_spans, "training.evaluate", "training.collate")
    return {
        "numerics.records_per_step": per_op("numerics.forward", "records"),
        "numerics.forward_ms": per_op("numerics.forward", "total_s", 1e3),
        "numerics.backward_ms": per_op("numerics.backward", "total_s", 1e3),
        "training.optimizer_ms": (per_op("training.clip_gradients", "total_s", 1e3)
                                  + per_op("training.adam_step", "total_s", 1e3)),
        "training.collate_ms": per_op("training.collate", "total_s", 1e3),
        "training.forwards_per_eval_batch": (
            count_children(op_spans, "training.evaluate", "numerics.forward") / eval_batches
            if eval_batches else 0.0),
        "training.useful_position_frac": phase["useful_position_frac"],
        "encoder.featurize_ms": per_op("encoder.featurize", "total_s", 1e3),
        "encoder.input_ms": per_op("encoder.input", "total_s", 1e3),
        "encoder.input_records": per_op("encoder.input", "records"),
        "recurrent.birnn_ms": per_op("recurrent.birnn", "self_s", 1e3),
        "recurrent.birnn_calls": per_op("recurrent.birnn", "calls"),
        "recurrent.timesteps": per_op("recurrent.birnn", "size"),
        "decaenc.ms": per_op("decaenc", "total_s", 1e3),
        "decaenc.records": per_op("decaenc", "records"),
        "bac.connector_calls": per_op("bac.connector", "calls"),
        "bac.connector_ms": per_op("bac.connector", "self_s", 1e3),
        "bac.fm_ms": per_op("bac.fm", "total_s", 1e3),
        "decacore.ms": per_op("decacore", "total_s", 1e3),
        "decacore.records": per_op("decacore", "records"),
        "decacore.gated_ms": per_op("decacore.gated", "self_s", 1e3),
        "answer.pointer_ms": (per_op("answer.pointer", "total_s", 1e3)
                              + per_op("answer.span_loss", "total_s", 1e3)),
        "answer.pointer_records": (per_op("answer.pointer", "records")
                                   + per_op("answer.span_loss", "records")),
        "answer.decode_us": 1e3 * per_call_ms(s, "answer.decode"),
        "answer.decode_calls": per_op("answer.decode", "calls"),
        "checkpoint.save_ms": per_call_ms(setup, "checkpoint.save"),
        "checkpoint.load_ms": per_call_ms(setup, "checkpoint.load"),
        "checkpoint.bytes": float(checkpoint_bytes),
        "runtime.gc_pause_ms": 1e3 * gc_pause_s / ops,
        "runtime.gc_gen2_count": gc_gen2 / ops,
        "trace.overhead_frac": (statistics.median(phase["overhead_ratios"]) - 1.0
                                if phase["overhead_ratios"] else float("nan")),
        "trace.block_coverage": forward_coverage(op_spans),
    }


# ---------------------------------------------------------------------------
# environment and reporting


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def os_threads() -> int:
    """Threads of this process, native ones (BLAS workers) included where
    the platform lists them."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "decaprop").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS}, "threads": os_threads(),
        "git_commit": git_commit(), "source_sha256": source_digest(),
    }


def input_summary(phase: dict) -> dict:
    """Passage-length mix of the examples the counted ops processed."""
    lengths = phase["lengths"]
    q = statistics.quantiles(lengths, n=4) if len(lengths) > 1 else lengths * 3
    return {"examples": len(lengths), "passage_len_min": min(lengths, default=0),
            "passage_len_quartiles": [round(x, 2) for x in q],
            "passage_len_max": max(lengths, default=0),
            "useful_position_frac": phase["useful_position_frac"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    kind, overrides = WORKLOADS[args.workload]
    cfg = ModelConfig(**{**C6_MODEL, **overrides})
    OUT.mkdir(exist_ok=True)
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env))

    # Set-up runs SETUP_REPEATS times, each on a fresh runner after a full
    # collection, and setup_s is the fastest.  Half the set-ups run back to
    # back before the timed loop (the last runner serves the ops) and half
    # after it: the host has slow spells that last for seconds, and the two
    # bursts, a run apart, seldom both fall in one.  A traced run sets up
    # once, under the tracer, for the checkpoint spans.
    setup_times = []

    def set_up() -> Runner:
        fresh = RUNNERS[kind](args.workload, args.seed, cfg)
        gc.collect()
        t0 = clock()
        fresh.setup()
        setup_times.append(clock() - t0)
        return fresh

    tracer = None
    if not args.trace:
        for _ in range(SETUP_REPEATS // 2):
            runner = set_up()
    else:
        runner = RUNNERS[kind](args.workload, args.seed, cfg)
        tracer = Tracer(records=runner.records)
        install(tracer)
        try:
            runner.setup()
        finally:
            tracer.restore()
        setup_spans, _, _ = tracer.take()
    problems = [e for e in [runner.setup_error()] if e]
    gc.collect()

    log = OpLog(runner)
    log.do(0, runner.next_job(0))  # warm-up op, untimed; on train workloads the reference step
    phase = log.phase(1, args.seconds, tracer)
    log.failures.update({f"post{i}": why for i, why in runner.post_check().items()})
    if not args.trace:
        for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2):
            set_up()
    threads = os_threads()
    if threads != 1:
        problems.append(f"{threads} threads running, expected 1")

    times = phase["times"]
    alias = ALIASES[kind]
    print("inputs " + json.dumps(input_summary(phase)))
    if not args.trace:
        metrics = {
            "setup_s": min(setup_times),
            "ex_per_s": len(phase["lengths"]) / sum(times) if times else float("nan"),
            "op_ms_p50": percentile_ms(times, 50),
            "op_ms_p90": percentile_ms(times, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        for name, unit in {**END_TO_END, **END_TO_END_PRINTED}.items():
            label = f"{name} ({alias[name]})" if name in alias else name
            print(f"metric {label} {metrics[name]!r} {unit}")
        print(f"metric ops_timed {len(times)} count")
    else:
        op_trace = tracer.take()
        metrics = layer_metrics(setup_spans, op_trace, phase, runner.checkpoint_bytes)
        units = PER_LAYER
        for name, unit in {**PER_LAYER, **PER_LAYER_PRINTED}.items():
            print(f"layer {name} {metrics[name]!r} {unit}")
        if metrics["trace.block_coverage"] < MIN_BLOCK_COVERAGE:
            problems.append(f"block spans cover {metrics['trace.block_coverage']:.3f} of the "
                            f"forward span, below {MIN_BLOCK_COVERAGE}")
        dump(str(OUT / f"{args.workload}-seed{args.seed}.spans.json"),
             {"setup": setup_spans, "ops": op_trace[0]})

    failed = len(log.failures)
    print(f"metric failed_frac {failed / log.attempted!r} ({failed} of {log.attempted} ops)")
    for key, why in list(log.failures.items())[:10]:
        print(f"failure {key}: {why}")
    for why in problems:
        print(f"problem: {why}")
    # A metric that could not be measured (no op succeeded) is null, not NaN,
    # so that the result line stays valid JSON.
    shown = {k: v if math.isfinite(v) else None for k, v in metrics.items()}
    result = {"correct": not log.failures and not problems and None not in shown.values(),
              "attempted": log.attempted, "failed": failed,
              "metrics": {name: {"value": shown[name], "unit": unit}
                          for name, unit in units.items()}}
    record = {"env": env, "inputs": input_summary(phase), "result": result,
              "all_metrics": shown, "setup_times_s": setup_times, "op_times_s": times,
              "failures": log.failures, "problems": problems}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
