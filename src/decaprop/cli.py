"""Command line front end.

Subcommands: train, eval, predict, gradcheck, ablate, synth.  Configuration
is a flat ``section.key = value`` file; any key can be overridden through the
environment as ``DECAPROP_SECTION_KEY``.  Failures from this package exit
with status 1 and a single machine-parseable ``error:<kind>: message`` line
on stderr; argparse usage errors keep their conventional status 2.  A reader
that closes stdout early ends the run with status 1 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import replace

from .checkpoint import load_checkpoint
from .data import _JSON_ERRORS, load_jsonl, load_squad
from .encoder import Featurizer
from .errors import ConfigError, DecapropError, NumericError
from .gradcheck import run_gradcheck, threshold_for
from .model import VARIANTS, ModelConfig, apply_variant, build_model
from .training import (SyntheticTaskSpec, TrainConfig, check_resume, evaluate,
                       gen_synthetic, predict_batches, restore_model, run_ablation,
                       span_text, train_model)

log = logging.getLogger("decaprop")

_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "task": SyntheticTaskSpec}


def _parse_value(raw: str):
    raw = raw.strip()
    if raw.lower() in ("none", "null"):
        return None
    try:
        return json.loads(raw)
    except _JSON_ERRORS:
        # text JSON cannot take stays text, so it fails the key's own checks
        return raw


def read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'section.key = value'")
                key, raw = line.split("=", 1)
                values[key.strip()] = raw
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return values


def _env_overrides() -> dict[str, str]:
    values: dict[str, str] = {}
    for name, raw in os.environ.items():
        if not name.startswith("DECAPROP_"):
            continue
        rest = name[len("DECAPROP_"):].lower()
        section, _, key = rest.partition("_")
        if section in _SECTIONS and key:
            values[f"{section}.{key}"] = raw
    return values


def load_configs(path: str | None, **overrides: dict
                 ) -> tuple[ModelConfig, TrainConfig, SyntheticTaskSpec]:
    """The config sections from ``path`` and ``DECAPROP_*`` variables; ``overrides``
    maps a section to field values (None: not given) that win, checked alike."""
    raw = read_config_file(path) if path else {}
    raw.update(_env_overrides())
    per_section: dict[str, dict] = {name: {} for name in _SECTIONS}
    for key, value in raw.items():
        section, _, field = key.partition(".")
        if section not in _SECTIONS or not field:
            raise ConfigError(f"unknown config key {key!r}; use section.key with "
                              f"section in {sorted(_SECTIONS)}")
        per_section[section][field] = _parse_value(value)
    return tuple(replace(cls.from_dict(per_section[name]),
                         **{k: v for k, v in overrides.get(name, {}).items() if v is not None})
                 for name, cls in _SECTIONS.items())


def _load_dataset(path: str, fmt: str):
    if fmt == "jsonl":
        return load_jsonl(path)
    if fmt == "squad":
        examples, dropped = load_squad(path)
        if dropped:
            log.info("dropped %d unmappable questions from %s", dropped, path)
        return examples
    raise ConfigError(f"unknown data format {fmt!r}; pick 'jsonl' or 'squad'")


def cmd_train(args: argparse.Namespace) -> int:
    model_cfg, train_cfg, task = load_configs(args.config, train={"seed": args.seed},
                                              task={"seed": args.seed})
    model_cfg = apply_variant(model_cfg, args.variant)

    resume = None
    if args.resume:
        if not args.checkpoint:
            raise ConfigError("--resume needs --checkpoint")
        resume = load_checkpoint(args.checkpoint)
        model, featurizer = restore_model(resume, args.checkpoint)
        check_resume(resume, model_cfg, train_cfg, args.checkpoint)

    if args.data:
        train_ex = _load_dataset(args.data, args.format)
        dev_ex = _load_dataset(args.dev, args.format) if args.dev else None
    else:
        log.info("no --data given; generating the synthetic span task")
        train_ex = gen_synthetic(task, "train")
        dev_ex = gen_synthetic(task, "dev")

    if resume is None:
        featurizer = Featurizer.build(train_ex + (dev_ex or []), model_cfg.max_word_len)
        model = build_model(model_cfg, featurizer, seed=train_cfg.seed)
    result = train_model(
        model, featurizer, train_ex, dev_ex, train_cfg,
        csv_path=args.out, checkpoint_path=args.checkpoint, resume=resume,
        log=log.info)
    log.info("finished: %d steps, best dev em %.2f", result.steps, result.best_em)
    return 0


def _write_spans(fh, examples, spans) -> None:
    """One ``{"id", "start", "end", "text"}`` JSON line per decoded span."""
    for ex, span in zip(examples, spans):
        fh.write(json.dumps({"id": ex.id, "start": span[0], "end": span[1],
                             "text": span_text(ex, span)}) + "\n")


def cmd_eval(args: argparse.Namespace) -> int:
    _, train_cfg, _ = load_configs(args.config)
    model, featurizer = restore_model(load_checkpoint(args.checkpoint), args.checkpoint)
    examples = _load_dataset(args.data, args.format)
    loss, em, f1, spans = evaluate(model, featurizer, examples, train_cfg.batch_size)
    if args.predictions:
        with open(args.predictions, "w", encoding="utf-8") as fh:
            _write_spans(fh, examples, spans)
    print(json.dumps({"loss": loss, "em": em, "f1": f1, "n": len(examples)}))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    _, train_cfg, _ = load_configs(args.config)
    model, featurizer = restore_model(load_checkpoint(args.checkpoint), args.checkpoint)
    # label-free copies, so no batch carries targets and no loss is computed
    examples = [replace(ex, answer_start=None, answer_end=None)
                for ex in _load_dataset(args.data, args.format)]
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for chunk, _, spans in predict_batches(model, featurizer, examples,
                                               train_cfg.batch_size):
            _write_spans(out, chunk, spans)
    finally:
        if args.out:
            out.close()
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if args.threshold is not None and not (math.isfinite(args.threshold) and args.threshold > 0.0):
        # a NaN bar would fail every scenario yet exit 0, since no error is >= NaN
        raise ConfigError(f"--threshold must be finite and > 0, got {args.threshold}")
    names = args.scenario or None
    results = run_gradcheck(names, seed=args.seed)
    failed = []
    for name, err in results.items():
        limit = args.threshold if args.threshold is not None else threshold_for(name)
        status = "ok" if err < limit else "FAIL"
        print(f"{name}: max rel err {err:.3e} [{status}]")
        if err >= limit:
            failed.append((name, err, limit))
    if failed:
        name, err, limit = failed[0]
        raise NumericError(f"gradient check failed ({name}: {err:.3e} >= {limit})")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    model_cfg, train_cfg, task = load_configs(args.config, train={"seed": args.seed},
                                              task={"seed": args.seed})
    variants = tuple(args.variant or VARIANTS)
    rows = run_ablation(model_cfg, train_cfg, task, variants, log=log.info)
    payload = json.dumps(rows, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    print(payload)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    _, _, task = load_configs(args.config, task={"seed": args.seed})
    examples = gen_synthetic(task, args.split)
    with open(args.out, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps({
                "id": ex.id, "passage": ex.passage_tokens,
                "question": ex.question_tokens, "answer_start": ex.answer_start,
                "answer_end": ex.answer_end, "answers": ex.answer_texts}) + "\n")
    log.info("wrote %d examples to %s", len(examples), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decaprop",
        description="Densely connected attention reader: train and evaluate "
                    "span-extraction models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, data_required: bool = False) -> None:
        p.add_argument("--config", help="flat section.key=value config file")
        p.add_argument("--data", required=data_required, help="dataset path")
        p.add_argument("--format", choices=("jsonl", "squad"), default="jsonl",
                       help="dataset layout (default jsonl)")

    p = sub.add_parser("train", help="fit a model")
    common(p)
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.add_argument("--dev", help="held-out dataset for per-epoch metrics")
    p.add_argument("--out", help="metrics CSV path")
    p.add_argument("--checkpoint", help="checkpoint path, written every epoch")
    p.add_argument("--resume", action="store_true",
                   help="continue from an existing --checkpoint")
    p.add_argument("--variant", choices=VARIANTS, default="full",
                   help="ablation variant to train (default full)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset")
    common(p, data_required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--predictions", help="also write decoded spans (jsonl)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="decode spans for a dataset")
    common(p, data_required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", help="output jsonl path (default stdout)")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--scenario", action="append", help="limit to named scenarios")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=None,
                   help="override every scenario's pass bar "
                        "(default: 1e-4, 5e-3 for micro_model)")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("ablate", help="train every architecture variant")
    p.add_argument("--config", help="flat section.key=value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--variant", action="append", choices=VARIANTS,
                   help="limit to named variants")
    p.add_argument("--out", help="write the result table (json)")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("synth", help="write a synthetic span dataset")
    p.add_argument("--config", help="flat section.key=value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--split", choices=("train", "dev", "test"), default="train")
    p.add_argument("--out", required=True, help="output jsonl path")
    p.set_defaults(fn=cmd_synth)

    return parser


def _check_output_paths(args: argparse.Namespace) -> None:
    """Reject an output file that cannot be written before any work starts."""
    outputs = [getattr(args, "out", None), getattr(args, "predictions", None)]
    if args.command == "train":
        outputs.append(args.checkpoint)
    for path in filter(None, outputs):
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise ConfigError(f"cannot write {path}: directory {parent} does not exist")
        if not os.access(parent, os.W_OK):
            raise ConfigError(f"cannot write {path}: directory {parent} is not writable")
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: it is a directory")


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output_paths(args)
        status = args.fn(args)
        sys.stdout.flush()
        return status
    except DecapropError as exc:
        print(f"error:{exc.kind}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout early (``decaprop predict ... | head``).
        # Python's flush at exit would raise again, so point stdout at devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
