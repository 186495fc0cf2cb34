"""Seeded property test of the CLI contract on malformed data records.

Generated JSONL files (fields dropped or mistyped, out-of-range and reversed
spans, empty or whitespace-only text, non-ASCII text, lines that are no json
object, and well-formed records whose tokens and characters the checkpoint
has never seen) go through ``decaprop eval`` and ``decaprop predict``, and
so do generated SQuAD payloads (``--format squad``) with a defect at each
nesting level.  Each run must exit 0 with parseable output, or exit 1 with
exactly one ``error:<kind>:`` line on stderr and no traceback.
"""

import json
import random
import re
from collections import Counter

import pytest

from decaprop import cli
from decaprop.encoder import Featurizer
from decaprop.errors import DecapropError
from decaprop.model import ModelConfig, build_model
from decaprop.training import SyntheticTaskSpec, TrainConfig, gen_synthetic, train_model

CASES = 300
FIELDS = ("id", "passage", "question", "answer_start", "answer_end", "answers")
WRONG_TYPES = (True, False, 1.5, {"k": "v"}, None, [1, 2], ["t001", None])
TEXTS = ("t001 t002 t003 t004", "", "   ", "\t\n", "café naïve 東京 ☃ 😀", "Ω≈ç √∫ ˜µ ≤≥",
         "a", "t005, t006. t007!", "  ", "x" * 40)
NOT_OBJECTS = ("[1, 2]", "5", '"text"', "null", "true", "{not json", "[]", "1e999")
# outside the tiny checkpoint's vocabulary (t001...t020), most of them also
# outside its char vocabulary (t, 0-9): the featurizer spells them out
UNSEEN = ("<unk>", "<pad>", "", " ", "t999", "T001", "t0", "zzz", "xylophones", "t001t002",
          "ЖЖ", "東京", "😀", "t0_1", "<UNK>", "a" * 30)
ERROR_LINE = re.compile(r"^error:(%s): \S" % "|".join(
    sorted({cls.kind for cls in [DecapropError, *DecapropError.__subclasses__()]})))


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """One tiny trained checkpoint shared by every case."""
    task = SyntheticTaskSpec(vocab_size=20, passage_len=8, query_len=2, span_min=1,
                             span_max=1, distractors=0, n_train=4, n_dev=0, seed=0)
    cfg = ModelConfig(word_dim=4, char_dim=3, char_hidden=2, max_word_len=4, hidden=4,
                      layers=1, fm_factors=2)
    train = gen_synthetic(task, "train")
    featurizer = Featurizer.build(train, cfg.max_word_len)
    path = tmp_path_factory.mktemp("ckpt") / "tiny.ckpt"
    train_model(build_model(cfg, featurizer), featurizer, train, None,
                TrainConfig(batch_size=4, max_epochs=1), checkpoint_path=str(path))
    return str(path)


def valid_record(r: random.Random) -> dict:
    passage = r.choice([TEXTS[0], TEXTS[4], TEXTS[7], ["t001", "t002", "t003"]])
    rec = {"id": f"r{r.randrange(1000)}", "passage": passage,
           "question": r.choice(["t001 t002", ["t003"], "東京?"]),
           "answer_start": 0, "answer_end": r.randrange(2)}
    if r.random() < 0.5:
        rec["answers"] = ["t001"]
    return rec


def unseen_record(r: random.Random) -> dict:
    """A well-formed record whose tokens mix the vocabulary with tokens and
    characters the checkpoint has never seen, given as tokens or as text."""
    def words(n):
        return [r.choice(UNSEEN + ("t001", "t002", "t003")) for _ in range(n)]

    passage, question = words(r.randrange(2, 9)), words(r.randrange(1, 4))
    if r.random() < 0.5:
        # as text, tokenized on load; whitespace-only tokens would vanish
        passage = " ".join(["t001"] + passage)
        question = " ".join(question) + " t002"
    return {"id": f"u{r.randrange(1000)}", "passage": passage, "question": question,
            "answer_start": 0, "answer_end": r.randrange(2)}


def mutated_record(r: random.Random) -> str:
    """One json line: a valid record with one or two defects, or no object."""
    if r.random() < 0.12:
        return r.choice(NOT_OBJECTS)
    rec = valid_record(r)
    for _ in range(r.choice((1, 1, 2))):
        how = r.choice(("drop", "mistype", "span", "text", "text"))
        if how == "drop":
            rec.pop(r.choice(FIELDS), None)
        elif how == "mistype":
            rec[r.choice(FIELDS)] = r.choice(WRONG_TYPES)
        elif how == "span":
            start, end = r.choice([(-1, 0), (0, 99), (3, 1), (0, -2), (2 ** 40, 2 ** 40),
                                   (1, 1), (None, 0), (0, None)])
            rec["answer_start"], rec["answer_end"] = start, end
        else:
            key = r.choice(("passage", "question"))
            rec[key] = r.choice(TEXTS + ([], [""], [" "], ["é", "東京"]))
        if r.random() < 0.2:
            rec["answers"] = r.choice([[], ["ü"], [3], "t001", [None]])
    return json.dumps(rec, ensure_ascii=r.random() < 0.5)


def check_contract(rc: int, out: str, err: str, command: str, n_lines: int) -> str | None:
    """None when the run kept the contract, else what broke it."""
    if "Traceback" in err:
        return "traceback on stderr"
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if rc == 1:
        if len(errors) != 1 or not ERROR_LINE.match(errors[0]):
            return f"exit 1 with error lines {errors!r}"
        return None
    if rc != 0 or errors:
        return f"exit {rc} with error lines {errors!r}"
    try:
        rows = [json.loads(line) for line in out.splitlines()]
    except json.JSONDecodeError as exc:
        return f"unparseable output: {exc}"
    if command == "eval":
        ok = len(rows) == 1 and set(rows[0]) == {"loss", "em", "f1", "n"}
    else:
        ok = 1 <= len(rows) <= n_lines and all(
            set(row) == {"id", "start", "end", "text"} and 0 <= row["start"] <= row["end"]
            for row in rows)
    return None if ok else f"unexpected output {out[:200]!r}"


def run_cases(checkpoint, data, cases, capsys, fmt: str = "jsonl") -> tuple[list[str], Counter]:
    """Each case's lines through ``eval`` and ``predict``: the contract
    breaks and the count of each exit status.  A JSONL case predicts at
    most one row per line, a SQuAD case (one line) one per question."""
    broken, outcomes = [], Counter()
    for case, lines in enumerate(cases):
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rows = len(lines) if fmt == "jsonl" else SQUAD_QUESTIONS
        for command in ("eval", "predict"):
            try:
                rc = cli.main([command, "--checkpoint", checkpoint, "--data", str(data),
                               "--format", fmt])
            except Exception as exc:  # the contract allows no escaping exception
                raise AssertionError(f"case {case} {command} raised on {lines!r}") from exc
            captured = capsys.readouterr()
            problem = check_contract(rc, captured.out, captured.err, command, rows)
            outcomes[rc] += 1
            if problem:
                broken.append(f"case {case} {command}: {problem}; input {lines!r}")
    return broken, outcomes


def test_malformed_records_keep_the_cli_contract(checkpoint, tmp_path, capsys):
    r = random.Random(20261018)
    cases = []
    for _ in range(CASES):
        lines = [json.dumps(valid_record(r)) for _ in range(r.randrange(2))]
        lines.insert(r.randrange(len(lines) + 1), mutated_record(r))
        cases.append(lines)
    broken, outcomes = run_cases(checkpoint, tmp_path / "data.jsonl", cases, capsys)
    assert not broken, f"{len(broken)} contract breaks, first: {broken[:3]}"
    # the generator reaches both sides of the contract
    assert outcomes[0] > 20 and outcomes[1] > 100


def test_unseen_tokens_and_chars_keep_the_cli_contract(checkpoint, tmp_path, capsys):
    """Well-formed records made of tokens outside the checkpoint's vocabulary
    and characters outside its char vocabulary (the featurizer's UNK
    fallback), mixed with malformed ones, keep the contract; a file of
    well-formed records only is evaluated and predicted with exit 0."""
    r = random.Random(20261019)
    cases = []
    for _ in range(40):
        lines = [json.dumps(unseen_record(r), ensure_ascii=r.random() < 0.5)
                 for _ in range(r.randrange(1, 4))]
        if r.random() < 0.25:
            lines.insert(r.randrange(len(lines) + 1), mutated_record(r))
        cases.append(lines)
    broken, outcomes = run_cases(checkpoint, tmp_path / "data.jsonl", cases, capsys)
    assert not broken, f"{len(broken)} contract breaks, first: {broken[:3]}"
    clean = [lines for lines in cases if all(line.startswith('{"id": "u') for line in lines)]
    assert len(clean) >= 20
    broken, outcomes = run_cases(checkpoint, tmp_path / "clean.jsonl", clean, capsys)
    assert not broken and set(outcomes) == {0}, outcomes


# SQuAD payloads: one article of one or two paragraphs, each with one or two
# questions whose answer is one of the context's words
SQUAD_WORDS = ("t001", "t002", "t003", "t004", "café", "東京")
SQUAD_QUESTIONS = 4
BAD_STARTS = (True, False, "0", "t001", -1, -40, 2 ** 40, 1.0, None)


def valid_squad(r: random.Random) -> dict:
    paragraphs = []
    for _ in range(r.randrange(1, 3)):
        words = [r.choice(SQUAD_WORDS) for _ in range(r.randrange(1, 6))]
        context = r.choice((" ", ", ", "  ")).join(words)
        qas = []
        for k in range(r.randrange(1, 3)):
            text = r.choice(words)
            qas.append({"id": f"q{len(paragraphs)}{k}", "question": r.choice(["t001 t002", "東京?"]),
                        "answers": [{"text": text, "answer_start": context.index(text)}]})
        paragraphs.append({"context": context, "qas": qas})
    return {"version": "1.1", "data": [{"title": "t", "paragraphs": paragraphs}]}


def mutated_squad(r: random.Random) -> str:
    """One SQuAD payload with one or two defects, each at one nesting level
    (the payload, an article, a paragraph, a question or an answer): a
    field dropped or mistyped, an element of the wrong type, an
    ``answer_start`` that is a bool, a string, negative or past the context,
    an empty context, or an answer that maps to no token; or no object."""
    if r.random() < 0.08:
        return r.choice(NOT_OBJECTS + ('{"version": "1.1"}', '{"data": {}}'))
    payload = valid_squad(r)
    article = payload["data"][0]
    para = article["paragraphs"][0]
    qa = para["qas"][0]
    answer = qa["answers"][0]
    levels = ((payload, ("data",)), (article, ("paragraphs",)), (para, ("context", "qas")),
              (qa, ("id", "question", "answers")), (answer, ("text", "answer_start")))
    containers = ((payload["data"], 0), (article["paragraphs"], 0), (para["qas"], 0),
                  (qa["answers"], 0))
    for _ in range(r.choice((1, 1, 2))):
        context = para.get("context")
        context = context if isinstance(context, str) else ""
        how = r.choice(("drop", "mistype", "element", "start", "start", "context", "no_token"))
        if how in ("drop", "mistype"):
            level, fields = r.choice(levels)
            field = r.choice(fields)
            if how == "drop":
                level.pop(field, None)
            else:
                level[field] = r.choice(WRONG_TYPES + ("t001", 7))
        elif how == "element":
            items, i = r.choice(containers)
            items[i] = r.choice(WRONG_TYPES + ("t001", 7))
        elif how == "start":
            start = r.choice(BAD_STARTS + ("past",))
            answer["answer_start"] = len(context) + r.randrange(3) if start == "past" else start
        elif how == "context":
            para["context"] = r.choice(("", " ", "\t\n"))
        else:
            # empty text, or the whitespace between two words: no token overlaps it
            gap = context.find(" ")
            answer["text"], answer["answer_start"] = ("", 0) if gap < 0 or r.random() < 0.5 \
                else (" ", gap)
    return json.dumps(payload, ensure_ascii=r.random() < 0.5)


def test_malformed_squad_payloads_keep_the_cli_contract(checkpoint, tmp_path, capsys):
    r = random.Random(20261020)
    cases = [[mutated_squad(r)] for _ in range(150)]
    broken, outcomes = run_cases(checkpoint, tmp_path / "data.json", cases, capsys, "squad")
    assert not broken, f"{len(broken)} contract breaks, first: {broken[:3]}"
    # the generator reaches both sides of the contract
    assert outcomes[0] > 20 and outcomes[1] > 60, outcomes
    # well-formed payloads run clean
    clean = [[json.dumps(valid_squad(r))] for _ in range(10)]
    broken, outcomes = run_cases(checkpoint, tmp_path / "clean.json", clean, capsys, "squad")
    assert not broken and set(outcomes) == {0}, (broken[:3], outcomes)


# command: its input-path flags, and for each flag the other arguments that
# make the rest of the command line valid (DATA, CKPT and OUT stand for a
# readable data file, the tiny checkpoint and a writable output path)
INPUT_PATHS = {
    "train": {"--config": [], "--data": [], "--dev": ["--data", "DATA"],
              "--checkpoint": ["--resume"]},
    "eval": {"--config": ["--data", "DATA", "--checkpoint", "CKPT"],
             "--data": ["--checkpoint", "CKPT"], "--checkpoint": ["--data", "DATA"]},
    "predict": {"--config": ["--data", "DATA", "--checkpoint", "CKPT"],
                "--data": ["--checkpoint", "CKPT"], "--checkpoint": ["--data", "DATA"]},
    "synth": {"--config": ["--out", "OUT"]},
    "ablate": {"--config": []},
}


def test_unreadable_input_paths_keep_the_cli_contract(checkpoint, tmp_path, capsys):
    """Every input-path flag of train, eval, predict, synth and ablate, given
    a missing file or a directory, exits 1 with exactly one
    ``error:<kind>:`` line that names the path, and no traceback."""
    data = tmp_path / "data.jsonl"
    data.write_text(json.dumps(valid_record(random.Random(0))) + "\n", encoding="utf-8")
    (tmp_path / "a_directory").mkdir()
    stand_ins = {"DATA": str(data), "CKPT": checkpoint, "OUT": str(tmp_path / "out.jsonl")}
    broken, cases = [], 0
    for command, flags in INPUT_PATHS.items():
        for flag, rest in flags.items():
            for bad in (tmp_path / "missing", tmp_path / "a_directory"):
                argv = [command, flag, str(bad), *(stand_ins.get(a, a) for a in rest)]
                try:
                    rc = cli.main(argv)
                except Exception as exc:  # the contract allows no escaping exception
                    raise AssertionError(f"{argv} raised") from exc
                err = capsys.readouterr().err
                problem = check_contract(rc, "", err, command, 0)
                if rc != 1:
                    problem = f"exit {rc}"
                elif problem is None and str(bad) not in err:
                    problem = f"the error does not name the path: {err!r}"
                if problem:
                    broken.append(f"{argv}: {problem}")
                cases += 1
    assert not broken, broken
    assert cases == 2 * sum(len(flags) for flags in INPUT_PATHS.values())
