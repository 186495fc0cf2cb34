"""Dataset loaders, the binary checkpoint format, and the CLI end to end."""

import hashlib
import json
import os
import re
import struct
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from decaprop import cli, model as model_module
from decaprop.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from decaprop.data import (TokenizedExample, _char_to_token_span, load_jsonl,
                           load_squad, tokenize)
from decaprop.encoder import Featurizer
from decaprop.errors import ConfigError, DataError, IntegrityError
from decaprop.model import ModelConfig, build_model
from decaprop.numerics import ParamStore
from decaprop.training import (SyntheticTaskSpec, TrainConfig, collate, gen_synthetic,
                               init_optimizer_state, restore_model, train_model)


# ---------------------------------------------------------------------------
# tokenization


def test_tokenize_words_and_punctuation():
    tokens, offsets = tokenize("The cat, sat.")
    assert tokens == ["the", "cat", ",", "sat", "."]
    assert offsets == [(0, 3), (4, 7), (7, 8), (9, 12), (12, 13)]


def test_tokenize_empty():
    assert tokenize("")[0] == []


# ---------------------------------------------------------------------------
# jsonl loading


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_jsonl_round_trip(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [
        json.dumps({"id": "a", "passage": "one two three", "question": "which",
                    "answer_start": 1, "answer_end": 2}),
        json.dumps({"passage": ["x", "y"], "question": ["q"],
                    "answer_start": 0, "answer_end": 0,
                    "answers": ["x", "the x"]}),
    ])
    examples = load_jsonl(str(path))
    assert examples[0].passage_tokens == ["one", "two", "three"]
    assert examples[0].answer_texts == ["two three"]  # defaults to the span text
    assert examples[1].id == "line-2"
    assert examples[1].answer_texts == ["x", "the x"]


def test_load_jsonl_invalid_json_names_line(tmp_path):
    path = tmp_path / "d.jsonl"
    for bad, message in (("{not json", "invalid json"), ("5", "expected a json object")):
        write_lines(path, ['{"passage": "a", "question": "b", "answer_start": 0, "answer_end": 0}',
                           bad])
        with pytest.raises(DataError, match=rf":2: {message}"):
            load_jsonl(str(path))


def test_load_jsonl_missing_fields(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [json.dumps({"passage": "a b", "answer_start": 0})])
    with pytest.raises(DataError, match=r":1: missing fields"):
        load_jsonl(str(path))


def test_load_jsonl_unlabeled_lines(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [json.dumps({"id": "u", "passage": "one two", "question": "q"}),
                       json.dumps({"passage": ["x"], "question": ["q"],
                                   "answer_start": 0, "answer_end": 0})])
    unlabeled, labeled = load_jsonl(str(path))
    assert not unlabeled.labeled and unlabeled.answer_start is None
    assert unlabeled.answer_end is None and unlabeled.answer_texts == []
    assert labeled.labeled and labeled.answer_texts == ["x"]


@pytest.mark.parametrize("given", ["answer_start", "answer_end"])
def test_load_jsonl_half_a_span(tmp_path, given):
    path = tmp_path / "d.jsonl"
    write_lines(path, [json.dumps({"passage": "a b", "question": "q", given: 0})])
    with pytest.raises(DataError, match=r":1: example .* must be given together"):
        load_jsonl(str(path))


@pytest.mark.parametrize("field", ["passage", "question"])
@pytest.mark.parametrize("value", [5, None, {"a": 1}, ["a", 2]])
def test_load_jsonl_bad_text_type(tmp_path, field, value):
    path = tmp_path / "d.jsonl"
    row = {"passage": "a b", "question": "q", field: value}
    write_lines(path, [json.dumps({"passage": "a", "question": "q"}), json.dumps(row)])
    with pytest.raises(DataError,
                       match=rf":2: {field} must be a string or a list of strings"):
        load_jsonl(str(path))


@pytest.mark.parametrize("field", ["answer_start", "answer_end"])
@pytest.mark.parametrize("value", ["1", 1.0, True, False])
def test_load_jsonl_span_end_types(tmp_path, field, value):
    path = tmp_path / "d.jsonl"
    row = {"passage": "a b", "question": "q", "answer_start": 1, "answer_end": 1, field: value}
    write_lines(path, [json.dumps({"passage": "a", "question": "q"}), json.dumps(row)])
    with pytest.raises(DataError, match=rf":2: {field} must be an integer, "
                                        rf"got {type(value).__name__}"):
        load_jsonl(str(path))


@pytest.mark.parametrize("value,message", [
    (5, "answers must be a list, got int"),
    ("bc", "answers must be a list, got str"),
    ({"a": "b"}, "answers must be a list, got dict"),
    ([1], r"answers\[0\] must be a string, got int"),
    (["b", None], r"answers\[1\] must be a string, got NoneType"),
], ids=["int", "str", "object", "int_item", "null_item"])
def test_load_jsonl_answers_type(tmp_path, value, message):
    path = tmp_path / "d.jsonl"
    row = {"passage": "a b", "question": "q", "answer_start": 1, "answer_end": 1,
           "answers": value}
    write_lines(path, [json.dumps({"passage": "a", "question": "q"}), json.dumps(row)])
    with pytest.raises(DataError, match=rf":2: {message}"):
        load_jsonl(str(path))


def test_load_jsonl_span_outside_passage(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [json.dumps({"passage": "a b", "question": "q",
                                   "answer_start": 1, "answer_end": 5})])
    with pytest.raises(DataError, match=r":1: example .* outside passage"):
        load_jsonl(str(path))


def test_load_jsonl_empty_file(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text("\n\n", encoding="utf-8")
    with pytest.raises(DataError, match="no examples"):
        load_jsonl(str(path))
    with pytest.raises(DataError, match="cannot read data file"):
        load_jsonl(str(tmp_path / "missing.jsonl"))


@pytest.mark.parametrize("given, expected", [
    ({"id": "ab 1"}, "ab 1"), ({"id": ""}, ""), ({"id": 7}, "7"), ({"id": -12}, "-12"),
    ({"id": None}, "line-2"), ({}, "line-2"),
], ids=["string", "empty-string", "int", "negative-int", "null", "missing"])
def test_load_jsonl_id(tmp_path, given, expected):
    """A string id is kept as it is and an integer one becomes its decimal
    string; a missing or null id gets the line's default."""
    path = tmp_path / "d.jsonl"
    write_lines(path, [json.dumps({"id": "x", "passage": "a", "question": "q"}),
                       json.dumps({"passage": "a b", "question": "q", **given})])
    assert load_jsonl(str(path))[1].id == expected


@pytest.mark.parametrize("value", [True, False, 1.5, 2.0, {"a": 1}, ["a"]],
                         ids=["true", "false", "float", "integral-float", "object", "list"])
def test_load_jsonl_id_types(tmp_path, value):
    path = tmp_path / "d.jsonl"
    write_lines(path, [json.dumps({"passage": "a", "question": "q"}),
                       json.dumps({"id": value, "passage": "a b", "question": "q"})])
    with pytest.raises(DataError, match=rf":2: id must be a string or an integer, "
                                        rf"got {type(value).__name__}"):
        load_jsonl(str(path))


@pytest.mark.parametrize("text", ['{"id": ' + "1" * 5000 + "}", "[" * 100000],
                         ids=["long-integer", "deep-nesting"])
def test_load_json_that_python_cannot_take(tmp_path, text):
    """Text json.loads refuses with a ValueError or a RecursionError rather
    than a JSONDecodeError is invalid json too, in both layouts."""
    path = tmp_path / "d.json"
    path.write_text(text + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=r":1: invalid json"):
        load_jsonl(str(path))
    with pytest.raises(DataError, match=r"d.json: invalid json"):
        load_squad(str(path))


# ---------------------------------------------------------------------------
# char offsets to token spans


OFFSETS = [(0, 3), (4, 7), (8, 13), (14, 18), (19, 23)]


def test_char_span_covers_whole_tokens():
    assert _char_to_token_span(OFFSETS, 14, 23) == (3, 4)


def test_char_span_partial_word():
    assert _char_to_token_span(OFFSETS, 15, 17) == (3, 3)


def test_char_span_out_of_range():
    assert _char_to_token_span(OFFSETS, 30, 35) is None
    assert _char_to_token_span([], 0, 1) is None


def squad_payload():
    return {"data": [{"title": "t", "paragraphs": [{
        "context": "One two three four five.",
        "qas": [
            {"id": "q1", "question": "Which words?",
             "answers": [{"text": "four five", "answer_start": 14}]},
            {"id": "q2", "question": "Where?",
             "answers": [{"text": "zebra", "answer_start": 200}]},
            {"id": "q3", "question": "",
             "answers": [{"text": "four", "answer_start": 14}]},
            {"id": "q4", "question": "First mappable?",
             "answers": [{"text": "zebra", "answer_start": 200},
                         {"text": "two", "answer_start": 4}]},
        ]}]}]}


def test_load_squad_maps_offsets_and_counts_drops(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(squad_payload()), encoding="utf-8")
    examples, dropped = load_squad(str(path))
    assert dropped == 2  # unmappable answer, empty question
    by_id = {e.id: e for e in examples}
    assert (by_id["q1"].answer_start, by_id["q1"].answer_end) == (3, 4)
    assert (by_id["q4"].answer_start, by_id["q4"].answer_end) == (1, 1)
    assert by_id["q4"].answer_texts == ["zebra", "two"]


def test_load_squad_requires_data_field(tmp_path):
    path = tmp_path / "s.json"
    path.write_text("{}", encoding="utf-8")
    with pytest.raises(DataError, match="missing top-level 'data'"):
        load_squad(str(path))
    with pytest.raises(DataError, match="cannot read data file"):
        load_squad(str(tmp_path / "missing.json"))


QA = ("data", 0, "paragraphs", 0, "qas", 0)


@pytest.mark.parametrize("path, value, message", [
    (("data",), {"title": "t"}, "s.json: data must be a list, got dict"),
    (("data", 0), "article", r"s.json: data\[0\]: article must be an object, got str"),
    (("data", 0, "paragraphs"), None, r"data\[0\]: paragraphs must be a list, got NoneType"),
    (("data", 0, "paragraphs", 0), [], r"paragraphs\[0\]: paragraph must be an object"),
    (("data", 0, "paragraphs", 0, "context"), 5, r"paragraphs\[0\]: context must be a string"),
    (("data", 0, "paragraphs", 0, "qas"), {}, r"paragraphs\[0\]: qas must be a list"),
    (QA, "q1", r"paragraphs\[0\]: qa must be an object, got str"),
    (QA + ("question",), ["which"], "qa q1: question must be a string, got list"),
    (QA + ("answers",), "four five", "qa q1: answers must be a list, got str"),
    (QA + ("answers", 0), 14, "qa q1: answer must be an object, got int"),
    (QA + ("answers", 0, "text"), 4.5, "qa q1: answer text must be a string, got float"),
    (QA + ("answers", 0, "answer_start"), "14", "qa q1: answer_start must be an integer, got str"),
    (QA + ("answers", 0, "answer_start"), True, "qa q1: answer_start must be an integer, got bool"),
    (QA + ("answers", 0, "answer_start"), 14.0, "qa q1: answer_start must be an integer, got float"),
], ids=["data", "article", "paragraphs", "paragraph", "context", "qas", "qa", "question",
        "answers", "answer", "text", "answer_start-str", "answer_start-bool",
        "answer_start-float"])
def test_load_squad_field_types(tmp_path, path, value, message):
    payload = squad_payload()
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    target = tmp_path / "s.json"
    target.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DataError, match=message):
        load_squad(str(target))


@pytest.mark.parametrize("value, expected", [(5, "5"), (None, "qa-0"), ("q 1", "q 1")],
                         ids=["int", "null", "string"])
def test_load_squad_id(tmp_path, value, expected):
    payload = squad_payload()
    payload["data"][0]["paragraphs"][0]["qas"][0]["id"] = value
    path = tmp_path / "s.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert load_squad(str(path))[0][0].id == expected


@pytest.mark.parametrize("value", [True, 1.5, {"a": 1}], ids=["bool", "float", "object"])
def test_load_squad_id_types(tmp_path, value):
    payload = squad_payload()
    payload["data"][0]["paragraphs"][0]["qas"][1]["id"] = value
    path = tmp_path / "s.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DataError, match=rf"paragraphs\[0\]\.qas\[1\]: id must be a string "
                                        rf"or an integer, got {type(value).__name__}"):
        load_squad(str(path))


def test_example_validate():
    with pytest.raises(DataError, match="empty passage"):
        TokenizedExample("x", [], ["q"], 0, 0).validate()
    with pytest.raises(DataError, match="outside passage"):
        TokenizedExample("x", ["a"], ["q"], 0, 1).validate()
    with pytest.raises(DataError, match="must be given together"):
        TokenizedExample("x", ["a"], ["q"], 0).validate()
    TokenizedExample("x", ["a"], ["q"]).validate()


# ---------------------------------------------------------------------------
# checkpoints


def sample_state(rng):
    store = ParamStore()
    store.register("layer.w", rng.normal(size=(3, 2)))
    store.register("layer.b", np.zeros(2))
    store.register("emb", rng.normal(size=(4, 3)), trainable=False)
    opt = init_optimizer_state("adam", store)
    opt["t"] = 7
    opt["m"]["layer.w"] += rng.normal(size=(3, 2))
    rng_state = np.random.default_rng(3).bit_generator.state
    train_state = {"epoch": 2, "step": 11, "lr": 0.25, "history": [10.0, 20.0]}
    return store, opt, rng_state, train_state


def test_checkpoint_round_trip(tmp_path, rng):
    store, opt, rng_state, train_state = sample_state(rng)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, store, {"hidden": 4}, opt, rng_state, train_state,
                    extra={"note": "x"})
    ck = load_checkpoint(path)
    assert ck["version"] == 1
    assert ck["model_config"] == {"hidden": 4}
    assert ck["train_state"] == train_state
    assert ck["extra"] == {"note": "x"}
    assert set(ck["params"]) == {"layer.w", "layer.b", "emb"}
    for name, p in store.items():
        np.testing.assert_array_equal(ck["params"][name], p.data)
    assert ck["optimizer"]["kind"] == "adam" and ck["optimizer"]["t"] == 7
    np.testing.assert_array_equal(ck["optimizer"]["m"]["layer.w"], opt["m"]["layer.w"])
    # restoring into a fresh rng reproduces the stream
    r = np.random.default_rng(99)
    r.bit_generator.state = ck["rng_state"]
    np.testing.assert_array_equal(r.normal(size=3), np.random.default_rng(3).normal(size=3))


def test_checkpoint_load_values_round_trip(tmp_path, rng):
    store, opt, rng_state, train_state = sample_state(rng)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, store, {}, opt, rng_state, train_state)
    before = {n: p.data.copy() for n, p in store.items()}
    with store.writable():
        for _, p in store.items():
            p.data += 1.0
    store.load_values(load_checkpoint(path)["params"])
    for name, p in store.items():
        np.testing.assert_array_equal(p.data, before[name])


def checkpoint_file(tmp_path, rng):
    store, opt, rng_state, train_state = sample_state(rng)
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), store, {}, opt, rng_state, train_state)
    return path


def test_checkpoint_rejects_bad_magic(tmp_path, rng):
    path = checkpoint_file(tmp_path, rng)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError, match="bad magic"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_flipped_byte(tmp_path, rng):
    path = checkpoint_file(tmp_path, rng)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError, match="checksum mismatch"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_truncation(tmp_path, rng):
    path = checkpoint_file(tmp_path, rng)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])
    with pytest.raises(IntegrityError):
        load_checkpoint(str(path))
    path.write_bytes(raw[:10])
    with pytest.raises(IntegrityError, match="too short"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_future_version(tmp_path, rng):
    path = checkpoint_file(tmp_path, rng)
    raw = bytearray(path.read_bytes())
    body = raw[:-32]
    body[len(MAGIC)] = 9  # little-endian version field
    digest = hashlib.sha256(bytes(body)).digest()
    path.write_bytes(bytes(body) + digest)
    with pytest.raises(IntegrityError, match="unsupported checkpoint version 9"):
        load_checkpoint(str(path))


def test_checkpoint_missing_file():
    with pytest.raises(IntegrityError, match="cannot read"):
        load_checkpoint("/nonexistent/m.ckpt")


# ---------------------------------------------------------------------------
# CLI


TINY_CONFIG = """\
# tiny end-to-end run
model.word_dim = 4
model.char_dim = 3
model.char_hidden = 2
model.max_word_len = 4
model.hidden = 4
model.layers = 2
model.fm_factors = 2
train.batch_size = 4
train.max_epochs = 1
train.lr = 0.005
task.vocab_size = 20
task.passage_len = 8
task.query_len = 2
task.span_min = 1
task.span_max = 1
task.distractors = 0
task.n_train = 12
task.n_dev = 6
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG, encoding="utf-8")
    return str(path)


def test_cli_synth_writes_jsonl(tmp_path, tiny_config):
    out = tmp_path / "synth.jsonl"
    assert cli.main(["synth", "--config", tiny_config, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 12
    row = json.loads(lines[0])
    assert set(row) == {"id", "passage", "question", "answer_start",
                        "answer_end", "answers"}


def test_cli_ablate_writes_rows(tmp_path, tiny_config, capsys):
    out = tmp_path / "ablation.json"
    assert cli.main(["ablate", "--config", tiny_config, "--variant", "full",
                     "--variant", "no_gated", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed == out.read_text(encoding="utf-8")
    rows = json.loads(printed)
    assert [row["variant"] for row in rows] == ["full", "no_gated"]
    for row in rows:
        assert set(row) == {"variant", "em", "f1", "steps", "final_loss"}
        assert row["steps"] == 3 and np.isfinite(row["final_loss"])
        assert 0.0 <= row["em"] <= 100.0 and 0.0 <= row["f1"] <= 100.0


def test_cli_train_stops_when_loss_turns_non_finite(tmp_path, tiny_config, capsys):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(Path(tiny_config).read_text() + "train.lr = 1e300\n", encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "error:numeric: training diverged at step 2: loss nan"
    assert "RuntimeWarning" not in err
    assert "Traceback" not in err


def test_cli_train_eval_predict_resume(tmp_path, tiny_config, capsys, monkeypatch):
    csv_path = tmp_path / "metrics.csv"
    ckpt = tmp_path / "model.ckpt"
    rc = cli.main(["train", "--config", tiny_config,
                   "--out", str(csv_path), "--checkpoint", str(ckpt)])
    assert rc == 0
    assert csv_path.read_text().splitlines()[0] == "epoch,split,loss,em,f1,lr,wall_seconds"
    assert ckpt.exists()

    data = tmp_path / "dev.jsonl"
    assert cli.main(["synth", "--config", tiny_config, "--split", "dev",
                     "--out", str(data)]) == 0
    capsys.readouterr()

    preds = tmp_path / "preds.jsonl"
    rc = cli.main(["eval", "--config", tiny_config, "--checkpoint", str(ckpt),
                   "--data", str(data), "--predictions", str(preds)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"loss", "em", "f1", "n"} and report["n"] == 6
    pred_rows = [json.loads(l) for l in preds.read_text().splitlines()]
    assert len(pred_rows) == 6
    assert all(set(r) == {"id", "start", "end", "text"} for r in pred_rows)

    out = tmp_path / "spans.jsonl"
    rc = cli.main(["predict", "--config", tiny_config, "--checkpoint", str(ckpt),
                   "--data", str(data), "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 6

    # resume picks up at epoch 1 and runs one more
    monkeypatch.setenv("DECAPROP_TRAIN_MAX_EPOCHS", "2")
    rc = cli.main(["train", "--config", tiny_config, "--out", str(csv_path),
                   "--checkpoint", str(ckpt), "--resume"])
    assert rc == 0
    rows = csv_path.read_text().splitlines()
    assert len(rows) == 1 + 4  # header + (train+dev) x 2 epochs, no second header
    assert rows[3].startswith("2,train")


def test_cli_resume_and_eval_from_a_per_epoch_checkpoint(tmp_path, tiny_config, capsys,
                                                         monkeypatch):
    """A checkpoint written by the training loop itself, as an interrupted run
    leaves it, serves both --resume and eval."""
    model_cfg, train_cfg, task = cli.load_configs(tiny_config)
    train_ex, dev_ex = gen_synthetic(task, "train"), gen_synthetic(task, "dev")
    featurizer = Featurizer.build(train_ex + dev_ex, model_cfg.max_word_len)
    model = build_model(model_cfg, featurizer, seed=train_cfg.seed)
    ckpt = tmp_path / "model.ckpt"
    train_model(model, featurizer, train_ex, dev_ex, replace(train_cfg, max_epochs=1),
                checkpoint_path=str(ckpt))

    data = tmp_path / "dev.jsonl"
    assert cli.main(["synth", "--config", tiny_config, "--split", "dev",
                     "--out", str(data)]) == 0
    assert cli.main(["eval", "--config", tiny_config, "--checkpoint", str(ckpt),
                     "--data", str(data)]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 6
    monkeypatch.setenv("DECAPROP_TRAIN_MAX_EPOCHS", "2")
    assert cli.main(["train", "--config", tiny_config, "--checkpoint", str(ckpt),
                     "--resume"]) == 0
    assert load_checkpoint(str(ckpt))["train_state"]["epoch"] == 2


def trained_checkpoint(tmp_path, tiny_config) -> Path:
    """A one-epoch tiny checkpoint written by ``decaprop train``."""
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["train", "--config", tiny_config, "--checkpoint", str(ckpt)]) == 0
    return ckpt


@pytest.mark.parametrize("flags, env, message", [
    (["--variant", "no_gated"], {}, "model.gated_attention is False, but the checkpoint"),
    ([], {"DECAPROP_MODEL_HIDDEN": "6"}, "model.hidden is 6, but the checkpoint"),
], ids=["variant", "model-key"])
def test_cli_resume_refuses_a_different_model(tmp_path, tiny_config, capsys, caplog,
                                              monkeypatch, flags, env, message):
    ckpt = trained_checkpoint(tmp_path, tiny_config)
    before = ckpt.read_bytes()
    capsys.readouterr()
    caplog.clear()
    caplog.set_level("INFO", logger="decaprop")
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setenv("DECAPROP_TRAIN_MAX_EPOCHS", "2")
    assert cli.main(["train", "--config", tiny_config, "--checkpoint", str(ckpt),
                     "--resume", *flags]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith(f"error:config: {message}")
    assert "Traceback" not in "\n".join(err)
    # refused before any data is loaded or generated
    assert caplog.messages == []
    assert ckpt.read_bytes() == before


def test_cli_resume_refuses_a_different_optimizer(tmp_path, tiny_config, capsys, caplog,
                                                  monkeypatch):
    ckpt = trained_checkpoint(tmp_path, tiny_config)
    before = ckpt.read_bytes()
    capsys.readouterr()
    caplog.clear()
    caplog.set_level("INFO", logger="decaprop")
    monkeypatch.setenv("DECAPROP_TRAIN_OPTIMIZER", "adadelta")
    monkeypatch.setenv("DECAPROP_TRAIN_MAX_EPOCHS", "2")
    assert cli.main(["train", "--config", tiny_config, "--checkpoint", str(ckpt),
                     "--resume"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error:config: train.optimizer is 'adadelta', but the checkpoint was trained "
        "with 'adam'")
    assert caplog.messages == []
    assert ckpt.read_bytes() == before


def test_cli_resume_refuses_another_task_seed(tmp_path, tiny_config, capsys, monkeypatch):
    ckpt = trained_checkpoint(tmp_path, tiny_config)
    before = ckpt.read_bytes()
    capsys.readouterr()
    monkeypatch.setenv("DECAPROP_TRAIN_MAX_EPOCHS", "2")
    assert cli.main(["train", "--config", tiny_config, "--checkpoint", str(ckpt),
                     "--resume", "--seed", "7"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error:config: the training or dev examples differ from those the checkpoint "
        "was trained on; a resumed run keeps its data")
    assert ckpt.read_bytes() == before


def test_cli_resume_reports_the_best_em_of_the_whole_run(tmp_path, tiny_config, caplog,
                                                         monkeypatch):
    ckpt = trained_checkpoint(tmp_path, tiny_config)
    first = load_checkpoint(str(ckpt))["train_state"]["history"]
    monkeypatch.setenv("DECAPROP_TRAIN_MAX_EPOCHS", "2")
    caplog.set_level("INFO", logger="decaprop")
    assert cli.main(["train", "--config", tiny_config, "--checkpoint", str(ckpt),
                     "--resume"]) == 0
    history = load_checkpoint(str(ckpt))["train_state"]["history"]
    # the restored epoch scored higher than the resumed one
    assert history[:1] == first and history[0] > history[1]
    assert caplog.messages[-1] == f"finished: 6 steps, best dev em {history[0]:.2f}"


def test_cli_predict_unlabeled_data(tmp_path, tiny_config, capsys):
    """predict decodes data without answer spans; eval and train refuse it."""
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["train", "--config", tiny_config, "--checkpoint", str(ckpt)]) == 0
    labeled = tmp_path / "dev.jsonl"
    assert cli.main(["synth", "--config", tiny_config, "--split", "dev",
                     "--out", str(labeled)]) == 0
    data = tmp_path / "unlabeled.jsonl"
    rows = [json.loads(l) for l in labeled.read_text().splitlines()]
    write_lines(data, [json.dumps({k: r[k] for k in ("id", "passage", "question")})
                       for r in rows])

    out = tmp_path / "spans.jsonl"
    assert cli.main(["predict", "--config", tiny_config, "--checkpoint", str(ckpt),
                     "--data", str(data), "--out", str(out)]) == 0
    spans = [json.loads(l) for l in out.read_text().splitlines()]
    assert [s["id"] for s in spans] == [r["id"] for r in rows]
    # the same spans as eval writes for the labeled copy of the data
    preds = tmp_path / "preds.jsonl"
    assert cli.main(["eval", "--config", tiny_config, "--checkpoint", str(ckpt),
                     "--data", str(labeled), "--predictions", str(preds)]) == 0
    assert [json.loads(l) for l in preds.read_text().splitlines()] == spans
    capsys.readouterr()

    for argv in (["eval", "--checkpoint", str(ckpt)], ["train"]):
        assert cli.main(argv + ["--config", tiny_config, "--data", str(data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:data: example dev-0: no answer_start/answer_end")


def test_cli_predict_mixed_lengths_in_input_order(tmp_path, tiny_config):
    """predict forwards each batch in length groups, yet writes its records
    in input order with the spans batch-1 predict decodes."""
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["train", "--config", tiny_config, "--checkpoint", str(ckpt)]) == 0
    rows = []
    for k, n in enumerate((4, 17, 5, 9, 40, 6, 12, 8, 25)):
        spec = SyntheticTaskSpec(vocab_size=20, passage_len=n, query_len=2, span_min=1,
                                 span_max=1, distractors=0, n_train=1, seed=k)
        ex, = gen_synthetic(spec, "train")
        rows.append({"id": f"mixed-{k}", "passage": ex.passage_tokens,
                     "question": ex.question_tokens})
    data = tmp_path / "mixed.jsonl"
    write_lines(data, [json.dumps(r) for r in rows])
    out = tmp_path / "spans.jsonl"
    assert cli.main(["predict", "--config", tiny_config, "--checkpoint", str(ckpt),
                     "--data", str(data), "--out", str(out)]) == 0
    records = [json.loads(l) for l in out.read_text().splitlines()]
    assert [r["id"] for r in records] == [r["id"] for r in rows]
    model, fz = restore_model(load_checkpoint(str(ckpt)), str(ckpt))
    for ex, record in zip(load_jsonl(str(data)), records):
        start, end = model.predict(collate([fz.example(ex)]))[0]
        assert (record["start"], record["end"]) == (start, end), ex.id
        assert record["text"] == " ".join(ex.passage_tokens[start:end + 1])


def test_cli_predict_computes_no_loss(tmp_path, tiny_config, capsys, monkeypatch):
    """predict on labeled data decodes the spans eval writes, without a loss."""
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["train", "--config", tiny_config, "--checkpoint", str(ckpt)]) == 0
    data = tmp_path / "dev.jsonl"
    assert cli.main(["synth", "--config", tiny_config, "--split", "dev",
                     "--out", str(data)]) == 0
    calls = []
    real = model_module.span_loss

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(model_module, "span_loss", counted)
    preds = tmp_path / "preds.jsonl"
    assert cli.main(["eval", "--config", tiny_config, "--checkpoint", str(ckpt),
                     "--data", str(data), "--predictions", str(preds)]) == 0
    assert len(calls) == 2  # one per eval batch of 4 over 6 examples
    out = tmp_path / "spans.jsonl"
    assert cli.main(["predict", "--config", tiny_config, "--checkpoint", str(ckpt),
                     "--data", str(data), "--out", str(out)]) == 0
    assert len(calls) == 2
    assert out.read_text() == preds.read_text()


def test_cli_predict_squad_with_bad_field_type(tmp_path, tiny_config, capsys):
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["train", "--config", tiny_config, "--checkpoint", str(ckpt)]) == 0
    payload = squad_payload()
    payload["data"][0]["paragraphs"][0]["qas"][0]["answers"][0]["answer_start"] = "14"
    data = tmp_path / "s.json"
    data.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["predict", "--config", tiny_config, "--checkpoint", str(ckpt),
                     "--data", str(data), "--format", "squad"]) == 1
    assert capsys.readouterr().err.startswith(
        f"error:data: {data}: qa q1: answer_start must be an integer, got str")


def test_cli_predict_into_a_closed_pipe(tmp_path, tiny_config):
    """A reader that stops early, as in ``decaprop predict ... | head -1``,
    ends the run with status 1 and nothing on stderr.  The output is far
    larger than a pipe buffer, so the closed pipe is hit on every run."""
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["train", "--config", tiny_config, "--checkpoint", str(ckpt)]) == 0
    rows = [{"id": f"{i}-" + "x" * 20000, "passage": "one two three four",
             "question": "two"} for i in range(64)]
    data = tmp_path / "many.jsonl"
    write_lines(data, [json.dumps(r) for r in rows])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, "-m", "decaprop.cli", "predict", "--config", tiny_config,
         "--checkpoint", str(ckpt), "--data", str(data)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert json.loads(proc.stdout.readline())["id"] == rows[0]["id"]
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert err == b""


@pytest.mark.parametrize("argv", [
    ["eval", "--checkpoint", "missing.ckpt", "--data", "missing.jsonl",
     "--predictions", "{out}"],
    ["predict", "--checkpoint", "missing.ckpt", "--data", "missing.jsonl", "--out", "{out}"],
    ["synth", "--out", "{out}"],
    ["train", "--out", "{out}"],
    ["train", "--checkpoint", "{out}"],
    ["ablate", "--variant", "full", "--out", "{out}"],
], ids=["eval", "predict", "synth", "train", "train-checkpoint", "ablate"])
def test_cli_output_path_in_missing_directory(tmp_path, tiny_config, capsys, argv):
    """An output path in a missing directory, or one that is an existing
    directory, fails before any work with one ``error:config:`` line.  An
    unwritable directory is not among the inputs: it cannot be built when
    the tests run as root."""
    out = tmp_path / "no-such-dir" / "out"
    assert cli.main([a.replace("{out}", str(out)) for a in argv] + ["--config", tiny_config]) == 1
    assert capsys.readouterr().err.startswith(
        f"error:config: cannot write {out}: directory {out.parent} does not exist")
    assert not out.parent.exists()
    directory = tmp_path / "a-directory"
    directory.mkdir()
    assert cli.main([a.replace("{out}", str(directory)) for a in argv]
                    + ["--config", tiny_config]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error:config: cannot write {directory}: it is a directory")
    assert err.count("error:") == 1 and "Traceback" not in err
    assert not any(directory.iterdir())


def test_cli_train_variant(tmp_path, tiny_config):
    rc = cli.main(["train", "--config", tiny_config, "--variant", "remove_all"])
    assert rc == 0


def test_cli_resume_needs_checkpoint(tiny_config, capsys):
    rc = cli.main(["train", "--config", tiny_config, "--resume"])
    assert rc == 1
    assert "error:config: --resume needs --checkpoint" in capsys.readouterr().err


def test_cli_gradcheck_single_scenario(capsys):
    rc = cli.main(["gradcheck", "--scenario", "dense_relu"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "dense_relu: max rel err" in out and "[ok]" in out


def test_cli_gradcheck_unknown_scenario(capsys):
    rc = cli.main(["gradcheck", "--scenario", "bogus"])
    assert rc == 1
    assert "error:config: unknown gradcheck scenario 'bogus'" in capsys.readouterr().err


def test_cli_gradcheck_threshold_failure(capsys):
    rc = cli.main(["gradcheck", "--scenario", "dense_relu", "--threshold", "1e-30"])
    assert rc == 1
    assert "error:numeric" in capsys.readouterr().err


@pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1"])
def test_cli_gradcheck_rejects_a_threshold_that_is_not_positive(capsys, monkeypatch, threshold):
    """A pass bar that is not finite and positive is refused before any
    scenario runs: against NaN no error counts as a failure."""
    monkeypatch.setattr(cli, "run_gradcheck", lambda *a, **k: pytest.fail("a scenario ran"))
    rc = cli.main(["gradcheck", "--scenario", "dense_relu", "--threshold", threshold])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
    assert captured.err.startswith("error:config: --threshold must be finite and > 0")


def test_readme_config_reference_is_complete(tmp_path, monkeypatch):
    """README's run.cfg block loads as shown, and it plus the lists of keys
    not shown name every field of the three config sections exactly once."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(# run\.cfg\n.*?)```", readme, re.S).group(1)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(block, encoding="utf-8")
    for name in [n for n in os.environ if n.startswith("DECAPROP_")]:
        monkeypatch.delenv(name)
    shown = cli.read_config_file(str(cfg))
    loaded = dict(zip(cli._SECTIONS, cli.load_configs(str(cfg))))
    for key, raw in shown.items():
        section, _, name = key.partition(".")
        assert getattr(loaded[section], name) == cli._parse_value(raw)

    rest = re.search(r"Model keys not shown above: (.*?)\n\n", readme, re.S).group(1)
    parts = dict(zip(("model", "train", "task"),
                     re.split(r"Train keys:|Task keys:", rest)))
    listed = [f"{section}.{name}" for section, text in parts.items()
              for name in re.findall(r"`(\w+)`", text)]
    documented = list(shown) + listed
    assert len(documented) == len(set(documented))
    assert set(documented) == {f"{section}.{f.name}" for section, cls in cli._SECTIONS.items()
                               for f in fields(cls)}


def test_cli_train_ablation_is_an_unknown_key(tmp_path, tiny_config, monkeypatch, capsys):
    """The architecture comes from the model keys and --variant alone."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CONFIG + "train.ablation = no_gated\n", encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg)]) == 1
    from_file = capsys.readouterr().err
    monkeypatch.setenv("DECAPROP_TRAIN_ABLATION", "full")
    assert cli.main(["train", "--config", tiny_config]) == 1
    for err in (from_file, capsys.readouterr().err):
        assert err == "error:config: unknown config key 'train.ablation'\n"


def test_cli_synth_refuses_a_task_it_cannot_draw(tmp_path, monkeypatch, capsys):
    """A one-token key over two tokens almost never occurs exactly once in a
    40-token passage; the draw gives up instead of looping."""
    monkeypatch.setenv("DECAPROP_TASK_VOCAB_SIZE", "2")
    monkeypatch.setenv("DECAPROP_TASK_QUERY_LEN", "1")
    out = tmp_path / "synth.jsonl"
    assert cli.main(["synth", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "error:config: task.vocab_size 2, task.query_len 1 and task.passage_len 40 gave no "
        "passage holding its key exactly once in 1000 draws")
    assert not out.exists()


@pytest.mark.parametrize("key", ["n_train", "n_dev"])
def test_cli_synth_refuses_a_size_over_the_bound(tmp_path, monkeypatch, capsys, key):
    """A count that passes every other check would loop for years in the draw."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"task.{key} = 1000000000000\n", encoding="utf-8")
    assert cli.main(["synth", "--config", str(cfg), "--out", "synth.jsonl"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [
        f"error:config: task.{key} must be >= 0 and <= 1000000, got 1000000000000"]
    assert not (tmp_path / "synth.jsonl").exists()


def test_cli_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model.bogus = 1\n", encoding="utf-8")
    rc = cli.main(["train", "--config", str(cfg)])
    assert rc == 1
    assert "error:config: unknown config key 'model.bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("setting, message", [
    ("train.lr = abc", "train.lr must be float, got 'abc'"),
    ("DECAPROP_TRAIN_LR=abc", "train.lr must be float, got 'abc'"),
    ("DECAPROP_MODEL_HIDDEN=abc", "model.hidden must be int, got 'abc'"),
    ("DECAPROP_MODEL_LAYERS=true", "model.layers must be int, got True"),
    ("task.n_train = 2.5", "task.n_train must be int, got 2.5"),
    ("model.max_span_len = x", "model.max_span_len must be Optional[int], got 'x'"),
    ("model.char_pool = max", "model.char_pool was retired"),
    ("model.shared_projection = false", "model.shared_projection was retired"),
    ("DECAPROP_MODEL_DOUBLE_ONE_SIDED=true", "model.double_one_sided was retired"),
    ("train.seed = -1", "seed must be >= 0"),
    ("train.decay_factor = 0", "decay_factor must be positive"),
    ("train.patience = 0", "patience must be >= 1"),
    ("train.max_steps = 0", "max_steps must be >= 1"),
    ("task.n_train = -3", "n_train must be >= 0"),
])
def test_cli_rejects_bad_config_value(tmp_path, monkeypatch, capsys, setting, message):
    cfg = tmp_path / "run.cfg"
    if setting.startswith("DECAPROP_"):
        monkeypatch.setenv(*setting.split("=", 1))
        cfg.write_text("", encoding="utf-8")
    else:
        cfg.write_text(setting + "\n", encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg)]) == 1
    # every message starts with section.key; the range wordings above omit the section
    section = re.match(r"(?:DECAPROP_)?([a-z]+)", setting, re.I).group(1).lower()
    if not message.startswith(f"{section}."):
        message = f"{section}.{message}"
    assert capsys.readouterr().err.startswith(f"error:config: {message}")


@pytest.mark.parametrize("setting, message", [
    (b"train.lr = " + b"1" * 5000, "train.lr must be float, got '111"),
    ("DECAPROP_TRAIN_LR=" + "1" * 5000, "train.lr must be float, got '111"),
    (b"train.lr = " + b"[" * 100000, "train.lr must be float, got '[[["),
    (b"task.seed = 1 # \xff\xfe", "cannot read config"),
], ids=["long-integer", "long-integer-env", "deep-nesting", "not-utf-8"])
def test_cli_config_text_json_cannot_take(tmp_path, monkeypatch, capsys, setting, message):
    """A value json cannot take (more digits than Python converts, nesting
    past the recursion limit) stays text and fails its key's own check, and
    a file that is not UTF-8 cannot be read: one ``error:config:`` line and
    no traceback."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    if isinstance(setting, str):
        monkeypatch.setenv(*setting.split("=", 1))
        cfg.write_bytes(b"")
    else:
        cfg.write_bytes(setting + b"\n")
    assert cli.main(["synth", "--config", str(cfg), "--out", "synth.jsonl"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith(f"error:config: {message}")
    assert not (tmp_path / "synth.jsonl").exists()


@pytest.mark.parametrize("argv, message", [
    (["synth", "--out", "x.jsonl"], "task.seed must be >= 0"),
    (["gradcheck", "--scenario", "dense_relu"], "seed must be >= 0"),
    (["train"], "train.seed must be >= 0"),
], ids=["synth", "gradcheck", "train"])
def test_cli_rejects_negative_seed(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv + ["--seed", "-1"]) == 1
    assert capsys.readouterr().err.startswith(f"error:config: {message}")


CONFIGS = (("model", ModelConfig), ("train", TrainConfig), ("task", SyntheticTaskSpec))
# values of the declared type's kind that every such field rejects
BAD_BY_TYPE = {"float": ("NaN", "Infinity", "-Infinity", "abc"),
               "int": ("true", "2.5", "abc"), "str": ("1",), "bool": ("1",)}
# an out-of-range value per field that has a range or choice rule
OUT_OF_RANGE = {
    "model": {"word_dim": "0", "char_dim": "0", "char_hidden": "1", "max_word_len": "0",
              "hidden": "1", "layers": "0", "fm_factors": "0", "cell": "rnn",
              "dropout": "1.0", "connector": "bilinear", "max_span_len": "0"},
    "train": {"optimizer": "sgd", "lr": "0", "batch_size": "0", "max_epochs": "0",
              "max_steps": "0", "seed": "-1", "clip_norm": "-1.5", "patience": "0",
              "decay_factor": "0"},
    "task": {"query_len": "0", "span_min": "0", "span_max": "1", "vocab_size": "3",
             "passage_len": "5", "distractors": "-1", "n_train": "-1", "n_dev": "-1",
             "seed": "-1"},
}
BAD_SETTINGS = [
    pytest.param(section, f.name, raw, id=f"{section}.{f.name}={raw}")
    for section, cls in CONFIGS for f in fields(cls)
    for raw in (BAD_BY_TYPE[f.type.removeprefix("Optional[").rstrip("]")]
                + ((OUT_OF_RANGE[section][f.name],) if f.name in OUT_OF_RANGE[section] else ()))
]


def test_out_of_range_table_covers_every_rule():
    assert {s: set(keys) for s, keys in OUT_OF_RANGE.items()} == {
        section: set(cls.rules) for section, cls in CONFIGS}


@pytest.mark.parametrize("section, key, raw", BAD_SETTINGS)
def test_every_config_key_rejects_bad_values(tmp_path, monkeypatch, capsys, section, key, raw):
    """A config file line, a DECAPROP_* variable and direct construction all
    reject the value with an error that starts with section.key."""
    prefix = f"{section}.{key} "
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{section}.{key} = {raw}\n", encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg)]) == 1
    from_file = capsys.readouterr().err
    monkeypatch.setenv(f"DECAPROP_{section}_{key}".upper(), raw)
    assert cli.main(["train"]) == 1
    from_env = capsys.readouterr().err
    for err in (from_file, from_env):
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith(f"error:config: {prefix}")
    cls = dict(CONFIGS)[section]
    with pytest.raises(ConfigError) as exc:
        cls(**{key: cli._parse_value(raw)})
    assert str(exc.value).startswith(prefix)


def test_config_fields_are_frozen():
    for _, cls in CONFIGS:
        cfg = cls()
        for f in fields(cls):
            with pytest.raises(FrozenInstanceError):
                setattr(cfg, f.name, getattr(cfg, f.name))


@pytest.mark.parametrize("retired, ok", [
    ({"char_pool": "final", "shared_projection": True, "double_one_sided": False}, True),
    ({"char_pool": "max"}, False),
    ({"shared_projection": False}, False),
    ({"double_one_sided": True}, False),
], ids=["old-defaults", "char_pool", "shared_projection", "double_one_sided"])
def test_cli_eval_checkpoint_with_retired_keys(tmp_path, tiny_config, capsys, retired, ok):
    """Checkpoints written before the retired model knobs went still load at
    the knobs' old defaults; any other value is a config error naming the key."""
    model_cfg, _, task = cli.load_configs(tiny_config)
    featurizer = Featurizer.build(gen_synthetic(task, "train"), model_cfg.max_word_len)
    model = build_model(model_cfg, featurizer)
    data = tmp_path / "dev.jsonl"
    assert cli.main(["synth", "--config", tiny_config, "--out", str(data)]) == 0
    reports = []
    for i, header in enumerate((model_cfg.to_dict(), {**model_cfg.to_dict(), **retired})):
        ckpt = tmp_path / f"m{i}.ckpt"
        save_checkpoint(str(ckpt), model.store, header, init_optimizer_state("adam", model.store),
                        np.random.default_rng(0).bit_generator.state, {},
                        extra={"featurizer": featurizer.state(), "seed": 0})
        capsys.readouterr()
        rc = cli.main(["eval", "--config", tiny_config, "--checkpoint", str(ckpt),
                       "--data", str(data)])
        reports.append((rc, capsys.readouterr()))
    if ok:
        assert reports[1] == reports[0] and reports[0][0] == 0
    else:
        key = next(iter(retired))
        assert reports[1][0] == 1
        assert reports[1][1].err.startswith(f"error:config: model.{key} was retired")


def test_cli_malformed_config_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model.hidden 8\n", encoding="utf-8")
    rc = cli.main(["train", "--config", str(cfg)])
    assert rc == 1
    assert "expected 'section.key = value'" in capsys.readouterr().err


def test_cli_env_override(monkeypatch):
    monkeypatch.setenv("DECAPROP_TRAIN_BATCH_SIZE", "7")
    monkeypatch.setenv("DECAPROP_MODEL_HIDDEN", "6")
    model_cfg, train_cfg, _ = cli.load_configs(None)
    assert train_cfg.batch_size == 7
    assert model_cfg.hidden == 6


def test_cli_usage_error_exits_2():
    for argv in (["train", "--variant", "bogus"], ["ablate", "--variant", "bogus"],
                 # eval and predict have no seed to set
                 ["eval", "--seed", "1"], ["predict", "--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


def test_cli_eval_rejects_checkpoint_without_featurizer(tmp_path, rng, capsys):
    path = checkpoint_file(tmp_path, rng)
    rc = cli.main(["eval", "--checkpoint", str(path), "--data", "whatever.jsonl"])
    assert rc == 1
    assert "no featurizer state" in capsys.readouterr().err


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """The bytes of a one-epoch tiny checkpoint written by ``decaprop train``,
    and the config it was trained with."""
    root = tmp_path_factory.mktemp("tiny")
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY_CONFIG, encoding="utf-8")
    ckpt = root / "model.ckpt"
    assert cli.main(["train", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 0
    return str(cfg), ckpt.read_bytes()


def with_header(raw: bytes, edit) -> bytes:
    """The checkpoint ``raw`` with its header replaced by ``edit(header)``,
    under a valid sha256 digest."""
    at = len(MAGIC) + 4
    (size,) = struct.unpack_from("<Q", raw, at)
    header = json.loads(raw[at + 8:at + 8 + size])
    new = json.dumps(edit(header)).encode("utf-8")
    body = raw[:at] + struct.pack("<Q", len(new)) + new + raw[at + 8 + size:-32]
    return body + hashlib.sha256(body).digest()


def _set(*keys, value):
    """A header edit that sets the entry at ``keys`` to ``value``."""
    def edit(header):
        obj = header
        for key in keys[:-1]:
            obj = obj[key]
        obj[keys[-1]] = value
        return header
    return edit


PREDICT = ["predict", "--data", "missing.jsonl"]
RESUME = ["train", "--resume"]


@pytest.mark.parametrize("edit, argv, message", [
    (lambda header: {}, PREDICT, "header field params must be a list, got NoneType"),
    (lambda header: [], PREDICT, "header must be an object, got list"),
    (_set("params", 0, "shape", value="x"), PREDICT,
     "header field params[0].shape must be a list, got str"),
    (_set("optimizer", "slots", "m", 0, value="nope"), PREDICT,
     "header field optimizer.slots.m names 'nope', which is not a parameter"),
    (_set("optimizer", "scalars", "t", value="x"), RESUME,
     "header field optimizer.scalars.t must be a number, got str"),
    (_set("train_state", value={}), RESUME, "train_state.epoch must be an integer, got NoneType"),
    (_set("rng_state", value={}), RESUME, "rng_state is not a state of this run's generator"),
    (_set("extra", "featurizer", "tokens", value=5), PREDICT,
     "extra.featurizer.tokens must be a list, got int"),
    (_set("extra", "featurizer", "tokens", value=[1, 2]), PREDICT,
     "an entry of extra.featurizer.tokens must be a string, got int"),
], ids=["empty-object", "array", "param-shape", "slot-names-no-parameter", "optimizer-scalar",
        "empty-train-state", "empty-rng-state", "featurizer-tokens", "featurizer-token-entries"])
def test_cli_checkpoint_header_not_as_written(tmp_path, tiny_checkpoint, capsys, monkeypatch,
                                              edit, argv, message):
    """A checkpoint whose digest holds but whose header is not what
    ``save_checkpoint`` writes is refused with one ``error:integrity:`` line
    that names the field, and no traceback."""
    monkeypatch.chdir(tmp_path)
    cfg, raw = tiny_checkpoint
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(with_header(raw, edit))
    assert cli.main(argv + ["--config", cfg, "--checkpoint", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error:integrity: ")
    assert message in errors[0]


def test_readme_names_every_config_key():
    """The README's Configuration section documents exactly the config fields."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("### Configuration", 1)[1].split("\n### ", 1)[0]
    named = {(s, k) for s, k in re.findall(r"^(model|train|task)\.(\w+) *=", section, re.M)}
    keys_paragraph = section[section.index("Model keys not shown above:"):].split("\n\n", 1)[0]
    parts = re.split(r"\b(Model|Train|Task) keys[^:]*:", keys_paragraph)[1:]
    for name, listed in zip(parts[::2], parts[1::2]):
        named |= {(name.lower(), k) for k in re.findall(r"`(\w+)`", listed)}
    declared = {(section_name, f.name) for section_name, cls in
                (("model", ModelConfig), ("train", TrainConfig), ("task", SyntheticTaskSpec))
                for f in fields(cls)}
    assert named == declared


def test_parse_value_types():
    assert cli._parse_value("3") == 3
    assert cli._parse_value("0.5") == 0.5
    assert cli._parse_value("true") is True
    assert cli._parse_value("none") is None
    assert cli._parse_value("gru") == "gru"
