"""Dataset loading: a small JSONL format for pre-tokenized spans and the
nested SQuAD-style JSON layout with character-offset answers.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Optional

from .errors import DataError


_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)
# what json.loads raises on text it cannot take: a syntax error
# (JSONDecodeError is a ValueError), an integer of more digits than Python
# converts (ValueError) or nesting deeper than its recursion limit
_JSON_ERRORS = (ValueError, RecursionError)


@dataclass
class TokenizedExample:
    """One passage/question pair; the inclusive answer span is optional (an
    unlabeled example can only be predicted), but its ends come together."""

    id: str
    passage_tokens: list[str]
    question_tokens: list[str]
    answer_start: Optional[int] = None
    answer_end: Optional[int] = None
    answer_texts: list[str] = field(default_factory=list)

    @property
    def labeled(self) -> bool:
        return self.answer_start is not None

    def validate(self) -> None:
        n = len(self.passage_tokens)
        if not self.passage_tokens or not self.question_tokens:
            raise DataError(f"example {self.id}: empty passage or question")
        if (self.answer_start is None) != (self.answer_end is None):
            raise DataError(f"example {self.id}: answer_start and answer_end "
                            "must be given together")
        if self.labeled and not 0 <= self.answer_start <= self.answer_end < n:
            raise DataError(
                f"example {self.id}: span ({self.answer_start}, {self.answer_end}) "
                f"outside passage of length {n}")


def tokenize(text: str) -> tuple[list[str], list[tuple[int, int]]]:
    """Lowercased word/punctuation tokens with (start, end) char offsets."""
    tokens, offsets = [], []
    for m in _TOKEN_RE.finditer(text):
        tokens.append(m.group(0).lower())
        offsets.append((m.start(), m.end()))
    return tokens, offsets


def _read_text(path: str) -> str:
    """Whole file with newlines normalized, as iterating the open file would."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read data file {path}: {exc}") from exc


def _tokens(value, name: str, where: str) -> list[str]:
    """A passage or question given as raw text (tokenized here) or as tokens."""
    if isinstance(value, str):
        return tokenize(value)[0]
    if isinstance(value, list) and all(isinstance(t, str) for t in value):
        return value
    raise DataError(f"{where}: {name} must be a string or a list of strings, "
                    f"got {type(value).__name__}")


def load_jsonl(path: str) -> list[TokenizedExample]:
    """One example per line: id, passage, question and, for labeled data,
    answer_start, answer_end and answers.  Passage and question may be strings
    (tokenized here) or lists of tokens.
    """
    examples = []
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except _JSON_ERRORS as exc:
            raise DataError(f"{path}:{lineno}: invalid json ({exc})") from exc
        if not isinstance(obj, dict):
            raise DataError(f"{path}:{lineno}: expected a json object, "
                            f"got {type(obj).__name__}")
        where = f"{path}:{lineno}"
        missing = {"passage", "question"} - set(obj)
        if missing:
            raise DataError(f"{where}: missing fields {sorted(missing)}")
        p_tokens = _tokens(obj["passage"], "passage", where)
        q_tokens = _tokens(obj["question"], "question", where)
        start, end = (None if obj.get(k) is None else _typed(obj[k], int, k, where)
                      for k in ("answer_start", "answer_end"))
        ex = TokenizedExample(
            id=_example_id(obj.get("id"), f"line-{lineno}", where),
            passage_tokens=p_tokens, question_tokens=q_tokens,
            answer_start=start, answer_end=end)
        try:
            ex.validate()
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from exc
        answers = obj.get("answers")
        answers = [] if answers is None else _typed(answers, list, "answers", where)
        for k, text in enumerate(answers):
            _typed(text, str, f"answers[{k}]", where)
        default = [" ".join(p_tokens[start:end + 1])] if ex.labeled else []
        ex.answer_texts = answers or default
        examples.append(ex)
    if not examples:
        raise DataError(f"{path}: no examples found")
    return examples


_KINDS = {list: "a list", dict: "an object", str: "a string", int: "an integer"}


def _typed(value, kind: type, name: str, where: str):
    """``value`` itself when it has the json type ``kind``; a bool is no integer."""
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise DataError(f"{where}: {name} must be {_KINDS[kind]}, got {type(value).__name__}")


def _example_id(value, default: str, where: str) -> str:
    """An example's id: a string as it is, an integer (not a bool) as its
    decimal string, and ``default`` when the id is missing or null."""
    if value is None:
        return default
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    if isinstance(value, str):
        return value
    raise DataError(f"{where}: id must be a string or an integer, got {type(value).__name__}")


def _char_to_token_span(offsets: list[tuple[int, int]],
                        ans_start: int, ans_end: int) -> tuple[int, int] | None:
    """Token span covering [ans_start, ans_end); None when nothing overlaps."""
    start_tok = end_tok = None
    for i, (s, e) in enumerate(offsets):
        if e > ans_start and start_tok is None:
            start_tok = i
        if s < ans_end:
            end_tok = i
    if start_tok is None or end_tok is None or start_tok > end_tok:
        return None
    return start_tok, end_tok


def load_squad(path: str) -> tuple[list[TokenizedExample], int]:
    """Flatten the nested article/paragraph/qas layout.  Answers arrive as
    character offsets into the raw context; the first answer that maps onto a
    token span becomes the target.  Returns the examples and the count of
    dropped questions.
    """
    try:
        payload = json.loads(_read_text(path))
    except _JSON_ERRORS as exc:
        raise DataError(f"{path}: invalid json ({exc})") from exc
    if not isinstance(payload, dict) or "data" not in payload:
        raise DataError(f"{path}: missing top-level 'data' field")

    examples = []
    dropped = 0
    for i, article in enumerate(_typed(payload["data"], list, "data", path)):
        article_at = f"{path}: data[{i}]"
        article = _typed(article, dict, "article", article_at)
        paragraphs = _typed(article.get("paragraphs", []), list, "paragraphs", article_at)
        for j, para in enumerate(paragraphs):
            para_at = f"{article_at}.paragraphs[{j}]"
            para = _typed(para, dict, "paragraph", para_at)
            p_tokens, offsets = tokenize(_typed(para.get("context", ""), str, "context", para_at))
            qas = _typed(para.get("qas", []), list, "qas", para_at)
            if not p_tokens:
                dropped += len(qas)
                continue
            for k, qa in enumerate(qas):
                qa = _typed(qa, dict, "qa", para_at)
                qa_id = _example_id(qa.get("id"), f"qa-{len(examples)}", f"{para_at}.qas[{k}]")
                qa_at = f"{path}: qa {qa_id}"
                q_tokens, _ = tokenize(_typed(qa.get("question", ""), str, "question", qa_at))
                texts = []
                span = None
                for a in _typed(qa.get("answers", []), list, "answers", qa_at):
                    a = _typed(a, dict, "answer", qa_at)
                    if "text" not in a:
                        continue
                    texts.append(_typed(a["text"], str, "answer text", qa_at))
                    if span is None and "answer_start" in a:
                        start = _typed(a["answer_start"], int, "answer_start", qa_at)
                        span = _char_to_token_span(offsets, start, start + len(texts[-1]))
                if span is None or not q_tokens:
                    dropped += 1
                    continue
                examples.append(TokenizedExample(
                    id=qa_id, passage_tokens=p_tokens, question_tokens=q_tokens,
                    answer_start=span[0], answer_end=span[1], answer_texts=texts))
    if not examples:
        raise DataError(f"{path}: no usable examples (dropped {dropped})")
    return examples, dropped
