"""Full architecture assembly and its ablation variants."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cache
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .answer import PointerLayer, decode_span, span_loss
from .bac import BAC
from .decacore import DecaCore
from .decaenc import DecaEnc
from .encoder import Featurizer, InputEncoder, random_embeddings
from .errors import ConfigError
from .numerics import ParamStore, Tensor, softmax

VARIANTS = ("full", "remove_all", "no_core", "no_enc", "no_cross", "no_gated",
            "n2", "n4", "g_linear", "g_nonlinear")

# Model knobs since retired, each with the one value the code now hard-wires.
# Config files and checkpoint headers written before still carry them.
RETIRED_KEYS = {"double_one_sided": False, "shared_projection": True, "char_pool": "final"}


def _fits(value, hint) -> bool:
    """Whether a parsed config value has the declared field type: a bool is
    no int, an int serves as a float, and ``Optional`` admits None."""
    if get_origin(hint) is Union:
        return any(_fits(value, h) for h in get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


@cache
def _field_types(cls) -> tuple:
    """(name, resolved type, declared type text) per field, once per class."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.type) for f in fields(cls))


def at_least(lo):
    """Range rule: the value is ``lo`` or more."""
    return (lambda v, cfg: v >= lo), f"must be >= {lo}"


POSITIVE = (lambda v, cfg: v > 0), "must be positive"


def one_of(choices: tuple):
    """Choice rule: the value is one of ``choices``."""
    return (lambda v, cfg: v in choices), f"must be one of {choices}"


_RNN_WIDTH = (lambda v, cfg: v >= 2), "must be >= 2: rnn widths need a state per direction"


class Config:
    """Base of the frozen config sections.  Construction checks each field's
    declared type, that floats are finite, then the subclass's ``rules``
    (field -> (test(value, config), wording), skipped for None); errors
    start with ``section.key``."""

    def __post_init__(self) -> None:
        for name, hint, declared in _field_types(type(self)):
            value = getattr(self, name)
            if not _fits(value, hint):
                raise self._error(name, f"must be {declared}")
            if isinstance(value, float) and not math.isfinite(value):
                raise self._error(name, "must be finite")
        for name, (test, wording) in self.rules.items():
            value = getattr(self, name)
            if value is not None and not test(value, self):
                raise self._error(name, wording)

    def _error(self, name: str, wording: str) -> ConfigError:
        return ConfigError(f"{self.section}.{name} {wording}, got {getattr(self, name)!r}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, values: dict):
        """The config from ``values``, whose keys must be its fields."""
        unknown = set(values) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown {cls.section} config keys: {sorted(unknown)}")
        return cls(**values)


@dataclass(frozen=True)
class ModelConfig(Config):
    word_dim: int = 16
    char_dim: int = 8
    char_hidden: int = 8
    max_word_len: int = 16
    hidden: int = 32
    layers: int = 3
    fm_factors: int = 8
    cell: str = "gru"
    dropout: float = 0.0
    connector: str = "fm"              # fm | linear | nonlinear
    cross_hierarchy: bool = True
    encoder_connectors: bool = True    # off: plain stacked BiRNN encoder
    encoder_concat_layers: bool = True # with connectors off: concat all layers vs last only
    gated_attention: bool = True
    dense_core: bool = True
    max_span_len: Optional[int] = None

    section = "model"
    rules = {"word_dim": at_least(1), "char_dim": at_least(1), "char_hidden": _RNN_WIDTH,
             "max_word_len": at_least(1), "hidden": _RNN_WIDTH, "layers": at_least(1),
             "fm_factors": at_least(1), "cell": one_of(("gru", "lstm")),
             "dropout": (lambda v, cfg: 0.0 <= v < 1.0, "must be in [0, 1)"),
             "connector": one_of(("fm", "linear", "nonlinear")),
             "max_span_len": at_least(1)}

    @classmethod
    def from_dict(cls, values: dict) -> "ModelConfig":
        """Checked config; a retired key loads only at its hard-wired value."""
        values = dict(values)
        for key, kept in RETIRED_KEYS.items():
            value = values.pop(key, kept)
            if type(value) is not type(kept) or value != kept:
                raise ConfigError(f"model.{key} was retired; only {kept!r} still loads, "
                                  f"got {value!r}")
        return super().from_dict(values)


def apply_variant(config: ModelConfig, variant: str) -> ModelConfig:
    """Table of ablations, each a pure transformation of the base config."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown ablation variant {variant!r}; pick one of {VARIANTS}")
    if variant == "full":
        return replace(config)
    if variant == "remove_all":
        # stacked BiRNN encoder with layer-concat shortcuts, no connectors anywhere
        return replace(config, encoder_connectors=False, encoder_concat_layers=True,
                       dense_core=False)
    if variant == "no_core":
        return replace(config, dense_core=False)
    if variant == "no_enc":
        return replace(config, encoder_connectors=False, encoder_concat_layers=False)
    if variant == "no_cross":
        return replace(config, cross_hierarchy=False)
    if variant == "no_gated":
        return replace(config, gated_attention=False)
    if variant == "n2":
        return replace(config, layers=2)
    if variant == "n4":
        return replace(config, layers=4)
    if variant == "g_linear":
        return replace(config, connector="linear")
    return replace(config, connector="nonlinear")


@dataclass
class ForwardResult:
    loss: Optional[Tensor]             # None when the batch carries no labels
    start_logits: Tensor
    end_logits: Tensor
    connector_calls: int = 0           # connector applications in this forward


class DecaProp:
    """Input featurization -> dense encoder -> gated core -> span pointer."""

    def __init__(self, config: ModelConfig, word_matrix: np.ndarray, char_vocab_size: int,
                 seed: int = 0, store: ParamStore | None = None):
        if word_matrix.ndim != 2 or word_matrix.shape[1] != config.word_dim:
            raise ConfigError(
                f"word matrix shape {word_matrix.shape} does not match word_dim {config.word_dim}")
        self.config = config
        self.store = store if store is not None else ParamStore()
        rng = np.random.default_rng(seed)

        self.input = InputEncoder(self.store, "input", word_matrix, char_vocab_size,
                                  config.char_dim, config.char_hidden, config.cell, rng)
        self.encoder = DecaEnc(self.store, "enc", self.input.output_dim, config.hidden,
                               config.layers, config.fm_factors, rng,
                               cell=config.cell, dropout=config.dropout,
                               connectors=config.encoder_connectors,
                               cross_hierarchy=config.cross_hierarchy,
                               concat_layers=config.encoder_concat_layers,
                               scorer=config.connector)
        self.core = DecaCore(self.store, "core", self.encoder.output_dim, config.hidden,
                             config.layers, config.fm_factors, rng,
                             cell=config.cell, dropout=config.dropout,
                             gated=config.gated_attention, dense_core=config.dense_core,
                             scorer=config.connector)
        self.pointer = PointerLayer(self.store, "pointer", self.core.output_dim,
                                    config.hidden, rng, cell=config.cell,
                                    dropout=config.dropout)

    def forward(self, batch: dict, training: bool = False,
                rng: np.random.Generator | None = None) -> ForwardResult:
        calls = BAC.calls
        p0, q0 = self.input(batch)
        enc = self.encoder(p0, q0, batch["p_mask"], batch["q_mask"],
                           training=training, rng=rng)
        m, _, _ = self.core(enc.passage, enc.question, enc.question_states,
                            batch["p_mask"], batch["q_mask"], training=training, rng=rng)
        s1, s2 = self.pointer(m, batch["p_mask"], training=training, rng=rng)
        loss = None
        if "y1" in batch:
            loss = span_loss(s1, s2, batch["y1"], batch["y2"], batch["p_len"])
        return ForwardResult(loss, s1, s2, BAC.calls - calls)

    def decode(self, out: ForwardResult, lengths) -> list[tuple[int, int]]:
        """Decoded (start, end) per example, restricted to its ``lengths``
        real positions."""
        p1 = softmax(out.start_logits, -1).data
        p2 = softmax(out.end_logits, -1).data
        return [decode_span(p1[i, :n], p2[i, :n], self.config.max_span_len)
                for i, n in enumerate(lengths)]

    def predict(self, batch: dict) -> list[tuple[int, int]]:
        """One forward without the span targets, so no loss, then decode."""
        inputs = {k: v for k, v in batch.items() if k not in ("y1", "y2")}
        return self.decode(self.forward(inputs, training=False), batch["p_len"])


def build_model(config: ModelConfig, featurizer: Featurizer, seed: int = 0,
                word_matrix: np.ndarray | None = None) -> DecaProp:
    """Construct a model sized to a featurizer's vocabularies.

    Without an explicit matrix, frozen random word vectors are drawn from a
    stream decoupled from the parameter init stream.
    """
    if word_matrix is None:
        emb_rng = np.random.default_rng((seed, 0xE0B))
        word_matrix = random_embeddings(emb_rng, featurizer.vocab, config.word_dim)
    return DecaProp(config, word_matrix, len(featurizer.char_vocab), seed=seed)
