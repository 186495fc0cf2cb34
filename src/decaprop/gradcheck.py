"""Finite-difference verification scenarios.

Each scenario builds a small parameter store plus a deterministic scalar
forward function, then compares tape gradients against central differences
for every trainable entry.  The suite is what the CLI ``gradcheck`` command
and the numeric acceptance tests run.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .answer import PointerLayer, span_loss
from .bac import BAC, FMKernel, attend
from .decacore import GatedAttention
from .errors import ConfigError
from .model import ModelConfig, build_model
from .numerics import Dense, ParamStore, Tensor, add, grad_check, sum_
from .recurrent import BiRNN, GRUCell, LSTMCell
from .training import SyntheticTaskSpec, collate, gen_synthetic
from .encoder import Featurizer


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng((seed, tag))


def _scenario_dense(seed: int):
    # Dense, composed from taped ops; the model's ReLU projections run
    # inside the connector and gated-attention records (bac._scores)
    rng = _rng(seed, 1)
    store = ParamStore()
    layer = Dense(store, "dense", 5, 4, "relu", rng)
    x = Tensor(rng.normal(0.0, 1.0, size=(3, 5)))

    def forward() -> Tensor:
        return sum_(layer(x))

    return store, forward


def _scenario_softmax(seed: int):
    # bac.attend with one query row per example and the coefficients as its
    # value column: the taped masked softmax and matmul of the stand-in
    # connectors.  The model's records run the same softmax in closed form
    # (bac.attention_weights); the bac_* and gated_attention scenarios
    # check it there
    rng = _rng(seed, 2)
    store = ParamStore()
    w = store.register("w", rng.normal(0.0, 0.5, size=(3, 1, 6)))
    mask = np.array([[1, 1, 1, 1, 0, 0],
                     [1, 1, 1, 1, 1, 1],
                     [1, 1, 0, 0, 0, 0]], dtype=np.float64)
    coef = store.register("coef", rng.normal(0.0, 1.0, size=(3, 6, 1)))

    def forward() -> Tensor:
        return sum_(attend(w, coef, mask))

    return store, forward


def _cell_scenario(kind: str, seed: int, tag: int):
    rng = _rng(seed, tag)
    store = ParamStore()
    cell_cls = GRUCell if kind == "gru" else LSTMCell
    cell = cell_cls(store, kind, 4, 3, rng)
    xs = [Tensor(rng.normal(0.0, 0.8, size=(2, 4))) for _ in range(3)]

    def forward() -> Tensor:
        state = cell.initial_state(2)
        for x in xs:
            state = cell.step(x, state)
        return sum_(state[0])

    return store, forward


def _birnn_scenario(cell: str, seed: int, tag: int):
    rng = _rng(seed, tag)
    store = ParamStore()
    # odd output width exercises the ceil/floor split across directions
    rnn = BiRNN(store, "birnn", 4, 5, cell, rng)
    x = Tensor(rng.normal(0.0, 0.8, size=(2, 4, 4)))
    mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0]], dtype=np.float64)

    def forward() -> Tensor:
        return sum_(rnn(x, mask))

    return store, forward


def _scenario_fm(seed: int):
    # FMKernel.__call__, composed from taped ops; the model's FM scoring runs
    # inside the connector record (FMKernel.scores), which the bac_* scenarios
    # check
    rng = _rng(seed, 6)
    store = ParamStore()
    kernel = FMKernel(store, "fm", 6, 3, rng)
    x = Tensor(rng.normal(0.0, 0.5, size=(5, 6)))

    def forward() -> Tensor:
        return sum_(kernel(x))

    return store, forward


def _bac_scenario(seed: int, tag: int, one_sided: bool):
    rng = _rng(seed, tag)
    store = ParamStore()
    bac = BAC(store, "bac", 5, 3, rng)
    p = Tensor(rng.normal(0.0, 0.6, size=(2, 4, 5)))
    q = Tensor(rng.normal(0.0, 0.6, size=(2, 3, 5)))
    p_mask = np.array([[1, 1, 1, 1], [1, 1, 1, 0]], dtype=np.float64)
    q_mask = np.array([[1, 1, 1], [1, 1, 0]], dtype=np.float64)

    def forward() -> Tensor:
        if one_sided:
            return sum_(bac.one_sided(p, q, q_mask))
        g_p, g_q = bac(p, q, p_mask, q_mask)
        return add(sum_(g_p), sum_(g_q))

    return store, forward


def _scenario_gated_attention(seed: int):
    rng = _rng(seed, 9)
    store = ParamStore()
    block = GatedAttention(store, "attn", 6, 4, rng)
    p = Tensor(rng.normal(0.0, 0.6, size=(2, 4, 6)))
    q = Tensor(rng.normal(0.0, 0.6, size=(2, 3, 6)))
    p_mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0]], dtype=np.float64)
    q_mask = np.array([[1, 1, 1], [1, 1, 0]], dtype=np.float64)

    def forward() -> Tensor:
        return sum_(block(p, q, p_mask, q_mask))

    return store, forward


def _scenario_pointer(seed: int):
    rng = _rng(seed, 10)
    store = ParamStore()
    layer = PointerLayer(store, "pointer", 6, 4, rng)
    m = Tensor(rng.normal(0.0, 0.6, size=(2, 5, 6)))
    mask = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0]], dtype=np.float64)
    y1 = np.array([1, 0])
    y2 = np.array([3, 2])

    def forward() -> Tensor:
        s, e = layer(m, mask)
        return span_loss(s, e, y1, y2, lengths=np.array([5, 3]))

    return store, forward


def _scenario_micro_model(seed: int):
    # smallest end-to-end configuration that still touches every block
    spec = SyntheticTaskSpec(vocab_size=12, passage_len=6, query_len=2,
                             span_min=1, span_max=1, distractors=0,
                             n_train=2, n_dev=1, seed=seed)
    examples = gen_synthetic(spec, "train")
    cfg = ModelConfig(word_dim=4, char_dim=3, char_hidden=2, max_word_len=4,
                      hidden=4, layers=2, fm_factors=2)
    featurizer = Featurizer.build(examples, cfg.max_word_len)
    model = build_model(cfg, featurizer, seed=seed)
    batch = collate([featurizer.example(ex) for ex in examples])

    def forward() -> Tensor:
        return model.forward(batch).loss

    return model.store, forward


SCENARIOS: dict[str, Callable[[int], tuple]] = {
    "dense_relu": _scenario_dense,
    "masked_softmax": _scenario_softmax,
    "gru_cell": lambda seed: _cell_scenario("gru", seed, 3),
    "lstm_cell": lambda seed: _cell_scenario("lstm", seed, 4),
    "birnn_masked": lambda seed: _birnn_scenario("gru", seed, 5),
    "birnn_lstm_masked": lambda seed: _birnn_scenario("lstm", seed, 11),
    "fm_kernel": _scenario_fm,
    "bac_two_sided": lambda seed: _bac_scenario(seed, 7, False),
    "bac_one_sided": lambda seed: _bac_scenario(seed, 8, True),
    "gated_attention": _scenario_gated_attention,
    "pointer_span_loss": _scenario_pointer,
    "micro_model": _scenario_micro_model,
}

DEFAULT_THRESHOLD = 1e-4
# the end-to-end probe carries many parameters whose true gradient is near
# zero; those entries sit at the central-difference noise floor
# (ulp(loss) / (2 eps) against the 1e-8 denominator floor), so its pass bar
# is looser than the per-block one
SCENARIO_THRESHOLDS = {"micro_model": 5e-3}


def threshold_for(name: str) -> float:
    return SCENARIO_THRESHOLDS.get(name, DEFAULT_THRESHOLD)


def run_gradcheck(names: list[str] | None = None, seed: int = 0,
                  eps: float = 1e-5) -> dict[str, float]:
    """Run the named scenarios (all by default); returns name -> max rel err."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    picked = names or list(SCENARIOS)
    results: dict[str, float] = {}
    for name in picked:
        if name not in SCENARIOS:
            raise ConfigError(f"unknown gradcheck scenario {name!r}; "
                              f"pick from {sorted(SCENARIOS)}")
        store, forward = SCENARIOS[name](seed)
        err = grad_check(forward, store, eps=eps)
        results[name] = err
    return results
