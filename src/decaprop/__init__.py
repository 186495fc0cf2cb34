"""Densely connected attention reader for extractive question answering.

The package is built on a small define-by-run autodiff core (`numerics`);
everything above it is plain numpy orchestrated through that tape: recurrent
encoders, bidirectional attention connectors with factorization-machine
scoring, the densely propagated encoder and interaction stacks, and a span
pointer with its training loop.
"""

from .answer import PointerLayer, decode_span, span_loss
from .bac import BAC, FMKernel, affinity, attend
from .checkpoint import load_checkpoint, save_checkpoint
from .data import TokenizedExample, load_jsonl, load_squad, tokenize
from .decacore import DecaCore, GatedAttention
from .decaenc import DecaEnc, DecaEncOutput
from .encoder import (Featurizer, InputEncoder, Vocab, binary_match, norm_frequency,
                      random_embeddings)
from .errors import (ConfigError, ContractError, DataError, DecapropError,
                     IntegrityError, NumericError)
from .gradcheck import SCENARIOS, run_gradcheck, threshold_for
from .model import (VARIANTS, DecaProp, ForwardResult, ModelConfig, apply_variant,
                    build_model)
from .numerics import Dense, ParamStore, Tape, Tensor, backward, grad_check
from .recurrent import BiRNN, GRUCell, LSTMCell, variational_dropout
from .training import (SyntheticTaskSpec, TrainConfig, TrainResult, adadelta_step,
                       adam_step, clip_gradients, collate, em_f1, evaluate,
                       gen_synthetic, lr_schedule, normalize_answer, predict_batches,
                       restore_model, run_ablation, train_model)

__version__ = "0.1.0"

__all__ = [
    "BAC", "BiRNN", "ConfigError", "ContractError", "DataError", "DecaCore",
    "DecaEnc", "DecaEncOutput", "DecaProp", "DecapropError", "Dense", "FMKernel",
    "Featurizer", "ForwardResult", "GRUCell", "GatedAttention", "InputEncoder",
    "IntegrityError", "LSTMCell", "ModelConfig", "NumericError", "ParamStore",
    "PointerLayer",
    "SCENARIOS", "SyntheticTaskSpec", "Tape", "Tensor", "TokenizedExample",
    "TrainConfig", "TrainResult", "VARIANTS", "Vocab", "adadelta_step",
    "adam_step", "affinity", "apply_variant", "attend", "backward",
    "binary_match", "build_model", "clip_gradients", "collate", "decode_span",
    "em_f1", "evaluate", "gen_synthetic", "grad_check",
    "load_checkpoint", "load_jsonl", "load_squad", "lr_schedule",
    "norm_frequency", "normalize_answer", "predict_batches", "random_embeddings",
    "restore_model", "run_ablation", "run_gradcheck", "save_checkpoint", "span_loss",
    "threshold_for", "tokenize", "train_model", "variational_dropout",
]
