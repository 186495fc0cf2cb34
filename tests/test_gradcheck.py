"""Scenario registry behavior; the per-block suites live in the module tests
and the 10-seed sweep in the acceptance suite."""

import pytest

from decaprop.errors import ConfigError
from decaprop.gradcheck import (DEFAULT_THRESHOLD, SCENARIOS, run_gradcheck,
                                threshold_for)


def test_registry_covers_every_layer_type():
    assert set(SCENARIOS) == {
        "dense_relu", "masked_softmax", "gru_cell", "lstm_cell", "birnn_masked",
        "birnn_lstm_masked", "fm_kernel", "bac_two_sided", "bac_one_sided", "gated_attention",
        "pointer_span_loss", "micro_model"}


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError, match="unknown gradcheck scenario"):
        run_gradcheck(["not_a_scenario"])


def test_named_subset_and_seed():
    res = run_gradcheck(["dense_relu", "fm_kernel"], seed=5)
    assert set(res) == {"dense_relu", "fm_kernel"}
    assert all(err < DEFAULT_THRESHOLD for err in res.values())


def test_thresholds():
    assert threshold_for("dense_relu") == DEFAULT_THRESHOLD
    assert threshold_for("micro_model") > DEFAULT_THRESHOLD


def test_end_to_end_probe_at_its_documented_bar():
    # near-zero gradients keep this one at the finite-difference noise floor
    res = run_gradcheck(["micro_model"], seed=0)
    assert res["micro_model"] < threshold_for("micro_model")
