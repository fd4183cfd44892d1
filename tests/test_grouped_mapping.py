"""Tests for grouped/depthwise convolution macro mapping.

PR 3 rejected grouped convolutions at the adapter with an explicit error;
they now map through per-group tile placement: the grouped kernel becomes a
block-diagonal weight matrix over the ordinary full-width im2col
(:func:`repro.core.mapping.grouped_conv_weights_to_matrix`) and
:class:`~repro.core.mapping.MappedLayer` tiles only the diagonal blocks —
no crossbars are spent on structural zeros.  Contracts:

* the block-diagonal matrix reproduces the digital grouped convolution
  (its ``ideal_forward`` is exactly ``cols @ W``);
* the analog-mapped grouped layer tracks the digital reference as closely
  as a dense mapping of the same matrix does;
* the compiled execution plan (code domain included) is bit-identical to
  the generic hook path on a depthwise model — the PR-4 identity contract
  extended to grouped layers.
"""

import numpy as np
import pytest

from repro.core.config import MacroConfig
from repro.core.mapping import (
    MappedLayer,
    conv_weights_to_matrix,
    grouped_conv_weights_to_matrix,
    im2col,
)
from repro.exec import ExecutionContext, run_model
from repro.nn.layers import Conv2d, GlobalAvgPool2d, Linear, ReLU
from repro.nn.model import Sequential
from repro.rram.device import RRAMStatistics


def quiet_macro_config(**overrides):
    stats = RRAMStatistics(programming_sigma=0.0, read_noise_sigma=0.0,
                           drift_coefficient=0.0,
                           stuck_at_lrs_probability=0.0,
                           stuck_at_hrs_probability=0.0)
    return MacroConfig(device_statistics=stats, read_noise_enabled=False,
                       **overrides)


class TestGroupedWeightMatrix:
    def test_blocks_placed_on_the_diagonal(self):
        rng = np.random.default_rng(0)
        weights = rng.standard_normal((4, 2, 3, 3))  # 2 groups of 2 -> 4
        matrix = grouped_conv_weights_to_matrix(weights, 2)
        assert matrix.shape == (2 * 2 * 9, 4)
        # Each diagonal block equals the dense flattening of its group.
        for g in range(2):
            block = matrix[g * 18:(g + 1) * 18, g * 2:(g + 1) * 2]
            dense = conv_weights_to_matrix(weights[g * 2:(g + 1) * 2])
            assert np.array_equal(block, dense)
        # Off-diagonal blocks are exactly zero.
        assert np.all(matrix[18:, :2] == 0.0)
        assert np.all(matrix[:18, 2:] == 0.0)

    def test_groups_of_one_match_dense_flattening(self):
        rng = np.random.default_rng(1)
        weights = rng.standard_normal((4, 3, 3, 3))
        assert np.array_equal(grouped_conv_weights_to_matrix(weights, 1),
                              conv_weights_to_matrix(weights))

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ValueError, match="groups"):
            grouped_conv_weights_to_matrix(np.zeros((3, 1, 3, 3)), 2)

    def test_matrix_reproduces_digital_grouped_conv(self):
        rng = np.random.default_rng(2)
        layer = Conv2d(6, 6, 3, padding=1, groups=6,
                       rng=np.random.default_rng(3))  # depthwise
        x = rng.standard_normal((4, 6, 8, 8))
        digital = layer.forward(x)
        matrix = grouped_conv_weights_to_matrix(layer.weight.value, 6)
        cols = im2col(x, 3, 1, 1)
        via_matrix = (cols @ matrix).reshape(4, 8, 8, 6).transpose(0, 3, 1, 2)
        assert np.allclose(via_matrix, digital, rtol=1e-12, atol=1e-12)


class TestGroupedMappedLayer:
    def test_per_group_tiles_and_no_zero_crossbars(self):
        rng = np.random.default_rng(4)
        matrix = grouped_conv_weights_to_matrix(
            rng.standard_normal((6, 1, 3, 3)), 6)
        mapped = MappedLayer(matrix, macro_config=quiet_macro_config(),
                             groups=6)
        # One 9x1 tile per group, not one 54x6 dense tile over the zeros.
        assert mapped.num_macros == 6
        assert all(tile.rows == 9 and tile.cols == 1
                   for tile in mapped.tiles)
        cols = np.abs(rng.standard_normal((16, 54)))
        assert np.array_equal(mapped.ideal_forward(cols), cols @ matrix)

    def test_non_block_diagonal_weights_rejected(self):
        dense = np.ones((8, 4))
        with pytest.raises(ValueError, match="block-diagonal"):
            MappedLayer(dense, macro_config=quiet_macro_config(), groups=2)

    def test_grouped_fidelity_matches_dense_mapping(self):
        # Per-group placement must not cost accuracy: the grouped mapping
        # of a block-diagonal matrix tracks the digital reference about as
        # well as mapping the same matrix densely.
        rng = np.random.default_rng(5)
        matrix = grouped_conv_weights_to_matrix(
            rng.standard_normal((6, 1, 3, 3)), 6)
        acts = np.abs(rng.standard_normal((64, 54)))
        reference = acts @ matrix

        grouped = MappedLayer(matrix, macro_config=quiet_macro_config(),
                              groups=6)
        grouped.calibrate(acts)
        grouped_err = np.max(np.abs(grouped.forward(acts) - reference))

        dense = MappedLayer(matrix, macro_config=quiet_macro_config())
        dense.calibrate(acts)
        dense_err = np.max(np.abs(dense.forward(acts) - reference))

        scale = np.max(np.abs(reference))
        assert grouped_err / scale < 0.2
        assert grouped_err <= 2.0 * dense_err + 1e-12


class TestGroupedConvExecution:
    @pytest.fixture(scope="class")
    def depthwise_model(self):
        model = Sequential(
            Conv2d(3, 6, 3, padding=1, rng=np.random.default_rng(6)),
            ReLU(),
            Conv2d(6, 6, 3, padding=1, groups=6,
                   rng=np.random.default_rng(7)),
            ReLU(),
            GlobalAvgPool2d(),
            Linear(6, 4, rng=np.random.default_rng(8)),
        )
        rng = np.random.default_rng(9)
        x = rng.standard_normal((8, 3, 8, 8))
        calibration = np.abs(rng.standard_normal((8, 3, 8, 8)))
        return model, x, calibration

    def test_depthwise_layer_maps_and_tracks_digital(self, depthwise_model):
        model, x, calibration = depthwise_model
        context = ExecutionContext(calibration=calibration,
                                   macro_config=quiet_macro_config(),
                                   max_mapped_layers=2, seed=0, batch_size=8)
        digital = run_model(model, x, backend="ideal", batch_size=8)
        analog = run_model(model, x, backend="analog", context=context)
        assert analog.conversions > 0
        scale = np.max(np.abs(digital.logits))
        # Two fully-mapped conv layers of an untrained net: quantisation
        # error compounds, but the outputs must stay strongly correlated.
        correlation = np.corrcoef(analog.logits.ravel(),
                                  digital.logits.ravel())[0, 1]
        assert correlation > 0.95
        assert np.max(np.abs(analog.logits - digital.logits)) < 0.5 * scale

    def test_compiled_plan_bit_identical_on_depthwise_model(
            self, depthwise_model):
        # The PR-3/PR-4 identity contract now covers grouped layers: the
        # compiled plan (LUT kernels, code domain, planned conv forward)
        # reproduces the generic hook path bit for bit.
        model, x, calibration = depthwise_model
        context = ExecutionContext(calibration=calibration,
                                   macro_config=quiet_macro_config(),
                                   max_mapped_layers=3, seed=0, batch_size=8)
        generic = run_model(model, x, backend="analog", context=context,
                            compile_plan=False)
        planned = run_model(model, x, backend="analog", context=context)
        assert planned.plan_mode == "compiled"
        assert generic.plan_mode == "generic"
        assert np.array_equal(planned.logits, generic.logits)

    def test_depthwise_model_serves_and_shards(self, depthwise_model):
        # Grouped layers ride the whole stack: compiled plans pickle to
        # pipeline stages and serve bit-identically.
        from repro.serve import ServeConfig, serve_requests

        model, x, calibration = depthwise_model
        context = ExecutionContext(calibration=calibration,
                                   macro_config=quiet_macro_config(),
                                   max_mapped_layers=2, seed=0)
        direct = run_model(model, x, backend="analog", context=context,
                           batch_size=len(x))
        served, _ = serve_requests(
            model, x, ServeConfig(backend="analog", max_batch=len(x),
                                  context=context, pipeline_stages=2))
        assert np.array_equal(served, direct.logits)
