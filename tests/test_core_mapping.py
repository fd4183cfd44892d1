"""Unit tests for im2col, weight tiling, the routing adder and MappedLayer."""

import numpy as np
import pytest

from repro.core import (
    MappedLayer,
    RoutingAdder,
    col2im_output,
    conv_output_size,
    conv_weights_to_matrix,
    im2col,
    patch_index,
    tile_weight_matrix,
)
from repro.core.config import MacroConfig
from repro.rram.device import RRAMStatistics


def quiet_macro_config():
    stats = RRAMStatistics(programming_sigma=0.0, read_noise_sigma=0.0,
                           drift_coefficient=0.0,
                           stuck_at_lrs_probability=0.0, stuck_at_hrs_probability=0.0)
    return MacroConfig(device_statistics=stats, read_noise_enabled=False)


class TestIm2Col:
    def test_output_size(self):
        assert conv_output_size(16, 3, 1, 1) == 16
        assert conv_output_size(16, 3, 2, 1) == 8
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)

    def test_im2col_matches_direct_convolution(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3))
        cols = im2col(x, kernel=3, stride=1, padding=1)
        w_mat = conv_weights_to_matrix(w)
        result = col2im_output(cols @ w_mat, batch=2, out_channels=4, h_out=8, w_out=8)

        # Direct (naive) convolution reference.
        x_pad = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        reference = np.zeros((2, 4, 8, 8))
        for n in range(2):
            for co in range(4):
                for i in range(8):
                    for j in range(8):
                        patch = x_pad[n, :, i:i + 3, j:j + 3]
                        reference[n, co, i, j] = np.sum(patch * w[co])
        np.testing.assert_allclose(result, reference, rtol=1e-10)

    @pytest.mark.parametrize("seed", range(15))
    def test_im2col_random_geometry_matches_naive_loop(self, seed):
        # Kernels 1-5 with random stride / padding and a channel-sliced
        # non-contiguous input as grouped Conv2d passes, against an
        # explicit-loop reference: im2col itself, and the patch-index
        # expansion of the zero-padded map (uint16 or float64).
        rng = np.random.default_rng(seed)
        kernel = 1 + seed % 5
        stride, padding = int(rng.integers(1, 4)), int(rng.integers(0, 3))
        n, c = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        h = int(rng.integers(max(kernel - 2 * padding, 1), 10))
        w = int(rng.integers(max(kernel - 2 * padding, 1), 10))
        dtype = (np.uint16, np.float64)[seed % 2]
        full = rng.integers(1, 1000, (n, 2 * c, h, w)).astype(dtype)
        x = full[:, c:] if seed % 3 == 0 else full[:, :c].copy()
        h_out = conv_output_size(h, kernel, stride, padding)
        w_out = conv_output_size(w, kernel, stride, padding)
        padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        reference = np.empty((n, h_out, w_out, c, kernel, kernel), dtype=dtype)
        for b in range(n):
            for i in range(h_out):
                for j in range(w_out):
                    reference[b, i, j] = padded[b, :, i * stride:i * stride + kernel,
                                                j * stride:j * stride + kernel]
        reference = reference.reshape(n * h_out * w_out, -1)
        cols = im2col(x, kernel, stride, padding)
        assert cols.dtype == np.float64
        assert np.array_equal(cols, reference)

        index = patch_index(c, h, w, kernel, stride, padding)
        assert index.shape == (h_out * w_out, c * kernel * kernel)
        assert index.dtype == np.intp and not index.flags.writeable
        assert patch_index(c, h, w, kernel, stride, padding) is index  # cached
        expanded = np.take(padded.reshape(n, -1), index, axis=1)
        assert expanded.dtype == dtype
        assert np.array_equal(expanded.reshape(n * h_out * w_out, -1), reference)

    def test_im2col_strided(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 6, 6))
        cols = im2col(x, kernel=2, stride=2, padding=0)
        assert cols.shape == (9, 8)

    def test_im2col_rejects_non_nchw(self):
        with pytest.raises(ValueError):
            im2col(np.zeros((3, 8, 8)), kernel=3)

    def test_col2im_output_shape_check(self):
        with pytest.raises(ValueError):
            col2im_output(np.zeros((10, 4)), batch=2, out_channels=4, h_out=2, w_out=2)

    def test_conv_weights_to_matrix_shape(self):
        w = np.zeros((8, 3, 3, 3))
        assert conv_weights_to_matrix(w).shape == (27, 8)
        with pytest.raises(ValueError):
            conv_weights_to_matrix(np.zeros((8, 27)))


class TestTiling:
    def test_single_tile_when_it_fits(self):
        tiles = tile_weight_matrix(100, 50, max_rows=576, max_cols=128)
        assert len(tiles) == 1
        assert tiles[0].rows == 100 and tiles[0].cols == 50

    def test_row_tiling_above_576(self):
        """Paper: weight matrices exceeding 576 rows produce partial sums."""
        tiles = tile_weight_matrix(1000, 64, max_rows=576, max_cols=128)
        assert len(tiles) == 2
        assert tiles[0].rows == 576 and tiles[1].rows == 424

    def test_column_tiling(self):
        tiles = tile_weight_matrix(100, 300, max_rows=576, max_cols=128)
        assert len(tiles) == 3
        assert sum(t.cols for t in tiles) == 300

    def test_grid_tiling(self):
        tiles = tile_weight_matrix(1200, 300, max_rows=576, max_cols=128)
        assert len(tiles) == 3 * 3

    def test_coverage_is_exact_partition(self):
        tiles = tile_weight_matrix(700, 200, max_rows=576, max_cols=128)
        covered = np.zeros((700, 200), dtype=int)
        for t in tiles:
            covered[t.row_start:t.row_stop, t.col_start:t.col_stop] += 1
        assert np.all(covered == 1)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            tile_weight_matrix(0, 10, 576, 128)
        with pytest.raises(ValueError):
            tile_weight_matrix(10, 10, 0, 128)


class TestRoutingAdder:
    def test_exact_sum_without_format(self):
        adder = RoutingAdder(accumulate_format=None)
        parts = [np.ones((2, 3)), 2 * np.ones((2, 3))]
        np.testing.assert_allclose(adder.accumulate(parts), 3.0)

    def test_fp16_accumulation_close(self):
        adder = RoutingAdder()
        rng = np.random.default_rng(0)
        parts = [rng.standard_normal((4, 8)) for _ in range(3)]
        exact = sum(parts)
        approx = adder.accumulate(parts)
        assert np.max(np.abs(approx - exact)) < 1e-2 * np.max(np.abs(exact))

    def test_addition_counter(self):
        adder = RoutingAdder(accumulate_format=None)
        adder.accumulate([np.ones(4), np.ones(4)])
        assert adder.additions == 8

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RoutingAdder().accumulate([])


class TestMappedLayer:
    def test_small_layer_single_macro(self):
        rng = np.random.default_rng(2)
        weights = rng.standard_normal((64, 32)) * 0.1
        layer = MappedLayer(weights, macro_config=quiet_macro_config(),
                            ideal_programming=True)
        assert layer.num_macros == 1
        acts = np.abs(rng.standard_normal((4, 64)))
        layer.calibrate(acts)
        out = layer.forward(acts)
        ideal = acts @ weights
        assert np.corrcoef(out.ravel(), ideal.ravel())[0, 1] > 0.99

    def test_row_tiled_layer_partial_sums(self):
        """A 700-row layer must be split and summed by the routing adder."""
        rng = np.random.default_rng(3)
        weights = rng.standard_normal((700, 16)) * 0.05
        layer = MappedLayer(weights, macro_config=quiet_macro_config(),
                            ideal_programming=True)
        assert layer.num_macros == 2
        acts = np.abs(rng.standard_normal((2, 700)))
        layer.calibrate(acts)
        out = layer.forward(acts)
        ideal = acts @ weights
        assert np.corrcoef(out.ravel(), ideal.ravel())[0, 1] > 0.98

    def test_column_tiled_layer(self):
        rng = np.random.default_rng(4)
        weights = rng.standard_normal((32, 200)) * 0.1
        layer = MappedLayer(weights, macro_config=quiet_macro_config(),
                            ideal_programming=True)
        assert layer.num_macros == 2
        acts = np.abs(rng.standard_normal((2, 32)))
        layer.calibrate(acts)
        out = layer.forward(acts)
        assert out.shape == (2, 200)
        ideal = acts @ weights
        assert np.corrcoef(out.ravel(), ideal.ravel())[0, 1] > 0.99

    def test_vector_input(self):
        rng = np.random.default_rng(5)
        weights = rng.standard_normal((16, 8))
        layer = MappedLayer(weights, macro_config=quiet_macro_config(),
                            ideal_programming=True)
        layer.calibrate(np.abs(rng.standard_normal((4, 16))))
        assert layer.forward(np.abs(rng.standard_normal(16))).shape == (8,)

    def test_conversions_accounting(self):
        rng = np.random.default_rng(6)
        weights = rng.standard_normal((700, 16))
        layer = MappedLayer(weights, macro_config=quiet_macro_config(),
                            ideal_programming=True)
        layer.calibrate(np.abs(rng.standard_normal((2, 700))))
        before = layer.total_conversions()
        layer.forward(np.abs(rng.standard_normal((3, 700))))
        # Two macros x three batch rows, non-negative inputs -> one pass each.
        assert layer.total_conversions() - before == 6

    def test_invalid_inputs(self):
        rng = np.random.default_rng(7)
        layer = MappedLayer(rng.standard_normal((16, 8)),
                            macro_config=quiet_macro_config(), ideal_programming=True)
        with pytest.raises(ValueError):
            layer.forward(np.ones(15))
        with pytest.raises(ValueError):
            layer.calibrate(np.ones((2, 15)))
        with pytest.raises(ValueError):
            MappedLayer(np.zeros(5), macro_config=quiet_macro_config())

    def test_ideal_forward(self):
        rng = np.random.default_rng(8)
        weights = rng.standard_normal((16, 8))
        layer = MappedLayer(weights, macro_config=quiet_macro_config())
        acts = rng.standard_normal((3, 16))
        np.testing.assert_allclose(layer.ideal_forward(acts), acts @ weights)
