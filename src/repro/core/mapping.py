"""Network-to-macro mapping (paper Section III-D and Fig. 4).

Convolutional kernels of shape ``C_out x C_in x k x k`` are flattened into a
``(C_in * k * k) x C_out`` weight matrix and the layer input is expanded into
matching ``C_in * k * k`` patches (im2col), so both convolutions and fully
connected layers become the same matrix product that a crossbar computes.

A weight matrix larger than one macro is tiled:

* the row dimension is cut into chunks of at most 576 (the paper: "when the
  weight matrix exceeds 576, the result of the MAC operation in the CIM
  column is a partial sum" which "the inter-core routing adder" accumulates),
* the column dimension is cut into chunks of at most the macro's signed
  column capacity (128 for a 256-wide differential array).

:class:`MappedLayer` owns one :class:`~repro.core.macro.AFPRMacro` per tile
and performs the partial-sum accumulation digitally through
:class:`RoutingAdder`.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import MacroConfig
from repro.core.macro import AFPRMacro
from repro.formats.fp8 import FP16, FloatFormat


# ----------------------------------------------------------------------
# im2col and weight reshaping
# ----------------------------------------------------------------------
def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    if size < 1 or kernel < 1 or stride < 1 or padding < 0:
        raise ValueError("invalid convolution geometry")
    out = (size + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise ValueError("convolution produces an empty output")
    return out


def im2col(inputs: np.ndarray, kernel: int, stride: int = 1,
           padding: int = 0) -> np.ndarray:
    """Expand NCHW inputs into convolution patches.

    Returns an array of shape ``(N * H_out * W_out, C * kernel * kernel)``
    whose rows are the flattened receptive fields, ready to be multiplied by
    a ``(C * k * k, C_out)`` weight matrix.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 4:
        raise ValueError("inputs must be NCHW")
    n, c, h, w = inputs.shape
    h_out = conv_output_size(h, kernel, stride, padding)
    w_out = conv_output_size(w, kernel, stride, padding)
    source = np.zeros((n, h + 2 * padding, w + 2 * padding, c))
    # One NHWC copy of the padded input: the k*k patch slices below then
    # copy contiguous channel runs instead of each transposing NCHW again.
    source[:, padding:padding + h, padding:padding + w] = inputs.transpose(0, 2, 3, 1)
    patches = np.empty((n, h_out, w_out, c, kernel, kernel))
    for i in range(kernel):
        i_end = i + stride * h_out
        for j in range(kernel):
            j_end = j + stride * w_out
            patches[:, :, :, :, i, j] = source[:, i:i_end:stride, j:j_end:stride]
    return patches.reshape(n * h_out * w_out, c * kernel * kernel)


@functools.lru_cache(maxsize=128)
def patch_index(channels: int, height: int, width: int, kernel: int,
                stride: int = 1, padding: int = 0) -> np.ndarray:
    """Where every im2col patch element sits in one padded NCHW sample.

    Entry ``[s, f]`` of the returned read-only ``(H_out * W_out,
    C * kernel * kernel)`` intp array is the flat position, in one
    ``(C, H + 2p, W + 2p)`` zero-padded sample, of feature ``f`` of patch
    row ``s``.  So for a padded batch ``padded`` of ``n`` samples,
    ``np.take(padded.reshape(n, -1), index, axis=1)`` reshaped to
    ``(n * H_out * W_out, C * kernel * kernel)`` is :func:`im2col` of the
    unpadded batch, and any per-element map of ``padded`` (a table gather,
    say) can be taken before the k*k-fold expansion instead of after it.
    The index depends on the sample geometry only, not on the batch size,
    and is built once per geometry.
    """
    h_out = conv_output_size(height, kernel, stride, padding)
    w_out = conv_output_size(width, kernel, stride, padding)
    padded_h, padded_w = height + 2 * padding, width + 2 * padding
    rows = np.arange(h_out)[:, None, None, None, None] * stride
    cols = np.arange(w_out)[None, :, None, None, None] * stride
    chans = np.arange(channels)[None, None, :, None, None]
    taps_i = np.arange(kernel)[None, None, None, :, None]
    taps_j = np.arange(kernel)[None, None, None, None, :]
    index = ((chans * padded_h + rows + taps_i) * padded_w + cols + taps_j)
    index = np.ascontiguousarray(
        index.reshape(h_out * w_out, channels * kernel * kernel), dtype=np.intp)
    index.flags.writeable = False
    return index


def col2im_output(columns: np.ndarray, batch: int, out_channels: int,
                  h_out: int, w_out: int) -> np.ndarray:
    """Reshape the matrix-product result back into NCHW feature maps."""
    columns = np.asarray(columns, dtype=np.float64)
    expected = batch * h_out * w_out
    if columns.shape[0] != expected or columns.shape[1] != out_channels:
        raise ValueError(
            f"result shape {columns.shape} does not match "
            f"({expected}, {out_channels})"
        )
    return columns.reshape(batch, h_out, w_out, out_channels).transpose(0, 3, 1, 2)


def conv_weights_to_matrix(weights: np.ndarray) -> np.ndarray:
    """Flatten ``(C_out, C_in, k, k)`` kernels into a ``(C_in*k*k, C_out)`` matrix."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 4:
        raise ValueError("convolution weights must be 4-D (C_out, C_in, k, k)")
    c_out = weights.shape[0]
    return weights.reshape(c_out, -1).T


def grouped_conv_weights_to_matrix(weights: np.ndarray, groups: int) -> np.ndarray:
    """Flatten grouped-conv kernels into a block-diagonal weight matrix.

    A grouped convolution with ``(C_out, C_in/g, k, k)`` kernels only
    connects group ``i``'s input channels to group ``i``'s output channels.
    Because im2col flattens patches channel-major, each group's patch
    features occupy a *contiguous* row range of the full ``C_in*k*k``-wide
    matrix — so the grouped conv is exactly a block-diagonal
    ``(C_in*k*k, C_out)`` matrix over the ordinary full-width im2col, with
    one ``(C_in/g*k*k, C_out/g)`` dense block per group and zeros elsewhere.
    :class:`MappedLayer` with ``groups=g`` places only the diagonal blocks
    on macros (per-group tile placement), never materialising crossbars for
    the structural zeros.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 4:
        raise ValueError("convolution weights must be 4-D (C_out, C_in/g, k, k)")
    if groups < 1:
        raise ValueError("groups must be >= 1")
    if groups == 1:
        return conv_weights_to_matrix(weights)
    c_out, c_in_per_group, kernel, _ = weights.shape
    if c_out % groups:
        raise ValueError(f"{c_out} output channels do not divide into {groups} groups")
    out_per_group = c_out // groups
    rows_per_group = c_in_per_group * kernel * kernel
    matrix = np.zeros((groups * rows_per_group, c_out), dtype=np.float64)
    for g in range(groups):
        block = weights[g * out_per_group:(g + 1) * out_per_group]
        matrix[g * rows_per_group:(g + 1) * rows_per_group,
               g * out_per_group:(g + 1) * out_per_group] = (
            block.reshape(out_per_group, -1).T)
    return matrix


# ----------------------------------------------------------------------
# Tiling
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class TileSpec:
    """One rectangular weight tile assigned to one macro."""

    row_start: int
    row_stop: int
    col_start: int
    col_stop: int

    @property
    def rows(self) -> int:
        """Number of input features covered by the tile."""
        return self.row_stop - self.row_start

    @property
    def cols(self) -> int:
        """Number of output features covered by the tile."""
        return self.col_stop - self.col_start


def tile_weight_matrix(in_features: int, out_features: int,
                       max_rows: int, max_cols: int) -> List[TileSpec]:
    """Cut an ``in_features x out_features`` matrix into macro-sized tiles."""
    if in_features < 1 or out_features < 1:
        raise ValueError("weight matrix must be non-empty")
    if max_rows < 1 or max_cols < 1:
        raise ValueError("tile limits must be positive")
    tiles = []
    for row_start in range(0, in_features, max_rows):
        row_stop = min(row_start + max_rows, in_features)
        for col_start in range(0, out_features, max_cols):
            col_stop = min(col_start + max_cols, out_features)
            tiles.append(TileSpec(row_start, row_stop, col_start, col_stop))
    return tiles


class RoutingAdder:
    """Digital partial-sum accumulator between macros.

    The inter-core routing adder of the paper accumulates the partial sums of
    row tiles.  Accumulation happens in a wider floating-point format (FP16
    by default) so the adder itself does not become the precision bottleneck;
    passing ``accumulate_format=None`` keeps full float64 accumulation.
    """

    def __init__(self, accumulate_format: Optional[FloatFormat] = FP16) -> None:
        self.accumulate_format = accumulate_format
        self.additions = 0

    def accumulate(self, partials: Sequence[np.ndarray]) -> np.ndarray:
        """Sum a sequence of partial results elementwise."""
        partials = list(partials)
        if not partials:
            raise ValueError("need at least one partial result")
        total = np.zeros_like(np.asarray(partials[0], dtype=np.float64))
        for partial in partials:
            total = total + np.asarray(partial, dtype=np.float64)
            self.additions += total.size
            if self.accumulate_format is not None:
                scale = float(np.max(np.abs(total), initial=0.0)) or 1.0
                norm = self.accumulate_format.max_value
                total = self.accumulate_format.quantize(total / scale * norm) / norm * scale
        return total


# ----------------------------------------------------------------------
# A layer mapped onto one or more macros
# ----------------------------------------------------------------------
class MappedLayer:
    """A weight matrix mapped onto as many AFPR-CIM macros as needed.

    Parameters
    ----------
    weights:
        Signed weight matrix of shape ``(in_features, out_features)``.
    macro_config:
        Configuration used for every tile macro.
    routing_adder:
        Adder used to combine row-tile partial sums (a fresh FP16 adder is
        created if omitted).
    ideal_programming:
        Program conductances without write noise (useful for debugging and
        golden-model comparisons).
    groups:
        Grouped/depthwise structure: the weight matrix must be
        block-diagonal with ``groups`` equal blocks (see
        :func:`grouped_conv_weights_to_matrix`), and only the diagonal
        blocks are tiled onto macros — per-group tile placement instead of
        crossbars full of structural zeros.
    """

    def __init__(self, weights: np.ndarray, macro_config: MacroConfig = MacroConfig(),
                 routing_adder: Optional[RoutingAdder] = None,
                 ideal_programming: bool = False,
                 rng: Optional[np.random.Generator] = None,
                 groups: int = 1) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError("weights must be 2-D (in_features, out_features)")
        self.weights = weights
        self.macro_config = macro_config
        self.routing_adder = routing_adder if routing_adder is not None else RoutingAdder()
        self._rng = rng if rng is not None else np.random.default_rng(macro_config.seed)

        in_features, out_features = weights.shape
        probe = AFPRMacro(macro_config, rng=self._rng)
        if groups < 1:
            raise ValueError("groups must be >= 1")
        self.groups = groups
        if groups == 1:
            self.tiles = tile_weight_matrix(
                in_features, out_features, probe.max_in_features, probe.max_out_features
            )
        else:
            self.tiles = self._grouped_tiles(
                in_features, out_features, groups,
                probe.max_in_features, probe.max_out_features
            )
        self.macros: List[AFPRMacro] = []
        for tile in self.tiles:
            macro = AFPRMacro(macro_config, rng=self._rng)
            macro.program_weights(
                weights[tile.row_start:tile.row_stop, tile.col_start:tile.col_stop],
                ideal=ideal_programming,
            )
            self.macros.append(macro)
        # Tile placement is static, so group the row tiles of each output
        # column range once instead of re-deriving the grouping per forward.
        grouped = {}
        for tile, macro in zip(self.tiles, self.macros):
            key = (tile.col_start, tile.col_stop)
            grouped.setdefault(key, []).append((tile, macro))
        self.column_ranges = sorted(grouped.items())

    def _grouped_tiles(self, in_features: int, out_features: int, groups: int,
                       max_rows: int, max_cols: int) -> List[TileSpec]:
        """Per-group tile placement over a block-diagonal weight matrix."""
        if in_features % groups or out_features % groups:
            raise ValueError(
                f"feature counts ({in_features}, {out_features}) must divide "
                f"into {groups} groups"
            )
        in_per_group = in_features // groups
        out_per_group = out_features // groups
        # Off-block-diagonal weight would be silently dropped by per-group
        # placement; refuse it rather than compute the wrong product.
        check = self.weights.copy()
        for g in range(groups):
            check[g * in_per_group:(g + 1) * in_per_group,
                  g * out_per_group:(g + 1) * out_per_group] = 0.0
        if np.any(check != 0.0):
            raise ValueError(
                "grouped mapping requires a block-diagonal weight matrix "
                "(use grouped_conv_weights_to_matrix)"
            )
        tiles: List[TileSpec] = []
        for g in range(groups):
            row_base = g * in_per_group
            col_base = g * out_per_group
            for tile in tile_weight_matrix(in_per_group, out_per_group,
                                           max_rows, max_cols):
                tiles.append(TileSpec(
                    tile.row_start + row_base, tile.row_stop + row_base,
                    tile.col_start + col_base, tile.col_stop + col_base,
                ))
        return tiles

    # ------------------------------------------------------------------
    @property
    def in_features(self) -> int:
        """Input feature count of the mapped layer."""
        return self.weights.shape[0]

    @property
    def out_features(self) -> int:
        """Output feature count of the mapped layer."""
        return self.weights.shape[1]

    @property
    def num_macros(self) -> int:
        """Number of macros this layer occupies."""
        return len(self.macros)

    def calibrate(self, calibration_activations: np.ndarray) -> None:
        """Calibrate every tile macro with the matching slice of the inputs."""
        acts = np.atleast_2d(np.asarray(calibration_activations, dtype=np.float64))
        if acts.shape[1] != self.in_features:
            raise ValueError(
                f"calibration activations have {acts.shape[1]} features, "
                f"expected {self.in_features}"
            )
        for tile, macro in zip(self.tiles, self.macros):
            macro.calibrate(acts[:, tile.row_start:tile.row_stop])

    def forward(self, activations: np.ndarray) -> np.ndarray:
        """Compute ``activations @ weights`` through the mapped macros."""
        acts = np.asarray(activations, dtype=np.float64)
        squeeze = acts.ndim == 1
        acts = np.atleast_2d(acts)
        if acts.shape[1] != self.in_features:
            raise ValueError(
                f"activation length {acts.shape[1]} does not match {self.in_features}"
            )
        output = np.zeros((acts.shape[0], self.out_features), dtype=np.float64)
        # Row tiles of the same column range are accumulated through the
        # routing adder (grouping precomputed at construction).
        for (col_start, col_stop), placements in self.column_ranges:
            partials = [macro.matvec(acts[:, tile.row_start:tile.row_stop])
                        for tile, macro in placements]
            output[:, col_start:col_stop] = self.routing_adder.accumulate(partials)
        return output[0] if squeeze else output

    __call__ = forward

    def total_conversions(self) -> int:
        """Macro conversions performed so far (across all tiles)."""
        return sum(macro.stats.conversions for macro in self.macros)

    def ideal_forward(self, activations: np.ndarray) -> np.ndarray:
        """Digital floating-point reference of the mapped computation."""
        return np.asarray(activations, dtype=np.float64) @ self.weights
