"""Compile-once / run-many execution plans.

``run_model`` / ``BatchRunner`` historically re-derived the per-element FP8
conversion math (frexp-based DAC field encode, adaptive-range ADC decode,
quantiser rounding) and re-walked the Python-level tile bookkeeping on every
forward.  A :class:`ModelPlan` pays those costs once per ``(model, backend,
context)``:

* the prepared model is lowered into a flat **op program** that
  :meth:`ModelPlan.forward` walks in ``model.forward``'s evaluation order,
  without patching a single layer or adapter of the model;
* every analog tile is compiled into a :class:`CompiledTile` — the tile's
  conductance block packed contiguous, the DAC's 2^8 code→voltage transfer
  and the ADC's charge→code conversion baked into lookup tables
  (:meth:`~repro.core.fp_dac.FPDAC.voltage_lut`,
  :meth:`~repro.core.fp_adc.FPADC.conversion_lut`) whose bucket bounds are
  pulled back so each is one :class:`~repro.formats.fp8.StepTable`
  gather from the raw input: ``|x|`` to DAC codes, the matmul's currents
  to ADC read-outs;
* compiled tiles run in the **code domain**: activations are encoded
  into FP8 activation codes (sign + the DAC's 7-bit exponent/mantissa
  rank, plus the zero-detect level, stored as uint16) and
  :meth:`RowCodec.voltages` — the DAC — turns them into voltages with one
  table gather.  Each tile's quantiser (flush-to-zero, RNE rounding,
  saturation — the DAC's code table) is composed with its
  reference-ladder/PGA voltage reconstruction and the crossbar input clip
  into one signed code→voltage table (and a code→raw-voltage twin for
  offset mapping) at compile time.  A row range whose tiles share one
  table is encoded and converted *once* at the layer boundary, and every
  column tile of the range consumes the same voltages through
  :meth:`CompiledTile.matvec_volts`, the one analog pass of a compiled
  tile.  Conv layers **expand voltages, not codes**: the DAC gathers on
  the zero-padded input code map, k*k times fewer elements than its
  patches, and one take through the layer's
  :func:`~repro.core.mapping.patch_index` expands the voltages into patch
  rows; any other compiled tile encodes its own row slice with its own
  table;
* planned execution is **allocation-free** after the first forward: a
  per-plan :class:`PlanArena` grows reusable scratch slabs for the code
  maps, the DAC gathers and patch expansion, the crossbar matmul, the ADC
  read-outs and the blocked-row path (which writes block slices into one
  arena output instead of recursively concatenating), reused across
  batches (only the step tables' sparse fix-ups allocate).
  No slab outlives the op that took it, so slabs are named by their role
  inside an op (tile ``t<j>``, row range ``r<start>``, the conv's
  ``conv`` map and voltages), never by their layer: every layer draws
  from one namespace and the arena holds, per role, the largest layer's
  need;
* fake-quant adapters get LUT-compiled quantisers
  (:func:`repro.formats.quantizer.compile_quantizer`);
* an analog plan **calibrates through its own op program**, in one
  forward: the backend calibrates each layer on the input it sees the
  first time the forward reaches it, with the layers before it already
  on their calibrated macros, and the plan runs each layer compiled from
  the moment it is mapped (see :class:`ModelPlan`).

The compiled fast paths are **bit-identical** to the generic ones — the
lookup tables are built with exact boundary refinement
(:func:`repro.formats.fp8.refine_step_boundaries`) and pulled back to the
raw domains ulp-exactly, the code domain is an
exact re-encoding of the float activations (`|x|` ranks identically to the
sign-split parts the generic path ranks), and stochastic parts (crossbar
read noise) keep drawing from the same generators in the same order and
shapes — so a plan is a pure speedup, not an approximation.  Tiles whose
configuration breaks those guarantees (DAC output noise, ADC comparator
noise/offset, capacitor mismatch, non-vectorised readout) transparently
fall back to the generic macro path.  The routing adder rounds exactly in
float64 (:func:`repro.formats.fp8.round_to_format`) and writes each layer's
output once, in the generic path's layout (C-contiguous NCHW for a conv).
``ExecutionContext.compile_plan=False`` runs the generic kernels instead:
that hook path is the bit-identity oracle the plan is tested against.
Calibrating on compiled layers therefore calibrates every macro exactly as
the hook path does, generator states included.  Every forward, and the
calibration forward of ``prepare``, run with OpenBLAS held at one thread
(:func:`repro.exec.blas.single_thread`), so a plan's bits and its CPU cost
do not depend on the process's BLAS thread count.

Plans are picklable, which is what lets :mod:`repro.serve` ship one to each
process of a ``workers="process"`` pool and run replicas on real cores (the
arena's scratch slabs are dropped on pickling and regrown by the worker),
and :mod:`repro.shard` ship one op range of the program to each pipeline
stage.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import os
import pickle
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.macro import AFPRMacro
from repro.core.mapping import MappedLayer, conv_output_size, patch_index
from repro.exec import blas
from repro.exec.backend import ExecutionBackend, ExecutionContext
from repro.exec.backends import AnalogBackend, FakeQuantBackend
from repro.formats.fp8 import StepTable, pull_back_bounds, round_to_format
from repro.formats.quantizer import compile_quantizer
from repro.nn.cim_backend import CIMExecutionAdapter, MapLayer
from repro.nn.layers import Layer, Linear
from repro.nn.model import DepthwiseSeparableBlock, Model, ResidualBlock, Sequential
from repro.obs.trace import plan_trace_buffer


class PlanArena:
    """Named, growable scratch slabs shared by one plan's compiled kernels.

    ``take(name, shape, dtype)`` returns a dense view of a cached flat slab,
    growing it when a larger request arrives (first batch, or a bigger batch
    than seen before) and reusing it allocation-free afterwards.  A buffer
    is only valid until its name is taken again, and no buffer outlives the
    op that took it: an op's result is a fresh array, never a slab.  So a
    name only has to be distinct among the buffers one op holds at the same
    time (each tile's partial until the adder sums them, each row range's
    voltages, a conv's patch rows while its codecs encode); names carry
    their role, not their layer, and every layer of a plan draws from the
    same slabs, sized by the largest layer.  A plan therefore runs one
    forward at a time.

    The slabs are deliberately not pickled — a plan shipped to a process
    worker regrows its scratch on first forward instead of shipping
    megabytes of dead scratch bytes.

    While :attr:`pooled` is ``False`` every ``take`` returns a fresh array
    and nothing is kept: a plan's calibration forward runs on scratch its
    batches never reuse, so prepare leaves no slab sized for the
    calibration batch behind.
    """

    def __init__(self) -> None:
        self._slabs: Dict[Tuple[str, np.dtype], np.ndarray] = {}
        self.pooled = True

    def take(self, name: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A C-contiguous ``shape``-d scratch view, contents undefined."""
        if not self.pooled:
            return np.empty(shape, dtype=dtype)
        size = 1
        for dim in shape:
            size *= int(dim)
        key = (name, np.dtype(dtype))
        slab = self._slabs.get(key)
        if slab is None or slab.size < size:
            slab = np.empty(max(size, 1), dtype=dtype)
            self._slabs[key] = slab
        return slab[:size].reshape(shape)

    def nbytes(self) -> int:
        """Total bytes currently held by the arena's slabs."""
        return sum(slab.nbytes for slab in self._slabs.values())

    def largest_slab(self) -> Optional[Tuple[str, int]]:
        """``(name, bytes)`` of the biggest slab, ``None`` while empty."""
        if not self._slabs:
            return None
        (name, _), slab = max(self._slabs.items(), key=lambda item: item[1].nbytes)
        return name, slab.nbytes

    def __getstate__(self) -> dict:
        return {}

    def __setstate__(self, state: dict) -> None:
        self._slabs = {}
        self.pooled = True


@dataclasses.dataclass
class StageProfile:
    """Wall-clock accumulators of the plan's pipeline stages.

    ``dac`` / ``crossbar`` / ``adc`` are metered inside the compiled
    kernels: ``dac`` is the layer-boundary encoding (it *is* the DAC's
    quantiser) plus the code→voltage table gathers — for a conv, on the
    un-expanded input map.  ``digital`` is everything else in the forward
    pass (digital layers, patch expansion, routing adder, quantisers), of
    which ``im2col`` and ``adder`` are metered; ``im2col`` times the patch
    expansion — of a coded conv's DAC voltages, or of an uncoded conv's
    float input.  ``transport`` is
    time spent moving batches to and from process workers — zero for
    in-process execution, filled in by :mod:`repro.serve` for
    ``workers="process"``.  ``python -m repro run --profile`` and the serve
    CLIs render this breakdown with a percent-of-total column.
    """

    dac_s: float = 0.0
    crossbar_s: float = 0.0
    adc_s: float = 0.0
    total_s: float = 0.0
    forwards: int = 0
    transport_s: float = 0.0
    #: Pipeline bubble: time a sharded stage spent starved for upstream
    #: input after its first batch (zero outside pipeline execution).
    bubble_s: float = 0.0
    im2col_s: float = 0.0
    adder_s: float = 0.0

    def reset(self) -> None:
        """Zero every accumulator, in place: compiled kernels hold this
        object."""
        for field in dataclasses.fields(self):
            setattr(self, field.name, field.default)

    @property
    def digital_s(self) -> float:
        """Forward time not spent in the analog DAC/crossbar/ADC stages."""
        return max(self.total_s - self.dac_s - self.crossbar_s - self.adc_s, 0.0)

    def as_dict(self) -> Dict[str, float]:
        """The breakdown as a plain dict (for reports and JSON)."""
        return {
            "dac_s": self.dac_s,
            "crossbar_s": self.crossbar_s,
            "adc_s": self.adc_s,
            "digital_s": self.digital_s,
            "im2col_s": self.im2col_s,
            "adder_s": self.adder_s,
            "transport_s": self.transport_s,
            "bubble_s": self.bubble_s,
            "total_s": self.total_s,
            "forwards": float(self.forwards),
        }

    def render(self) -> str:
        """Human-readable per-stage breakdown with a percent-of-total column."""
        grand_total = self.total_s + self.transport_s + self.bubble_s
        denom = grand_total or 1.0
        rows = [("DAC", self.dac_s), ("crossbar", self.crossbar_s),
                ("ADC", self.adc_s), ("digital", self.digital_s)]
        # Optional rows (aggregated profiles do not meter the sub-stages).
        rows += [row for row in (("  im2col", self.im2col_s),
                                 ("  adder", self.adder_s),
                                 ("transport", self.transport_s),
                                 ("bubble", self.bubble_s)) if row[1] > 0]
        lines = [f"Per-stage forward time over {self.forwards} forward(s):"]
        for name, seconds in rows:
            lines.append(f"  {name:9s} {seconds * 1e3:9.2f} ms  "
                         f"({100.0 * seconds / denom:5.1f} %)")
        lines.append(f"  {'total':9s} {grand_total * 1e3:9.2f} ms")
        return "\n".join(lines)


class TileNotCompilable(Exception):
    """Raised when a macro tile cannot be expressed as LUT kernels."""


class RowCodec:
    """Layer-boundary FP8 encoder and DAC of one row range.

    Composes the DAC's quantiser with the sign split into one uint16 code
    per activation: ``code = rank(|x|)`` for non-negative ``x`` and ``code
    = levels + rank`` for negative ``x``, the rank read off ``|x|`` by the
    tile's :attr:`CompiledTile.act_codes` table.  An input with no
    negative element (every ReLU-fed layer) skips ``abs`` and the sign
    passes.  The fused signed code→voltage tables (:attr:`volts_pos` /
    :attr:`volts_neg`, raw twins for offset mapping) then turn a code
    directly into the voltage the generic path would have produced for the
    matching sign pass — zero voltage for the opposite sign, exactly like
    ``clip(±x, 0)`` ranking to the zero bucket.  :meth:`voltages` is the
    DAC: it gathers the row voltages once, and every column tile of the
    row range consumes them.  A conv layer hands it the code map of the
    un-expanded input plus a :func:`~repro.core.mapping.patch_index`, so
    the table gathers run on k*k times fewer elements and the voltages,
    not the codes, are expanded into patches.
    """

    def __init__(self, tile: "CompiledTile") -> None:
        self.table = tile.act_codes
        #: Number of magnitude levels (zero + the DAC's non-zero codes).
        self.levels = int(tile.dac_volts.shape[0])
        #: Offset mapping: the tiles also need pre-clip voltage row sums.
        self.raw = not tile.differential
        zeros = np.zeros(self.levels, dtype=np.float64)
        self.volts_pos = np.ascontiguousarray(
            np.concatenate([tile.dac_volts, zeros]))
        self.volts_neg = np.ascontiguousarray(
            np.concatenate([zeros, tile.dac_volts]))
        self.raw_pos = np.ascontiguousarray(
            np.concatenate([tile.dac_volts_raw, zeros]))
        self.raw_neg = np.ascontiguousarray(
            np.concatenate([zeros, tile.dac_volts_raw]))

    def matches(self, tile: "CompiledTile") -> bool:
        """Whether ``tile`` can consume this codec's voltages bit-identically."""
        return (np.array_equal(tile.act_codes.bounds, self.table.bounds)
                and np.array_equal(tile.dac_volts, self.volts_pos[:self.levels])
                and np.array_equal(tile.dac_volts_raw, self.raw_pos[:self.levels])
                and self.raw == (not tile.differential))

    def encode(self, acts: np.ndarray, arena: PlanArena, key: str,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        """Encode float activations of any shape into signed uint16 codes.

        Bit-exact against the generic sign-split ranking: for ``x >= 0`` the
        positive part equals ``|x|`` and for ``x < 0`` the negative part
        equals ``|x|`` (exact negation), so ranking ``|x|`` once reproduces
        the rank either sign pass would compute, and the opposite pass's
        zero-clip collapses to the zero entries of the signed tables.
        ``out`` (any uint16 view of ``acts``' shape, e.g. the interior of a
        padded map) receives the codes instead of arena scratch; they are
        encoded contiguous and copied there once.
        """
        shape = acts.shape
        codes = arena.take(key + ":codes", shape, np.uint16)
        work = arena.take(key + ":cell", shape, np.int64)
        flags = arena.take(key + ":flag", shape, bool)
        if not acts.size or acts.min() >= 0:  # no sign bit to set
            self.table(acts, out=codes, work=work, flags=flags)
        else:
            mag = arena.take(key + ":mag", shape)
            np.abs(acts, out=mag)
            self.table(mag, out=codes, work=work, flags=flags)
            np.less(acts, 0.0, out=flags)
            offset = arena.take(key + ":off", shape, np.uint16)
            np.multiply(flags, np.uint16(self.levels), out=offset, casting="unsafe")
            codes += offset
        if out is None:
            return codes
        out[...] = codes
        return out

    def voltages(self, codes: np.ndarray, index: Optional[np.ndarray],
                 arena: PlanArena, key: str, profile: StageProfile) -> tuple:
        """``(volts, voltage_sums, needs_negative)`` of a batch of rows.

        ``codes`` is a ``(n, m)`` uint16 code map.  Without ``index`` its
        rows are the input rows.  With a ``(p, f)`` ``index`` (see
        :func:`~repro.core.mapping.patch_index`) input row ``b * p + s``
        is ``codes[b, index[s]]``: each table is gathered on the map and
        the voltages are expanded through the index by one take.
        ``volts`` stacks the positive pass of every row and then the
        negative pass of the rows ``needs_negative`` marks;
        ``needs_negative`` is ``None`` when no code carries the sign bit.
        A code at or beyond ``levels`` carries it, so a row needs the
        second pass exactly when the generic path's ``any(clip(-x, 0) >
        0)`` holds — including tiny negatives that flush to the zero rank
        but still owe a (zero-voltage) pass.  ``voltage_sums`` are the
        rows' pre-clip voltage sums for offset mapping (``None`` for
        differential columns).  The expansions count as ``im2col`` time,
        the rest as DAC time.
        """
        tick = time.perf_counter()
        n, m = codes.shape
        per_sample, width = (1, m) if index is None else index.shape
        batch = n * per_sample
        needs_negative = None
        negative_rows = ()
        if codes.size and int(codes.max()) >= self.levels:  # any sign bit
            flags = arena.take(key + ":sflag", codes.shape, bool)
            np.greater_equal(codes, np.uint16(self.levels), out=flags)
            if index is not None:
                flags = flags.take(index, axis=1, mode="clip", out=arena.take(
                    key + ":pflag", (n, per_sample, width), bool))
            needs_negative = flags.reshape(batch, width).any(axis=1)
            negative_rows = np.flatnonzero(needs_negative)
        rows = batch + len(negative_rows)
        tables = [(":volts", self.volts_pos, self.volts_neg)]
        if self.raw:
            tables.append((":raw", self.raw_pos, self.raw_neg))
        signed_codes = None
        if index is None and len(negative_rows):
            signed_codes = codes.take(negative_rows, axis=0, mode="clip", out=arena.take(
                key + ":scodes", (len(negative_rows), m), np.uint16))
        expand_s = 0.0
        gathered = []
        for name, positive, negative in tables:
            out = arena.take(key + name, (rows, width))
            expand_s += self._convert(positive, codes, index, out[:batch], arena, key)
            if signed_codes is not None:  # rows are the input rows: keep the signed ones
                negative.take(signed_codes, mode="clip", out=out[batch:])
            elif len(negative_rows):  # expand the whole map, then keep the signed rows
                full = arena.take(key + name + ":neg", (batch, width))
                expand_s += self._convert(negative, codes, index, full, arena, key)
                full.take(negative_rows, axis=0, mode="clip", out=out[batch:])
            gathered.append(out)
        voltage_sums = None
        if self.raw:
            voltage_sums = gathered[1].sum(axis=-1,
                                           out=arena.take(key + ":vsum", (rows,)))
        profile.im2col_s += expand_s
        profile.dac_s += time.perf_counter() - tick - expand_s
        return gathered[0], voltage_sums, needs_negative

    @staticmethod
    def _convert(table: np.ndarray, codes: np.ndarray,
                 index: Optional[np.ndarray], out: np.ndarray,
                 arena: PlanArena, key: str) -> float:
        """``out = table[codes]``, expanded through ``index`` when given;
        returns the seconds the expansion took."""
        if index is None:
            table.take(codes, mode="clip", out=out)
            return 0.0
        volts_map = table.take(codes, mode="clip",
                               out=arena.take(key + ":vmap", codes.shape))
        tick = time.perf_counter()
        volts_map.take(index, axis=1, mode="clip",
                       out=out.reshape(codes.shape[0], *index.shape))
        return time.perf_counter() - tick


class CompiledTile:
    """One macro tile compiled to LUT-fused kernels.

    Replicates :meth:`AFPRMacro.matvec` (vectorised mode) bit for bit:

    * DAC: one gather through the fused signed code→voltage table of a
      :class:`RowCodec` instead of frexp field extraction plus per-gain PGA
      passes, on codes from :attr:`act_codes`, a
      :class:`~repro.formats.fp8.StepTable` from ``|x|`` to the DAC code,
    * crossbar: the packed contiguous conductance block, read noise drawn
      from the *same* device generator in the same order and shape,
    * ADC: :attr:`adc`, a step table from the matmul's currents to the
      read-out currents, instead of the adaptive-range search,
      residual-voltage gathers and single-slope rounding,

    and updates ``macro.stats`` exactly like the generic path: saturations
    are the currents at or above the top bound, underflows the zero
    read-outs.  All scratch
    comes from the plan's :class:`PlanArena`; the blocked-row path writes
    block slices into one arena output instead of recursively concatenating.
    Construction raises :class:`TileNotCompilable` when the configuration
    has stochastic converter stages the tables cannot represent.
    """

    def __init__(self, macro: AFPRMacro, profile: StageProfile,
                 arena: Optional[PlanArena] = None, key: str = "tile") -> None:
        config = macro.config
        if macro._weights is None:
            raise TileNotCompilable("macro not programmed")
        if macro.crossbar.config.v_clamp != 0.0:
            raise TileNotCompilable("non-zero source-line clamp")
        dac_lut = macro.dac.voltage_lut()
        if dac_lut is None:
            raise TileNotCompilable("stochastic DAC output stage")
        adc_lut = macro.adc.conversion_lut()
        if adc_lut is None:
            raise TileNotCompilable("stochastic or offset ADC conversion")

        self.macro = macro
        self.profile = profile
        self.arena = arena if arena is not None else PlanArena()
        self.key = key
        self.in_features = macro._in_features
        self.out_features = macro._out_features
        self.active_cols = macro.physical_columns
        self.differential = config.differential_columns
        self.out_width = (self.active_cols // 2 if self.differential
                          else self.active_cols)
        # (a) pre-packed tile state: the active sub-array of the crossbar as
        # one contiguous block (the generic path re-slices the 576x256 array
        # on every evaluation).
        self.conductances = np.ascontiguousarray(
            macro.crossbar._conductances[: self.in_features, : self.active_cols])
        self.read_noise_enabled = macro.crossbar.config.read_noise_enabled
        ir_drop = (macro.crossbar.config.ir_drop_enabled
                   and macro.crossbar.config.wire_resistance > 0.0)
        if ir_drop:
            r = macro.crossbar.config.wire_resistance
            col_dist = np.arange(1, self.active_cols + 1, dtype=np.float64)[None, :]
            row_dist = np.arange(1, self.in_features + 1, dtype=np.float64)[:, None]
            self.wire_resistance: Optional[np.ndarray] = r * (col_dist + row_dist)
        else:
            self.wire_resistance = None

        # (b) LUT-fused conversion kernels.  The generic path ranks
        # min(|x| / scale, clamp) and min(max(I, 0) * T_int, clamp); both
        # transforms fold into the bounds (the clamps never change a rank).
        dac_bounds = dac_lut.bounds
        scale = macro.activation_scale
        self.act_codes = StepTable(
            pull_back_bounds(dac_bounds, lambda y: y / scale, dac_bounds * scale),
            np.arange(dac_bounds.size + 1, dtype=np.uint16))
        # Fold the code-value → current reconstruction constant into the
        # values (the reference multiplies elementwise by the same scalar).
        t_int = config.adc.integration_time
        charge_bounds = adc_lut.bounds
        adc_values = adc_lut.values * macro.adc.value_to_current(1.0)
        if np.count_nonzero(adc_values == 0.0) != 1:
            raise TileNotCompilable("a non-zero ADC code reads zero current")
        self.adc = StepTable(
            pull_back_bounds(charge_bounds, lambda i: i * t_int,
                             charge_bounds / t_int),
            adc_values)
        self.adc_top = float(self.adc.bounds[-1])
        # Fold the crossbar's input clip into the table: voltages are
        # per-code constants, so clipping the 129 entries equals clipping
        # every converted element.  Offset mapping also needs the *raw*
        # table — the generic path's common-mode voltage sum is taken
        # before the crossbar clip.
        v_max = macro.crossbar.config.v_input_max
        self.dac_volts = np.clip(dac_lut.values, -v_max, v_max)
        self.dac_volts_raw = dac_lut.values
        # Output scale chain, exactly as _current_to_output derives it.
        g_span = macro.device.g_max - macro.device.g_min
        if self.differential:
            conductance_swing = g_span
        else:
            conductance_swing = 0.5 * g_span
            self.g_mid = 0.5 * (macro.device.g_max + macro.device.g_min)
        denom = macro.dac.volts_per_unit * conductance_swing
        self.output_scale = (macro.activation_scale * macro.weight_scale / denom
                             if macro.weight_scale > 0 else 0.0)

    # ------------------------------------------------------------------
    def _block_conductances(self) -> np.ndarray:
        """Per-block conductances with read noise / IR drop applied."""
        conductances = self.conductances
        if self.read_noise_enabled:
            # Same generator, order and shape as the generic crossbar path,
            # so the noise sample (and every later draw) is identical.
            conductances = self.macro.device.read_noise(
                conductances, out=self.arena.take(self.key + ":g", conductances.shape))
        if self.wire_resistance is not None:
            conductances = conductances / (1.0 + conductances * self.wire_resistance)
        return conductances

    def _convert_block(self, voltages: np.ndarray,
                       voltage_sum: Optional[np.ndarray],
                       out_block: np.ndarray) -> None:
        """Crossbar → ADC → scaled logical output for one ≤block row slab.

        ``voltages`` are the DAC outputs of the block (arena scratch);
        ``voltage_sum`` is the pre-clip common-mode sum for offset mapping
        (``None`` for differential columns); the scaled result lands in
        ``out_block``.
        """
        arena, key, profile = self.arena, self.key, self.profile
        shape = (voltages.shape[0], self.active_cols)

        tick = time.perf_counter()
        conductances = self._block_conductances()
        currents = arena.take(key + ":cur", shape)
        np.matmul(voltages, conductances, out=currents)
        tock = time.perf_counter()
        profile.crossbar_s += tock - tick

        # The read-out current of every column, straight off the currents'
        # bits; it lands on the cell indices, each read before it is
        # overwritten.
        cells = arena.take(key + ":cell", shape, np.int64)
        flags = arena.take(key + ":flags", shape, bool)
        measured = self.adc(currents, out=cells.view(np.float64), work=cells,
                            flags=flags)

        stats = self.macro.stats
        stats.conversions += shape[0]
        stats.mac_operations += shape[0] * 2 * self.in_features * self.out_features
        np.greater_equal(currents, self.adc_top, out=flags)
        stats.adc_saturations += int(np.count_nonzero(flags))
        np.equal(measured, 0.0, out=flags)
        stats.adc_underflows += int(np.count_nonzero(flags))

        if self.differential:
            np.subtract(measured[..., 0::2], measured[..., 1::2], out=out_block)
        else:
            # The generic path sums the DAC voltages *before* the crossbar
            # input clip; the codec gathered the unclipped table.  The sums
            # are shared by every column tile, so the common-mode scale
            # goes to scratch.
            common = np.multiply(voltage_sum, self.g_mid,
                                 out=arena.take(key + ":common", voltage_sum.shape))
            np.subtract(measured, common[..., None], out=out_block)
        out_block *= self.output_scale
        profile.adc_s += time.perf_counter() - tock

    # ------------------------------------------------------------------
    @functools.cached_property
    def codec(self) -> RowCodec:
        """This tile's own encoder, for activations no layer encoded."""
        return RowCodec(self)

    def matvec(self, activations: np.ndarray) -> np.ndarray:
        """``activations @ W``: encode and convert with :attr:`codec`, then
        the analog pass."""
        acts = np.asarray(activations, dtype=np.float64)
        squeeze = acts.ndim == 1
        acts = np.atleast_2d(acts)
        if acts.shape[1] != self.in_features:
            raise ValueError(
                f"activation length {acts.shape[1]} does not match the "
                f"{self.in_features} programmed input features"
            )
        tick = time.perf_counter()
        codes = self.codec.encode(acts, self.arena, self.key + ":x")
        self.profile.dac_s += time.perf_counter() - tick
        result = self.matvec_volts(*self.codec.voltages(
            codes, None, self.arena, self.key + ":x", self.profile))
        return result[0] if squeeze else result

    def matvec_volts(self, volts: np.ndarray,
                     voltage_sums: Optional[np.ndarray],
                     needs_negative: Optional[np.ndarray]) -> np.ndarray:
        """``activations @ W`` from DAC output voltages.

        ``(volts, voltage_sums, needs_negative)`` is what
        :meth:`RowCodec.voltages` returns: the positive pass of every row,
        then the negative pass of the rows the mask marks, plus the
        pre-clip voltage sums for offset mapping — gathered once per layer
        row range and shared by every column tile, or by :meth:`matvec`
        for this tile alone.  Read-only here: the DAC already ran.
        """
        rows = volts.shape[0]
        batch = rows if needs_negative is None else needs_negative.shape[0]
        block = self.macro.ANALOG_PASS_BLOCK_ROWS
        out = self.arena.take(self.key + ":out", (rows, self.out_width))
        for start in range(0, max(rows, 1), block):
            stop = min(start + block, rows)
            if stop <= start:
                break
            self._convert_block(
                volts[start:stop],
                None if voltage_sums is None else voltage_sums[start:stop],
                out[start:stop])
        result = out[:batch]
        if rows > batch:
            result[needs_negative] -= out[batch:]
        return result[..., : self.out_features]


class _CompiledRoutingAdder:
    """The mapped layer's routing adder as in-place float64 kernels.

    Reproduces :meth:`repro.core.mapping.RoutingAdder.accumulate` bit for
    bit — same accumulation order, same data-dependent scale, same
    ``additions`` counter (incremented on the *wrapped* adder, so generic
    and compiled runs stay comparable) — on arena scratch: the
    accumulation format rounds through
    :func:`repro.formats.fp8.round_to_format` (formats it cannot express,
    unsigned or non-saturating, through ``fmt.quantize``), and the last
    pass writes straight into the caller's output view.
    """

    def __init__(self, adder, arena: PlanArena, key: str) -> None:
        self.adder = adder
        self.arena = arena
        self.key = key
        fmt = adder.accumulate_format
        self.exact = fmt is not None and fmt.signed and fmt.saturate
        self.norm = None if fmt is None else fmt.max_value

    def accumulate(self, partials: List[np.ndarray], out: np.ndarray) -> np.ndarray:
        """Sum ``(rows, cols)`` partials into ``out`` (rows split as its
        leading axes, e.g. ``(n, h, w, cols)`` for a conv layer)."""
        if not partials:
            raise ValueError("need at least one partial result")
        fmt = self.adder.accumulate_format
        shape = out.shape
        scratch = self.arena.take(self.key + ":sum", shape)
        total = None
        for index, partial in enumerate(partials):
            partial = partial.reshape(shape)
            self.adder.additions += partial.size
            target = out if index == len(partials) - 1 else scratch
            if fmt is None:
                # The reference starts from zeros: 0 + (-0) gives +0.
                total = np.add(0.0 if total is None else total, partial, out=target)
                continue
            if total is not None:
                partial = np.add(total, partial, out=scratch)
            # (The first partial needs no zero start: rounding sends -0 to +0.
            # The zero initial only matters for an empty batch.)
            scale = max(float(partial.max(initial=0.0)),
                        -float(partial.min(initial=0.0))) or 1.0
            np.divide(partial, scale, out=scratch)
            scratch *= self.norm
            if self.exact:
                round_to_format(fmt, scratch, out=scratch,
                                work=self.arena.take(self.key + ":work", shape))
            else:
                np.copyto(scratch, fmt.quantize(scratch))
            scratch /= self.norm
            total = np.multiply(scratch, scale, out=target)
        return out


class _FallbackTile:
    """Adapter presenting the generic ``macro.matvec`` as a compiled tile."""

    def __init__(self, macro: AFPRMacro) -> None:
        self.macro = macro

    def matvec(self, activations: np.ndarray) -> np.ndarray:
        return self.macro.matvec(activations)


class CompiledMappedLayer:
    """A :class:`MappedLayer` whose tiles run on compiled kernels.

    Built by the plan next to the mapped layer, which it reads but never
    replaces: the adapter keeps running the generic hook path.  The
    per-layer column ranges and tile groupings are precomputed, so the
    forward iterates plain lists instead of re-deriving the tiling, and the
    shared routing adder keeps its accumulation format and counters.

    Each row range whose tiles all compiled and share one DAC transfer
    gets a :class:`RowCodec`: the forward encodes that row slice into FP8
    codes and gathers its voltages once, and every column tile consumes
    the same voltage slab.  In any other row range (fallback tiles,
    mismatched calibration scales) each compiled tile encodes and converts
    its own slice with its own codec.
    """

    def __init__(self, mapped: MappedLayer, profile: StageProfile,
                 arena: Optional[PlanArena] = None, key: str = "layer") -> None:
        self.mapped = mapped
        self.profile = profile
        self.arena = arena if arena is not None else PlanArena()
        #: The layer's trace / profile label; its arena names never carry it.
        self.key = key
        tiles = []
        for index, macro in enumerate(mapped.macros):
            try:
                tiles.append(CompiledTile(macro, profile, self.arena,
                                          key=f"t{index}"))
            except TileNotCompilable:
                tiles.append(_FallbackTile(macro))
        self.tiles = tiles
        # Mirror the mapped layer's own precomputed placement (same ranges,
        # same accumulation order), substituting each macro's compiled tile.
        tile_for_macro = {id(macro): tile
                          for macro, tile in zip(mapped.macros, tiles)}
        self.column_ranges = [
            (key_, [(spec.row_start, spec.row_stop, tile_for_macro[id(macro)])
                    for spec, macro in placements])
            for key_, placements in mapped.column_ranges
        ]
        # The adder's slabs die with the op, like every slab: all layers
        # share them.
        self.routing_adder = _CompiledRoutingAdder(
            mapped.routing_adder, self.arena, "add")
        # One codec per row range whose tiles can all consume shared codes.
        self.codecs: Dict[Tuple[int, int], RowCodec] = {}
        grouped: Dict[Tuple[int, int], List[object]] = {}
        for _, placements in self.column_ranges:
            for row_start, row_stop, tile in placements:
                grouped.setdefault((row_start, row_stop), []).append(tile)
        for row_range, row_tiles in grouped.items():
            if not all(isinstance(t, CompiledTile) for t in row_tiles):
                continue
            codec = row_tiles[0].codec
            if all(codec.matches(t) for t in row_tiles):
                self.codecs[row_range] = codec
        # Row ranges partition the input, so their starts name them.
        self._coded = [(row_start, row_stop, f"r{row_start}", codec)
                       for (row_start, row_stop), codec in self.codecs.items()]

    @property
    def full_row_codec(self) -> Optional[RowCodec]:
        """The codec covering the whole input, when the layer has one.

        This is what lets conv layers run the DAC on the un-expanded input
        and expand voltages into patches (see :meth:`RowCodec.voltages`).
        """
        return self.codecs.get((0, self.mapped.in_features))

    def forward(self, activations: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
        """Compute ``activations @ weights`` through the compiled tiles.

        The result lands in ``out`` — any view whose leading axes split the
        rows, e.g. a conv's NCHW output transposed to ``(n, h, w, C)`` — or
        in a fresh array, never arena scratch: it escapes the plan.
        """
        acts = np.asarray(activations, dtype=np.float64)
        squeeze = acts.ndim == 1
        acts = np.atleast_2d(acts)
        if acts.shape[1] != self.mapped.in_features:
            raise ValueError(f"activation length {acts.shape[1]} does not "
                             f"match {self.mapped.in_features}")
        if out is None:
            out = np.empty((acts.shape[0], self.mapped.out_features))
        converted = {}
        for row_start, row_stop, key, codec in self._coded:
            tick = time.perf_counter()
            codes = codec.encode(acts[:, row_start:row_stop], self.arena, key)
            self.profile.dac_s += time.perf_counter() - tick
            converted[(row_start, row_stop)] = codec.voltages(
                codes, None, self.arena, key, self.profile)
        self._accumulate(acts, converted, out)
        return out[0] if squeeze else out

    def forward_volts(self, converted: tuple, out: np.ndarray) -> np.ndarray:
        """Forward DAC voltages covering the whole input width.

        Used by the planned conv forward: ``converted`` is what
        :attr:`full_row_codec`'s :meth:`RowCodec.voltages` returned for the
        layer's patch rows, and ``out`` the output view :meth:`forward`
        describes.
        """
        return self._accumulate(None, {(0, self.mapped.in_features): converted}, out)

    def _accumulate(self, acts: Optional[np.ndarray],
                    converted: Dict[Tuple[int, int], tuple],
                    out: np.ndarray) -> np.ndarray:
        """Run every placement; each column range's routed sum lands in
        its slice of ``out``."""
        adder, profile = self.routing_adder, self.profile
        for (col_start, col_stop), placements in self.column_ranges:
            partials = []
            for row_start, row_stop, tile in placements:
                row_range = (row_start, row_stop)
                if row_range in converted:
                    partials.append(tile.matvec_volts(*converted[row_range]))
                else:
                    partials.append(tile.matvec(acts[:, row_start:row_stop]))
            tick = time.perf_counter()
            adder.accumulate(partials, out[..., col_start:col_stop])
            profile.adder_s += time.perf_counter() - tick
        return out

    def total_conversions(self) -> int:
        """Macro conversions performed so far (stats live on the macros)."""
        return self.mapped.total_conversions()

    @property
    def compiled_tiles(self) -> int:
        """How many tiles run on LUT kernels (vs. generic fallback)."""
        return sum(isinstance(t, CompiledTile) for t in self.tiles)

    @property
    def coded_row_ranges(self) -> int:
        """How many row ranges share one codec (and one voltage slab)."""
        return len(self.codecs)


# ----------------------------------------------------------------------
# The op program: a prepared model lowered into a flat list of ops
# ----------------------------------------------------------------------
# An op is a picklable callable ``op(x, stack) -> x``: ``x`` is the one
# tensor flowing through the program, and ``stack`` holds the tensors a
# residual block keeps alive beside it.
class _MatmulOp:
    """A macro-mapped Conv2d / Linear layer run on its compiled mapped layer.

    The hook path computes the layer's full digital output (im2col + GEMM +
    bias) only for ``process_output`` to discard it and recompute the same
    im2col for the macros.  This op runs the layer straight on the
    compiled mapped layer — no dead GEMM — producing the exact arrays the
    hook path produced.  A conv never builds the im2col matrix of its
    input: it zero-pads the input once into an arena map and expands
    through the layer geometry's :func:`~repro.core.mapping.patch_index`.
    When the layer has a full-width codec, the map holds FP8 codes (padding
    is the zero code), the DAC tables are gathered on the map and the
    *voltages* are expanded into patches; otherwise the float input itself
    is expanded.  Grouped convolutions map like any other conv: the
    block-diagonal weight matrix consumes the same full-width patch rows.
    """

    def __init__(self, layer: Layer, compiled: CompiledMappedLayer) -> None:
        self.layer = layer
        self.compiled = compiled

    def _conv(self, x: np.ndarray, out: np.ndarray) -> None:
        """The conv's patch rows through the mapped layer into ``out``."""
        layer, compiled = self.layer, self.compiled
        arena, profile = compiled.arena, compiled.profile
        k, stride, p = layer.kernel_size, layer.stride, layer.padding
        if k == 1 and p == 0:
            # A 1x1 conv reads every stride-th pixel only: convert just those.
            x, stride = x[:, :, ::stride, ::stride], 1
        n, c, h, w = x.shape
        index = patch_index(c, h, w, k, stride, p)
        codec = compiled.full_row_codec
        tick = time.perf_counter()
        padded = arena.take("conv:map", (n, c, h + 2 * p, w + 2 * p),
                            np.float64 if codec is None else np.uint16)
        if p:
            padded.fill(0)
        interior = padded[:, :, p:p + h, p:p + w]
        flat = padded.reshape(n, c * (h + 2 * p) * (w + 2 * p))
        if codec is None:
            interior[...] = x
            cols = arena.take("conv:cols", (n * index.shape[0], index.shape[1]))
            flat.take(index, axis=1, mode="clip", out=cols.reshape(n, *index.shape))
            profile.im2col_s += time.perf_counter() - tick
            compiled.forward(cols, out=out)
            return
        codec.encode(x, arena, "conv:x", out=interior)
        profile.dac_s += time.perf_counter() - tick
        compiled.forward_volts(codec.voltages(flat, index, arena, "conv", profile), out)

    def __call__(self, x: np.ndarray, stack: list) -> np.ndarray:
        layer = self.layer
        x = np.asarray(x, dtype=np.float64)
        if isinstance(layer, Linear):
            result = self.compiled.forward(x)
            if layer.bias is not None:
                result += layer.bias.value
            return result
        h_out = conv_output_size(x.shape[2], layer.kernel_size, layer.stride,
                                 layer.padding)
        w_out = conv_output_size(x.shape[3], layer.kernel_size, layer.stride,
                                 layer.padding)
        # The routing adder writes each column range straight into the
        # NCHW result through its (n, h, w, C) transpose, so BN, ReLU and
        # the residual add downstream read contiguous memory.
        result = np.empty((x.shape[0], layer.out_channels, h_out, w_out))
        self._conv(x, result.transpose(0, 2, 3, 1))
        if layer.bias is not None:
            result += layer.bias.value[None, :, None, None]
        return result


class _CallOp:
    """``layer.forward``: a digital layer, a mapped layer on the hook path,
    or a composite the lowering does not know, run whole."""

    def __init__(self, layer: Layer) -> None:
        self.layer = layer

    def __call__(self, x: np.ndarray, stack: list) -> np.ndarray:
        return self.layer.forward(x, training=False)


class _BackendOp:
    """A backend that overrides ``forward`` runs the model as one op."""

    def __init__(self, backend: ExecutionBackend, model: Model) -> None:
        self.backend = backend
        # As ``layer``, the model's macros and parameters count for the op.
        self.layer = model

    def __call__(self, x: np.ndarray, stack: list) -> np.ndarray:
        return self.backend.forward(self.layer, x)


def _save(x: np.ndarray, stack: list) -> np.ndarray:
    """Residual fork: keep the block input alive for the shortcut."""
    stack.append(x)
    return x


def _shortcut(x: np.ndarray, stack: list) -> np.ndarray:
    """Park the main-path output; continue on the saved block input."""
    x, stack[-1] = stack[-1], x
    return x


def _residual_add(x: np.ndarray, stack: list) -> np.ndarray:
    """``out + identity``: the parked main-path output plus the shortcut."""
    return stack.pop() + x


#: How many tensors each op leaves alive beside ``x`` (cut-point tracking).
_STACK_DELTA = {_save: 1, _residual_add: -1}

#: Composites whose forward runs these children in sequence.
_INLINED = {
    Sequential: lambda model: model.layers,
    DepthwiseSeparableBlock: lambda block: (
        block.depthwise, block.bn1, block.relu1,
        block.pointwise, block.bn2, block.relu2),
}


def _lower(layer: Layer, mapped_ops: Dict[int, _MatmulOp]):
    """Yield the ops of ``layer`` in the evaluation order of its forward.

    Exact types only: a subclass may override ``forward``, so it is run
    whole, like any composite the lowering does not know.
    """
    kind = type(layer)
    if kind is ResidualBlock:
        yield _save
        for child in (layer.conv1, layer.bn1, layer.relu1, layer.conv2, layer.bn2):
            yield from _lower(child, mapped_ops)
        yield _shortcut
        if layer.projection is not None:
            yield from _lower(layer.projection, mapped_ops)
            yield from _lower(layer.projection_bn, mapped_ops)
        yield _residual_add
        yield from _lower(layer.relu2, mapped_ops)
    elif kind in _INLINED:
        for child in _INLINED[kind](layer):
            yield from _lower(child, mapped_ops)
    else:
        yield mapped_ops.get(id(layer)) or _CallOp(layer)


def _op_mapped(op) -> List[MappedLayer]:
    """The mapped layers an op runs: its macros and conversion counters."""
    if isinstance(op, _MatmulOp):
        return [op.compiled.mapped]
    layer = getattr(op, "layer", None)
    layers = layer.modules() if isinstance(layer, Model) else [layer]
    mapped = (getattr(getattr(sub, "quantization", None), "mapped", None)
              for sub in layers)
    return [m for m in mapped if m is not None]


class ModelPlan:
    """A prepared, compiled ``(model, backend, context)`` execution plan.

    Construction prepares the backend on the model (programming/calibrating
    macros, attaching adapters) and lowers the prepared model into a flat
    list of ops (:attr:`ops`) that :meth:`forward` walks in exactly the
    evaluation order of ``model.forward``: ``Sequential`` and
    ``DepthwiseSeparableBlock`` inline their children, a ``ResidualBlock``
    becomes its children around save / shortcut / add ops, each analog mapped
    layer becomes a :class:`CompiledMappedLayer` op running in the code
    domain, and every other layer (or unknown composite) runs its own
    ``forward``.  Fake quantisation adapters get LUT quantisers; the
    ``ideal`` backend needs nothing.  A backend that overrides ``forward``
    runs whole, as one op.  The model's layers and adapters are never
    rewritten, so two plans on one backend stay independent, and ``close``
    only tears the backend off the model.  Set
    ``context.compile_plan=False`` to run the mapped layers on the hook
    path instead: that program is the bit-identity oracle.

    An analog backend calibrates in one forward, each mapped layer on the
    input it sees the first time the forward reaches it.  The plan passes
    it a calibration forward that runs this program and compiles each
    layer the moment it is mapped, bit for bit the hook path the oracle
    calibrates on, so lowering reuses every compiled layer.  That forward
    runs on scratch the arena does not pool, nothing the backend keeps
    refers back to the plan, and :meth:`stage_profile` starts from zero.

    A pipeline stage is an op range of the program (:meth:`stage`), cut
    only where one tensor is live (:meth:`cut_points`).  Plans are
    picklable: a pickled plan carries its ops' layers, packed tiles, code
    tables and generator states, so a worker process reconstructs identical
    execution in another interpreter (arena scratch regrows there).
    """

    def __init__(self, model: Model, backend: ExecutionBackend,
                 context: ExecutionContext) -> None:
        self.model = model
        self.backend = backend
        self.context = context
        self.profile = StageProfile()
        self.arena = PlanArena()
        prepare_start = time.perf_counter()
        # Mapped layers compiled by the calibration forward, by
        # id(adapter): lowering reuses them.
        analog_ops: Dict[int, _MatmulOp] = {}
        try:
            # A failure mid-setup (bad calibration batch, unmappable layer)
            # must still tear the backend off the model instead of leaving
            # adapters attached.  Calibration forwards run on one BLAS
            # thread too: their GEMM bits set the calibrated ranges.
            with blas.single_thread():
                if self._compiles_analog():
                    # Calibration batches are not serving batches: their
                    # scratch is not pooled.  The forward is handed over
                    # for this call only, so nothing the backend keeps
                    # refers back to the plan.
                    self.arena.pooled = False
                    backend.prepare(model, context, calibration_forward=(
                        functools.partial(self._calibration_forward, analog_ops)))
                else:
                    backend.prepare(model, context)
                self.ops = self._lower_model(analog_ops)
        except Exception:
            self.close()
            raise
        finally:
            self.arena.pooled = True
        #: ``(start, stop)`` op indices this plan runs of its program.
        self.op_range = (0, len(self.ops))
        #: Per op, the mapped layers it runs (macros, conversion counters).
        self.op_mapped = [_op_mapped(op) for op in self.ops]
        #: Whether compiled kernels run.  An analog plan whose every tile
        #: fell back to the generic macro path (stochastic converters
        #: everywhere) reports ``False``: no plan kernel executes there.
        self.compiled = (
            any(isinstance(op, _MatmulOp) and op.compiled.compiled_tiles > 0
                for op in self.ops)
            or (isinstance(backend, FakeQuantBackend) and context.compile_plan))
        # The calibration forward metered its kernels: start from zero.
        self.profile.reset()
        self.prepare_time_s = time.perf_counter() - prepare_start

    # ------------------------------------------------------------------
    def _compiles_analog(self) -> bool:
        """Whether the program runs the analog backend's mapped layers as
        compiled ops."""
        return (self.context.compile_plan
                and isinstance(self.backend, AnalogBackend)
                and type(self.backend).forward is ExecutionBackend.forward)

    def _matmul_op(self, adapter: CIMExecutionAdapter, index: int) -> _MatmulOp:
        """Mapped layer ``L<index>`` compiled onto the plan's arena."""
        # Arena slabs grow on the first forward (or a larger batch) and
        # are reused allocation-free after that.
        compiled = CompiledMappedLayer(adapter.mapped, self.profile,
                                       arena=self.arena, key=f"L{index}")
        return _MatmulOp(adapter.layer, compiled)

    def _calibration_forward(self, analog_ops: Dict[int, _MatmulOp],
                             images: np.ndarray, map_layer: MapLayer) -> np.ndarray:
        """``model.forward`` as an op program: the backend's one
        calibration forward.

        Each op that runs a pending layer maps and calibrates it through
        ``map_layer`` on the op's input, and the layer's freshly compiled
        :class:`_MatmulOp` runs in its place.  A pending layer inside a
        composite the lowering runs whole is mapped by its own ``forward``
        (the hook path) instead.  The compiled kernels reproduce the hook
        path bit for bit, read-noise draws and conversion counts included,
        so every layer calibrates exactly as it would on the hook path.
        """
        index = {id(layer): i for i, layer in enumerate(self.model.matmul_layers())}
        x, stack = np.asarray(images, dtype=np.float64), []
        for op in _lower(self.model, {}):
            if isinstance(op, _CallOp):
                adapter = map_layer(op.layer, x)
                if adapter is not None:
                    op = analog_ops[id(adapter)] = self._matmul_op(
                        adapter, index[id(op.layer)])
            x = op(x, stack)
        return x

    def _lower_model(self, analog_ops: Dict[int, _MatmulOp]) -> list:
        backend, model = self.backend, self.model
        if type(backend).forward is not ExecutionBackend.forward:
            return [_BackendOp(backend, model)]
        mapped_ops: Dict[int, _MatmulOp] = {}
        if self._compiles_analog() and backend._mapped is not None:
            for index, adapter in enumerate(backend._mapped.adapters):
                op = analog_ops.get(id(adapter)) or self._matmul_op(adapter, index)
                mapped_ops[id(adapter.layer)] = op
        elif self.context.compile_plan and isinstance(backend, FakeQuantBackend):
            for adapter in backend._adapters:
                adapter.activation_quantizer = compile_quantizer(
                    adapter.activation_quantizer)
                adapter.weight_quantizer = compile_quantizer(
                    adapter.weight_quantizer)
        return list(_lower(model, mapped_ops))

    # ------------------------------------------------------------------
    def forward(self, images: np.ndarray) -> np.ndarray:
        """Run one assembled batch through the op program on one BLAS
        thread."""
        start = time.perf_counter()
        x = np.asarray(images, dtype=np.float64)
        stack: list = []
        buffer = plan_trace_buffer()
        with blas.single_thread():
            for op in self.ops:
                if buffer is None or not isinstance(op, _MatmulOp):
                    x = op(x, stack)
                    continue
                # A sampled request is being traced on this thread: time
                # the layer and turn the profile-timer deltas its forward
                # accumulated into DAC/crossbar/ADC child spans.
                profile = op.compiled.profile
                before = (profile.dac_s, profile.crossbar_s, profile.adc_s)
                tick = time.perf_counter()
                x = op(x, stack)
                buffer.record_layer(
                    op.compiled.key, tick, time.perf_counter(),
                    dac_s=profile.dac_s - before[0],
                    crossbar_s=profile.crossbar_s - before[1],
                    adc_s=profile.adc_s - before[2])
        self.profile.total_s += time.perf_counter() - start
        self.profile.forwards += 1
        return x

    def cut_points(self) -> List[int]:
        """Op indices where exactly one tensor is live, ends included.

        A pipeline stage may only start and stop at these: anywhere else a
        residual block holds a second tensor the next stage never sees.
        """
        cuts, depth = [0], 0
        for index, op in enumerate(self.ops, 1):
            depth += _STACK_DELTA.get(op, 0)
            if depth == 0:
                cuts.append(index)
        return cuts

    def stage(self, start: int, stop: int) -> "ModelPlan":
        """Ops ``[start, stop)`` as a plan of their own: a pipeline stage.

        Both ends must be :meth:`cut_points`.  The stage shares this plan's
        ops, compiled layers and profile; it holds neither the model nor
        the backend, so pickling it ships only its own ops' layers and
        tiles, and gives the stage process a profile of its own.  Pickle
        it before this plan runs a forward or closes, so the stage starts
        from the post-prepare state (generator streams included).
        """
        cuts = self.cut_points()
        if start not in cuts or stop not in cuts or stop <= start:
            raise ValueError(
                f"stage ops [{start}, {stop}) must be a non-empty range "
                f"between cut points {cuts}")
        stage = copy.copy(self)
        stage.model = stage.backend = stage.context = None
        stage.ops = self.ops[start:stop]
        stage.op_mapped = self.op_mapped[start:stop]
        stage.op_range = (start, stop)
        return stage

    def op_macros(self) -> List[int]:
        """Macros each op occupies (its crossbar footprint)."""
        return [sum(m.num_macros for m in mapped) for mapped in self.op_mapped]

    def num_macros(self) -> int:
        """Macros occupied by the plan's ops."""
        return sum(self.op_macros())

    def conversions(self) -> int:
        """Analog macro conversions spent so far by the plan's ops."""
        return sum(m.total_conversions() for mapped in self.op_mapped
                   for m in mapped)

    def stage_profile(self) -> Dict[str, float]:
        """Per-stage wall-clock breakdown accumulated so far."""
        return self.profile.as_dict()

    def close(self) -> None:
        """Tear the backend off the model (a pipeline stage has none)."""
        if self.backend is not None:
            self.backend.teardown(self.model)

    def __enter__(self) -> "ModelPlan":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def build_plan(model: Model, backend: ExecutionBackend,
               context: Optional[ExecutionContext] = None,
               **context_overrides) -> ModelPlan:
    """Convenience constructor mirroring ``run_model``'s context handling."""
    ctx = context if context is not None else ExecutionContext()
    if context_overrides:
        ctx = dataclasses.replace(ctx, **context_overrides)
    return ModelPlan(model, backend, ctx)


# ----------------------------------------------------------------------
# On-disk plan cache
# ----------------------------------------------------------------------

#: Version of the on-disk plan-cache entry format.  Bump whenever the
#: pickled plan layout (or anything the fingerprint cannot see) changes in
#: a way that makes old entries wrong to reuse; the version is folded into
#: every fingerprint, so a bump invalidates the whole cache at once.
PLAN_CACHE_VERSION = 8


def _model_descriptor(model: Model) -> list:
    """A stable structural identity of ``model`` for fingerprinting.

    Pickling the whole model is *not* stable: executing it leaves volatile
    traces behind (forward caches, reset quantisation tags) that change
    the bytes without changing the served function.  What determines the
    compiled plan is the architecture (layer classes and their scalar
    configuration) and the parameter tensors, so exactly those are
    hashed — volatile attributes (arrays that are not parameters, Nones,
    RNG scratch) are skipped.
    """
    descriptor: list = []
    for module in model.modules():
        config = []
        for key in sorted(vars(module)):
            value = vars(module)[key]
            if isinstance(value, (bool, int, float, str)):
                config.append((key, value))
            elif isinstance(value, tuple) and all(
                    isinstance(item, (bool, int, float, str))
                    for item in value):
                config.append((key, value))
        descriptor.append((type(module).__name__, config))
    for param in model.parameters():
        value = np.ascontiguousarray(param.value)
        descriptor.append((str(value.dtype), value.shape,
                           value.tobytes()))
    return descriptor


def plan_fingerprint(model: Model, backend_name: str,
                     context: ExecutionContext) -> str:
    """Content fingerprint of a ``(model, backend, context)`` plan recipe.

    The key hashes the *inputs* to plan compilation — the model's
    structural identity (layer classes, scalar layer configuration and
    parameter tensors, see :func:`_model_descriptor`), the backend
    registry name, and every :class:`ExecutionContext` field
    (calibration batch, formats, macro config, seed, plan flags) — plus
    :data:`PLAN_CACHE_VERSION`.  Two recipes with the same fingerprint
    compile to bit-identical plans, so a cached payload can stand in for a
    fresh compilation; any change to weights, calibration, formats or seed
    changes the key and misses the cache.
    """
    payload = pickle.dumps(
        (PLAN_CACHE_VERSION, _model_descriptor(model), backend_name, context),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return hashlib.sha256(payload).hexdigest()


class PlanCache:
    """A versioned on-disk cache of pickled execution-plan payloads.

    Entries live as ``<fingerprint>.plan`` files under ``directory`` and
    hold a pickled compiled plan (``pickle.dumps(runner.plan)``), which
    :mod:`repro.serve` cuts into the stage payloads its process workers
    run.  The fingerprint
    (:func:`plan_fingerprint`) keys on model/backend/context content and
    embeds :data:`PLAN_CACHE_VERSION`, so stale-format entries are simply
    never looked up — invalidation is a version bump away and corrupt or
    unreadable files degrade to a miss, never an error.

    ``hits`` / ``misses`` count lookups for the serving metrics; writes are
    atomic (tempfile + ``os.replace``) so a crashed writer cannot leave a
    half-written entry behind for a concurrent reader.

    **Concurrent writers.**  Entries are content-addressed, so two writers
    racing on one key hold bit-identical payloads and last-writer-wins via
    ``os.replace`` is always *safe* — but both paid the compile.
    :meth:`claim` / :meth:`wait_for` add a write-once guard: the first
    writer claims the key with an ``O_EXCL`` lock file and compiles; later
    contenders see the claim, wait for the entry, and skip their compile.
    A claimant that dies without storing merely lets the waiters time out
    and fall back to compiling themselves (the lock file carries the
    claimant's pid and a ``claim_age_s`` guard makes stale claims
    ignorable), so the guard can only ever *reduce* work, never wedge it.
    """

    #: A claim older than this is treated as abandoned by waiters.
    claim_age_s = 300.0

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        self.hits = 0
        self.misses = 0
        os.makedirs(self.directory, exist_ok=True)

    def path_for(self, key: str) -> str:
        """Entry path of a fingerprint key."""
        return os.path.join(self.directory, f"{key}.plan")

    def claim_path_for(self, key: str) -> str:
        """Lock-file path guarding one key's compilation."""
        return os.path.join(self.directory, f"{key}.claim")

    def claim(self, key: str) -> bool:
        """Try to become ``key``'s sole compiler (O_EXCL lock file).

        Returns True when this caller holds the claim (it must
        :meth:`store` then :meth:`release` — or just :meth:`release` on
        failure).  False means another live writer already claimed the
        key; call :meth:`wait_for` instead of compiling.  A stale claim
        (older than :attr:`claim_age_s`) is broken and re-taken.
        """
        path = self.claim_path_for(key)
        while True:
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    age = time.time() - os.path.getmtime(path)
                except OSError:
                    continue  # claimant released between open and stat
                if age <= self.claim_age_s:
                    return False
                try:
                    os.unlink(path)  # abandoned claim; contend again
                except OSError:
                    pass
                continue
            except OSError:
                return True  # unclaimable directory: degrade to compiling
            with os.fdopen(fd, "w") as handle:
                handle.write(str(os.getpid()))
            return True

    def release(self, key: str) -> None:
        """Drop this writer's claim (idempotent)."""
        try:
            os.unlink(self.claim_path_for(key))
        except OSError:
            pass

    def wait_for(self, key: str, timeout_s: float = 60.0,
                 poll_s: float = 0.05) -> Optional[bytes]:
        """Wait for another writer's entry; None on timeout/abandonment.

        Returns as soon as the entry appears (counted as a hit by the
        underlying :meth:`load`) or as soon as the claim disappears
        without an entry (the claimant failed); the caller then compiles
        itself — correctness never depends on the other writer.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            payload = self.load(key)
            if payload is not None:
                return payload
            if not os.path.exists(self.claim_path_for(key)):
                # The claimant may have stored and released since the load.
                return self.load(key)
            if time.monotonic() >= deadline:
                return None
            time.sleep(poll_s)

    def load(self, key: str) -> Optional[bytes]:
        """Cached plan payload for ``key``, or None (counted as a miss)."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                payload = handle.read()
        except OSError:
            self.misses += 1
            return None
        if not payload:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def store(self, key: str, payload: bytes) -> str:
        """Atomically persist a plan payload; returns the entry path."""
        path = self.path_for(key)
        fd, tmp_path = tempfile.mkstemp(dir=self.directory,
                                        suffix=".plan.tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp_path, path)
        except OSError:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return path
