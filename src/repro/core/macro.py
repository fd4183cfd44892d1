"""The AFPR-CIM macro: FP-DACs + RRAM crossbar + FP-ADCs + digital interface.

One macro (paper Fig. 1(b)) holds a 576 x 256 RRAM array.  Signed weights are
stored on differential column pairs, FP8 activations enter through per-row
FP-DACs, the analog MAC happens in the INT (current) domain, and per-column
FP-ADCs read the source-line currents back out as FP8 codes.  The
"intermediate digital processing unit" then combines differential columns,
applies the layer scales and hands the FP8 activations to the next macro.

The class keeps the full scale chain explicit:

* ``activation_scale`` maps real activations to DAC code values,
* ``weight_scale`` is the largest weight magnitude (maps to the conductance
  swing),
* the ADC's ``current_per_value`` maps read-out code values back to column
  current, from which the real MAC value is reconstructed.

Negative activations are handled with the standard two-pass scheme: the
positive and negative parts of the input vector are evaluated in separate
analog passes and subtracted digitally.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.core.config import MacroConfig
from repro.core.fp_adc import FPADC, ADCReadout
from repro.core.fp_dac import FPDAC
from repro.rram.crossbar import Crossbar
from repro.rram.device import ConductanceLevels, RRAMDeviceModel
from repro.rram.programming import DifferentialMapping, OffsetMapping


@dataclasses.dataclass
class MacroStats:
    """Running counters of macro activity (drives the energy/latency model)."""

    conversions: int = 0
    mac_operations: int = 0
    programmed_cells: int = 0
    adc_saturations: int = 0
    adc_underflows: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.conversions = 0
        self.mac_operations = 0
        self.programmed_cells = 0
        self.adc_saturations = 0
        self.adc_underflows = 0

    def latency(self, conversion_time: float) -> float:
        """Total analog conversion latency accumulated so far."""
        return self.conversions * conversion_time


class AFPRMacro:
    """A single AFPR-CIM macro with programmed weights.

    Parameters
    ----------
    config:
        Macro configuration (geometry, formats, non-idealities).
    rng:
        Random generator shared by the stochastic sub-models.
    """

    def __init__(self, config: MacroConfig = MacroConfig(), rng: Optional[np.random.Generator] = None) -> None:
        self.config = config
        self._rng = rng if rng is not None else np.random.default_rng(config.seed)

        self.device = RRAMDeviceModel(
            levels=config.conductance,
            statistics=config.device_statistics,
            seed=config.seed,
        )
        self.crossbar = Crossbar(config.crossbar_config(), device=self.device)
        self.dac = FPDAC(config.dac, rng=self._rng)
        self.adc = FPADC(config.adc, channels=config.cols, rng=self._rng)
        if config.differential_columns:
            self.mapping = DifferentialMapping(device=self.device)
        else:
            self.mapping = OffsetMapping(device=self.device)

        self.stats = MacroStats()
        self.activation_scale: float = 1.0
        self.weight_scale: float = 0.0
        self._in_features: int = 0
        self._out_features: int = 0
        self._weights: Optional[np.ndarray] = None
        self._calibration_key: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Capacity and bookkeeping
    # ------------------------------------------------------------------
    @property
    def max_in_features(self) -> int:
        """Largest number of input features a single macro can take."""
        return self.config.rows

    @property
    def max_out_features(self) -> int:
        """Largest number of signed output columns a single macro can hold."""
        return self.config.logical_columns

    @property
    def in_features(self) -> int:
        """Input features of the currently programmed weight block."""
        return self._in_features

    @property
    def out_features(self) -> int:
        """Output features of the currently programmed weight block."""
        return self._out_features

    @property
    def weights(self) -> Optional[np.ndarray]:
        """The (digital) weight block that was programmed, or None."""
        return None if self._weights is None else self._weights.copy()

    @property
    def conversion_time(self) -> float:
        """Latency of one macro conversion in seconds."""
        return self.config.conversion_time

    @property
    def physical_columns(self) -> int:
        """Physical source lines driven by the programmed weight block."""
        if self._out_features == 0:
            return self.config.cols
        if self.config.differential_columns:
            return 2 * self._out_features
        return self._out_features

    # ------------------------------------------------------------------
    # Programming and calibration
    # ------------------------------------------------------------------
    def program_weights(self, weights: np.ndarray, ideal: bool = False) -> None:
        """Program a signed weight block of shape ``(in_features, out_features)``.

        Raises ``ValueError`` if the block does not fit the macro; larger
        layers must be tiled by :mod:`repro.core.mapping` first.
        """
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError("weights must be 2-D (in_features, out_features)")
        in_features, out_features = weights.shape
        if in_features > self.max_in_features:
            raise ValueError(
                f"{in_features} input features exceed the {self.max_in_features} rows"
            )
        if out_features > self.max_out_features:
            raise ValueError(
                f"{out_features} output features exceed the {self.max_out_features} "
                "signed columns"
            )
        conductances, weight_scale = self.mapping.to_conductances(weights)
        self.crossbar.program(conductances, ideal=ideal)
        self.weight_scale = weight_scale
        self._in_features = in_features
        self._out_features = out_features
        self._weights = weights.copy()
        self._calibration_key = None
        self.stats.programmed_cells += conductances.size

    def calibrate(self, calibration_activations: np.ndarray,
                  current_percentile: float = 99.5) -> None:
        """Calibrate the activation scale and the ADC full-scale range.

        Parameters
        ----------
        calibration_activations:
            A representative batch of real-valued layer inputs, shape
            ``(batch, in_features)`` or ``(in_features,)``.
        current_percentile:
            Percentile of the observed column-current distribution that is
            mapped to the ADC full scale (a small headroom above it is
            added).  Using a percentile rather than the absolute maximum
            keeps the common-case currents in the upper, better-resolved
            part of the FP range.
        """
        if self._weights is None:
            raise RuntimeError("program_weights must be called before calibrate")
        acts = np.atleast_2d(np.asarray(calibration_activations, dtype=np.float64))
        if acts.shape[1] != self._in_features:
            raise ValueError(
                f"calibration activations have {acts.shape[1]} features, "
                f"expected {self._in_features}"
            )
        # Repeated evaluations of the same layer recalibrate with the same
        # batch; memoise on the data fingerprint so those calls are free.
        key = (acts.shape, float(current_percentile), hash(acts.tobytes()))
        if key == self._calibration_key:
            return
        a_max = float(np.max(np.abs(acts))) if acts.size else 0.0
        self.set_activation_scale(a_max if a_max > 0 else 1.0)

        # Estimate the column-current distribution with the ideal crossbar
        # (only over the driven columns; idle leak columns would dilute the
        # percentile and misplace the ADC full scale).
        voltages = self._activation_voltages(np.abs(acts), exact_lut=True)
        currents = np.abs(self.crossbar.ideal_mac(voltages,
                                                  active_cols=self.physical_columns))
        if currents.size:
            i_ref = float(np.percentile(currents, current_percentile))
        else:
            i_ref = 0.0
        if i_ref <= 0:
            i_ref = self.adc.full_scale_current
        self.set_adc_full_scale_current(i_ref * 1.05)
        self._calibration_key = key

    def set_activation_scale(self, a_max: float) -> None:
        """Set the real-activation magnitude that maps to the largest FP code."""
        if a_max <= 0:
            raise ValueError("a_max must be positive")
        self.activation_scale = a_max / self.config.activation_format.max_value
        # A manual override invalidates the calibration memo so the next
        # calibrate() re-derives the scales from its data.
        self._calibration_key = None

    def set_adc_full_scale_current(self, current: float) -> None:
        """Re-size the ADC integration capacitor for a new full-scale current."""
        new_adc_config = self.config.adc.with_full_scale_current(current)
        self.config = dataclasses.replace(self.config, adc=new_adc_config)
        self.adc = FPADC(new_adc_config, channels=self.config.cols, rng=self._rng)
        self._calibration_key = None

    # ------------------------------------------------------------------
    # Compute
    # ------------------------------------------------------------------
    def _activation_voltages(self, non_negative_activations: np.ndarray,
                             exact_lut: bool = False) -> np.ndarray:
        """DAC voltages for a batch of non-negative real activations.

        ``exact_lut`` reads them through :meth:`FPDAC.voltage_lut` when the
        DAC has one: the same voltages bit for bit, without the per-element
        field split.  A noisy DAC has no table and keeps drawing its noise.
        """
        code_values = non_negative_activations / self.activation_scale
        code_values = np.clip(code_values, 0.0, self.config.activation_format.max_value)
        lut = self.dac.voltage_lut() if exact_lut else None
        if lut is None:
            return self.dac.convert_value(code_values)
        return lut(code_values)

    def _current_to_output(self, adc_values: np.ndarray, voltage_sum: np.ndarray) -> np.ndarray:
        """Convert read-out code values of physical columns to real MAC values."""
        # Measured column current reconstructed from the FP code.
        measured_current = adc_values * self.adc.value_to_current(1.0)
        g_span = self.device.g_max - self.device.g_min
        if self.config.differential_columns:
            logical_current = measured_current[..., 0::2] - measured_current[..., 1::2]
            conductance_swing = g_span
        else:
            # Offset mapping: a zero weight sits at the mid conductance, so the
            # common-mode current g_mid * sum(V_i) is removed digitally.
            g_mid = 0.5 * (self.device.g_max + self.device.g_min)
            logical_current = measured_current - g_mid * voltage_sum[..., None]
            conductance_swing = 0.5 * g_span
        denom = self.dac.volts_per_unit * conductance_swing
        scale = self.activation_scale * self.weight_scale / denom if self.weight_scale > 0 else 0.0
        return logical_current * scale

    #: Row-block size of one vectorised analog pass.  Vectorisation wins come
    #: from amortising the per-call python/numpy overhead; beyond a few
    #: thousand rows the temporaries of the DAC/ADC models fall out of cache
    #: and large fresh allocations dominate, so giant batches are processed
    #: in blocks of this many rows.
    ANALOG_PASS_BLOCK_ROWS = 4096

    def _analog_pass(self, non_negative_activations: np.ndarray) -> np.ndarray:
        """One analog evaluation: DAC -> crossbar -> ADC, returning MAC values.

        The whole minibatch goes through the pipeline in a vectorised
        DAC -> crossbar -> ADC pass (blocked at ``ANALOG_PASS_BLOCK_ROWS``
        rows) restricted to the physical columns the programmed tile
        occupies; idle columns are never converted.
        """
        acts = non_negative_activations
        block = self.ANALOG_PASS_BLOCK_ROWS
        if acts.ndim == 2 and acts.shape[0] > block:
            return np.concatenate([
                self._analog_pass(acts[start:start + block])
                for start in range(0, acts.shape[0], block)
            ], axis=0)
        voltages = self._activation_voltages(non_negative_activations)
        readout = self.crossbar.evaluate(voltages, active_cols=self.physical_columns)
        adc_out: ADCReadout = self.adc.convert(readout.currents)
        batch = 1 if non_negative_activations.ndim == 1 else non_negative_activations.shape[0]
        self.stats.conversions += batch
        self.stats.mac_operations += batch * 2 * self._in_features * self._out_features
        self.stats.adc_saturations += int(np.sum(adc_out.saturated))
        self.stats.adc_underflows += int(np.sum(adc_out.underflow))
        voltage_sum = np.sum(np.atleast_2d(voltages), axis=-1)
        return self._current_to_output(adc_out.value, voltage_sum)

    def matvec(self, activations: np.ndarray) -> np.ndarray:
        """Compute ``activations @ W`` through the full analog pipeline.

        ``activations`` is a real-valued vector of length ``in_features`` (or
        a batch ``(batch, in_features)``, including an empty one); the result
        has the matching shape with ``out_features`` outputs.  Signed inputs
        use the standard two-pass scheme, with the positive and negative
        parts stacked into one batched analog evaluation so the hardware
        model is invoked once per (tile, sign) rather than once per sample.

        Conversion accounting: only samples that actually have a negative
        part pay the second sign pass, so ``stats.conversions`` matches
        evaluating the batch row by row (a sample without negatives
        genuinely needs one conversion).
        """
        if self._weights is None:
            raise RuntimeError("program_weights must be called before matvec")
        acts = np.asarray(activations, dtype=np.float64)
        squeeze = acts.ndim == 1
        acts = np.atleast_2d(acts)
        if acts.shape[1] != self._in_features:
            raise ValueError(
                f"activation length {acts.shape[1]} does not match the "
                f"{self._in_features} programmed input features"
            )

        positive = np.clip(acts, 0.0, None)
        negative = np.clip(-acts, 0.0, None)
        needs_negative_pass = np.any(negative > 0, axis=1)

        if np.any(needs_negative_pass):
            # Only the samples that actually have a negative part join the
            # second sign pass, stacked onto the positive pass so the
            # pipeline runs once over the combined batch.  This keeps the
            # conversion counters identical to evaluating row by row.
            batch = acts.shape[0]
            stacked = self._analog_pass(
                np.concatenate([positive, negative[needs_negative_pass]], axis=0)
            )
            result = stacked[:batch]
            result[needs_negative_pass] -= stacked[batch:]
        else:
            result = self._analog_pass(positive)

        result = result[..., : self._out_features]
        return result[0] if squeeze else result

    # Batched alias; `matvec` already accepts batches.
    matmul = matvec

    def ideal_matvec(self, activations: np.ndarray) -> np.ndarray:
        """Floating-point reference result for the programmed weights."""
        if self._weights is None:
            raise RuntimeError("program_weights must be called before ideal_matvec")
        acts = np.asarray(activations, dtype=np.float64)
        return acts @ self._weights

    def relative_mac_error(self, activations: np.ndarray) -> float:
        """Mean relative error of the analog pipeline against the ideal MAC."""
        ideal = self.ideal_matvec(activations)
        measured = self.matvec(activations)
        denom = np.maximum(np.max(np.abs(ideal)), 1e-12)
        return float(np.mean(np.abs(ideal - measured)) / denom)
