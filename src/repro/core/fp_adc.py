"""Dynamic-range adaptive FP-ADC (paper Section III-B).

The FP-ADC converts the analog MAC current of one source line directly into
an FP8 code.  Its operation has two phases:

1. **Adaptive / integration phase** (``T_S`` = 100 ns): the current is
   integrated onto the capacitor bank.  Every time the integrator output
   reaches ``V_th`` the comparator fires, the next capacitor of the ladder
   ``{C, C, 2C, 4C}`` is switched in and the charge is shared, dropping the
   output back to ``(V_r + V_th)/2``.  The number of adaptations is the
   2-bit **exponent** code.
2. **Single-slope phase**: the held output voltage ``V_M`` (in ``[1 V, 2 V)``
   for the paper's values) is converted by a ramp + counter into the 5-bit
   **mantissa** code.

Because the total charge is conserved through every charge-sharing event,
the accumulated quantity ``V_O x 2^n`` is exactly proportional to the input
current (paper Eq. 5) — which is precisely a floating-point reading of the
current.

Two models are provided:

* :class:`FPADC` — a fast closed-form ("functional") model, vectorised over
  channels and over batches of currents; this is what the macro and the
  network-level experiments use.
* :class:`FPADCTransient` — a fixed-step time-domain model built from the
  behavioural circuit blocks; it reproduces the Fig. 5(a) waveforms and is
  cross-validated against the functional model in the tests.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.circuits.capbank import CapacitorBank
from repro.circuits.comparator import Comparator
from repro.circuits.integrator import ActiveIntegrator
from repro.circuits.opamp import OpAmpModel
from repro.circuits.single_slope import SingleSlopeConverter
from repro.circuits.transient import TransientRecorder, TransientResult
from repro.core.config import ADCConfig
from repro.formats.fp8 import BucketIndexer, refine_step_boundaries


@dataclasses.dataclass
class ADCConversionLUT:
    """The whole charge → FP-code conversion compiled into one table.

    With mismatch-free capacitor ladders (every channel identical) and a
    noiseless comparator, the adaptive-range exponent search, residual
    voltage, single-slope mantissa rounding and code decode are one monotone
    step function of the integrated charge.  ``values[indexer(charge)]``
    reproduces ``FPADC.convert`` bit-for-bit; ``saturated`` / ``underflow``
    flag the ranks whose codes clip, for the macro's statistics counters.
    Saturation is exactly the top rank and underflow exactly rank 0 (the
    build asserts it), so counters can compare ranks instead of gathering.
    """

    indexer: BucketIndexer
    values: np.ndarray
    saturated: np.ndarray
    underflow: np.ndarray


@dataclasses.dataclass
class ADCReadout:
    """Result of converting one batch of column currents.

    All arrays share the same shape (``(channels,)`` or ``(batch, channels)``).

    Attributes
    ----------
    exponent:
        Exponent field codes (number of range adaptations performed).
    mantissa:
        Mantissa field codes from the single-slope conversion.
    value:
        Decoded code values ``(1 + M/2^m) x 2^E`` (0 for underflow).
    saturated:
        True where the current exceeded the full-scale range.
    underflow:
        True where the current was too small to reach the mantissa range by
        the sampling instant (read out as zero unless subnormal readout is
        enabled).
    """

    exponent: np.ndarray
    mantissa: np.ndarray
    value: np.ndarray
    saturated: np.ndarray
    underflow: np.ndarray


class AdaptiveRangeController:
    """Pre-computes the charge thresholds of the adaptive phase.

    For a constant input current the instant of every range adaptation is
    fully determined by the capacitor ladder: adaptation ``k`` fires once the
    integrated charge reaches

        ``Q_k = sum_{i<k} C_cum,i x (V_th - V_start,i)``

    where ``C_cum,i`` is the connected capacitance in range ``i`` and
    ``V_start,i`` the voltage that range starts from (``V_r`` for the first,
    the post-share voltage for the others).  The controller exposes those
    thresholds per channel so the functional ADC can convert whole current
    vectors with a handful of numpy operations.
    """

    def __init__(self, config: ADCConfig, channels: int = 1,
                 rng: Optional[np.random.Generator] = None) -> None:
        if channels < 1:
            raise ValueError("channels must be >= 1")
        self.config = config
        self.channels = channels
        rng = rng if rng is not None else np.random.default_rng(config.seed)

        levels = config.exponent_levels
        if config.capacitor_mismatch_sigma > 0:
            caps = np.empty((channels, levels), dtype=np.float64)
            for ch in range(channels):
                bank = CapacitorBank.paper_ladder(
                    exponent_bits=config.exponent_bits,
                    unit_capacitance=config.unit_capacitance,
                    v_reset=config.v_reset,
                    mismatch_sigma=config.capacitor_mismatch_sigma,
                    rng=rng,
                )
                caps[ch] = bank.values
        else:
            # Without mismatch every channel's ladder is identical, so one
            # bank serves all channels (macro construction builds a 256-wide
            # model per tile; this keeps that cheap).
            bank = CapacitorBank.paper_ladder(
                exponent_bits=config.exponent_bits,
                unit_capacitance=config.unit_capacitance,
                v_reset=config.v_reset,
            )
            caps = np.tile(bank.values, (channels, 1))
        self.capacitances = caps
        self.cumulative = np.cumsum(caps, axis=1)

        v_th = config.v_threshold + config.comparator_offset
        v_r = config.v_reset
        # Post-charge-share start voltage of every range (paper Eq. 2/3),
        # vectorised over channels.
        start = np.empty((channels, levels), dtype=np.float64)
        start[:, 0] = v_r
        for k in range(1, levels):
            start[:, k] = (
                v_th * self.cumulative[:, k - 1] + v_r * caps[:, k]
            ) / self.cumulative[:, k]
        self.start_voltages = start

        # Charge integrated at the instant of each adaptation event.
        thresholds = np.zeros((channels, levels), dtype=np.float64)
        for k in range(1, levels):
            thresholds[:, k] = thresholds[:, k - 1] + self.cumulative[:, k - 1] * (
                v_th - start[:, k - 1]
            )
        self.charge_thresholds = thresholds
        self.effective_threshold = v_th

    def exponent_for_charge(self, charge: np.ndarray) -> np.ndarray:
        """Number of adaptations completed for a given integrated charge.

        ``charge`` covers the leading ``charge.shape[-1]`` channels, which
        lets callers convert only the columns a tile actually drives.
        """
        charge = np.asarray(charge, dtype=np.float64)
        k = charge.shape[-1]
        # charge shape (..., k); thresholds shape (channels, levels).
        return np.sum(charge[..., None] >= self.charge_thresholds[:k, 1:], axis=-1)

    def residual_voltage(self, charge: np.ndarray, exponent: np.ndarray) -> np.ndarray:
        """Held output voltage ``V_M`` at the sampling instant."""
        charge = np.asarray(charge, dtype=np.float64)
        exponent = np.asarray(exponent, dtype=np.int64)
        k = charge.shape[-1]

        def gather(table: np.ndarray) -> np.ndarray:
            # out[..., c] = table[c, exponent[..., c]] without materialising a
            # full channel-index array (the hot path of batched conversion).
            expanded = np.broadcast_to(table[:k], exponent.shape + (table.shape[1],))
            return np.take_along_axis(expanded, exponent[..., None], axis=-1)[..., 0]

        start = gather(self.start_voltages)
        q_used = gather(self.charge_thresholds)
        c_now = gather(self.cumulative)
        return start + (charge - q_used) / c_now


class FPADC:
    """Fast functional model of the dynamic-range adaptive FP-ADC.

    Parameters
    ----------
    config:
        Electrical and format configuration.
    channels:
        Number of physical columns sharing this model.  Capacitor mismatch is
        drawn independently per channel; comparator noise is drawn per
        conversion.
    rng:
        Random generator for the stochastic non-idealities.
    """

    def __init__(self, config: ADCConfig = ADCConfig(), channels: int = 1,
                 rng: Optional[np.random.Generator] = None) -> None:
        if abs(config.v_reset) > 1e-12:
            raise ValueError(
                "the functional FP-ADC model assumes V_r = 0 (as in the paper); "
                "use FPADCTransient for other reset levels"
            )
        self.config = config
        self.channels = channels
        self._rng = rng if rng is not None else np.random.default_rng(config.seed)
        self._conversion_lut: Optional[ADCConversionLUT] = None
        self.controller = AdaptiveRangeController(config, channels=channels, rng=self._rng)
        self.slope_converter = SingleSlopeConverter(
            bits=config.mantissa_bits,
            v_low=(config.v_reset + config.v_threshold) / 2.0,
            v_high=config.v_threshold,
            clock_period=config.slope_clock_period,
            comparator=Comparator(
                offset_voltage=config.comparator_offset,
                noise_rms=config.comparator_noise,
                rng=self._rng,
            ),
        )

    # ------------------------------------------------------------------
    @property
    def conversion_time(self) -> float:
        """Total conversion time (integration + single-slope)."""
        return self.config.conversion_time

    @property
    def full_scale_current(self) -> float:
        """Input current mapping to the top of the FP range."""
        return self.config.full_scale_current

    @property
    def lsb_current(self) -> float:
        """Current step of one mantissa LSB in the lowest range."""
        mantissa_volts = (self.config.v_threshold - self.config.v_reset) / 2.0
        lsb_volts = mantissa_volts / self.config.mantissa_levels
        return lsb_volts * self.config.unit_capacitance / self.config.integration_time

    def decode(self, exponent: np.ndarray, mantissa: np.ndarray) -> np.ndarray:
        """Code value represented by exponent / mantissa fields."""
        exponent = np.asarray(exponent, dtype=np.float64)
        mantissa = np.asarray(mantissa, dtype=np.float64)
        return (1.0 + mantissa / self.config.mantissa_levels) * 2.0 ** exponent

    def value_to_current(self, value: np.ndarray) -> np.ndarray:
        """Input current that would produce a given code value (inverse transfer)."""
        value = np.asarray(value, dtype=np.float64)
        half_range = (self.config.v_threshold - self.config.v_reset) / 2.0
        return value * half_range * self.config.unit_capacitance / self.config.integration_time

    # ------------------------------------------------------------------
    def convert(self, currents: np.ndarray) -> ADCReadout:
        """Convert a vector (or batch) of column currents into FP codes.

        ``currents`` has shape ``(k,)`` or ``(batch, k)`` with ``k`` at most
        the model's channel count; ``k < channels`` converts only the first
        ``k`` physical columns (the ones a programmed tile drives), skipping
        the per-channel work of idle columns.  Negative currents (which
        cannot charge the integrator in the right direction) read out as
        zero.
        """
        currents = np.asarray(currents, dtype=np.float64)
        squeeze = False
        if currents.ndim == 1:
            currents = currents[None, :]
            squeeze = True
        if currents.ndim != 2 or not 0 < currents.shape[1] <= self.channels:
            raise ValueError(
                f"expected currents with at most {self.channels} channels, "
                f"got shape {currents.shape}"
            )

        cfg = self.config
        positive = np.clip(currents, 0.0, None)
        charge = positive * cfg.integration_time

        exponent = self.controller.exponent_for_charge(charge)
        v_m = self.controller.residual_voltage(charge, exponent)

        half = (cfg.v_reset + cfg.v_threshold) / 2.0
        saturated = v_m >= cfg.v_threshold
        v_m = np.clip(v_m, cfg.v_reset, cfg.v_threshold)

        underflow = (exponent == 0) & (v_m < half)
        # Single-slope conversion of the held voltage (vectorised: the
        # converter's comparator error is sampled per element).
        mantissa = self._convert_mantissa(v_m)
        mantissa = np.where(saturated, cfg.mantissa_levels - 1, mantissa)

        if cfg.subnormal_readout:
            # Sub-threshold voltages read out as a denormal extension: the
            # value is simply V_M expressed in half-range units (< 1.0).
            # This is not part of the paper's readout scheme but is useful
            # for ablation studies on small-signal precision.
            value = self.decode(exponent, mantissa)
            sub_value = (v_m - cfg.v_reset) / (half - cfg.v_reset)
            value = np.where(underflow, sub_value, value)
        else:
            value = self.decode(exponent, mantissa)
            value = np.where(underflow, 0.0, value)
            mantissa = np.where(underflow, 0, mantissa)
            exponent = np.where(underflow, 0, exponent)

        readout = ADCReadout(
            exponent=exponent.astype(np.int64),
            mantissa=mantissa.astype(np.int64),
            value=value,
            saturated=saturated,
            underflow=underflow,
        )
        if squeeze:
            readout = ADCReadout(
                exponent=readout.exponent[0],
                mantissa=readout.mantissa[0],
                value=readout.value[0],
                saturated=readout.saturated[0],
                underflow=readout.underflow[0],
            )
        return readout

    def _convert_mantissa(self, v_m: np.ndarray) -> np.ndarray:
        """Vectorised single-slope conversion with per-element comparator error."""
        cfg = self.config
        conv = self.slope_converter
        error = np.zeros(v_m.shape)
        if cfg.comparator_noise > 0 or conv.comparator.effective_offset != 0.0:
            error = conv.comparator.effective_offset + cfg.comparator_noise * self._rng.standard_normal(v_m.shape)
        position = (v_m - error - conv.v_low) / conv.lsb
        codes = np.rint(position)
        return np.clip(codes, 0, conv.max_code).astype(np.int64)

    def convert_value(self, currents: np.ndarray) -> np.ndarray:
        """Shorthand returning only the decoded code values."""
        return self.convert(currents).value

    # ------------------------------------------------------------------
    # Compiled charge -> code-value lookup table
    # ------------------------------------------------------------------
    def conversion_lut(self) -> Optional[ADCConversionLUT]:
        """Compile the full conversion into an :class:`ADCConversionLUT`.

        Valid only when the conversion is deterministic, identical across
        channels and monotone in charge: no comparator noise, no capacitor
        mismatch, normal (zero) underflow readout, and no comparator offset
        (a positive offset makes range adaptations fire above ``V_th``,
        opening a saturated sliver before each exponent crossing — a
        non-monotone code sequence a single table cannot rank).  Returns
        ``None`` otherwise.
        """
        cfg = self.config
        if (cfg.comparator_noise > 0 or cfg.capacitor_mismatch_sigma > 0
                or cfg.subnormal_readout or cfg.comparator_offset != 0.0):
            return None
        if self._conversion_lut is None:
            self._conversion_lut = self._build_conversion_lut()
        return self._conversion_lut

    def _build_conversion_lut(self) -> ADCConversionLUT:
        cfg = self.config
        exponent_levels, levels = cfg.exponent_levels, cfg.mantissa_levels
        # All channels are identical here, so channel 0 parameterises the
        # whole conversion.
        cumulative = self.controller.cumulative[0]
        start = self.controller.start_voltages[0]
        thresholds = self.controller.charge_thresholds[0]
        conv = self.slope_converter
        error = conv.comparator.effective_offset
        half = (cfg.v_reset + cfg.v_threshold) / 2.0

        def classify(charge: np.ndarray) -> np.ndarray:
            charge = np.asarray(charge, dtype=np.float64)
            exponent = np.sum(charge[..., None] >= thresholds[1:], axis=-1)
            v_m = start[exponent] + (charge - thresholds[exponent]) / cumulative[exponent]
            saturated = v_m >= cfg.v_threshold
            v_m = np.clip(v_m, cfg.v_reset, cfg.v_threshold)
            underflow = (exponent == 0) & (v_m < half)
            position = (v_m - error - conv.v_low) / conv.lsb
            mantissa = np.clip(np.rint(position), 0, conv.max_code).astype(np.int64)
            mantissa = np.where(saturated, levels - 1, mantissa)
            rank = 1 + exponent * levels + mantissa
            rank = np.where(saturated, 1 + exponent_levels * levels, rank)
            return np.where(underflow, 0, rank)

        # Closed-form candidate transitions: the underflow edge, every
        # half-LSB mantissa threshold inside each exponent range, the range
        # adaptations themselves, and the saturation point.  Candidates that
        # fall in empty buckets are dropped by the refinement.
        candidates = [half * cumulative[0]]
        for e in range(exponent_levels):
            v_bounds = error + conv.v_low + (np.arange(1, levels) - 0.5) * conv.lsb
            in_range = (v_bounds > start[e] - conv.lsb) & (v_bounds < cfg.v_threshold + conv.lsb)
            candidates.append(thresholds[e] + (v_bounds[in_range] - start[e]) * cumulative[e])
        candidates.append(thresholds[1:])
        top = exponent_levels - 1
        candidates.append([thresholds[top] + (cfg.v_threshold - start[top]) * cumulative[top]])
        flat = np.concatenate([np.atleast_1d(np.asarray(c, dtype=np.float64))
                               for c in candidates])
        bounds = refine_step_boundaries(flat, classify)

        # Build per-rank tables from the first charge of each bucket (rank 0
        # starts at zero charge).  The decoded value uses the same float
        # expression as `decode`, so the table entries match the reference
        # conversion bit for bit.
        reps = np.concatenate([[0.0], bounds])
        exponent = np.sum(reps[..., None] >= thresholds[1:], axis=-1)
        v_m = start[exponent] + (reps - thresholds[exponent]) / cumulative[exponent]
        saturated = v_m >= cfg.v_threshold
        v_m = np.clip(v_m, cfg.v_reset, cfg.v_threshold)
        underflow = (exponent == 0) & (v_m < half)
        position = (v_m - error - conv.v_low) / conv.lsb
        mantissa = np.clip(np.rint(position), 0, conv.max_code).astype(np.int64)
        mantissa = np.where(saturated, levels - 1, mantissa)
        values = self.decode(exponent, mantissa)
        values = np.where(underflow, 0.0, values)
        ranks = np.arange(values.size)
        if not (np.array_equal(saturated, ranks == ranks[-1])
                and np.array_equal(underflow, ranks == 0)):
            raise AssertionError("ADC flags are not exactly the top / zero rank")
        return ADCConversionLUT(
            indexer=BucketIndexer(bounds),
            values=values,
            saturated=saturated,
            underflow=underflow,
        )

    def transition_charges(self) -> Optional[np.ndarray]:
        """Exact charge at every output-code transition, ascending.

        The first entry is the underflow edge (code 0 → value 1.0), the
        following ones the mantissa and range-adaptation steps up to the
        saturation point — precisely the staircase edges a linearity
        (INL/DNL) characterization measures.  Only defined when the
        conversion is deterministic and monotone (see
        :meth:`conversion_lut`); returns ``None`` otherwise.
        """
        lut = self.conversion_lut()
        if lut is None:
            return None
        return np.asarray(lut.indexer.bounds, dtype=np.float64).copy()

    def transfer_curve(self, num_points: int = 512) -> np.ndarray:
        """``(current, value)`` samples across the full input range."""
        currents = np.linspace(0.0, self.full_scale_current * 1.05, num_points)
        values = np.empty_like(currents)
        for i, current in enumerate(currents):
            single = self.convert(np.full(self.channels, current))
            values[i] = single.value if np.isscalar(single.value) else np.asarray(single.value).ravel()[0]
        return np.stack([currents, values], axis=1)


class FPADCTransient:
    """Time-domain model of one FP-ADC column (reproduces Fig. 5(a)).

    The model steps through the reset, adaptive-integration and single-slope
    phases with a fixed time step, using the behavioural integrator,
    comparator and capacitor-bank blocks.  It records the integrator output
    ``V_O`` and the comparator threshold ``V_th`` over time and returns the
    final FP code.
    """

    def __init__(self, config: ADCConfig = ADCConfig(), time_step: float = 0.1e-9,
                 reset_time: float = 5e-9,
                 rng: Optional[np.random.Generator] = None) -> None:
        if time_step <= 0:
            raise ValueError("time_step must be positive")
        self.config = config
        self.time_step = time_step
        self.reset_time = reset_time
        self._rng = rng if rng is not None else np.random.default_rng(config.seed)

    def simulate(self, current: float) -> TransientResult:
        """Run one conversion of a constant input current.

        Returns a :class:`TransientResult` whose metadata contains the
        exponent code, mantissa code, decoded value, the held voltage ``V_M``
        and the times of the range adaptations.
        """
        cfg = self.config
        opamp = OpAmpModel(output_min=min(cfg.v_reset, 0.0), output_max=cfg.v_threshold * 1.25)
        integrator = ActiveIntegrator(opamp=opamp, v_initial=cfg.v_reset)
        comparator = Comparator(
            offset_voltage=cfg.comparator_offset,
            noise_rms=cfg.comparator_noise,
            rng=self._rng,
        )
        bank = CapacitorBank.paper_ladder(
            exponent_bits=cfg.exponent_bits,
            unit_capacitance=cfg.unit_capacitance,
            v_reset=cfg.v_reset,
            mismatch_sigma=cfg.capacitor_mismatch_sigma,
            rng=self._rng,
        )
        slope = SingleSlopeConverter(
            bits=cfg.mantissa_bits,
            v_low=(cfg.v_reset + cfg.v_threshold) / 2.0,
            v_high=cfg.v_threshold,
            clock_period=cfg.slope_clock_period,
            comparator=comparator,
        )

        recorder = TransientRecorder(["v_out", "v_threshold", "connected_caps"])
        adaptation_times = []
        time = 0.0

        # --- Reset phase -------------------------------------------------
        integrator.reset()
        bank.reset()
        while time < self.reset_time:
            recorder.record(time, v_out=integrator.output_voltage,
                            v_threshold=cfg.v_threshold,
                            connected_caps=bank.connected_count)
            time += self.time_step

        # --- Adaptive integration phase -----------------------------------
        sample_time = self.reset_time + cfg.integration_time
        while time < sample_time:
            integrator.step(current, bank.connected_capacitance, self.time_step)
            fired = comparator.compare(integrator.output_voltage, cfg.v_threshold)
            if fired and bank.adaptations_remaining > 0:
                new_v = bank.expand(integrator.output_voltage)
                integrator.force_output(new_v)
                adaptation_times.append(time)
            recorder.record(time, v_out=integrator.output_voltage,
                            v_threshold=cfg.v_threshold,
                            connected_caps=bank.connected_count)
            time += self.time_step

        exponent_code = bank.adaptation_count
        v_m = integrator.output_voltage
        half = (cfg.v_reset + cfg.v_threshold) / 2.0
        underflow = v_m < half and exponent_code == 0
        saturated = v_m >= cfg.v_threshold

        # --- Single-slope mantissa phase -----------------------------------
        mantissa_code, fired_at = slope.convert_with_time(min(v_m, cfg.v_threshold))
        slope_end = sample_time + slope.conversion_time
        while time < slope_end:
            ramp = slope.ramp_voltage(time - sample_time)
            recorder.record(time, v_out=v_m, v_threshold=ramp,
                            connected_caps=bank.connected_count)
            time += self.time_step

        if underflow and not cfg.subnormal_readout:
            exponent_code, mantissa_code, value = 0, 0, 0.0
        else:
            value = (1.0 + mantissa_code / cfg.mantissa_levels) * 2.0 ** exponent_code
        metadata = {
            "current": float(current),
            "exponent_code": float(exponent_code),
            "mantissa_code": float(mantissa_code),
            "value": float(value),
            "held_voltage": float(v_m),
            "saturated": float(saturated),
            "underflow": float(underflow),
            "num_adaptations": float(len(adaptation_times)),
            "sample_time": float(sample_time),
            "mantissa_fired_at": float(sample_time + fired_at),
        }
        for i, t_adapt in enumerate(adaptation_times):
            metadata[f"adaptation_time_{i}"] = float(t_adapt)
        return recorder.to_result(metadata=metadata)
