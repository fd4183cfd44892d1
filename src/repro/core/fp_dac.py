"""Input FP-DAC: reconstructs FP8 activation codes into analog voltages.

Paper Section III-C: the FP-DAC has three parts — a shared resistor-string
reference that generates the 5-bit mantissa voltages, a mantissa switch
network that selects one tap, and a programmable-gain amplifier (PGA) whose
gain ``2^E`` is selected by the decoded exponent bits.  The output is
(paper Eq. 6)::

    V_DAC = 2^E x M_analog

where ``M_analog`` is the analog value of the mantissa ``1.M``.  A value of
exactly zero (code 0) disconnects the row driver (0 V output).

The class operates on either raw FP code fields or on "code values"
(``(1 + M/2^m) x 2^E``), and vectorises over whole activation vectors since
every row of the macro has its own DAC driven in parallel.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional, Tuple

import numpy as np

from repro.circuits.opamp import OpAmpModel
from repro.circuits.pga import ProgrammableGainAmplifier
from repro.circuits.reference import ResistorStringReference
from repro.core.config import DACConfig, hardware_activation_format
from repro.formats.fp8 import StepTable, refine_step_boundaries

#: Static-mismatch state shared between DACs with identical configurations.
#: The reference ladder's INL and the PGA's gain errors are drawn once at
#: construction from a generator seeded by ``config.seed``, so two DACs with
#: the same (frozen, hashable) config always end up with the same arrays —
#: memoising the pair avoids re-drawing them for every macro tile.  Both
#: objects are read-only after construction, which makes sharing safe.
_STATIC_CHAIN_CACHE: Dict[DACConfig, Tuple[ResistorStringReference,
                                           ProgrammableGainAmplifier]] = {}


def _static_chain(config: DACConfig) -> Tuple[ResistorStringReference,
                                              ProgrammableGainAmplifier]:
    """The (reference ladder, PGA) pair for a config, drawn once and shared."""
    chain = _STATIC_CHAIN_CACHE.get(config)
    if chain is None:
        static_rng = np.random.default_rng(config.seed + 1)
        v_unit = config.volts_per_unit
        reference = ResistorStringReference(
            bits=config.mantissa_bits,
            v_bottom=v_unit * 1.0,
            v_top=v_unit * 2.0,
            mismatch_sigma=config.reference_mismatch_sigma,
            rng=static_rng,
        )
        # The PGA's op-amp must swing up to the full-scale DAC output.
        pga_opamp = OpAmpModel(output_min=0.0, output_max=config.v_full_scale * 1.05)
        pga = ProgrammableGainAmplifier(
            exponent_bits=config.exponent_bits,
            opamp=pga_opamp,
            gain_error_sigma=config.pga_gain_error_sigma,
            rng=static_rng,
        )
        chain = (reference, pga)
        _STATIC_CHAIN_CACHE[config] = chain
    return chain


def _encode_fields(value: np.ndarray, exponent_levels: int,
                   mantissa_levels: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:meth:`FPDAC.encode_value` on a grid of ``exponent_levels`` binades
    of ``mantissa_levels`` codes, for non-negative ``value``."""
    levels = mantissa_levels
    max_exponent = exponent_levels - 1
    # Direct field extraction on the hardware grid (bias 0, no
    # subnormals): equivalent to FloatFormat.quantize followed by a
    # log2-based field split, but in a handful of vectorised passes —
    # this is the hottest operation of batched analog inference.
    saturation_bound = 2.0 ** (max_exponent + 2)
    v = np.nan_to_num(value, nan=0.0, posinf=saturation_bound)
    v = np.minimum(v, saturation_bound)
    _, e = np.frexp(v)
    exponent = np.clip(e - 1, 0, max_exponent)
    code = np.rint(np.ldexp(v, -exponent) * levels).astype(np.int64)
    # Below the smallest normal (code value 1.0) the hardware flushes to
    # zero; rounding exactly onto a binade boundary carries into the next
    # exponent, and anything beyond the top code saturates.
    zero_mask = code < levels
    rollover = code >= 2 * levels
    exponent = np.where(rollover, exponent + 1, exponent)
    mantissa = np.where(rollover, 0, code - levels)
    saturated = exponent > max_exponent
    exponent = np.where(saturated, max_exponent, exponent)
    mantissa = np.where(saturated, levels - 1, np.clip(mantissa, 0, levels - 1))
    return exponent.astype(np.int64), mantissa.astype(np.int64), zero_mask


@functools.lru_cache(maxsize=None)
def _voltage_lut_bounds(exponent_levels: int, mantissa_levels: int) -> np.ndarray:
    """Exact code-value bucket bounds of the DAC's encode, per format.

    The encode (zero flush, rounding, saturation) depends on the format
    alone, so every DAC of one format shares these bounds; only the
    bucket voltages carry a DAC's static mismatch.  Read-only.
    """
    levels = mantissa_levels
    exponents = np.repeat(np.arange(exponent_levels), levels)
    mantissas = np.tile(np.arange(levels), exponent_levels)
    code_values = (1.0 + mantissas / levels) * 2.0 ** exponents

    def classify(value: np.ndarray) -> np.ndarray:
        exponent, mantissa, zero = _encode_fields(
            np.maximum(np.asarray(value, dtype=np.float64), 0.0),
            exponent_levels, mantissa_levels)
        bucket = 1 + exponent * levels + mantissa
        return np.where(zero, 0, bucket)

    candidates = np.concatenate([
        [1.0 - 0.5 / levels],  # flush-to-zero threshold
        0.5 * (code_values[:-1] + code_values[1:]),
    ])
    bounds = refine_step_boundaries(candidates, classify)
    if bounds.size != code_values.size:
        raise AssertionError("DAC voltage LUT has empty buckets")
    bounds.setflags(write=False)
    return bounds


class FPDAC:
    """Behavioural FP-DAC (one instance models all row drivers of a macro).

    Parameters
    ----------
    config:
        Electrical and format configuration.
    rng:
        Random generator used for the output-noise draws.  Static mismatch
        (reference INL, PGA gain error) is drawn once at construction from a
        generator seeded with ``config.seed``.
    """

    def __init__(self, config: DACConfig = DACConfig(), rng: Optional[np.random.Generator] = None) -> None:
        self.config = config
        self._rng = rng if rng is not None else np.random.default_rng(config.seed)

        self.format = hardware_activation_format(config.exponent_bits, config.mantissa_bits)
        # The reference ladder spans the mantissa range [1.0, 2.0) expressed
        # in volts-per-unit of the DAC transfer function; its mismatch draw
        # (and the PGA's) is static per config, so the pair is shared between
        # identically-configured DACs instead of re-drawn per instance.
        self.reference, self.pga = _static_chain(config)
        self._voltage_lut: Optional[StepTable] = None

    # ------------------------------------------------------------------
    # Scalar / vector conversion from code fields
    # ------------------------------------------------------------------
    @property
    def volts_per_unit(self) -> float:
        """Voltage corresponding to one unit of decoded code value."""
        return self.config.volts_per_unit

    def mantissa_voltage(self, mantissa: np.ndarray) -> np.ndarray:
        """Analog mantissa value ``M_analog`` selected from the reference taps."""
        return self.reference.voltage(mantissa)

    def convert_fields(
        self, exponent: np.ndarray, mantissa: np.ndarray, zero_mask: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Convert exponent / mantissa field arrays into output voltages.

        Parameters
        ----------
        exponent, mantissa:
            Integer field arrays of equal shape.
        zero_mask:
            Boolean array marking elements whose value is exactly zero (the
            all-zero FP code); their output is forced to 0 V.
        """
        exponent = np.asarray(exponent, dtype=np.int64)
        mantissa = np.asarray(mantissa, dtype=np.int64)
        if exponent.shape != mantissa.shape:
            raise ValueError("exponent and mantissa must have the same shape")
        if np.any((exponent < 0) | (exponent >= self.config.exponent_levels)):
            raise ValueError("exponent field out of range")
        v_man = self.mantissa_voltage(mantissa)

        out = np.empty(exponent.shape, dtype=np.float64)
        flat_exp = exponent.ravel()
        flat_man = v_man.ravel()
        flat_out = out.ravel()
        # The PGA gain is a per-element selection; group by exponent setting so
        # the amplifier model is applied vectorised per gain code.
        for setting in range(self.config.exponent_levels):
            mask = flat_exp == setting
            if np.any(mask):
                flat_out[mask] = self.pga.amplify(flat_man[mask], setting)
        out = flat_out.reshape(exponent.shape)

        if zero_mask is not None:
            out = np.where(np.asarray(zero_mask, dtype=bool), 0.0, out)
        if self.config.output_noise_rms > 0:
            out = out + self.config.output_noise_rms * self._rng.standard_normal(out.shape)
            out = np.clip(out, 0.0, None)
        return out

    # ------------------------------------------------------------------
    # Conversion from code values
    # ------------------------------------------------------------------
    def encode_value(self, value: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Quantise non-negative code values onto the hardware FP grid.

        Returns ``(exponent_field, mantissa_field, zero_mask)``.  Values are
        expected in the code-value domain ``[0, max_code_value]``; anything
        below the smallest normal (1.0) flushes to zero, mirroring the
        hardware which has no subnormal input codes.  Zero is signalled with
        a separate mask (a zero-detect gate in hardware) rather than a
        reserved code, so the fields ``(E=0, M=0)`` still mean the value 1.0.
        """
        value = np.asarray(value, dtype=np.float64)
        if np.any(value < 0):
            raise ValueError("code values must be non-negative (sign handled digitally)")
        return _encode_fields(value, self.config.exponent_levels,
                              self.config.mantissa_levels)

    def convert_value(self, value: np.ndarray) -> np.ndarray:
        """Quantise code values to the FP grid and produce output voltages."""
        exponent, mantissa, zero_mask = self.encode_value(value)
        return self.convert_fields(exponent, mantissa, zero_mask=zero_mask)

    # ------------------------------------------------------------------
    # Compiled code-value -> voltage lookup table
    # ------------------------------------------------------------------
    def voltage_lut(self) -> Optional[StepTable]:
        """Compile the full code-value → output-voltage transfer into a LUT.

        There are only ``2^(e+m)`` non-zero FP input codes (128 for FP8), so
        with a noiseless output stage the whole encode (frexp field split,
        mantissa rounding, zero flush, saturation) followed by the analog
        reconstruction (reference tap, PGA gain incl. static mismatch)
        collapses into one :class:`~repro.formats.fp8.StepTable`,
        ``lut(value)`` — bit-identical to :meth:`convert_value` for every
        non-negative code value, including the round-to-nearest-even ties
        on binade boundaries, which the boundary refinement resolves
        exactly.  Its ``bounds`` are shared per format; its ``values``
        (zero, then one voltage per code) carry this DAC's mismatch.
        Returns ``None`` when per-conversion output noise makes the
        transfer stochastic.
        """
        if self.config.output_noise_rms > 0:
            return None
        if self._voltage_lut is None:
            levels = self.config.mantissa_levels
            exponents = np.repeat(np.arange(self.config.exponent_levels), levels)
            mantissas = np.tile(np.arange(levels), self.config.exponent_levels)
            volts = self.convert_fields(exponents, mantissas)
            bounds = _voltage_lut_bounds(self.config.exponent_levels, levels)
            table = np.concatenate([[0.0], volts])  # bucket 0 = exact zero
            self._voltage_lut = StepTable(bounds, table)
        return self._voltage_lut

    def ideal_voltage(self, value: np.ndarray) -> np.ndarray:
        """The ideal (mismatch-free) output voltage for given code values."""
        value = np.asarray(value, dtype=np.float64)
        quantised = self.format.quantize(value)
        return np.abs(quantised) * self.volts_per_unit

    # ------------------------------------------------------------------
    # Cell-current helper used by the Fig. 5(b) linearity study
    # ------------------------------------------------------------------
    def cell_current(self, input_code: np.ndarray, conductance: float) -> np.ndarray:
        """Current through a single RRAM cell for each 7-bit input code.

        ``input_code`` packs ``[exponent | mantissa]`` (no sign bit), exactly
        the sweep of Fig. 5(b): codes 0000000 to 1111111 grouped by the two
        exponent bits.  The current is simply ``V_DAC(code) x G``.
        """
        input_code = np.asarray(input_code, dtype=np.int64)
        max_code = self.config.exponent_levels * self.config.mantissa_levels - 1
        if np.any((input_code < 0) | (input_code > max_code)):
            raise ValueError(f"input code out of range 0..{max_code}")
        if conductance < 0:
            raise ValueError("conductance must be non-negative")
        mantissa = input_code & (self.config.mantissa_levels - 1)
        exponent = input_code >> self.config.mantissa_bits
        voltage = self.convert_fields(exponent, mantissa)
        return voltage * conductance

    def transfer_table(self) -> np.ndarray:
        """``(code, ideal_value, voltage)`` rows for every non-zero input code."""
        codes = np.arange(self.config.exponent_levels * self.config.mantissa_levels)
        mantissa = codes & (self.config.mantissa_levels - 1)
        exponent = codes >> self.config.mantissa_bits
        values = (1.0 + mantissa / self.config.mantissa_levels) * 2.0 ** exponent
        voltages = self.convert_fields(exponent, mantissa)
        return np.stack([codes.astype(np.float64), values, voltages], axis=1)

    def ideal_transfer_table(self) -> np.ndarray:
        """``(code, ideal_value, ideal_voltage)`` rows for every input code.

        The mismatch-free twin of :meth:`transfer_table`: the voltage column
        is the decoded code value scaled by :attr:`volts_per_unit`, which is
        the reference a linearity (INL/DNL) characterization compares the
        measured transfer against.
        """
        codes = np.arange(self.config.exponent_levels * self.config.mantissa_levels)
        mantissa = codes & (self.config.mantissa_levels - 1)
        exponent = codes >> self.config.mantissa_bits
        values = (1.0 + mantissa / self.config.mantissa_levels) * 2.0 ** exponent
        return np.stack([codes.astype(np.float64), values,
                         values * self.volts_per_unit], axis=1)

    def linearity_error(self) -> float:
        """Worst-case relative deviation of the transfer curve from ideal."""
        table = self.transfer_table()
        ideal = table[:, 1] * self.volts_per_unit
        actual = table[:, 2]
        return float(np.max(np.abs(actual - ideal) / np.maximum(ideal, 1e-12)))
