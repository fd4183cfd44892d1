"""Configuration dataclasses for the AFPR-CIM macro and its converters.

Numeric defaults follow Section IV of the paper:

* the macro is a 576 x 256 RRAM array,
* the analog supply is 2.5 V and the digital supply 1.2 V,
* the floating-point readout range is 2 V (``V_th`` = 2 V, ``V_r`` = 0 V),
* the activation format is FP8 **E2M5** (2-bit exponent, 5-bit mantissa),
* the integration (adaptive) phase lasts 100 ns and the single-slope
  mantissa conversion another 100 ns, for a 200 ns macro conversion,
* the worked transient example of Fig. 5(a) integrates 5.38 µA, adapts the
  range twice and reads out ``exponent=10, mantissa=01001`` (V_out 1.271 V).

The default unit integration capacitor (105 fF) is chosen so that exact
example reproduces: ``I · T_S / C_unit = 5.38 µA · 100 ns / 105 fF ≈ 5.12 V``
= ``1.281 V × 2²``, which quantises to the paper's output code
(exponent ``10``, mantissa ``01001``).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Optional

from repro.formats.fp8 import FloatFormat
from repro.rram.crossbar import CrossbarConfig
from repro.rram.device import ConductanceLevels, RRAMStatistics


@functools.lru_cache(maxsize=None)
def hardware_activation_format(exponent_bits: int = 2, mantissa_bits: int = 5) -> FloatFormat:
    """The *hardware* FP code interpretation used at the macro interface.

    The analog data path represents a code as ``(1 + M/2^m) x 2^E`` with the
    exponent field used directly (no bias, no subnormals): the FP-DAC's PGA
    gain is ``2^E`` and the FP-ADC's range adaptation count is ``E``.  Codes
    therefore decode to values in ``[1, 2^(2^e) )`` plus exact zero.

    Every DAC and quantiser construction asks for this format, so the
    (frozen, hashable) instance is memoised rather than rebuilt each time.
    """
    return FloatFormat(
        exponent_bits=exponent_bits,
        mantissa_bits=mantissa_bits,
        bias=0,
        signed=True,
        subnormals=False,
        name=f"E{exponent_bits}M{mantissa_bits}-hw",
    )


@dataclasses.dataclass(frozen=True)
class ADCConfig:
    """Configuration of the dynamic-range adaptive FP-ADC (one per column).

    Parameters
    ----------
    exponent_bits / mantissa_bits:
        Output FP code widths (2 / 5 for E2M5, 3 / 4 for E3M4).
    v_threshold:
        Comparator threshold ``V_th`` (the top of the mantissa range).
    v_reset:
        Integrator reset level ``V_r``.
    unit_capacitance:
        The unit capacitor ``C_int`` of the adaptive bank, in farads.
    integration_time:
        Length of the adaptive / integration phase ``T_S`` in seconds.
    slope_clock_period:
        Clock period of the single-slope counter.  The default gives a 100 ns
        mantissa phase for 5 bits (32 x 3.125 ns).
    comparator_offset / comparator_noise:
        Comparator non-idealities in volts.
    capacitor_mismatch_sigma:
        Relative mismatch of each bank capacitor.
    subnormal_readout:
        If True, currents too small to reach 1 V by ``T_S`` are still read
        out as a sub-1V mantissa with exponent 0.  The paper does not read
        them out (they become code 0), which is the default.
    seed:
        Seed for the stochastic non-idealities.
    """

    exponent_bits: int = 2
    mantissa_bits: int = 5
    v_threshold: float = 2.0
    v_reset: float = 0.0
    unit_capacitance: float = 105e-15
    integration_time: float = 100e-9
    slope_clock_period: float = 3.125e-9
    comparator_offset: float = 0.0
    comparator_noise: float = 0.0
    capacitor_mismatch_sigma: float = 0.0
    subnormal_readout: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.exponent_bits < 1 or self.mantissa_bits < 1:
            raise ValueError("exponent_bits and mantissa_bits must be >= 1")
        if self.v_threshold <= self.v_reset:
            raise ValueError("v_threshold must exceed v_reset")
        if self.unit_capacitance <= 0:
            raise ValueError("unit_capacitance must be positive")
        if self.integration_time <= 0 or self.slope_clock_period <= 0:
            raise ValueError("times must be positive")

    @property
    def exponent_levels(self) -> int:
        """Number of exponent codes (range settings)."""
        return 1 << self.exponent_bits

    @property
    def mantissa_levels(self) -> int:
        """Number of mantissa codes."""
        return 1 << self.mantissa_bits

    @property
    def max_adaptations(self) -> int:
        """Maximum number of range adaptations (capacitors beyond C1)."""
        return self.exponent_levels - 1

    @property
    def mantissa_conversion_time(self) -> float:
        """Duration of the single-slope phase."""
        return self.mantissa_levels * self.slope_clock_period

    @property
    def conversion_time(self) -> float:
        """Total conversion time (integration + single-slope)."""
        return self.integration_time + self.mantissa_conversion_time

    @property
    def full_scale_voltage_units(self) -> float:
        """The largest representable ``V_O x 2^n`` product (just below it)."""
        return self.v_threshold * (2 ** self.max_adaptations)

    @property
    def full_scale_current(self) -> float:
        """Column current that maps to the top of the FP range."""
        return self.full_scale_voltage_units * self.unit_capacitance / self.integration_time

    def with_full_scale_current(self, current: float) -> "ADCConfig":
        """Return a copy whose capacitor is resized for a new full-scale current.

        This is the macro's range-calibration knob: given the largest column
        current a layer is expected to produce, the unit capacitor is chosen
        so that current lands at the top of the FP range.
        """
        if current <= 0:
            raise ValueError("full-scale current must be positive")
        new_cap = current * self.integration_time / self.full_scale_voltage_units
        return dataclasses.replace(self, unit_capacitance=new_cap)


@dataclasses.dataclass(frozen=True)
class DACConfig:
    """Configuration of the input FP-DAC (one per row).

    Parameters
    ----------
    exponent_bits / mantissa_bits:
        Input FP code widths.
    v_full_scale:
        Voltage produced by the largest input code (2 V in the paper).
    reference_mismatch_sigma:
        Relative mismatch of the reference resistor string segments.
    pga_gain_error_sigma:
        Relative mismatch of each PGA gain setting.
    output_noise_rms:
        Additive output voltage noise per conversion, in volts.
    seed:
        Seed for the stochastic non-idealities.
    """

    exponent_bits: int = 2
    mantissa_bits: int = 5
    v_full_scale: float = 2.0
    reference_mismatch_sigma: float = 0.0
    pga_gain_error_sigma: float = 0.0
    output_noise_rms: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.exponent_bits < 1 or self.mantissa_bits < 1:
            raise ValueError("exponent_bits and mantissa_bits must be >= 1")
        if self.v_full_scale <= 0:
            raise ValueError("v_full_scale must be positive")

    @property
    def exponent_levels(self) -> int:
        """Number of exponent codes (PGA gain settings)."""
        return 1 << self.exponent_bits

    @property
    def mantissa_levels(self) -> int:
        """Number of mantissa codes (reference taps)."""
        return 1 << self.mantissa_bits

    @property
    def max_code_value(self) -> float:
        """Decoded value of the largest code, ``(2 - 2^-m) * 2^(levels-1)``."""
        max_gain = 2.0 ** (self.exponent_levels - 1)
        max_mantissa = 2.0 - 1.0 / self.mantissa_levels
        return max_gain * max_mantissa

    @property
    def volts_per_unit(self) -> float:
        """Voltage corresponding to one unit of decoded code value."""
        return self.v_full_scale / self.max_code_value


@dataclasses.dataclass(frozen=True)
class MacroConfig:
    """Configuration of a complete AFPR-CIM macro.

    Combines the crossbar geometry, the device statistics and the two
    converter configurations, plus the supply voltages used by the power
    model.
    """

    rows: int = 576
    cols: int = 256
    analog_supply: float = 2.5
    digital_supply: float = 1.2
    adc: ADCConfig = dataclasses.field(default_factory=ADCConfig)
    dac: DACConfig = dataclasses.field(default_factory=DACConfig)
    conductance: ConductanceLevels = dataclasses.field(default_factory=ConductanceLevels)
    device_statistics: RRAMStatistics = dataclasses.field(default_factory=RRAMStatistics)
    wire_resistance: float = 0.0
    ir_drop_enabled: bool = False
    read_noise_enabled: bool = True
    differential_columns: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("macro must have at least one row and column")
        if self.analog_supply <= 0 or self.digital_supply <= 0:
            raise ValueError("supplies must be positive")
        if self.adc.exponent_bits != self.dac.exponent_bits:
            raise ValueError("ADC and DAC exponent widths must match")
        if self.adc.mantissa_bits != self.dac.mantissa_bits:
            raise ValueError("ADC and DAC mantissa widths must match")

    @property
    def cells(self) -> int:
        """Number of RRAM cells in the macro."""
        return self.rows * self.cols

    @property
    def logical_columns(self) -> int:
        """Number of signed weight columns the macro can hold."""
        return self.cols // 2 if self.differential_columns else self.cols

    @property
    def activation_format(self) -> FloatFormat:
        """The hardware FP interpretation of activation codes."""
        return hardware_activation_format(self.adc.exponent_bits, self.adc.mantissa_bits)

    @property
    def format_name(self) -> str:
        """Short name of the activation format, e.g. ``E2M5``."""
        return f"E{self.adc.exponent_bits}M{self.adc.mantissa_bits}"

    @property
    def conversion_time(self) -> float:
        """Macro computing latency (one full-array conversion)."""
        return self.adc.conversion_time

    @property
    def ops_per_conversion(self) -> int:
        """MAC operations per conversion, counted as 2 ops per cell."""
        return 2 * self.rows * self.cols

    def crossbar_config(self) -> CrossbarConfig:
        """Derive the crossbar configuration embedded in this macro config."""
        return CrossbarConfig(
            rows=self.rows,
            cols=self.cols,
            v_clamp=self.adc.v_reset,
            v_input_max=self.dac.v_full_scale,
            wire_resistance=self.wire_resistance,
            ir_drop_enabled=self.ir_drop_enabled,
            read_noise_enabled=self.read_noise_enabled,
        )


def e2m5_macro_config(**overrides) -> MacroConfig:
    """The paper's default macro: FP8 E2M5, 576x256, 200 ns conversion."""
    return MacroConfig(**overrides)


def e3m4_macro_config(**overrides) -> MacroConfig:
    """The alternative FP8 E3M4 macro studied in Fig. 6 / Table I."""
    adc = ADCConfig(exponent_bits=3, mantissa_bits=4)
    dac = DACConfig(exponent_bits=3, mantissa_bits=4)
    return MacroConfig(adc=adc, dac=dac, **overrides)


def macro_config_for_format(exponent_bits: int, mantissa_bits: int, **overrides) -> MacroConfig:
    """Macro configuration for an arbitrary ``ExMy`` activation format."""
    adc = ADCConfig(exponent_bits=exponent_bits, mantissa_bits=mantissa_bits)
    dac = DACConfig(exponent_bits=exponent_bits, mantissa_bits=mantissa_bits)
    return MacroConfig(adc=adc, dac=dac, **overrides)
