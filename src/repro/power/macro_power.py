"""Whole-macro power breakdown (Fig. 6(a)/(b)) and format comparison.

:class:`MacroPowerModel` produces the per-module energy / power breakdown of
an AFPR-CIM macro in any ``ExMy`` activation format, and
:class:`Int8ReferencePowerModel` produces the same breakdown for the paper's
conventional INT8 design (same array, conventional single-slope ADC, per-row
linear DAC, 500 ns conversion).  :func:`format_power_comparison` assembles the
three-way comparison of Fig. 6.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.core.config import MacroConfig, e2m5_macro_config, e3m4_macro_config
from repro.power.components import (
    DEFAULT_CALIBRATION,
    ConverterSpec,
    PowerCalibration,
    module_energies,
)


@dataclasses.dataclass(frozen=True)
class PowerBreakdown:
    """Per-module energy of one macro conversion plus derived figures.

    Energies are in joules (per conversion); powers in watts (energy divided
    by the conversion time); throughput in GOPS and efficiency in TOPS/W.
    """

    label: str
    adc_energy: float
    dac_energy: float
    array_energy: float
    digital_energy: float
    conversion_time: float
    operations_per_conversion: int

    @property
    def total_energy(self) -> float:
        """Total energy of one conversion in joules."""
        return self.adc_energy + self.dac_energy + self.array_energy + self.digital_energy

    @property
    def total_power(self) -> float:
        """Average power over one conversion in watts."""
        return self.total_energy / self.conversion_time

    @property
    def module_energies(self) -> Dict[str, float]:
        """Per-module energies keyed by module name."""
        return {
            "adc": self.adc_energy,
            "dac": self.dac_energy,
            "array": self.array_energy,
            "digital": self.digital_energy,
        }

    @property
    def throughput_gops(self) -> float:
        """Peak throughput in GOPS (GFLOPS for FP formats)."""
        return self.operations_per_conversion / self.conversion_time / 1e9

    @property
    def energy_efficiency_tops_per_watt(self) -> float:
        """Peak energy efficiency in TOPS/W (TFLOPS/W for FP formats)."""
        return self.operations_per_conversion / self.total_energy / 1e12

    @property
    def energy_per_op(self) -> float:
        """Energy per operation in joules."""
        return self.total_energy / self.operations_per_conversion


class MacroPowerModel:
    """Power model of an AFPR-CIM macro in a given activation format.

    Parameters
    ----------
    config:
        Macro configuration (geometry, ADC/DAC formats and timing).
    sparsity:
        Weight sparsity; the paper quotes its headline numbers in
        "high-density mode at 0 % sparsity", the default here.
    calibration:
        Energy calibration constants.
    """

    def __init__(self, config: MacroConfig = MacroConfig(), sparsity: float = 0.0,
                 calibration: PowerCalibration = DEFAULT_CALIBRATION) -> None:
        self.config = config
        self.sparsity = sparsity
        self.calibration = calibration
        self.spec = ConverterSpec.from_adc_config(config.adc)

    def breakdown(self) -> PowerBreakdown:
        """Per-module energy breakdown of one macro conversion."""
        energies = module_energies(
            self.spec,
            rows=self.config.rows,
            cols=self.config.cols,
            sparsity=self.sparsity,
            is_fp_dac=True,
            calibration=self.calibration,
        )
        return PowerBreakdown(
            label=f"AFPR-CIM {self.config.format_name}",
            adc_energy=energies["adc"],
            dac_energy=energies["dac"],
            array_energy=energies["array"],
            digital_energy=energies["digital"],
            conversion_time=self.spec.conversion_time,
            operations_per_conversion=self.config.ops_per_conversion,
        )

    def total_power(self) -> float:
        """Average macro power in watts."""
        return self.breakdown().total_power

    def energy_per_conversion(self) -> float:
        """Total energy of one conversion in joules."""
        return self.breakdown().total_energy

    def energy_efficiency(self) -> float:
        """Peak energy efficiency in TFLOPS/W."""
        return self.breakdown().energy_efficiency_tops_per_watt

    def throughput(self) -> float:
        """Peak throughput in GFLOPS."""
        return self.breakdown().throughput_gops


class Int8ReferencePowerModel:
    """The paper's conventional INT8 design on the same array.

    Same 576 x 256 crossbar and integration phase, but a fixed-range
    single-slope 8-bit ADC (500 ns conversion) and a per-row linear input
    DAC.  Used as the reference bar of Fig. 6(a)/(b) and as the "analog INT8
    CIM" own-design baseline.
    """

    def __init__(self, rows: int = 576, cols: int = 256, bits: int = 8,
                 sparsity: float = 0.0,
                 unit_capacitance: float = 105e-15,
                 calibration: PowerCalibration = DEFAULT_CALIBRATION) -> None:
        if bits < 1:
            raise ValueError("bits must be >= 1")
        self.rows = rows
        self.cols = cols
        self.bits = bits
        self.sparsity = sparsity
        self.calibration = calibration
        self.spec = ConverterSpec.int_single_slope(bits=bits, unit_capacitance=unit_capacitance)

    def breakdown(self) -> PowerBreakdown:
        """Per-module energy breakdown of one INT8 macro conversion."""
        energies = module_energies(
            self.spec,
            rows=self.rows,
            cols=self.cols,
            sparsity=self.sparsity,
            is_fp_dac=False,
            calibration=self.calibration,
        )
        return PowerBreakdown(
            label=f"INT{self.bits} reference",
            adc_energy=energies["adc"],
            dac_energy=energies["dac"],
            array_energy=energies["array"],
            digital_energy=energies["digital"],
            conversion_time=self.spec.conversion_time,
            operations_per_conversion=2 * self.rows * self.cols,
        )

    def total_power(self) -> float:
        """Average macro power in watts."""
        return self.breakdown().total_power

    def energy_efficiency(self) -> float:
        """Peak energy efficiency in TOPS/W."""
        return self.breakdown().energy_efficiency_tops_per_watt


def energy_at_unit_capacitance(config: MacroConfig, unit_capacitance: float,
                               sparsity: float = 0.0,
                               calibration: PowerCalibration = DEFAULT_CALIBRATION
                               ) -> float:
    """Per-conversion energy (joules) with the ADC capacitor resized.

    The noise-floor-vs-energy characterization sweeps the unit integration
    capacitor: a larger capacitor lowers the kT/C floor but costs
    proportionally more switching energy.  This evaluates one operating
    point of that curve without mutating the caller's config.
    """
    if unit_capacitance <= 0:
        raise ValueError("unit_capacitance must be positive")
    scaled = dataclasses.replace(
        config, adc=dataclasses.replace(config.adc,
                                        unit_capacitance=unit_capacitance))
    return MacroPowerModel(scaled, sparsity=sparsity,
                           calibration=calibration).energy_per_conversion()


def format_power_comparison(sparsity: float = 0.0,
                            calibration: PowerCalibration = DEFAULT_CALIBRATION
                            ) -> List[PowerBreakdown]:
    """The three-way comparison of Fig. 6: INT8, FP8 E3M4 and FP8 E2M5.

    Returns the breakdowns in the order the paper plots them.
    """
    int8 = Int8ReferencePowerModel(sparsity=sparsity, calibration=calibration).breakdown()
    e3m4 = MacroPowerModel(e3m4_macro_config(), sparsity=sparsity,
                           calibration=calibration).breakdown()
    e2m5 = MacroPowerModel(e2m5_macro_config(), sparsity=sparsity,
                           calibration=calibration).breakdown()
    return [int8, e3m4, e2m5]
