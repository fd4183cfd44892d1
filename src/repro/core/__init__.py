"""AFPR-CIM core: the paper's primary contribution.

This package assembles the substrates (number formats, RRAM crossbar, analog
circuit blocks) into the architecture of the paper:

* :mod:`repro.core.config` — macro / ADC / DAC configuration dataclasses,
* :mod:`repro.core.fp_dac` — the input FP-DAC (Section III-C),
* :mod:`repro.core.fp_adc` — the dynamic-range adaptive FP-ADC
  (Section III-B), in both functional and transient flavours,
* :mod:`repro.core.macro` — a complete 576x256 AFPR-CIM macro,
* :mod:`repro.core.mapping` — conv/FC layer mapping, tiling and the
  inter-core routing adder (Section III-D),
* :mod:`repro.core.accelerator` — a multi-macro accelerator with latency /
  energy / throughput accounting.
"""

from repro.core.config import (
    ADCConfig,
    DACConfig,
    MacroConfig,
    e2m5_macro_config,
    e3m4_macro_config,
    macro_config_for_format,
    hardware_activation_format,
)
from repro.core.fp_dac import FPDAC
from repro.core.fp_adc import FPADC, FPADCTransient, ADCReadout, AdaptiveRangeController
from repro.core.macro import AFPRMacro, MacroStats
from repro.core.mapping import (
    MappedLayer,
    RoutingAdder,
    TileSpec,
    tile_weight_matrix,
    im2col,
    patch_index,
    col2im_output,
    conv_weights_to_matrix,
    conv_output_size,
)
from repro.core.accelerator import AFPRAccelerator, PerformanceReport

__all__ = [
    "ADCConfig",
    "DACConfig",
    "MacroConfig",
    "e2m5_macro_config",
    "e3m4_macro_config",
    "macro_config_for_format",
    "hardware_activation_format",
    "FPDAC",
    "FPADC",
    "FPADCTransient",
    "ADCReadout",
    "AdaptiveRangeController",
    "AFPRMacro",
    "MacroStats",
    "MappedLayer",
    "RoutingAdder",
    "TileSpec",
    "tile_weight_matrix",
    "im2col",
    "patch_index",
    "col2im_output",
    "conv_weights_to_matrix",
    "conv_output_size",
    "AFPRAccelerator",
    "PerformanceReport",
]
