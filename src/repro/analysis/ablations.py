"""Ablation studies of the macro's design choices.

These go beyond the paper's own figures and probe *why* the design works:

* :func:`run_cap_ladder_ablation` — the paper argues the ladder
  ``{C, C, 2C, 4C}`` is the unique choice that keeps every post-share voltage
  at ``(V_r + V_th)/2`` and makes the accumulated charge a binary exponent;
  the ablation quantifies how alternative ladders break the transfer
  function.
* :func:`run_adaptive_vs_fixed_ablation` — adaptive FP-ADC versus the
  fixed-range INT8 single-slope ADC: relative quantisation error across the
  input dynamic range (why small MAC results survive the FP readout).
* :func:`run_sparsity_ablation` — macro power and efficiency versus weight
  sparsity (the paper reports its headline at 0 % sparsity).
* :func:`run_format_ablation` — efficiency versus quantisation fidelity for
  a range of ``ExMy`` formats and INT8, the trade-off that selects E2M5.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.report import render_table
from repro.baselines.int_adc import IntADCConfig, IntSingleSlopeADC
from repro.circuits.capbank import CapacitorBank
from repro.core.config import ADCConfig, macro_config_for_format
from repro.core.fp_adc import FPADC
from repro.formats.fp8 import FloatFormat
from repro.formats.intq import INT8
from repro.formats.metrics import quantization_sqnr_db
from repro.formats.quantizer import make_quantizer
from repro.power.macro_power import Int8ReferencePowerModel, MacroPowerModel


# ----------------------------------------------------------------------
# 1. Capacitor-ladder ablation
# ----------------------------------------------------------------------
@dataclasses.dataclass
class CapLadderAblation:
    """Transfer-function quality of several capacitor ladders."""

    ladder_names: List[str]
    post_share_voltages: Dict[str, List[float]]
    max_transfer_error: Dict[str, float]
    is_binary: Dict[str, bool]

    def render(self) -> str:
        """ASCII summary of the ladder comparison."""
        rows = []
        for name in self.ladder_names:
            voltages = ", ".join(f"{v:.3f}" for v in self.post_share_voltages[name])
            rows.append((
                name,
                voltages,
                "yes" if self.is_binary[name] else "no",
                f"{self.max_transfer_error[name]:.3%}",
            ))
        return render_table(
            ["ladder", "post-share voltages (V)", "binary totals", "max transfer error"],
            rows,
            title="Capacitor-ladder ablation (paper ladder = {C, C, 2C, 4C})",
        )


def _ladder_conversion_value(current: float, caps: Sequence[float], v_threshold: float,
                             integration_time: float) -> float:
    """Closed-form conversion of a constant current for an arbitrary ladder.

    Follows the physical procedure: integrate, expand and charge-share when
    the threshold is reached, and at the sampling instant report the held
    voltage scaled by the connected-capacitance ratio (the quantity a
    decoder assuming binary ranges would reconstruct).
    """
    bank = CapacitorBank(caps, v_reset=0.0)
    v_out = 0.0
    charge = current * integration_time
    while True:
        c_now = bank.connected_capacitance
        charge_to_threshold = c_now * (v_threshold - v_out)
        if charge <= charge_to_threshold or bank.adaptations_remaining == 0:
            v_final = v_out + charge / c_now
            v_final = min(v_final, v_threshold)
            # A binary-exponent decoder reconstructs value = V * 2^n.
            return v_final * (2 ** bank.adaptation_count)
        charge -= charge_to_threshold
        v_out = bank.expand(v_threshold)


def run_cap_ladder_ablation(unit_capacitance: float = 105e-15,
                            v_threshold: float = 2.0,
                            integration_time: float = 100e-9,
                            num_points: int = 200) -> CapLadderAblation:
    """Compare the paper ladder with structurally different alternatives."""
    unit = unit_capacitance
    ladders = {
        "paper {C, C, 2C, 4C}": [unit, unit, 2 * unit, 4 * unit],
        "uniform {C, C, C, C}": [unit, unit, unit, unit],
        "linear {C, 2C, 3C, 4C}": [unit, 2 * unit, 3 * unit, 4 * unit],
        "octave {C, 2C, 4C, 8C}": [unit, 2 * unit, 4 * unit, 8 * unit],
    }
    # Currents spanning the exponent-1..3 ranges of the paper ladder.
    full_scale = 8 * unit * v_threshold / integration_time
    currents = np.linspace(0.55 * unit * v_threshold / integration_time,
                           0.98 * full_scale, num_points)

    post_share: Dict[str, List[float]] = {}
    max_error: Dict[str, float] = {}
    binary: Dict[str, bool] = {}
    for name, caps in ladders.items():
        bank = CapacitorBank(caps, v_reset=0.0)
        post_share[name] = [float(v) for v in bank.post_share_voltages(v_threshold)]
        binary[name] = bank.is_binary_ladder()
        errors = []
        for current in currents:
            value = _ladder_conversion_value(current, caps, v_threshold, integration_time)
            ideal = current * integration_time / unit  # volts x 2^n units
            errors.append(abs(value - ideal) / ideal)
        max_error[name] = float(np.max(errors))
    return CapLadderAblation(
        ladder_names=list(ladders),
        post_share_voltages=post_share,
        max_transfer_error=max_error,
        is_binary=binary,
    )


# ----------------------------------------------------------------------
# 2. Adaptive vs fixed-range ADC
# ----------------------------------------------------------------------
@dataclasses.dataclass
class AdaptiveRangeAblation:
    """Quantisation-error comparison of the FP-ADC and the INT-ADC."""

    currents: np.ndarray
    fp_relative_error: np.ndarray
    int_relative_error: np.ndarray
    fp_small_signal_error: float
    int_small_signal_error: float
    conversion_time_ratio: float

    def render(self) -> str:
        """ASCII summary of the adaptive-range advantage."""
        rows = [
            ("mean relative error (full sweep)",
             f"{float(np.mean(self.fp_relative_error)):.3%}",
             f"{float(np.mean(self.int_relative_error)):.3%}"),
            ("mean relative error (bottom decade)",
             f"{self.fp_small_signal_error:.3%}",
             f"{self.int_small_signal_error:.3%}"),
            ("conversion time", "200 ns", f"{200 * self.conversion_time_ratio:.0f} ns"),
        ]
        return render_table(
            ["metric", "adaptive FP-ADC (E2M5)", "fixed-range INT8 ADC"],
            rows,
            title="Adaptive vs fixed-range readout",
        )


def run_adaptive_vs_fixed_ablation(num_points: int = 400,
                                   adc_config: ADCConfig = ADCConfig()) -> AdaptiveRangeAblation:
    """Sweep the input current range and compare relative readout errors."""
    fp_adc = FPADC(adc_config, channels=1)
    int_adc = IntSingleSlopeADC(IntADCConfig(capacitance=8 * adc_config.unit_capacitance))

    full_scale = fp_adc.full_scale_current
    currents = np.logspace(np.log10(full_scale / 12.0), np.log10(0.98 * full_scale), num_points)

    fp_errors = np.empty(num_points)
    int_errors = np.empty(num_points)
    for i, current in enumerate(currents):
        fp_value = fp_adc.convert(np.array([current])).value[0]
        fp_estimate = fp_value * fp_adc.value_to_current(1.0)
        fp_errors[i] = abs(fp_estimate - current) / current
        int_estimate = int_adc.convert_value(np.array([current]))[0]
        int_errors[i] = abs(int_estimate - current) / current

    bottom = currents <= currents[0] * 2.0
    return AdaptiveRangeAblation(
        currents=currents,
        fp_relative_error=fp_errors,
        int_relative_error=int_errors,
        fp_small_signal_error=float(np.mean(fp_errors[bottom])),
        int_small_signal_error=float(np.mean(int_errors[bottom])),
        conversion_time_ratio=int_adc.conversion_time / fp_adc.conversion_time,
    )


# ----------------------------------------------------------------------
# 3. Sparsity sweep
# ----------------------------------------------------------------------
@dataclasses.dataclass
class SparsityAblation:
    """Macro power and efficiency as a function of weight sparsity."""

    sparsities: np.ndarray
    total_power_mw: np.ndarray
    efficiency_tops_per_watt: np.ndarray

    def render(self) -> str:
        """ASCII summary of the sparsity sweep."""
        rows = [
            (f"{s:.0%}", f"{p:.1f}", f"{e:.2f}")
            for s, p, e in zip(self.sparsities, self.total_power_mw,
                               self.efficiency_tops_per_watt)
        ]
        return render_table(
            ["sparsity", "macro power (mW)", "efficiency (TFLOPS/W)"],
            rows,
            title="Sparsity ablation (paper reports 0 % sparsity / high-density mode)",
        )


def run_sparsity_ablation(sparsities: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8)
                          ) -> SparsityAblation:
    """Sweep weight sparsity through the macro power model."""
    powers = []
    efficiencies = []
    for sparsity in sparsities:
        breakdown = MacroPowerModel(sparsity=sparsity).breakdown()
        powers.append(breakdown.total_power * 1e3)
        efficiencies.append(breakdown.energy_efficiency_tops_per_watt)
    return SparsityAblation(
        sparsities=np.asarray(sparsities, dtype=np.float64),
        total_power_mw=np.asarray(powers),
        efficiency_tops_per_watt=np.asarray(efficiencies),
    )


# ----------------------------------------------------------------------
# 4. Format trade-off
# ----------------------------------------------------------------------
@dataclasses.dataclass
class FormatAblation:
    """Efficiency versus quantisation fidelity for candidate formats."""

    format_names: List[str]
    efficiency_tops_per_watt: Dict[str, float]
    gaussian_sqnr_db: Dict[str, float]
    conversion_time_ns: Dict[str, float]

    def render(self) -> str:
        """ASCII summary of the format trade-off."""
        rows = [
            (name,
             f"{self.efficiency_tops_per_watt[name]:.2f}",
             f"{self.gaussian_sqnr_db[name]:.1f}",
             f"{self.conversion_time_ns[name]:.0f}")
            for name in self.format_names
        ]
        return render_table(
            ["format", "efficiency (TOPS/W)", "Gaussian SQNR (dB)", "T_conv (ns)"],
            rows,
            title="Format ablation: why E2M5",
        )


def run_format_ablation(sample_size: int = 20000, seed: int = 0) -> FormatAblation:
    """Compare hardware efficiency and quantisation fidelity across formats.

    Fidelity is measured as the SQNR of quantising a zero-mean Gaussian
    tensor (the distribution the paper invokes for ResNet / MobileNet
    activations); hardware efficiency comes from the macro power model (for
    the FP formats) and from the INT8 reference model.
    """
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(sample_size)

    candidates: List[Tuple[str, object]] = [
        ("INT8", INT8),
        ("FP8-E3M4", FloatFormat(3, 4, name="FP8-E3M4")),
        ("FP8-E2M5", FloatFormat(2, 5, name="FP8-E2M5")),
        ("FP8-E4M3", FloatFormat(4, 3, name="FP8-E4M3")),
    ]
    efficiency: Dict[str, float] = {}
    sqnr: Dict[str, float] = {}
    conversion: Dict[str, float] = {}
    for name, fmt in candidates:
        quantizer = make_quantizer(fmt)
        quantizer.calibrate(data)
        sqnr[name] = quantization_sqnr_db(data, quantizer.quantize(data))
        if name == "INT8":
            breakdown = Int8ReferencePowerModel().breakdown()
        else:
            config = macro_config_for_format(fmt.exponent_bits, fmt.mantissa_bits)
            breakdown = MacroPowerModel(config).breakdown()
        efficiency[name] = breakdown.energy_efficiency_tops_per_watt
        conversion[name] = breakdown.conversion_time * 1e9

    return FormatAblation(
        format_names=[name for name, _ in candidates],
        efficiency_tops_per_watt=efficiency,
        gaussian_sqnr_db=sqnr,
        conversion_time_ns=conversion,
    )
