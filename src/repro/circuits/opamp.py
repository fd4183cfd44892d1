"""Op-amp macromodel.

The integrator and the PGA of AFPR-CIM are both built around op-amps.  At the
system level the relevant limitations are finite DC gain (gain error on the
virtual ground), finite slew rate and gain-bandwidth (settling error for fast
inputs), input-referred offset, and output swing limits set by the 2.5 V
analog supply.  The macromodel exposes those quantities plus a simple static
power estimate proportional to the bias current needed to drive its load.
"""

from __future__ import annotations

import dataclasses

import numpy as np


@dataclasses.dataclass(frozen=True)
class OpAmpModel:
    """Behavioural op-amp parameters.

    Parameters
    ----------
    dc_gain:
        Open-loop DC gain (V/V).
    gain_bandwidth_hz:
        Gain-bandwidth product in Hz.
    slew_rate:
        Output slew rate in V/s.
    offset_voltage:
        Input-referred offset in volts (before any CDS cancellation).
    output_min / output_max:
        Output swing limits in volts.
    bias_current:
        Quiescent bias current in amperes (used by the power model).
    supply_voltage:
        Analog supply in volts (2.5 V in the paper).
    """

    dc_gain: float = 10_000.0
    gain_bandwidth_hz: float = 1.0e9
    slew_rate: float = 5.0e8
    offset_voltage: float = 0.0
    output_min: float = 0.0
    output_max: float = 2.5
    bias_current: float = 20e-6
    supply_voltage: float = 2.5

    def __post_init__(self) -> None:
        if self.dc_gain <= 1:
            raise ValueError("dc_gain must exceed 1")
        if self.output_max <= self.output_min:
            raise ValueError("output_max must exceed output_min")
        if self.gain_bandwidth_hz <= 0 or self.slew_rate <= 0:
            raise ValueError("gain_bandwidth_hz and slew_rate must be positive")

    def clip_output(self, v: np.ndarray) -> np.ndarray:
        """Clamp an output voltage to the swing limits."""
        return np.clip(v, self.output_min, self.output_max)

    def closed_loop_gain_error(self, ideal_gain: float) -> float:
        """Relative gain error of a feedback stage with the given ideal gain.

        For a loop with noise gain ``1/beta = ideal_gain`` the closed-loop
        gain is ``ideal / (1 + ideal/A0)``; the returned value is the relative
        deviation from ideal (a small negative number).
        """
        actual = ideal_gain / (1.0 + ideal_gain / self.dc_gain)
        return actual / ideal_gain - 1.0

    def settling_time(self, ideal_gain: float, accuracy_bits: int) -> float:
        """Small-signal settling time to ``accuracy_bits`` of precision.

        Settling to half an LSB of an N-bit level needs ``(N + 1) * ln 2``
        closed-loop time constants.
        """
        if accuracy_bits < 1:
            raise ValueError("accuracy_bits must be >= 1")
        closed_loop_bw = self.gain_bandwidth_hz / max(ideal_gain, 1.0)
        tau = 1.0 / (2.0 * np.pi * closed_loop_bw)
        return (accuracy_bits + 1) * np.log(2.0) * tau

    def static_power(self) -> float:
        """Quiescent power of the amplifier in watts."""
        return self.bias_current * self.supply_voltage

    def scaled_for_load(self, load_capacitance: float, reference_load: float,
                        exponent: float = 0.5) -> "OpAmpModel":
        """Return a copy re-biased to drive a different capacitive load.

        Driving a larger integration-capacitor bank requires more bias
        current (the paper's argument for why E3M4's exponentially larger
        capacitor ladder costs ADC power).  The bias current scales as
        ``(C_load / C_ref) ** exponent``; slew rate follows the bias current
        over the load.
        """
        if load_capacitance <= 0 or reference_load <= 0:
            raise ValueError("capacitances must be positive")
        ratio = (load_capacitance / reference_load) ** exponent
        new_bias = self.bias_current * ratio
        new_slew = new_bias / load_capacitance
        return dataclasses.replace(self, bias_current=new_bias, slew_rate=new_slew)
