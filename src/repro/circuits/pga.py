"""Programmable-gain amplifier providing the FP-DAC's 2^E analog gain.

The FP-DAC first produces an analog mantissa voltage and then multiplies it
by ``2^E`` in a resistive programmable-gain amplifier (PGA).  The paper's
2-bit exponent is decoded (2-4 decoder) to select one of four feedback
resistor settings so the closed-loop gain takes values 1, 2, 4 or 8.  The
model includes gain error from resistor mismatch, the op-amp's finite-gain
error, and output clipping at the analog supply.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

from repro.circuits.opamp import OpAmpModel


@dataclasses.dataclass
class ProgrammableGainAmplifier:
    """Switched-resistor PGA with power-of-two gain settings.

    Parameters
    ----------
    exponent_bits:
        Number of exponent bits; the PGA provides ``2**exponent_bits`` gain
        settings ``2^0 .. 2^(2**exponent_bits - 1)``.
    opamp:
        Op-amp macromodel (finite gain, swing).
    gain_error_sigma:
        Relative random mismatch of each gain setting, drawn once at
        construction (resistor mismatch is static, not per-sample).
    rng:
        Random generator for the mismatch draw.
    """

    exponent_bits: int = 2
    opamp: OpAmpModel = dataclasses.field(default_factory=OpAmpModel)
    gain_error_sigma: float = 0.0
    rng: Optional[np.random.Generator] = None

    def __post_init__(self) -> None:
        if self.exponent_bits < 1:
            raise ValueError("exponent_bits must be >= 1")
        if self.gain_error_sigma < 0:
            raise ValueError("gain_error_sigma must be non-negative")
        rng = self.rng if self.rng is not None else np.random.default_rng(0)
        nominal = 2.0 ** np.arange(self.num_settings, dtype=np.float64)
        if self.gain_error_sigma > 0:
            nominal = nominal * (
                1.0 + self.gain_error_sigma * rng.standard_normal(self.num_settings)
            )
        self._gains = nominal

    # ------------------------------------------------------------------
    @property
    def num_settings(self) -> int:
        """Number of selectable gain settings."""
        return 1 << self.exponent_bits

    def _check_exponent(self, exponent: int) -> None:
        if not 0 <= exponent < self.num_settings:
            raise ValueError(
                f"exponent code {exponent} out of range 0..{self.num_settings - 1}"
            )

    # ------------------------------------------------------------------
    def amplify(self, v_input: np.ndarray, exponent: int) -> np.ndarray:
        """Apply the selected gain to the input voltage.

        Includes the static resistor-mismatch gain error, the op-amp's
        finite-gain closed-loop error, and clipping at the output swing.
        """
        self._check_exponent(exponent)
        gain = self._gains[exponent]
        gain = gain * (1.0 + self.opamp.closed_loop_gain_error(max(gain, 1.0)))
        out = np.asarray(v_input, dtype=np.float64) * gain
        return self.opamp.clip_output(out)

    def decode_exponent(self, exponent_code: Sequence[int]) -> int:
        """Binary exponent-code bits (MSB first) → integer setting index.

        Mirrors the paper's 2-4 decoder front end.
        """
        value = 0
        for bit in exponent_code:
            if bit not in (0, 1):
                raise ValueError("exponent code bits must be 0 or 1")
            value = (value << 1) | bit
        self._check_exponent(value)
        return value
