"""Reconfigurable capacitor bank with charge sharing (the heart of the FP-ADC).

The dynamic-range adaptive FP-ADC integrates the source-line current onto a
bank of capacitors C1..CN.  Initially only C1 is connected; every time the
integrator output reaches the threshold ``V_th`` another capacitor is
switched in and the accumulated charge is *shared* between the old and new
capacitance, which drops the output voltage (paper Eq. 2/3)::

    V_after = V_th * C_old / (C_old + C_new)  +  V_r * C_new / (C_old + C_new)

The paper shows that the specific ladder ``{C, C, 2C, 4C}`` is the unique
choice (for 4 steps) that makes every post-share voltage equal to
``(V_r + V_th) / 2`` and makes the accumulated charge correspond to
``V_O × 2^n`` — i.e. a binary exponent.  The bank model verifies both
properties and exposes the charge-sharing operation for the transient ADC
simulation and for ablation studies with *wrong* ladders.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np


def charge_share_voltage(
    v_before: float, v_reset: float, c_connected: float, c_new: float
) -> float:
    """Voltage after sharing the charge on ``c_connected`` with ``c_new``.

    Implements paper Eq. (2)/(3): the newly connected capacitor is pre-charged
    to the reset level ``v_reset`` and the total charge redistributes.
    """
    if c_connected <= 0 or c_new <= 0:
        raise ValueError("capacitances must be positive")
    total = c_connected + c_new
    return v_before * c_connected / total + v_reset * c_new / total


@dataclasses.dataclass
class CapacitorBank:
    """State machine for the adaptive integration capacitor bank.

    Parameters
    ----------
    capacitances:
        The individual capacitors ``[C1, C2, ..., CN]`` in farads.  ``C1`` is
        always connected; the others are switched in one at a time.
    v_reset:
        The voltage the disconnected capacitors are pre-charged to (the
        paper's ``V_r``, 0 V by default).
    mismatch_sigma:
        Relative random mismatch applied to every capacitor on construction
        (set by the ADC model when modelling non-ideal conversion).
    rng:
        Random generator for the mismatch draw.
    """

    capacitances: Sequence[float]
    v_reset: float = 0.0
    mismatch_sigma: float = 0.0
    rng: Optional[np.random.Generator] = None

    def __post_init__(self) -> None:
        caps = np.asarray(list(self.capacitances), dtype=np.float64)
        if caps.size < 1:
            raise ValueError("need at least one capacitor")
        if np.any(caps <= 0):
            raise ValueError("capacitances must be positive")
        if self.mismatch_sigma > 0:
            rng = self.rng if self.rng is not None else np.random.default_rng()
            caps = caps * (1.0 + self.mismatch_sigma * rng.standard_normal(caps.size))
            caps = np.clip(caps, 1e-18, None)
        self._caps = caps
        self._connected = 1  # C1 always in the loop

    # ------------------------------------------------------------------
    @classmethod
    def paper_ladder(
        cls,
        exponent_bits: int = 2,
        unit_capacitance: float = 100e-15,
        v_reset: float = 0.0,
        mismatch_sigma: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> "CapacitorBank":
        """Build the paper's ladder for an ``exponent_bits``-bit exponent.

        A 2-bit exponent allows 3 range adaptations and needs the ladder
        ``[C, C, 2C, 4C]``; a 3-bit exponent (E3M4) needs
        ``[C, C, 2C, 4C, ..., 64C]``.
        """
        steps = (1 << exponent_bits) - 1
        ladder = [unit_capacitance]
        for k in range(steps):
            ladder.append(unit_capacitance * (2 ** k) if k > 0 else unit_capacitance)
        return cls(ladder, v_reset=v_reset, mismatch_sigma=mismatch_sigma, rng=rng)

    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """The (possibly mismatched) capacitor values in farads."""
        return self._caps.copy()

    @property
    def num_capacitors(self) -> int:
        """Total number of capacitors in the bank."""
        return int(self._caps.size)

    @property
    def connected_count(self) -> int:
        """How many capacitors are currently switched into the integrator."""
        return self._connected

    @property
    def connected_capacitance(self) -> float:
        """Total capacitance currently in the integration loop."""
        return float(np.sum(self._caps[: self._connected]))

    @property
    def adaptations_remaining(self) -> int:
        """How many more range adaptations are possible."""
        return self.num_capacitors - self._connected

    @property
    def adaptation_count(self) -> int:
        """Number of adaptations performed since the last reset (exponent code)."""
        return self._connected - 1

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Disconnect everything except C1 (start of a new conversion)."""
        self._connected = 1

    def expand(self, v_output: float) -> float:
        """Switch in the next capacitor and charge-share.

        Parameters
        ----------
        v_output:
            The integrator output voltage at the instant the comparator
            fires (normally ``V_th``).

        Returns
        -------
        float
            The integrator output voltage right after the charge sharing.

        Raises
        ------
        RuntimeError
            If no more capacitors are available (the ADC saturates instead).
        """
        if self.adaptations_remaining <= 0:
            raise RuntimeError("capacitor bank exhausted: range cannot expand further")
        c_old = self.connected_capacitance
        c_new = float(self._caps[self._connected])
        self._connected += 1
        return charge_share_voltage(v_output, self.v_reset, c_old, c_new)

    # ------------------------------------------------------------------
    def post_share_voltages(self, v_threshold: float) -> np.ndarray:
        """The voltage after each possible adaptation, starting from ``v_threshold``.

        For the paper's ladder with ``v_reset = 0`` and ``v_threshold = 2`` every
        entry equals 1.0 V — the property that makes the readout a clean
        mantissa in [1, 2).  Ablation benchmarks call this with non-paper
        ladders to show the property breaks.
        """
        voltages = []
        connected = float(self._caps[0])
        for k in range(1, self.num_capacitors):
            c_new = float(self._caps[k])
            v_after = charge_share_voltage(v_threshold, self.v_reset, connected, c_new)
            voltages.append(v_after)
            connected += c_new
        return np.asarray(voltages)

    def is_binary_ladder(self, tolerance: float = 1e-9) -> bool:
        """Whether the total capacitance doubles at every adaptation step."""
        totals = np.cumsum(self._caps)
        ratios = totals[1:] / totals[:-1]
        return bool(np.all(np.abs(ratios - 2.0) < tolerance))
