"""Weight-matrix → conductance-matrix programming.

Signed network weights cannot be stored in a single non-negative conductance,
so analog CIM designs use one of two standard mappings, both provided here:

* **Differential mapping** — each logical weight column becomes a pair of
  physical columns ``(G+, G-)``; the MAC result is the difference of the two
  column currents.  This is what large analog CIM chips (e.g. the Nature'22
  baseline) do, and it is the default for the AFPR-CIM macro model.
* **Offset mapping** — weights are shifted so they are all non-negative and a
  constant reference column (or digital correction) removes the offset after
  readout.  Cheaper in area (one column per logical column) but requires an
  extra subtraction.

Write-verify programming iteratively reprograms cells whose achieved
conductance deviates from the target by more than a tolerance, which is how
real MLC RRAM reaches multi-bit precision despite programming noise.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from repro.rram.device import RRAMDeviceModel


@dataclasses.dataclass
class WeightMapping:
    """Base class describing how signed weights become conductances.

    Subclasses implement :meth:`to_conductances` (used at programming time)
    and :meth:`combine_currents` (used at readout time to recover the signed
    MAC result from physical column currents).
    """

    device: RRAMDeviceModel

    def to_conductances(self, weights: np.ndarray) -> Tuple[np.ndarray, float]:
        """Return ``(conductance_matrix, weight_scale)``.

        ``weight_scale`` is the weight magnitude that maps to the full
        conductance swing; readout uses it to convert currents back to the
        weight domain.
        """
        raise NotImplementedError

    def combine_currents(self, currents: np.ndarray) -> np.ndarray:
        """Combine physical column currents into logical (signed) columns."""
        raise NotImplementedError

    def physical_columns(self, logical_columns: int) -> int:
        """Number of physical columns needed for ``logical_columns`` weights."""
        raise NotImplementedError


@dataclasses.dataclass
class DifferentialMapping(WeightMapping):
    """Two physical columns per logical column: ``I_out = I(G+) - I(G-)``.

    Positive weights are programmed into the ``G+`` column (``G-`` stays at
    ``g_min``), negative weights into the ``G-`` column.  Interleaved layout:
    physical column ``2j`` is ``G+`` of logical column ``j`` and ``2j + 1`` is
    its ``G-``.
    """

    def to_conductances(self, weights: np.ndarray) -> Tuple[np.ndarray, float]:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError("weights must be a 2-D matrix (rows x columns)")
        w_max = float(np.max(np.abs(weights))) if weights.size else 0.0
        g_span = self.device.g_max - self.device.g_min
        rows, cols = weights.shape
        g = np.full((rows, 2 * cols), self.device.g_min, dtype=np.float64)
        if w_max > 0:
            norm = np.clip(np.abs(weights) / w_max, 0.0, 1.0) * g_span
            g_pos = np.where(weights > 0, self.device.g_min + norm, self.device.g_min)
            g_neg = np.where(weights < 0, self.device.g_min + norm, self.device.g_min)
            g[:, 0::2] = g_pos
            g[:, 1::2] = g_neg
        return g, w_max

    def combine_currents(self, currents: np.ndarray) -> np.ndarray:
        currents = np.asarray(currents, dtype=np.float64)
        if currents.shape[-1] % 2 != 0:
            raise ValueError("differential readout needs an even number of columns")
        return currents[..., 0::2] - currents[..., 1::2]

    def physical_columns(self, logical_columns: int) -> int:
        return 2 * logical_columns


@dataclasses.dataclass
class OffsetMapping(WeightMapping):
    """One physical column per logical column plus a shared offset reference.

    Weights ``w`` in ``[-w_max, +w_max]`` map linearly onto
    ``[g_min, g_max]`` with zero weight at the mid conductance.  Readout
    subtracts the current of a virtual reference column in which every cell
    sits at the mid conductance (implemented digitally here, as the paper's
    intermediate digital processing unit would).
    """

    def to_conductances(self, weights: np.ndarray) -> Tuple[np.ndarray, float]:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError("weights must be a 2-D matrix (rows x columns)")
        w_max = float(np.max(np.abs(weights))) if weights.size else 0.0
        g_mid = 0.5 * (self.device.g_max + self.device.g_min)
        half_span = 0.5 * (self.device.g_max - self.device.g_min)
        if w_max == 0:
            return np.full(weights.shape, g_mid), 0.0
        g = g_mid + np.clip(weights / w_max, -1.0, 1.0) * half_span
        return g, w_max

    def combine_currents(self, currents: np.ndarray) -> np.ndarray:
        # The offset current depends on the inputs, so it is subtracted at
        # readout, where they are known (see AFPRMacro._current_to_output).
        # Provided for API symmetry.
        return np.asarray(currents, dtype=np.float64)

    def physical_columns(self, logical_columns: int) -> int:
        return logical_columns


def program_conductances(
    device: RRAMDeviceModel, target: np.ndarray, ideal: bool = False
) -> np.ndarray:
    """Program a whole conductance matrix through the device model."""
    return device.program(target, ideal=ideal)


def write_verify(
    device: RRAMDeviceModel,
    target: np.ndarray,
    tolerance: float = 0.01,
    max_iterations: int = 10,
) -> Tuple[np.ndarray, int]:
    """Iterative write-verify programming.

    Re-programs cells whose relative conductance error exceeds ``tolerance``
    until every cell is within tolerance or ``max_iterations`` is reached.
    Returns ``(achieved_conductances, iterations_used)``.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    target = np.asarray(target, dtype=np.float64)
    achieved = device.program(target)
    iterations = 1
    for _ in range(max_iterations - 1):
        err = np.abs(achieved - target) / np.maximum(np.abs(target), 1e-12)
        bad = err > tolerance
        if not np.any(bad):
            break
        reprogrammed = device.program(target)
        achieved = np.where(bad, reprogrammed, achieved)
        iterations += 1
    return achieved, iterations
