"""RRAM crossbar array model (Ohm's law / KCL MAC engine).

The crossbar is the INT-domain compute substrate of AFPR-CIM.  Input voltages
``V_i`` drive the word lines, cell conductances ``G_ij`` hold the weights,
and every source line (column) is clamped to the virtual ground ``V_r`` of
its integrating read-out amplifier, so the column current is (paper Eq. 1)::

    I_MAC,j = sum_i (V_r - V_i) * G_ij

With ``V_r = 0`` the magnitude of the column current is simply the
dot product of input voltages and column conductances — the analog MAC.

The model supports three fidelity levels:

* **ideal** — exact dot products,
* **noisy** — cycle-to-cycle device read noise applied per evaluation,
* **ir_drop** — a first-order wire-resistance correction that derates each
  cell's conductance by its distance from the drivers, which reproduces the
  characteristic corner-dependent MAC error of large arrays without a full
  (and prohibitively slow) nodal solve.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.rram.device import RRAMDeviceModel, DEFAULT_DEVICE


@dataclasses.dataclass(frozen=True)
class CrossbarConfig:
    """Geometry and electrical configuration of one crossbar array.

    The paper's macro is 576 rows x 256 columns (144K cells); the defaults
    match that.  ``wire_resistance`` is the per-cell segment resistance of a
    word line / source line used by the IR-drop model.
    """

    rows: int = 576
    cols: int = 256
    v_clamp: float = 0.0
    v_input_max: float = 2.0
    wire_resistance: float = 0.0
    ir_drop_enabled: bool = False
    read_noise_enabled: bool = True

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("crossbar must have at least one row and column")
        if self.v_input_max <= 0:
            raise ValueError("v_input_max must be positive")
        if self.wire_resistance < 0:
            raise ValueError("wire_resistance must be non-negative")

    @property
    def cells(self) -> int:
        """Total number of RRAM cells in the array."""
        return self.rows * self.cols


@dataclasses.dataclass
class CrossbarReadout:
    """Result of one crossbar evaluation.

    Attributes
    ----------
    currents:
        Column (source-line) currents in amperes, shape ``(..., cols)``.
    input_voltages:
        The voltages that were applied, after clipping to the legal range.
    active_rows:
        Number of rows with a non-zero input (drives dynamic energy).
    """

    currents: np.ndarray
    input_voltages: np.ndarray
    active_rows: int


class Crossbar:
    """A single RRAM crossbar with programmed conductances.

    Parameters
    ----------
    config:
        Array geometry and electrical options.
    device:
        Device model used for programming and read noise.
    """

    def __init__(
        self,
        config: CrossbarConfig = CrossbarConfig(),
        device: RRAMDeviceModel = DEFAULT_DEVICE,
    ) -> None:
        self.config = config
        self.device = device
        self._conductances = np.full(
            (config.rows, config.cols), device.g_min, dtype=np.float64
        )

    # ------------------------------------------------------------------
    # Programming
    # ------------------------------------------------------------------
    @property
    def conductances(self) -> np.ndarray:
        """The currently programmed conductance matrix (read-only view)."""
        view = self._conductances.view()
        view.flags.writeable = False
        return view

    def program(self, target_conductances: np.ndarray, ideal: bool = False) -> np.ndarray:
        """Program target conductances into the array (through the device model).

        The target matrix may cover only the top-left sub-array; remaining
        cells stay at ``g_min`` (an unselected cell contributes a small leak
        current, as in the real array).
        Returns the achieved conductances of the programmed region.
        """
        target = np.asarray(target_conductances, dtype=np.float64)
        if target.ndim != 2:
            raise ValueError("conductance matrix must be 2-D")
        rows, cols = target.shape
        if rows > self.config.rows or cols > self.config.cols:
            raise ValueError(
                f"target {target.shape} exceeds array {self.config.rows}x{self.config.cols}"
            )
        achieved = self.device.program(target, ideal=ideal)
        self._conductances[:rows, :cols] = achieved
        return achieved

    def sparsity(self, threshold: Optional[float] = None) -> float:
        """Fraction of cells at (or below) the minimum conductance.

        The paper extracts weight sparsity from the network and reports macro
        specs in "high-density mode at 0 % sparsity"; this helper provides the
        measured sparsity of whatever is currently programmed.
        """
        if threshold is None:
            threshold = self.device.g_min * 1.05
        return float(np.mean(self._conductances <= threshold))

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _effective_conductances(self, rows: Optional[int] = None,
                                cols: Optional[int] = None) -> np.ndarray:
        """Conductance matrix including read noise and IR-drop derating.

        ``rows`` / ``cols`` restrict the result to the top-left active
        sub-array; read noise is then only drawn for the cells that actually
        contribute to the evaluation, which is what makes batched inference
        on small tiles cheap.
        """
        rows = self.config.rows if rows is None else rows
        cols = self.config.cols if cols is None else cols
        g = self._conductances[:rows, :cols]
        if self.config.read_noise_enabled:
            g = self.device.read_noise(g)
        if self.config.ir_drop_enabled and self.config.wire_resistance > 0.0:
            g = self._apply_ir_drop(g)
        return g

    def _apply_ir_drop(self, g: np.ndarray) -> np.ndarray:
        """First-order IR-drop derating.

        Each cell sees a series wire resistance proportional to its distance
        from the word-line driver (column index) and from the source-line
        read-out (row index).  The effective conductance of a cell with wire
        resistance ``R_w`` in series is ``G / (1 + G * R_w)``.
        """
        r = self.config.wire_resistance
        col_dist = np.arange(1, g.shape[1] + 1, dtype=np.float64)[None, :]
        row_dist = np.arange(1, g.shape[0] + 1, dtype=np.float64)[:, None]
        r_wire = r * (col_dist + row_dist)
        return g / (1.0 + g * r_wire)

    def _clip_inputs(self, voltages: np.ndarray) -> np.ndarray:
        voltages = np.asarray(voltages, dtype=np.float64)
        return np.clip(voltages, -self.config.v_input_max, self.config.v_input_max)

    def evaluate(self, input_voltages: np.ndarray,
                 active_cols: Optional[int] = None) -> CrossbarReadout:
        """Apply word-line voltages and return the source-line currents.

        Parameters
        ----------
        input_voltages:
            Shape ``(rows,)`` or ``(batch, rows)``.  Rows beyond the supplied
            length are treated as unselected (0 V).
        active_cols:
            Only compute the currents of the first ``active_cols`` source
            lines (the columns a programmed tile actually occupies).  The
            remaining columns carry only the leak current of unselected
            cells, so callers that know their tile width skip the dead
            ``rows x cols`` work entirely.  ``None`` evaluates every column.

        Returns
        -------
        CrossbarReadout
            ``currents`` has shape ``(cols,)`` or ``(batch, cols)`` with
            ``cols == active_cols`` when a subset was requested.
        """
        v = self._clip_inputs(input_voltages)
        squeeze = False
        if v.ndim == 1:
            v = v[None, :]
            squeeze = True
        if v.ndim != 2:
            raise ValueError("input voltages must be 1-D or 2-D (batch, rows)")
        if v.shape[1] > self.config.rows:
            raise ValueError(
                f"{v.shape[1]} inputs exceed the {self.config.rows} word lines"
            )
        cols = self.config.cols if active_cols is None else active_cols
        if not 0 < cols <= self.config.cols:
            raise ValueError(f"active_cols must be in 1..{self.config.cols}")
        # Unsupplied rows are unselected (0 V).  With the virtual ground at
        # 0 V they contribute no current, so the MAC only needs the active
        # top-left sub-array; a non-zero clamp makes every row contribute and
        # forces the full-height evaluation.
        if self.config.v_clamp != 0.0 and v.shape[1] < self.config.rows:
            padded = np.zeros((v.shape[0], self.config.rows), dtype=np.float64)
            padded[:, : v.shape[1]] = v
            v = padded
        g = self._effective_conductances(rows=v.shape[1], cols=cols)
        # Paper Eq. (1): I = sum_i (V_r - V_i) G_i.  We report the magnitude
        # flowing into the integrator, i.e. sum_i (V_i - V_r) G_i.
        currents = (v - self.config.v_clamp) @ g
        active_rows = int(np.max(np.count_nonzero(v, axis=1))) if v.size else 0

        if squeeze:
            currents = currents[0]
            v = v[0]
        return CrossbarReadout(currents=currents, input_voltages=v, active_rows=active_rows)

    def column_current(self, input_voltages: np.ndarray, column: int) -> float:
        """Current of a single column (used by the transient ADC simulation)."""
        if not 0 <= column < self.config.cols:
            raise ValueError(f"column {column} out of range")
        readout = self.evaluate(input_voltages)
        currents = readout.currents
        if currents.ndim == 1:
            return float(currents[column])
        return float(currents[0, column])

    def ideal_mac(self, input_voltages: np.ndarray,
                  active_cols: Optional[int] = None) -> np.ndarray:
        """Noise-free dot product against the programmed conductances.

        Used as the golden reference when validating ADC / readout accuracy.
        ``active_cols`` restricts the result to the first columns, exactly as
        in :meth:`evaluate`.
        """
        cols = self.config.cols if active_cols is None else active_cols
        v = self._clip_inputs(input_voltages)
        if v.ndim == 1:
            v = v[None, :]
            out = (v - self.config.v_clamp) @ self._conductances[: v.shape[1], :cols]
            return out[0]
        return (v - self.config.v_clamp) @ self._conductances[: v.shape[1], :cols]
