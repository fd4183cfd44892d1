"""Multi-level RRAM device model.

The paper programs network weights as multi-level conductances ("the weight
data is programmed in the array with multi-level RRAM, represented by device
conductance") and models the device in Verilog-A.  For a system-level
reproduction we only need the device's *electrical behaviour as seen by the
readout path*:

* a finite set of programmable conductance levels between a low-resistance
  state (LRS) and a high-resistance state (HRS),
* programming error — the conductance actually written deviates from the
  target (log-normal or Gaussian, following common RRAM compact models),
* cycle-to-cycle read noise on every MAC evaluation,
* retention drift over time,
* a small probability of stuck-at-LRS / stuck-at-HRS faults.

The Fig. 5(b) linearity study uses example conductances of 20, 18, 15 and
12 µS, so the default level ladder spans roughly 1–25 µS, a typical HfOx MLC
window.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

MICRO_SIEMENS = 1e-6


@dataclasses.dataclass(frozen=True)
class ConductanceLevels:
    """The discrete conductance ladder of a multi-level cell.

    Parameters
    ----------
    g_min:
        Conductance of the lowest programmable state (HRS side), in siemens.
    g_max:
        Conductance of the highest programmable state (LRS side), in siemens.
    levels:
        Number of programmable levels (e.g. 16 for a 4-bit MLC).
    spacing:
        ``"linear"`` (equally spaced conductances, the usual choice for
        current-domain MAC linearity) or ``"log"``.
    """

    g_min: float = 1.0 * MICRO_SIEMENS
    g_max: float = 25.0 * MICRO_SIEMENS
    levels: int = 16
    spacing: str = "linear"

    def __post_init__(self) -> None:
        if self.g_min < 0 or self.g_max <= 0:
            raise ValueError("conductances must be positive")
        if self.g_max <= self.g_min:
            raise ValueError("g_max must exceed g_min")
        if self.levels < 2:
            raise ValueError("need at least two conductance levels")
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"unknown spacing {self.spacing!r}")

    @property
    def values(self) -> np.ndarray:
        """The conductance value of every level, ascending, in siemens."""
        if self.spacing == "linear":
            return np.linspace(self.g_min, self.g_max, self.levels)
        return np.geomspace(max(self.g_min, 1e-9), self.g_max, self.levels)

    @property
    def step(self) -> float:
        """Average conductance distance between adjacent levels."""
        return (self.g_max - self.g_min) / (self.levels - 1)

    @property
    def bits(self) -> int:
        """Number of bits the level count corresponds to (rounded down)."""
        return int(np.floor(np.log2(self.levels)))

    def nearest_level(self, g: np.ndarray) -> np.ndarray:
        """Index of the level closest to each target conductance."""
        g = np.asarray(g, dtype=np.float64)
        vals = self.values
        idx = np.argmin(np.abs(g[..., None] - vals[None, ...]), axis=-1)
        return idx

    def level_to_conductance(self, level: np.ndarray) -> np.ndarray:
        """Conductance of each level index."""
        level = np.asarray(level, dtype=np.int64)
        if np.any((level < 0) | (level >= self.levels)):
            raise ValueError("level index out of range")
        return self.values[level]


@dataclasses.dataclass(frozen=True)
class RRAMStatistics:
    """Non-ideality statistics of the device.

    All sigmas are *relative* (fraction of the nominal conductance), matching
    the way RRAM variation is usually reported.
    """

    programming_sigma: float = 0.02
    read_noise_sigma: float = 0.005
    drift_coefficient: float = 0.003
    stuck_at_lrs_probability: float = 0.0005
    stuck_at_hrs_probability: float = 0.0005

    def __post_init__(self) -> None:
        for field_name in (
            "programming_sigma",
            "read_noise_sigma",
            "drift_coefficient",
            "stuck_at_lrs_probability",
            "stuck_at_hrs_probability",
        ):
            value = getattr(self, field_name)
            if value < 0:
                raise ValueError(f"{field_name} must be non-negative, got {value}")
        if self.stuck_at_lrs_probability + self.stuck_at_hrs_probability > 1.0:
            raise ValueError("total stuck-at probability cannot exceed 1")


class RRAMDeviceModel:
    """Behavioural model of a multi-level RRAM cell population.

    The model is stateless with respect to individual cells — it provides
    vectorised *sampling* functions that the crossbar and programming code
    apply to whole conductance matrices.  This mirrors how a Verilog-A corner
    model parameterises a population of devices rather than tracking each
    filament.

    Parameters
    ----------
    levels:
        The programmable conductance ladder.
    statistics:
        Variation / noise / fault statistics.
    seed:
        Seed of the internal random generator (deterministic by default so
        experiments are reproducible).
    """

    def __init__(
        self,
        levels: ConductanceLevels = ConductanceLevels(),
        statistics: RRAMStatistics = RRAMStatistics(),
        seed: Optional[int] = 0,
    ) -> None:
        self.levels = levels
        self.statistics = statistics
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    @property
    def g_min(self) -> float:
        """Lowest programmable conductance (siemens)."""
        return self.levels.g_min

    @property
    def g_max(self) -> float:
        """Highest programmable conductance (siemens)."""
        return self.levels.g_max

    @property
    def on_off_ratio(self) -> float:
        """LRS/HRS conductance ratio."""
        return self.levels.g_max / max(self.levels.g_min, 1e-12)

    # ------------------------------------------------------------------
    # Programming
    # ------------------------------------------------------------------
    def program(self, target_g: np.ndarray, ideal: bool = False) -> np.ndarray:
        """Program target conductances, returning the achieved conductances.

        The target is first snapped to the nearest programmable level, then
        perturbed by programming error, and finally stuck-at faults are
        applied.  With ``ideal=True`` only the level snapping happens.
        """
        target_g = np.asarray(target_g, dtype=np.float64)
        if np.any(target_g < 0):
            raise ValueError("conductances must be non-negative")
        snapped = self.levels.level_to_conductance(self.levels.nearest_level(target_g))
        if ideal:
            return snapped
        achieved = snapped * (
            1.0 + self.statistics.programming_sigma * self._rng.standard_normal(snapped.shape)
        )
        achieved = np.clip(achieved, 0.0, None)
        return self._apply_stuck_faults(achieved)

    def _apply_stuck_faults(self, g: np.ndarray) -> np.ndarray:
        p_lrs = self.statistics.stuck_at_lrs_probability
        p_hrs = self.statistics.stuck_at_hrs_probability
        if p_lrs == 0.0 and p_hrs == 0.0:
            return g
        u = self._rng.random(g.shape)
        g = np.where(u < p_lrs, self.levels.g_max, g)
        g = np.where((u >= p_lrs) & (u < p_lrs + p_hrs), self.levels.g_min, g)
        return g

    # ------------------------------------------------------------------
    # Read-time effects
    # ------------------------------------------------------------------
    def read_noise(self, g: np.ndarray,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
        """Apply one sample of cycle-to-cycle read noise to conductances.

        The result is never ``g`` itself: it lands in ``out`` (a
        C-contiguous float64 array of ``g``'s shape that does not overlap
        it) or in a fresh array, drawn in place either way: both give the
        same values and leave the generator in the same state.
        """
        g = np.asarray(g, dtype=np.float64)
        if out is None:
            out = np.empty(g.shape)
        sigma = self.statistics.read_noise_sigma
        if sigma == 0.0:
            np.copyto(out, g)
            return out
        # g * (1 + sigma * z), clipped at zero, without a temporary.
        self._rng.standard_normal(out=out)
        out *= sigma
        out += 1.0
        out *= g
        return np.maximum(out, 0.0, out=out)

    def drift(self, g: np.ndarray, elapsed_seconds: float) -> np.ndarray:
        """Retention drift after ``elapsed_seconds`` (power-law toward HRS).

        Conductance decays as ``g * (t/t0)^(-nu)`` with ``t0`` = 1 s and the
        drift coefficient ``nu`` from the statistics.  Drift only applies for
        times beyond 1 s, so freshly programmed arrays are unaffected.
        """
        if elapsed_seconds < 0:
            raise ValueError("elapsed time must be non-negative")
        g = np.asarray(g, dtype=np.float64)
        nu = self.statistics.drift_coefficient
        if nu == 0.0 or elapsed_seconds <= 1.0:
            return g.copy()
        factor = elapsed_seconds ** (-nu)
        return np.clip(g * factor, self.levels.g_min * 0.5, None)

    def drift_shift(self, elapsed_seconds: float) -> np.ndarray:
        """Deterministic retention shift of every nominal level, in siemens.

        ``drift_shift(t)[l]`` is how far level ``l``'s nominal conductance
        moves after ``t`` seconds of retention (negative: toward HRS),
        with no stochastic programming or read effects applied — the
        systematic component a retention spec line budgets against.
        """
        nominal = self.levels.values
        return self.drift(nominal, elapsed_seconds) - nominal

    # ------------------------------------------------------------------
    # Cell-level electrical behaviour
    # ------------------------------------------------------------------
    def cell_current(self, voltage: np.ndarray, conductance: np.ndarray) -> np.ndarray:
        """Ohm's-law cell current ``I = V * G`` (the multiply of the MAC)."""
        voltage = np.asarray(voltage, dtype=np.float64)
        conductance = np.asarray(conductance, dtype=np.float64)
        return voltage * conductance

    def conductance_for_weight(
        self, weight: np.ndarray, weight_max: float
    ) -> np.ndarray:
        """Map normalised weights in ``[0, 1]``-scaled magnitude to conductance.

        ``weight_max`` is the largest weight magnitude in the layer; it maps
        to ``g_max`` while zero maps to ``g_min``.
        """
        weight = np.asarray(weight, dtype=np.float64)
        if weight_max <= 0:
            return np.full(weight.shape, self.levels.g_min)
        norm = np.clip(np.abs(weight) / weight_max, 0.0, 1.0)
        return self.levels.g_min + norm * (self.levels.g_max - self.levels.g_min)


#: Shared default device instance used when callers do not need custom stats.
DEFAULT_DEVICE = RRAMDeviceModel()
