"""Tensor quantisers with calibration, used by the PTQ flow of Fig. 6(c).

The paper evaluates post-training quantisation (PTQ) of ResNet- and
MobileNet-class networks to INT8, FP8 E3M4 and FP8 E2M5.  PTQ needs a
*calibration* step that picks a per-tensor scale from a handful of
calibration batches, followed by "fake quantisation" of weights and
activations during evaluation.  This module implements both steps in a
format-agnostic way:

* :class:`IntQuantizer` — symmetric INT quantisation,
* :class:`FloatQuantizer` — low-bit floating point quantisation with a scale
  that maps the calibrated maximum to the format's largest finite value,
* :func:`calibrate_scale` — absolute-max, percentile and MSE-search
  calibration strategies.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional, Union

import numpy as np

from repro.formats.fp8 import FloatFormat, quantization_lut
from repro.formats.intq import IntFormat, fake_quant_int
from repro.formats.rounding import RoundingMode


class CalibrationMethod(enum.Enum):
    """Strategy used to pick the representable range from calibration data."""

    ABSMAX = "absmax"
    PERCENTILE = "percentile"
    MSE = "mse"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def _absmax(x: np.ndarray) -> float:
    return float(np.max(np.abs(x))) if x.size else 0.0


def _percentile_max(x: np.ndarray, percentile: float) -> float:
    if x.size == 0:
        return 0.0
    return float(np.percentile(np.abs(x), percentile))


def calibrate_scale(
    x: np.ndarray,
    fmt: Union[FloatFormat, IntFormat],
    method: CalibrationMethod = CalibrationMethod.ABSMAX,
    percentile: float = 99.99,
    mse_grid: int = 40,
) -> float:
    """Pick a scale so ``x / scale`` fits the representable range of ``fmt``.

    The returned scale maps the calibrated maximum magnitude to the format's
    largest representable value (``qmax`` for integers, ``max_value`` for
    floats).  A scale of exactly 1.0 is returned for all-zero input.

    Parameters
    ----------
    x:
        Calibration tensor (weights, or a concatenation of activation
        batches).
    fmt:
        Target number format.
    method:
        ``ABSMAX`` uses the absolute maximum, ``PERCENTILE`` clips outliers at
        the given percentile, ``MSE`` searches ``mse_grid`` candidate clip
        values and keeps the one minimising quantisation MSE.
    """
    x = np.asarray(x, dtype=np.float64)
    fmt_max = fmt.qmax if isinstance(fmt, IntFormat) else fmt.max_value

    if method is CalibrationMethod.ABSMAX:
        amax = _absmax(x)
    elif method is CalibrationMethod.PERCENTILE:
        amax = _percentile_max(x, percentile)
    elif method is CalibrationMethod.MSE:
        amax = _mse_search(x, fmt, fmt_max, mse_grid)
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown calibration method: {method!r}")

    if amax <= 0.0:
        return 1.0
    scale = amax / fmt_max
    # Guard against underflow to zero for denormal-only calibration tensors.
    return scale if scale > 0.0 else 1.0


def _mse_search(
    x: np.ndarray, fmt: Union[FloatFormat, IntFormat], fmt_max: float, grid: int
) -> float:
    """Search the clip value minimising the quantisation mean squared error."""
    amax = _absmax(x)
    if amax == 0.0:
        return 0.0
    # Subsample large tensors to keep the search cheap.
    flat = x.ravel()
    if flat.size > 65536:
        rng = np.random.default_rng(0)
        flat = rng.choice(flat, size=65536, replace=False)
    best_clip, best_err = amax, np.inf
    for frac in np.linspace(0.3, 1.0, grid):
        clip = amax * frac
        scale = clip / fmt_max
        if isinstance(fmt, IntFormat):
            approx = fake_quant_int(flat, scale, fmt=fmt)
        else:
            approx = fmt.quantize(flat / scale) * scale
        err = float(np.mean((approx - flat) ** 2))
        if err < best_err:
            best_err, best_clip = err, clip
    return best_clip


@dataclasses.dataclass
class TensorQuantizer:
    """Base class: calibrates a scale then fake-quantises tensors with it.

    Subclasses define :meth:`_fake_quant` for their number format.  The
    quantizer is deliberately stateful (scale survives calibration) because
    PTQ calibrates once and then evaluates many batches.
    """

    method: CalibrationMethod = CalibrationMethod.ABSMAX
    percentile: float = 99.99
    rounding: RoundingMode = RoundingMode.NEAREST_EVEN
    scale: Optional[float] = None

    @property
    def format_name(self) -> str:
        raise NotImplementedError

    @property
    def bit_width(self) -> int:
        raise NotImplementedError

    def calibrate(self, x: np.ndarray) -> float:
        """Compute and store the scale from calibration data, returning it."""
        raise NotImplementedError

    def observe(self, x: np.ndarray) -> None:
        """Update the scale with another calibration batch (running max)."""
        new_scale = self._scale_for(x)
        if self.scale is None or new_scale > self.scale:
            self.scale = new_scale

    def _scale_for(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Fake-quantise ``x`` with the calibrated scale.

        If the quantizer has not been calibrated, the scale is computed from
        ``x`` itself (dynamic quantisation).
        """
        scale = self.scale if self.scale is not None else self._scale_for(x)
        return self._fake_quant(np.asarray(x, dtype=np.float64), scale)

    __call__ = quantize

    def _fake_quant(self, x: np.ndarray, scale: float) -> np.ndarray:
        raise NotImplementedError


@dataclasses.dataclass
class IntQuantizer(TensorQuantizer):
    """Symmetric integer fake-quantiser (the INT8 baseline of Fig. 6(c))."""

    fmt: IntFormat = dataclasses.field(default_factory=lambda: IntFormat(8, True))

    @property
    def format_name(self) -> str:
        return self.fmt.name

    @property
    def bit_width(self) -> int:
        return self.fmt.bits

    def calibrate(self, x: np.ndarray) -> float:
        self.scale = self._scale_for(x)
        return self.scale

    def _scale_for(self, x: np.ndarray) -> float:
        return calibrate_scale(x, self.fmt, method=self.method, percentile=self.percentile)

    def _fake_quant(self, x: np.ndarray, scale: float) -> np.ndarray:
        return fake_quant_int(x, scale, fmt=self.fmt, rounding=self.rounding)


@dataclasses.dataclass
class FloatQuantizer(TensorQuantizer):
    """Low-bit floating-point fake-quantiser (E2M5 / E3M4 paths)."""

    fmt: FloatFormat = dataclasses.field(
        default_factory=lambda: FloatFormat(exponent_bits=2, mantissa_bits=5)
    )

    @property
    def format_name(self) -> str:
        return self.fmt.name

    @property
    def bit_width(self) -> int:
        return self.fmt.total_bits

    def calibrate(self, x: np.ndarray) -> float:
        self.scale = self._scale_for(x)
        return self.scale

    def _scale_for(self, x: np.ndarray) -> float:
        return calibrate_scale(x, self.fmt, method=self.method, percentile=self.percentile)

    def _fake_quant(self, x: np.ndarray, scale: float) -> np.ndarray:
        return self.fmt.quantize(x / scale, rounding=self.rounding) * scale


@dataclasses.dataclass
class LUTFloatQuantizer(FloatQuantizer):
    """A :class:`FloatQuantizer` whose rounding runs through a compiled LUT.

    ``compile_quantizer`` swaps calibrated quantisers for this class inside
    execution plans: the per-element FP encode collapses to one bucket
    ranking plus a table gather (:func:`repro.formats.fp8.quantization_lut`),
    bit-identical to the generic ``fmt.quantize`` path.  The compiled
    ``(indexer, values)`` pair is cached on the instance after the first
    batch — the quantiser sits on the per-layer fake-quant hot path, where
    even the format-keyed cache lookup shows up — and is dropped on
    pickling (process workers rebuild it from the shared format cache).
    """

    def _fake_quant(self, x: np.ndarray, scale: float) -> np.ndarray:
        tables = self.__dict__.get("_tables")
        if tables is None:
            tables = self.__dict__["_tables"] = quantization_lut(self.fmt)
        indexer, values = tables
        y = x / scale
        return np.sign(y) * values[indexer(np.abs(y))] * scale

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_tables", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


def compile_quantizer(quantizer: TensorQuantizer) -> TensorQuantizer:
    """Return a LUT-compiled equivalent of ``quantizer`` when one exists.

    Float quantisers with a signed, saturating format and round-to-nearest-
    even compile to :class:`LUTFloatQuantizer` (carrying over the calibrated
    scale); everything else — integer quantisers, exotic formats, stochastic
    rounding — is returned unchanged, so callers can compile unconditionally.
    """
    if (type(quantizer) is FloatQuantizer
            and quantizer.rounding is RoundingMode.NEAREST_EVEN
            and quantizer.fmt.signed and quantizer.fmt.saturate):
        return LUTFloatQuantizer(
            method=quantizer.method,
            percentile=quantizer.percentile,
            rounding=quantizer.rounding,
            scale=quantizer.scale,
            fmt=quantizer.fmt,
        )
    return quantizer


def make_quantizer(
    fmt: Union[FloatFormat, IntFormat],
    method: CalibrationMethod = CalibrationMethod.ABSMAX,
    percentile: float = 99.99,
) -> TensorQuantizer:
    """Factory returning the right quantiser subclass for a format object."""
    if isinstance(fmt, IntFormat):
        return IntQuantizer(fmt=fmt, method=method, percentile=percentile)
    if isinstance(fmt, FloatFormat):
        return FloatQuantizer(fmt=fmt, method=method, percentile=percentile)
    raise TypeError(f"unsupported format type: {type(fmt)!r}")
