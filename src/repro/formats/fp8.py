"""Low-bit floating-point formats (FP8 E2M5 / E3M4 and friends).

The paper's central format choice is **FP8 E2M5** — one sign bit, two exponent
bits and five mantissa bits — against the alternative **E3M4** and the
integer baseline INT8.  The AFPR-CIM macro stores and communicates activations
in this format; the FP-DAC reconstructs it into an analog voltage
(``V = 2^E × 1.M``) and the FP-ADC produces it back from the analog MAC
result.

:class:`FloatFormat` implements a generic ``ExMy`` format with

* configurable exponent bias (defaults to the IEEE-style ``2^(E-1) - 1``),
* gradual underflow (subnormals) that can be switched off,
* saturation to the largest finite value instead of infinities (the usual
  choice for inference-oriented FP8, and what a saturating analog readout
  does physically),
* bit-exact encode/decode to integer code words, so hardware-level tests can
  compare digital codes rather than real values.

All array operations are vectorised over numpy arrays.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Optional, Tuple

import numpy as np

from repro.formats.rounding import RoundingMode, round_integer


@dataclasses.dataclass(frozen=True)
class FloatFormat:
    """A generic sign + exponent + mantissa floating-point format.

    Parameters
    ----------
    exponent_bits:
        Number of exponent bits (``E`` in ``ExMy``).
    mantissa_bits:
        Number of stored mantissa bits (``M`` in ``ExMy``).
    bias:
        Exponent bias.  ``None`` selects the IEEE convention
        ``2**(exponent_bits - 1) - 1``.
    signed:
        Whether a sign bit is present.  The AFPR-CIM activation path is
        signed (differential crossbar columns handle weight sign).
    subnormals:
        Enable gradual underflow.  Disabled formats flush small values to 0.
    saturate:
        Clamp out-of-range magnitudes to the largest finite value instead of
        producing infinities.  FP8 inference formats (and analog readout)
        saturate.
    name:
        Cosmetic name used in reports.
    """

    exponent_bits: int
    mantissa_bits: int
    bias: Optional[int] = None
    signed: bool = True
    subnormals: bool = True
    saturate: bool = True
    name: str = ""

    def __post_init__(self) -> None:
        if self.exponent_bits < 1:
            raise ValueError("exponent_bits must be >= 1")
        if self.mantissa_bits < 1:
            raise ValueError("mantissa_bits must be >= 1")
        if self.bias is None:
            object.__setattr__(self, "bias", (1 << (self.exponent_bits - 1)) - 1)
        if not self.name:
            object.__setattr__(
                self, "name", f"E{self.exponent_bits}M{self.mantissa_bits}"
            )

    # ------------------------------------------------------------------
    # Derived characteristics
    # ------------------------------------------------------------------
    @property
    def total_bits(self) -> int:
        """Total storage width in bits (including the sign bit if present)."""
        return int(self.signed) + self.exponent_bits + self.mantissa_bits

    @property
    def exponent_levels(self) -> int:
        """Number of distinct exponent field values."""
        return 1 << self.exponent_bits

    @property
    def mantissa_levels(self) -> int:
        """Number of distinct mantissa field values."""
        return 1 << self.mantissa_bits

    @property
    def min_exponent(self) -> int:
        """Smallest *unbiased* exponent of a normal number."""
        first_normal_field = 1 if self.subnormals else 0
        return first_normal_field - self.bias

    @property
    def max_exponent(self) -> int:
        """Largest unbiased exponent (no field value is reserved for inf/NaN)."""
        return (self.exponent_levels - 1) - self.bias

    @property
    def max_value(self) -> float:
        """Largest finite representable magnitude."""
        frac = (self.mantissa_levels - 1) / self.mantissa_levels
        return (1.0 + frac) * 2.0 ** self.max_exponent

    @property
    def min_normal(self) -> float:
        """Smallest positive normal magnitude."""
        return 2.0 ** self.min_exponent

    @property
    def min_subnormal(self) -> float:
        """Smallest positive representable magnitude (subnormal if enabled)."""
        if self.subnormals:
            return 2.0 ** self.min_exponent / self.mantissa_levels
        return self.min_normal

    @property
    def code_count(self) -> int:
        """Number of distinct non-negative code words."""
        return self.exponent_levels * self.mantissa_levels

    def dynamic_range_db(self) -> float:
        """Dynamic range (max over min representable magnitude) in dB."""
        return 20.0 * np.log10(self.max_value / self.min_subnormal)

    # ------------------------------------------------------------------
    # Quantisation of real values
    # ------------------------------------------------------------------
    def quantize(
        self,
        x: np.ndarray,
        rounding: RoundingMode = RoundingMode.NEAREST_EVEN,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Return the nearest representable value for every element of ``x``.

        This is the "fake quantisation" operation used throughout the PTQ
        flow: the output is a float64 array whose values all lie on the
        format's grid.
        """
        x = np.asarray(x, dtype=np.float64)
        sign = np.sign(x)
        mag = np.abs(x)
        if not self.signed:
            sign = np.ones_like(x)
            mag = np.where(x < 0, 0.0, mag)

        out = np.zeros_like(mag)
        finite = np.isfinite(mag) & (mag > 0)

        # Exponent of each magnitude, clamped to the representable window.
        with np.errstate(divide="ignore"):
            exp = np.floor(np.log2(mag, where=finite, out=np.zeros_like(mag)))
        exp = np.clip(exp, self.min_exponent, self.max_exponent)

        scale = 2.0 ** exp
        # Mantissa step at this exponent; subnormals share the min-normal step.
        step = scale / self.mantissa_levels
        quantized = round_integer(mag / step, mode=rounding, rng=rng) * step

        # Values whose rounding pushed them to the next binade are still on
        # the grid (2.0 * 2^e == 1.0 * 2^(e+1)); only the very top can exceed
        # the max value.
        if self.saturate:
            quantized = np.minimum(quantized, self.max_value)
        else:
            quantized = np.where(quantized > self.max_value, np.inf, quantized)

        if not self.subnormals:
            quantized = np.where(quantized < self.min_normal, 0.0, quantized)

        out = np.where(finite, quantized, mag)
        if self.saturate:
            out = np.where(np.isinf(out), self.max_value, out)
        return sign * out

    def quantization_step(self, x: np.ndarray) -> np.ndarray:
        """Local quantisation step (ULP) at the magnitude of each element."""
        mag = np.abs(np.asarray(x, dtype=np.float64))
        mag = np.maximum(mag, self.min_subnormal)
        exp = np.clip(np.floor(np.log2(mag)), self.min_exponent, self.max_exponent)
        return 2.0 ** exp / self.mantissa_levels

    # ------------------------------------------------------------------
    # Bit-level encode / decode
    # ------------------------------------------------------------------
    def encode(
        self,
        x: np.ndarray,
        rounding: RoundingMode = RoundingMode.NEAREST_EVEN,
    ) -> np.ndarray:
        """Encode real values into integer code words.

        Layout (MSB → LSB): ``[sign | exponent | mantissa]``.  Returns an
        ``int64`` array of the same shape as ``x``.
        """
        x = np.asarray(x, dtype=np.float64)
        q = self.quantize(x, rounding=rounding)
        sign_bit = (q < 0).astype(np.int64) if self.signed else np.zeros(x.shape, np.int64)
        mag = np.abs(q)

        exp_field = np.zeros(x.shape, dtype=np.int64)
        man_field = np.zeros(x.shape, dtype=np.int64)

        nonzero = mag > 0
        if np.any(nonzero):
            m = mag[nonzero]
            e = np.clip(np.floor(np.log2(m)), self.min_exponent, self.max_exponent)
            normal = m >= self.min_normal
            # Normal numbers: mantissa is the fraction beyond the implicit 1.
            frac = m / (2.0 ** e) - 1.0
            man = np.rint(frac * self.mantissa_levels).astype(np.int64)
            ef = (e + self.bias).astype(np.int64)
            # Mantissa overflow onto the next exponent (frac rounded to 1.0).
            overflow = man >= self.mantissa_levels
            man = np.where(overflow, 0, man)
            ef = np.where(overflow, ef + 1, ef)
            if self.subnormals:
                # Subnormal numbers: exponent field 0, value = man/2^M * 2^min_exp.
                sub = ~normal
                sub_man = np.rint(
                    m / (2.0 ** self.min_exponent) * self.mantissa_levels
                ).astype(np.int64)
                sub_man = np.minimum(sub_man, self.mantissa_levels - 1)
                man = np.where(sub, sub_man, man)
                ef = np.where(sub, 0, ef)
            ef = np.clip(ef, 0, self.exponent_levels - 1)
            exp_field[nonzero] = ef
            man_field[nonzero] = man

        code = man_field | (exp_field << self.mantissa_bits)
        if self.signed:
            code = code | (sign_bit << (self.mantissa_bits + self.exponent_bits))
        return code

    def decode(self, code: np.ndarray) -> np.ndarray:
        """Decode integer code words back into real values (float64)."""
        code = np.asarray(code, dtype=np.int64)
        man_mask = self.mantissa_levels - 1
        exp_mask = self.exponent_levels - 1
        man = code & man_mask
        exp = (code >> self.mantissa_bits) & exp_mask
        if self.signed:
            sign = 1.0 - 2.0 * ((code >> (self.mantissa_bits + self.exponent_bits)) & 1)
        else:
            sign = np.ones(code.shape, dtype=np.float64)

        if self.subnormals:
            is_sub = exp == 0
            normal_val = (1.0 + man / self.mantissa_levels) * 2.0 ** (exp - self.bias)
            sub_val = (man / self.mantissa_levels) * 2.0 ** self.min_exponent
            mag = np.where(is_sub, sub_val, normal_val)
        else:
            mag = (1.0 + man / self.mantissa_levels) * 2.0 ** (exp - self.bias)
            mag = np.where((exp == 0) & (man == 0), 0.0, mag)
        # All-zero code is exactly zero regardless of subnormal support.
        mag = np.where((exp == 0) & (man == 0), 0.0, mag)
        return sign * mag

    def fields(self, code: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split code words into ``(sign, exponent_field, mantissa_field)``."""
        code = np.asarray(code, dtype=np.int64)
        man = code & (self.mantissa_levels - 1)
        exp = (code >> self.mantissa_bits) & (self.exponent_levels - 1)
        if self.signed:
            sign = (code >> (self.mantissa_bits + self.exponent_bits)) & 1
        else:
            sign = np.zeros_like(code)
        return sign, exp, man

    def compose(
        self, sign: np.ndarray, exponent: np.ndarray, mantissa: np.ndarray
    ) -> np.ndarray:
        """Assemble code words from separate fields (inverse of :meth:`fields`)."""
        sign = np.asarray(sign, dtype=np.int64)
        exponent = np.asarray(exponent, dtype=np.int64)
        mantissa = np.asarray(mantissa, dtype=np.int64)
        if np.any((exponent < 0) | (exponent >= self.exponent_levels)):
            raise ValueError("exponent field out of range")
        if np.any((mantissa < 0) | (mantissa >= self.mantissa_levels)):
            raise ValueError("mantissa field out of range")
        code = mantissa | (exponent << self.mantissa_bits)
        if self.signed:
            code = code | ((sign & 1) << (self.mantissa_bits + self.exponent_bits))
        return code

    # ------------------------------------------------------------------
    def all_values(self, include_negative: bool = False) -> np.ndarray:
        """Every representable value, sorted ascending.

        Useful for exhaustive tests and for plotting the non-uniform grid.
        """
        codes = np.arange(self.code_count)
        vals = self.decode(codes)
        vals = np.unique(vals)
        if include_negative and self.signed:
            vals = np.unique(np.concatenate([-vals, vals]))
        return np.sort(vals)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FloatFormat({self.name}, bias={self.bias}, "
            f"max={self.max_value:g}, min_sub={self.min_subnormal:g})"
        )


# ----------------------------------------------------------------------
# Lookup-table compilation of monotone quantisation kernels
# ----------------------------------------------------------------------
def refine_step_boundaries(candidates: np.ndarray,
                           classify: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Exact float64 thresholds of a monotone step function.

    ``classify`` maps values to integer bucket indices and must be monotone
    non-decreasing.  ``candidates`` are *approximate* transition points (from
    closed-form midpoint / threshold formulas, accurate to a few ulps).  For
    each real transition this returns the smallest float64 ``b`` whose bucket
    equals the upper side, found by bisection on the float lattice — so

        ``np.searchsorted(bounds, v, side="right")``

    reproduces ``classify`` bit-exactly for every value in the domain, rank
    ``r`` meaning "past ``r`` transitions".  Candidates whose neighbourhood
    shows no bucket change (empty buckets, duplicated thresholds) are
    dropped.  This is what lets per-element FP8 encode / ADC decode math be
    replaced by one :class:`StepTable` lookup without losing bit identity.
    """
    candidates = np.unique(np.asarray(candidates, dtype=np.float64))
    if candidates.size == 0:
        return candidates
    # Expand brackets until each straddles a transition; analytic candidates
    # are ulp-accurate, so a couple of widenings suffice, and a bracket that
    # never straddles marks an empty bucket to drop.  All candidates are
    # bisected simultaneously so `classify` runs a few dozen vectorised
    # calls, not thousands of scalar ones.
    delta = np.maximum(np.abs(candidates) * 1e-12, np.finfo(np.float64).tiny)
    lo = np.maximum(candidates - delta, 0.0)
    hi = candidates + delta
    for _ in range(24):
        undecided = classify(lo) == classify(hi)
        if not np.any(undecided):
            break
        delta = np.where(undecided, delta * 4.0, delta)
        lo = np.where(undecided, np.maximum(candidates - delta, 0.0), lo)
        hi = np.where(undecided, candidates + delta, hi)
    keep = classify(lo) != classify(hi)
    lo, hi = lo[keep], hi[keep]
    lo_bucket = classify(lo)
    # Bisect down to adjacent floats: hi always classifies above lo, so the
    # final hi is the smallest float of the upper bucket.
    while True:
        active = np.nextafter(lo, hi) < hi
        if not np.any(active):
            break
        mid = lo + 0.5 * (hi - lo)
        stuck = ~((lo < mid) & (mid < hi))
        mid = np.where(stuck, np.nextafter(lo, hi), mid)
        up = classify(mid) > lo_bucket
        hi = np.where(active & up, mid, hi)
        lo = np.where(active & ~up, mid, lo)
    return np.unique(hi)


def pull_back_bounds(bounds: np.ndarray,
                     transform: Callable[[np.ndarray], np.ndarray],
                     guess: np.ndarray) -> np.ndarray:
    """Boundaries of ``rank(transform(x))`` in the untransformed domain.

    ``transform`` must be monotone non-decreasing on the float lattice (a
    rounded multiply or divide by a positive constant is) and ``guess`` an
    ulp-accurate estimate of each pre-image.  Each result is the smallest
    float64 ``x`` with ``transform(x) >= bound``, found by walking ``guess``
    one ulp at a time, so ranking ``x`` against the result equals ranking
    ``transform(x)`` against ``bounds`` bit for bit.
    """
    x = np.asarray(guess, dtype=np.float64)
    for _ in range(64):
        low = transform(x) < bounds
        move = low | (transform(np.nextafter(x, -np.inf)) >= bounds)
        if not np.any(move):
            return x
        x = np.where(move, np.nextafter(x, np.where(low, np.inf, -np.inf)), x)
    raise AssertionError("boundary pull-back did not converge")


#: Resolution of :class:`StepTable`'s log grid: ``2**GRID_BITS`` cells per
#: binade, coarsened only where :data:`MAX_TABLE_CELLS` demands it.
GRID_BITS = 12

#: Most cells one :class:`StepTable` holds (512 KiB of float64 entries):
#: ``k = 4`` still spans every float64 binade from the smallest subnormal.
MAX_TABLE_CELLS = 1 << 16


class StepTable:
    """A monotone step function ``values[searchsorted(bounds, v, "right")]``
    read off the float's bits with one gather.

    ``np.searchsorted`` is exact but costs a branchy binary search per
    element.  Every converter this package models — the FP-DAC's encode,
    the FP-ADC's range adaptation plus single-slope count, an FP format's
    rounding — is a step function on a log scale, and the int64 view of a
    positive float64 is its exponent followed by its mantissa, growing
    with its value.  So the cell of ``v`` is ``(max(bits(v), base) - base)
    >> (52 - k)``, a log grid of ``2^k`` cells per binade (``k`` is
    :data:`GRID_BITS`, lowered to keep within :data:`MAX_TABLE_CELLS`):
    three integer passes, no float multiply, no subnormal slow-down.  One
    ``np.take(table, cell, mode="clip")`` reads a table whose cells hold
    either the value of every float in the cell or a sentinel (NaN in
    float tables, ``0xFFFF`` in uint16 ones).  Cell 0 takes everything
    below the first bound's cell, zeros and every negative included.  Only
    the elements on a sentinel — in a cell a bound splits (about ``bounds
    per binade / 2^k`` of them) or in the last cell, which catches values
    over twice the top bound, +inf and NaN — are redone with
    ``np.searchsorted``.

    Bounds must be positive, finite and strictly increasing, and ``values``
    (float64 without NaN, or uint16 below ``0xFFFF``) one longer.  Every
    float64 maps to ``values[searchsorted(bounds, v, side="right")]``,
    zero, subnormals and +inf included; negatives and NaN map to
    ``values[0]``.  The grid is built on first use, in O(cells) from the
    bounds' own cells, and is not pickled.
    """

    def __init__(self, bounds: np.ndarray, values: np.ndarray) -> None:
        self.bounds = np.asarray(bounds, dtype=np.float64)
        self.values = np.asarray(values)
        if (self.bounds.ndim != 1 or self.bounds.size == 0
                or not np.all(np.isfinite(self.bounds))
                or self.bounds[0] <= 0 or np.any(np.diff(self.bounds) <= 0)):
            raise ValueError(
                "bounds must be positive, finite and strictly increasing")
        sentinel = {np.float64: np.isnan, np.uint16: lambda v: v == 0xFFFF}.get(
            self.values.dtype.type)
        if (self.values.shape != (self.bounds.size + 1,) or sentinel is None
                or np.any(sentinel(self.values))):
            raise ValueError("need one more value than bounds, float64 "
                             "without NaN or uint16 below 0xFFFF")

    @functools.cached_property
    def _grid(self) -> Tuple[int, int, np.ndarray]:
        """``(base, shift, table)``: the cell is ``(max(bits, base) - base)
        >> shift``."""
        bits = self.bounds.view(np.int64)
        # The clip cell opens the second binade above the top bound's (the
        # infinities' at the latest), so values up to twice the top bound
        # read a constant cell.
        clip = min(int(bits[-1] >> 52) + 2, 0x7FF)
        k = GRID_BITS
        while k and ((clip - int(bits[0] >> 52)) << k) + 2 > MAX_TABLE_CELLS:
            k -= 1
        shift = 52 - k
        # Cell 0 ends where the first bound's cell starts.  Only a bound in
        # the very first cell of the bit space pins the base at 0, where
        # its cell takes everything below it too.
        first = max(int(bits[0] >> shift) - 1, 0)
        cell = (bits >> shift) - first
        cells = (clip << k) - first + 1
        inside = bits > (bits >> shift) << shift  # bound past its cell's start
        split = np.bincount(cell[inside], minlength=cells)
        table = self.values[np.cumsum(np.bincount(cell, minlength=cells)) - split]
        sentinel = np.nan if table.dtype == np.float64 else 0xFFFF
        table[split > 0] = sentinel
        table[-1] = sentinel
        return first << shift, shift, table

    @property
    def cells(self) -> int:
        """How many cells the grid holds (see :data:`MAX_TABLE_CELLS`)."""
        return self._grid[2].size

    def __call__(self, v: np.ndarray,
                 out: Optional[np.ndarray] = None,
                 work: Optional[np.ndarray] = None,
                 flags: Optional[np.ndarray] = None) -> np.ndarray:
        """The step function's value at each element of ``v``.

        ``out`` (the values' dtype, any strides), ``work`` (int64) and
        ``flags`` (bool) are optional buffers of ``v``'s shape; given all
        three, only the fix-up allocates.  ``out`` may be ``work`` viewed
        as float64: the gather reads each cell before it writes that
        element.  Returns ``out``.
        """
        v = np.asarray(v, dtype=np.float64)
        base, shift, table = self._grid
        out = np.empty(v.shape, table.dtype) if out is None else out
        work = np.empty(v.shape, np.int64) if work is None else work
        flags = np.empty(v.shape, bool) if flags is None else flags
        # Raising the bits to the base sends negatives (negative int64) to
        # cell 0 and keeps np.take's clip branch off that side: clipping a
        # negative index is a mispredicted branch, and zeros are common.
        np.maximum(v.view(np.int64), base, out=work)
        np.subtract(work, base, out=work)
        np.right_shift(work, shift, out=work)
        np.take(table, work, out=out, mode="clip")
        self._fix_up(v, out, flags)
        return out

    def _fix_up(self, v: np.ndarray, out: np.ndarray, flags: np.ndarray) -> int:
        """Redo the elements whose cell held the sentinel with
        ``searchsorted``; returns how many there were."""
        if out.dtype == np.float64:
            np.isnan(out, out=flags)
        else:
            np.equal(out, 0xFFFF, out=flags)
        miss = np.flatnonzero(flags)
        if miss.size:
            if v.flags.c_contiguous and out.flags.c_contiguous:
                v, out, at = v.reshape(-1), out.reshape(-1), miss
            else:
                at = np.unravel_index(miss, v.shape)
            # numpy sorts NaN last: a NaN lands past the appended NaN
            # bound, on the appended values[0].
            bounds, values = self._fix_up_tables
            out[at] = values[np.searchsorted(bounds, v[at], side="right")]
        return int(miss.size)

    @functools.cached_property
    def _fix_up_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """Bounds and values, each with one more entry for NaN."""
        return (np.append(self.bounds, np.nan),
                np.append(self.values, self.values[:1]))

    def __getstate__(self) -> dict:
        return {key: value for key, value in self.__dict__.items()
                if not key.startswith("_")}


@functools.lru_cache(maxsize=None)
def quantization_lut(fmt: FloatFormat) -> StepTable:
    """Compile ``fmt.quantize`` into a :class:`StepTable` of magnitudes.

    ``table(|x|)`` equals ``|fmt.quantize(x)|`` bit-for-bit for every
    finite ``x`` (round to nearest even).  Only signed, saturating formats
    compile; the table is cached per format instance (``FloatFormat`` is
    frozen and hashable).
    """
    if not (fmt.signed and fmt.saturate):
        raise ValueError("only signed, saturating formats compile to a LUT")
    # The image of `quantize`, built explicitly rather than via all_values():
    # for subnormal-free formats `decode` reserves code (0, 0) for zero, yet
    # `quantize` still produces the magnitude 1.0 * 2^min_exponent.
    exponents = np.arange(fmt.min_exponent, fmt.max_exponent + 1, dtype=np.float64)
    fractions = 1.0 + np.arange(fmt.mantissa_levels) / fmt.mantissa_levels
    magnitudes = [np.zeros(1), (fractions[None, :] * 2.0 ** exponents[:, None]).ravel()]
    if fmt.subnormals:
        magnitudes.append(
            np.arange(1, fmt.mantissa_levels) / fmt.mantissa_levels
            * 2.0 ** fmt.min_exponent)
    values = np.unique(np.concatenate(magnitudes))
    assert values[0] == 0.0

    def classify(v: np.ndarray) -> np.ndarray:
        q = fmt.quantize(np.abs(np.asarray(v, dtype=np.float64)))
        idx = np.searchsorted(values, q)
        if not np.all(values[np.minimum(idx, values.size - 1)] == q):
            raise AssertionError("quantize produced an off-grid value")
        return idx

    candidates = 0.5 * (values[:-1] + values[1:])
    bounds = refine_step_boundaries(candidates, classify)
    if bounds.size != values.size - 1:
        raise AssertionError("quantisation LUT has empty buckets")
    return StepTable(bounds, values)


@functools.lru_cache(maxsize=None)
def _rounding_constants(fmt: FloatFormat) -> tuple:
    """Veltkamp splitter, order key of ``min_normal`` (see
    :func:`round_to_format`) and the subnormal-step constant."""
    key = 2 * np.array([fmt.min_normal]).view(np.uint64)[0] - np.uint64(1)
    m = fmt.mantissa_bits
    return (2.0 ** (52 - m) + 1.0, key,
            1.5 * 2.0 ** (52 + fmt.min_exponent - m))


def round_to_format(fmt: FloatFormat, v: np.ndarray,
                    out: Optional[np.ndarray] = None,
                    work: Optional[np.ndarray] = None) -> np.ndarray:
    """``fmt.quantize(v)`` bit for bit, for signed saturating formats.

    A Veltkamp split ``g = x * (2^(52-m) + 1); hi = g + (x - g)`` rounds
    magnitudes from ``min_normal`` to ``max_value`` to ``m + 1``
    significant bits, ties to even; ``g + (x - g)`` (not ``g - (g - x)``)
    also turns ``-0`` into the reference's ``+0``.  The rare other inputs
    are found first.  Larger magnitudes (and infinities) are caught by the
    float max and min, which zeros never trip, and clipped to
    ``±max_value`` before the split; a NaN, which fails every comparison,
    clips too (and stays NaN).  Nonzero magnitudes below ``min_normal``
    are found by the min over order keys — the bits with the sign shifted
    out, minus one, which wraps both zeros to the top — and re-rounded
    onto the subnormal step as ``(x + M) - M``, ``M = 1.5 * 2^(52 +
    min_exponent - m)``, then flushed to signed zero if the format has no
    subnormals.  Exact under IEEE binary64 round-to-nearest-even without
    fused multiply-add, which numpy's elementwise ufuncs guarantee.
    ``out`` (may be ``v``, rounding in place) and ``work`` are optional
    C-contiguous float64 buffers.
    """
    if not (fmt.signed and fmt.saturate):
        raise ValueError("only signed, saturating formats round exactly here")
    splitter, small_key, magic = _rounding_constants(fmt)
    v = np.asarray(v, dtype=np.float64)
    out = np.empty(v.shape) if out is None else out
    work = np.empty(v.shape) if work is None else work
    small = None
    if v.size:
        keys = np.left_shift(v.view(np.uint64), np.uint64(1), out=work.view(np.uint64))
        keys -= np.uint64(1)
        if keys.min() < small_key:
            small = np.flatnonzero(keys < small_key)
            small_values = v.reshape(-1)[small]
        if not (v.max() <= fmt.max_value and v.min() >= -fmt.max_value):
            v = np.clip(v, -fmt.max_value, fmt.max_value, out=out)
    np.multiply(v, splitter, out=work)
    np.subtract(v, work, out=out)
    np.add(work, out, out=out)
    if small is not None:
        rounded = (small_values + magic) - magic
        if not fmt.subnormals:
            rounded[np.abs(rounded) < fmt.min_normal] = 0.0
        out.reshape(-1)[small] = np.copysign(rounded, small_values)
    return out


def decompose(x: np.ndarray, fmt: FloatFormat) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decompose real values into ``(sign, exponent_field, mantissa_field)``.

    Convenience wrapper combining :meth:`FloatFormat.encode` and
    :meth:`FloatFormat.fields`; this is exactly what the FP-DAC front end does
    with an incoming FP8 activation word.
    """
    return fmt.fields(fmt.encode(x))


def fp8_value_table(fmt: FloatFormat) -> np.ndarray:
    """Return a ``(code, value)`` table for all non-negative codes of ``fmt``."""
    codes = np.arange(fmt.code_count)
    return np.stack([codes, fmt.decode(codes)], axis=1)


# ----------------------------------------------------------------------
# Canonical format instances used across the repository
# ----------------------------------------------------------------------

#: The paper's chosen activation format: 1 sign + 2 exponent + 5 mantissa bits.
E2M5 = FloatFormat(exponent_bits=2, mantissa_bits=5, name="FP8-E2M5")

#: The alternative FP8 bit assignment studied in Fig. 6.
E3M4 = FloatFormat(exponent_bits=3, mantissa_bits=4, name="FP8-E3M4")

#: Standard FP8 variants included for completeness / comparison studies.
E4M3 = FloatFormat(exponent_bits=4, mantissa_bits=3, name="FP8-E4M3")
E5M2 = FloatFormat(exponent_bits=5, mantissa_bits=2, name="FP8-E5M2")

#: Reference half-precision formats.
FP16 = FloatFormat(exponent_bits=5, mantissa_bits=10, name="FP16")
BF16 = FloatFormat(exponent_bits=8, mantissa_bits=7, name="BF16")
