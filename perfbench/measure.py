"""Pure measurement helpers of the benchmark (no I/O, no timing).

Everything here is a function of its arguments, so it is unit-tested in
``test_measure.py``: the percentile rule, host-speed normalisation, span
self-time and due-time latency.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10
#: The local reference of a sample is the median of the ``2 * HALF_WINDOW
#: + 1`` reference timings around it.
HALF_WINDOW = 4


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), refusing unsupported tails.

    A percentile is only reported when at least ``MIN_BEYOND`` samples lie
    beyond it, so ``p90`` needs 100 samples and ``p99`` needs 1000.  Uses
    linear interpolation between closest ranks.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} must be in 0..100")
    data = sorted(float(v) for v in values)
    beyond = len(data) * (100.0 - q) / 100.0
    if not data or (q > 50.0 and beyond < MIN_BEYOND):
        raise ValueError(
            f"p{q:g} needs at least {MIN_BEYOND} samples beyond it; "
            f"got {len(data)} samples")
    position = (len(data) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (position - low)


def split_windows(times: Sequence[float], values: Sequence[float],
                  start: float, window_s: float, count: int) -> List[List[float]]:
    """Group ``values`` into ``count`` windows of ``window_s`` by ``times``.

    Window ``k`` covers ``[start + k * window_s, start + (k + 1) * window_s)``;
    the last window also takes everything after it (the partial tail).
    """
    if len(times) != len(values):
        raise ValueError(f"{len(times)} times for {len(values)} values")
    if window_s <= 0 or count < 1:
        raise ValueError("need a positive window length and at least one window")
    windows: List[List[float]] = [[] for _ in range(count)]
    for t, value in zip(times, values):
        windows[min(max(int((t - start) // window_s), 0), count - 1)].append(value)
    return windows


def pooled_percentile(windows: Sequence[Sequence[float]], keep: Iterable[int],
                      q: float) -> float:
    """The ``q``-th percentile of the union of the windows indexed by ``keep``.

    Pooling, rather than taking a median of per-window percentiles, counts a
    stall in proportion to the requests it delays, however few of the kept
    windows it hits.
    """
    return percentile([value for k in keep for value in windows[k]], q)


def quiet_windows(steal_pct: Sequence[float], count: int) -> List[int]:
    """Indices, in time order, of the ``count`` windows of least steal.

    Steal is CPU time the hypervisor gave to other guests while this VM was
    runnable, and it stretches serving tails.  Of windows with equal steal
    the earlier ones are kept.
    """
    least = sorted(range(len(steal_pct)), key=steal_pct.__getitem__)[:count]
    return sorted(least)


def normalise_time(value: float, ref_us: float, nominal_us: float) -> float:
    """A time (or CPU cost) rescaled to the nominal host speed.

    ``ref_us`` is a reference-kernel time taken beside the measurement; the
    reference tracks the workload's drift, so dividing by ``ref_us /
    nominal_us`` (above 1 on a slow host) cancels most of the host's phase.
    """
    if ref_us <= 0 or nominal_us <= 0:
        raise ValueError("reference and nominal times must be positive")
    return value * nominal_us / ref_us


def local_reference(ref_us: Sequence[float]) -> List[float]:
    """Rolling median of a reference series (``2 * HALF_WINDOW + 1`` wide).

    Host phases last seconds, longer than one batch, so each batch is
    normalised by the reference around it; the median drops one-off spikes
    of the reference's own timing.
    """
    if not ref_us:
        raise ValueError("empty reference series")
    return [statistics.median(ref_us[max(i - HALF_WINDOW, 0):i + HALF_WINDOW + 1])
            for i in range(len(ref_us))]


def normalise_series(values: Sequence[float], ref_us: Sequence[float],
                     nominal_us: float) -> List[float]:
    """Per-sample times normalised by the local reference around each."""
    if len(values) != len(ref_us):
        raise ValueError(f"{len(values)} values for {len(ref_us)} references")
    return [normalise_time(value, ref, nominal_us) for value, ref
            in zip(values, local_reference(ref_us))]


def covered_length(intervals: Iterable[Tuple[float, float]],
                   start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if min(b, end) > max(a, start))
    covered = 0.0
    cursor = start
    for a, b in clipped:
        a = max(a, cursor)
        if b > a:
            covered += b - a
            cursor = b
    return covered


def self_time(start: float, end: float,
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part its child spans cover."""
    return max(end - start, 0.0) - covered_length(children, start, end)


def due_time_latencies(due: Sequence[float], done: Sequence[Optional[float]]
                       ) -> List[float]:
    """Per-request latency from its scheduled send time to its result.

    ``done`` holds ``None`` for a request that never returned a result;
    those are skipped (they count as failures, not as latencies).  Timing
    from the due time rather than the actual send time charges a stalled
    generator's delay to every request it held back.
    """
    if len(due) != len(done):
        raise ValueError(f"{len(due)} due times for {len(done)} results")
    return [d - s for s, d in zip(due, done) if d is not None]


def median(values: Iterable[float]) -> float:
    """Median of a non-empty sample."""
    data = list(values)
    if not data:
        raise ValueError("median of an empty sample")
    return statistics.median(data)


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def spans_by_parent(spans) -> Dict[int, list]:
    """``{parent span id: [child spans]}`` for a span collection."""
    children: Dict[int, list] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    return children
