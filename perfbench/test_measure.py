"""Unit tests of the benchmark's pure helpers (``perfbench/measure.py``).

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from measure import (  # noqa: E402
    HALF_WINDOW,
    MIN_BEYOND,
    covered_length,
    due_time_latencies,
    local_reference,
    normalise_series,
    normalise_time,
    percentile,
    pooled_percentile,
    quartile_spread,
    quiet_windows,
    self_time,
    split_windows,
)


class TestPercentile:
    def test_median_and_interpolation(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0
        assert percentile([0.0, 10.0], 50) == 5.0

    def test_p90_needs_ten_samples_beyond(self):
        assert MIN_BEYOND == 10
        values = list(range(100))
        assert percentile(values, 90) == pytest.approx(89.1)
        with pytest.raises(ValueError, match="p90 needs at least 10"):
            percentile(values[:99], 90)

    def test_p99_needs_a_thousand_samples(self):
        with pytest.raises(ValueError, match="p99"):
            percentile(list(range(999)), 99)
        assert percentile(list(range(1000)), 99) == pytest.approx(989.01)

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestWindows:
    def test_split_assigns_by_time_and_tail_joins_last(self):
        windows = split_windows([0.0, 0.5, 1.0, 1.9, 2.0, 2.4], list("abcdef"),
                                start=0.0, window_s=1.0, count=2)
        assert windows == [["a", "b"], ["c", "d", "e", "f"]]

    @staticmethod
    def _windows(values):
        """``values`` at 100 per second, cut into 1-s windows."""
        times = [i / 100.0 for i in range(len(values))]
        return split_windows(times, values, 0.0, 1.0, len(values) // 100)

    def test_a_stall_in_one_window_counts_by_the_requests_it_delays(self):
        # A stall delays 60 of the 500 requests, all in window 1: more than
        # a tenth of the pool, so it sets p90 although four windows are clean.
        values = [1.0] * 500
        values[100:160] = [50.0] * 60
        windows = self._windows(values)
        assert pooled_percentile(windows, range(5), 90) == 50.0
        assert pooled_percentile(windows, range(5), 50) == 1.0

    def test_a_short_stall_leaves_p90_alone(self):
        values = [1.0] * 500
        values[100:130] = [50.0] * 30               # 6 % of the requests
        assert pooled_percentile(self._windows(values), range(5), 90) == 1.0

    def test_dropped_windows_do_not_count(self):
        values = [1.0] * 500
        values[100:200] = [50.0] * 100
        assert pooled_percentile(self._windows(values), [0, 2, 3, 4], 90) == 1.0

    def test_the_pool_obeys_the_tail_rule(self):
        windows = [[1.0] * 99, [1.0] * 99]
        with pytest.raises(ValueError, match="p90"):
            pooled_percentile(windows, [0], 90)
        assert pooled_percentile(windows, [0, 1], 90) == 1.0

    def test_quiet_windows_keep_the_least_stolen_in_time_order(self):
        assert quiet_windows([0.0, 5.0, 0.2, 9.0], 2) == [0, 2]
        assert quiet_windows([3.0, 0.0, 9.0, 0.5], 3) == [0, 1, 3]

    def test_quiet_windows_prefer_earlier_on_ties(self):
        assert quiet_windows([0.0, 1.0, 0.0, 0.0], 2) == [0, 2]

    def test_quiet_windows_keep_all_when_too_few(self):
        assert quiet_windows([1.0, 2.0], 5) == [0, 1]


class TestHostNormalisation:
    def test_slow_host_shrinks_times(self):
        # The reference ran twice as slow as nominal: the host was in a slow
        # phase, so a measured time is halved.
        assert normalise_time(10.0, ref_us=200.0, nominal_us=100.0) == 5.0

    def test_nominal_host_is_identity(self):
        assert normalise_time(3.5, 330.0, 330.0) == 3.5

    def test_rejects_non_positive_reference(self):
        with pytest.raises(ValueError):
            normalise_time(1.0, 0.0, 330.0)

    def test_local_reference_drops_a_spike(self):
        refs = [1.0] * (4 * HALF_WINDOW)
        refs[2 * HALF_WINDOW] = 9.0
        assert local_reference(refs) == [1.0] * (4 * HALF_WINDOW)

    def test_local_reference_follows_a_step(self):
        n = 2 * HALF_WINDOW + 1
        assert local_reference([1.0] * n + [2.0] * n) == [1.0] * n + [2.0] * n

    def test_series_follows_a_phase_change(self):
        # The host halves its speed mid-run: both the work and the reference
        # take twice as long, and normalisation restores a flat series.
        n = 2 * HALF_WINDOW + 1
        times = [1.0] * n + [2.0] * n
        refs = [100.0] * n + [200.0] * n
        assert normalise_series(times, refs, 100.0) == [1.0] * (2 * n)

    def test_series_length_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            normalise_series([1.0], [1.0, 2.0], 1.0)


class TestSelfTime:
    def test_no_children_is_whole_span(self):
        assert self_time(1.0, 3.0, []) == 2.0

    def test_disjoint_children_are_subtracted(self):
        assert self_time(0.0, 10.0, [(1.0, 2.0), (5.0, 8.0)]) == pytest.approx(6.0)

    def test_overlapping_children_count_once(self):
        assert self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (2.0, 5.0)]) == \
            pytest.approx(5.0)

    def test_children_are_clipped_to_the_span(self):
        assert covered_length([(-5.0, 1.0), (9.0, 20.0)], 0.0, 10.0) == 2.0
        assert self_time(0.0, 10.0, [(-5.0, 20.0)]) == 0.0

    def test_nested_child_inside_child(self):
        assert self_time(0.0, 4.0, [(0.0, 3.0), (1.0, 2.0)]) == pytest.approx(1.0)


class TestDueTimeLatency:
    def test_latency_runs_from_due_time(self):
        # Request 1 was due at t=1 but the generator stalled until t=1.5:
        # its latency still counts from t=1.
        assert due_time_latencies([0.0, 1.0], [0.25, 1.75]) == [0.25, 0.75]

    def test_unreturned_requests_are_skipped(self):
        assert due_time_latencies([0.0, 1.0, 2.0], [0.5, None, 2.5]) == [0.5, 0.5]

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            due_time_latencies([0.0], [])


def test_quartile_spread_is_relative_to_median():
    assert quartile_spread([10.0] * 10) == 0.0
    spread = quartile_spread([9.0, 10.0, 10.0, 10.0, 11.0, 9.5, 10.5, 10.0, 10.0, 10.0])
    assert 0.0 < spread < 0.1
    assert math.isinf(quartile_spread([0.0] * 5))
