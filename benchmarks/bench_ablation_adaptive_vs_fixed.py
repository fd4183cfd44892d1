"""Ablation benchmark: adaptive FP-ADC versus fixed-range INT8 ADC.

Design choice: the dynamic-range adaptation keeps the *relative*
readout error roughly constant across the input range, whereas the
fixed-range INT8 single-slope reference has a fixed absolute LSB — so small
MAC results (the common case in sparse, post-ReLU workloads) lose precision.
The INT design also needs a 2.5x longer conversion to cover the same range.
"""

import pytest

from repro.analysis.ablations import run_adaptive_vs_fixed_ablation


@pytest.mark.benchmark(group="ablations")
def test_adaptive_vs_fixed_range(benchmark):
    result = benchmark(run_adaptive_vs_fixed_ablation)
    print("\n" + result.render())

    # In the bottom of the range the adaptive converter is clearly better.
    assert result.fp_small_signal_error < result.int_small_signal_error
    # And it does so with a 2.5x shorter conversion (200 ns vs 500 ns).
    assert result.conversion_time_ratio == pytest.approx(2.5)
    # The FP readout's relative error stays bounded by the mantissa LSB.
    assert float(result.fp_relative_error.max()) < 1.0 / 32 + 1e-6
