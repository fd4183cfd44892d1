"""Ablation benchmark: why E2M5 — format trade-off study.

Design choice: the bit assignment (2-bit exponent, 5-bit
mantissa) balances hardware efficiency (conversion time, capacitor bank
size) against quantisation fidelity on Gaussian-like activations.  The
ablation quantifies both axes for INT8, E2M5, E3M4 and E4M3.
"""

import pytest

from repro.analysis.ablations import run_format_ablation


@pytest.mark.benchmark(group="ablations")
def test_format_tradeoff(benchmark):
    result = benchmark(run_format_ablation)
    print("\n" + result.render())

    sqnr = result.gaussian_sqnr_db
    efficiency = result.efficiency_tops_per_watt

    # E2M5 has the best Gaussian fidelity of the FP8 splits (paper's Fig. 6(c)
    # argument) and beats INT8 as well thanks to non-uniform quantisation.
    assert sqnr["FP8-E2M5"] > sqnr["FP8-E3M4"]
    assert sqnr["FP8-E2M5"] > sqnr["FP8-E4M3"]
    assert sqnr["FP8-E2M5"] > sqnr["INT8"]

    # E2M5 is also the most energy-efficient of the studied formats on the
    # AFPR-CIM hardware (Fig. 6(a)/(b) argument).
    assert efficiency["FP8-E2M5"] == max(efficiency.values())
    # E3M4 is faster per conversion but pays for its capacitor bank.
    assert result.conversion_time_ns["FP8-E3M4"] < result.conversion_time_ns["FP8-E2M5"]
    assert efficiency["FP8-E3M4"] < efficiency["FP8-E2M5"]
