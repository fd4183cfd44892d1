"""Ablation benchmark: the {C, C, 2C, 4C} capacitor ladder.

Design choice: the paper argues this ladder is the unique
4-step choice that (a) returns the integrator output to (V_r + V_th)/2 after
every charge share and (b) makes the accumulated charge a binary exponent of
the residual voltage.  The ablation converts a current sweep through the
physical charge-sharing procedure with the paper ladder and three plausible
alternatives and measures the transfer-function error of each.
"""

import numpy as np
import pytest

from repro.analysis.ablations import run_cap_ladder_ablation


@pytest.mark.benchmark(group="ablations")
def test_cap_ladder_ablation(benchmark):
    result = benchmark(run_cap_ladder_ablation)
    print("\n" + result.render())

    paper = next(name for name in result.ladder_names if "paper" in name)
    # The paper ladder keeps every post-share voltage at exactly 1 V and its
    # binary-decoded transfer function is error-free.
    np.testing.assert_allclose(result.post_share_voltages[paper], 1.0, atol=1e-9)
    assert result.is_binary[paper]
    assert result.max_transfer_error[paper] < 0.02

    # Every alternative ladder breaks at least one of the two properties and
    # produces a large transfer error when decoded as a binary exponent.
    for name in result.ladder_names:
        if name == paper:
            continue
        assert not result.is_binary[name] or \
            not np.allclose(result.post_share_voltages[name], 1.0)
        assert result.max_transfer_error[name] > 0.15
