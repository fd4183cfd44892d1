"""Benchmark: Fig. 6(c) — PTQ Top-1 accuracy of INT8 / FP8 E3M4 / FP8 E2M5.

Trains the ResNet-style and MobileNet-style reference networks on the
seeded synthetic dataset (standing in for ImageNet, which a pure-numpy
substrate cannot train on),
quantises them post-training to the three formats with the CIM
non-idealities extracted from the macro model, and checks the paper's
qualitative claims:

* quantisation to any of the three 8-bit formats costs only a small amount
  of accuracy relative to FP32,
* E2M5 is not worse than INT8 (non-uniform quantisation suits the roughly
  Gaussian activations), and
* E2M5 is not worse than E3M4 (the extra mantissa bit matters more than the
  extra exponent bit on these well-behaved networks).

By default a reduced workload is used so the benchmark completes in a few
seconds; pass ``--full-fig6c`` for the full-size study.
"""

import pytest

from repro.analysis.fig6c import Fig6cConfig, run_fig6c

#: Tolerance on the ordering claims: the synthetic task's test set is small,
#: so a couple of misclassified images either way is statistical noise.
ACCURACY_TOLERANCE = 0.03


def _reduced_config():
    return Fig6cConfig(
        num_classes=8,
        train_samples=640,
        test_samples=320,
        calibration_samples=96,
        epochs=3,
        use_macro_nonidealities=False,
        mac_noise_override=0.02,
        seed=0,
    )


@pytest.mark.benchmark(group="fig6c")
def test_fig6c_ptq_accuracy(benchmark, full_fig6c):
    config = Fig6cConfig() if full_fig6c else _reduced_config()
    result = benchmark.pedantic(run_fig6c, args=(config,), rounds=1, iterations=1)
    print("\n" + result.render())

    # The full-size study injects the macro-extracted analog MAC noise, which
    # costs noticeably more accuracy (especially on MobileNet, the fragile
    # architecture); the reduced study uses the lighter lumped-noise setting.
    max_drop = 0.35 if full_fig6c else 0.15
    for network, formats in result.results.items():
        fp32 = result.fp32_accuracy[network]
        assert fp32 > 0.55, f"{network} failed to train"
        for name, ptq in formats.items():
            # 8-bit PTQ keeps most of the FP32 accuracy.
            assert ptq.accuracy > fp32 - max_drop, (network, name)

        e2m5 = formats["FP8-E2M5"].accuracy
        assert e2m5 >= formats["INT8"].accuracy - ACCURACY_TOLERANCE, network
        assert e2m5 >= formats["FP8-E3M4"].accuracy - ACCURACY_TOLERANCE, network
