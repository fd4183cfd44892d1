"""End-to-end integration tests spanning multiple subsystems.

These tests exercise the complete chain the paper describes in Fig. 1: FP8
activations enter through the FP-DAC, the RRAM crossbar computes the MAC in
the analog INT domain, the adaptive FP-ADC reads the result back out as FP8,
the digital interface combines differential columns and partial sums, and a
neural network built on top of the macros still classifies correctly.
"""

import numpy as np
import pytest

import repro
from repro.core import ADCConfig, AFPRMacro, FPADC, FPADCTransient, MacroConfig
from repro.exec import run_ptq_sweep
from repro.nn import CIMNonidealities, extract_cim_nonidealities
from repro.power import MacroPowerModel
from repro.rram.device import RRAMStatistics


def quiet_config(**overrides):
    stats = RRAMStatistics(programming_sigma=0.0, read_noise_sigma=0.0,
                           drift_coefficient=0.0,
                           stuck_at_lrs_probability=0.0, stuck_at_hrs_probability=0.0)
    return MacroConfig(device_statistics=stats, read_noise_enabled=False, **overrides)


class TestPackageSurface:
    def test_version_and_exports(self):
        assert repro.__version__
        assert repro.E2M5.total_bits == 8
        assert repro.MacroConfig().rows == 576

    def test_all_submodules_importable(self):
        import repro.analysis
        import repro.baselines
        import repro.circuits
        import repro.core
        import repro.formats
        import repro.nn
        import repro.power
        import repro.rram
        for module in (repro.analysis, repro.baselines, repro.circuits, repro.core,
                       repro.formats, repro.nn, repro.power, repro.rram):
            assert module.__doc__


class TestFullPipelineConsistency:
    @pytest.mark.slow
    def test_functional_and_transient_adc_agree_across_range(self):
        """The fast model used by the macro matches the circuit-level model."""
        config = ADCConfig()
        functional = FPADC(config, channels=1)
        transient = FPADCTransient(config, time_step=0.1e-9)
        rng = np.random.default_rng(0)
        for value in rng.uniform(1.1, 15.0, 8):
            current = float(functional.value_to_current(value))
            fast = functional.convert(np.array([current]))
            slow = transient.simulate(current).metadata
            assert int(slow["exponent_code"]) == int(fast.exponent[0])
            assert abs(int(slow["mantissa_code"]) - int(fast.mantissa[0])) <= 1

    def test_macro_error_dominated_by_fp8_quantisation(self):
        """With ideal devices the end-to-end error should be at the FP8 level."""
        rng = np.random.default_rng(1)
        macro = AFPRMacro(quiet_config())
        weights = rng.standard_normal((128, 32)) * 0.1
        macro.program_weights(weights, ideal=True)
        acts = np.abs(rng.standard_normal((16, 128)))
        macro.calibrate(acts)
        ideal = acts @ weights
        measured = macro.matvec(acts)
        rel = np.abs(measured - ideal) / np.max(np.abs(ideal))
        # Two FP8 conversions (DAC + ADC) each contribute ~1.6 % worst case.
        assert np.mean(rel) < 0.05
        assert np.percentile(rel, 95) < 0.12

    def test_extracted_noise_predicts_macro_behaviour(self):
        """The lumped CIM noise used at network level comes from the macro model."""
        nonideal = extract_cim_nonidealities(quiet_config(), in_features=64,
                                             out_features=16, batches=2, batch_size=8)
        # Ideal devices leave only the converter quantisation noise: small but
        # non-zero.
        assert 0.001 < nonideal.mac_noise_sigma < 0.05

    def test_power_model_consistent_with_macro_config(self):
        config = quiet_config()
        breakdown = MacroPowerModel(config).breakdown()
        assert breakdown.conversion_time == pytest.approx(config.conversion_time)
        assert breakdown.operations_per_conversion == config.ops_per_conversion

    def test_paper_headline_chain(self):
        """Macro spec -> throughput 1474.56 GFLOPS and ~19.89 TFLOPS/W."""
        breakdown = MacroPowerModel(MacroConfig()).breakdown()
        assert breakdown.throughput_gops == pytest.approx(1474.56)
        assert breakdown.energy_efficiency_tops_per_watt == pytest.approx(19.89, rel=0.02)


@pytest.mark.slow
class TestNetworkOnHardwareNoise:
    def test_ptq_with_extracted_noise_still_learns(self):
        """A trained model evaluated with macro-extracted noise keeps most accuracy."""
        from repro.nn import (DatasetConfig, SGD, Sequential, SyntheticImageDataset,
                              Trainer)
        from repro.nn.layers import Conv2d, GlobalAvgPool2d, Linear, ReLU

        rng = np.random.default_rng(2)
        dataset = SyntheticImageDataset(DatasetConfig(num_classes=4, image_size=12,
                                                      noise_sigma=0.25, seed=5))
        x_train, y_train, x_test, y_test = dataset.train_test_split(240, 120)
        model = Sequential(
            Conv2d(3, 6, 3, padding=1, rng=rng), ReLU(),
            Conv2d(6, 12, 3, stride=2, padding=1, rng=rng), ReLU(),
            GlobalAvgPool2d(), Linear(12, 4, rng=rng),
        )
        Trainer(model, SGD(model.parameters(), learning_rate=0.05)).fit(
            x_train, y_train, epochs=3
        )
        nonideal = CIMNonidealities(mac_noise_sigma=0.02, weight_noise_sigma=0.02)
        result = run_ptq_sweep(model, x_train[:32], x_test, y_test,
                               formats={"FP8-E2M5": repro.E2M5},
                               nonidealities=nonideal)["FP8-E2M5"]
        assert result.fp32_accuracy > 0.6
        assert result.accuracy > result.fp32_accuracy - 0.2
