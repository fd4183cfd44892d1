"""Unit and integration tests for the AFPR-CIM macro (DAC -> crossbar -> ADC)."""

import dataclasses

import numpy as np
import pytest

from repro.core import AFPRMacro, MacroConfig
from repro.core.config import DACConfig
from repro.rram.device import RRAMStatistics


def quiet_macro_config(**overrides):
    """A macro with all stochastic non-idealities disabled (for exact-ish tests)."""
    stats = RRAMStatistics(programming_sigma=0.0, read_noise_sigma=0.0,
                           drift_coefficient=0.0,
                           stuck_at_lrs_probability=0.0, stuck_at_hrs_probability=0.0)
    return MacroConfig(device_statistics=stats, read_noise_enabled=False, **overrides)


@pytest.fixture(scope="module")
def programmed_macro():
    rng = np.random.default_rng(0)
    macro = AFPRMacro(quiet_macro_config())
    weights = rng.standard_normal((96, 48)) * 0.2
    macro.program_weights(weights, ideal=True)
    calibration = np.abs(rng.standard_normal((16, 96)))
    macro.calibrate(calibration)
    return macro, weights, rng


class TestCapacity:
    def test_dimensions(self):
        macro = AFPRMacro(quiet_macro_config())
        assert macro.max_in_features == 576
        assert macro.max_out_features == 128

    def test_oversize_weights_rejected(self):
        macro = AFPRMacro(quiet_macro_config())
        with pytest.raises(ValueError):
            macro.program_weights(np.zeros((577, 10)))
        with pytest.raises(ValueError):
            macro.program_weights(np.zeros((10, 129)))
        with pytest.raises(ValueError):
            macro.program_weights(np.zeros(5))

    def test_compute_before_programming_rejected(self):
        macro = AFPRMacro(quiet_macro_config())
        with pytest.raises(RuntimeError):
            macro.matvec(np.ones(4))
        with pytest.raises(RuntimeError):
            macro.calibrate(np.ones((2, 4)))


class TestEndToEndAccuracy:
    def test_positive_inputs_accuracy(self, programmed_macro):
        macro, weights, rng = programmed_macro
        acts = np.abs(rng.standard_normal((8, 96)))
        ideal = acts @ weights
        measured = macro.matvec(acts)
        error = np.abs(measured - ideal) / np.max(np.abs(ideal))
        assert np.mean(error) < 0.06
        assert measured.shape == (8, 48)

    def test_signed_inputs_accuracy(self, programmed_macro):
        macro, weights, rng = programmed_macro
        acts = rng.standard_normal((8, 96))
        ideal = acts @ weights
        measured = macro.matvec(acts)
        error = np.abs(measured - ideal) / np.max(np.abs(ideal))
        assert np.mean(error) < 0.08

    def test_single_vector_shape(self, programmed_macro):
        macro, _, rng = programmed_macro
        out = macro.matvec(np.abs(rng.standard_normal(96)))
        assert out.shape == (48,)

    def test_output_correlates_with_ideal(self, programmed_macro):
        macro, weights, rng = programmed_macro
        acts = rng.standard_normal((4, 96))
        ideal = acts @ weights
        measured = macro.matvec(acts)
        corr = np.corrcoef(ideal.ravel(), measured.ravel())[0, 1]
        assert corr > 0.99

    def test_zero_input_gives_zero_output(self, programmed_macro):
        macro, _, _ = programmed_macro
        out = macro.matvec(np.zeros(96))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_wrong_activation_length_rejected(self, programmed_macro):
        macro, _, _ = programmed_macro
        with pytest.raises(ValueError):
            macro.matvec(np.ones(97))

    def test_relative_mac_error_metric(self, programmed_macro):
        macro, _, rng = programmed_macro
        err = macro.relative_mac_error(np.abs(rng.standard_normal((4, 96))))
        assert 0 <= err < 0.1


class TestCalibration:
    def test_calibrate_sets_scales(self):
        rng = np.random.default_rng(1)
        macro = AFPRMacro(quiet_macro_config())
        weights = rng.standard_normal((32, 16)) * 0.1
        macro.program_weights(weights, ideal=True)
        macro.calibrate(np.abs(rng.standard_normal((8, 32))) * 3.0)
        assert macro.activation_scale > 0
        assert macro.weight_scale == pytest.approx(np.max(np.abs(weights)))

    def test_calibration_improves_accuracy(self):
        rng = np.random.default_rng(2)
        config = quiet_macro_config()
        weights = rng.standard_normal((64, 16)) * 0.1
        acts = np.abs(rng.standard_normal((16, 64))) * 0.05  # tiny inputs

        uncalibrated = AFPRMacro(config)
        uncalibrated.program_weights(weights, ideal=True)
        uncalibrated.set_activation_scale(np.max(np.abs(acts)))

        calibrated = AFPRMacro(config)
        calibrated.program_weights(weights, ideal=True)
        calibrated.calibrate(acts)

        ideal = acts @ weights
        err_uncal = np.mean(np.abs(uncalibrated.matvec(acts) - ideal))
        err_cal = np.mean(np.abs(calibrated.matvec(acts) - ideal))
        assert err_cal <= err_uncal

    @pytest.mark.parametrize("differential", [True, False])
    @pytest.mark.parametrize("noise_rms", [0.0, 1e-4], ids=["exact", "noisy"])
    def test_dac_table_calibrates_like_the_generic_dac(self, noise_rms,
                                                       differential):
        # calibrate() reads DAC voltages through voltage_lut() when the DAC
        # has one; forcing the per-element field split must give the same
        # scales bit for bit.  A noisy DAC has no table and draws its noise
        # from the macro generator either way.
        rng = np.random.default_rng(4)
        weights = rng.standard_normal((96, 40)) * 0.1
        acts = rng.standard_normal((16, 96)) * 2.0
        acts[0, :8] = 0.0
        acts[1, :8] = 1e-9  # flushes to the zero code
        config = quiet_macro_config(dac=DACConfig(output_noise_rms=noise_rms),
                                    differential_columns=differential)
        macros = []
        for table in (True, False):
            macro = AFPRMacro(config)
            macro.program_weights(weights, ideal=True)
            if not table:
                macro.dac.voltage_lut = lambda: None
            start = macro._rng.bit_generator.state
            macro.calibrate(acts)
            assert (macro._rng.bit_generator.state != start) == (noise_rms > 0)
            macros.append(macro)
        with_table, generic = macros
        assert (with_table.dac.voltage_lut() is None) == (noise_rms > 0)
        assert with_table.activation_scale == generic.activation_scale
        assert with_table.adc.full_scale_current == generic.adc.full_scale_current
        assert (with_table._rng.bit_generator.state
                == generic._rng.bit_generator.state)

    def test_set_activation_scale_validation(self):
        macro = AFPRMacro(quiet_macro_config())
        with pytest.raises(ValueError):
            macro.set_activation_scale(0.0)

    def test_set_adc_full_scale_rebuilds_adc(self):
        macro = AFPRMacro(quiet_macro_config())
        macro.set_adc_full_scale_current(5e-6)
        assert macro.adc.full_scale_current == pytest.approx(5e-6)

    def test_calibrate_wrong_width_rejected(self):
        rng = np.random.default_rng(3)
        macro = AFPRMacro(quiet_macro_config())
        macro.program_weights(rng.standard_normal((16, 4)), ideal=True)
        with pytest.raises(ValueError):
            macro.calibrate(np.ones((2, 17)))


class TestStats:
    def test_conversion_and_op_counting(self):
        rng = np.random.default_rng(4)
        macro = AFPRMacro(quiet_macro_config())
        macro.program_weights(rng.standard_normal((32, 8)), ideal=True)
        macro.calibrate(np.abs(rng.standard_normal((4, 32))))
        macro.stats.reset()
        macro.matvec(np.abs(rng.standard_normal((4, 32))))
        assert macro.stats.conversions == 4
        assert macro.stats.mac_operations == 4 * 2 * 32 * 8
        # Signed inputs need a second analog pass.
        macro.stats.reset()
        macro.matvec(rng.standard_normal((4, 32)))
        assert macro.stats.conversions == 8

    def test_latency_accumulation(self):
        macro = AFPRMacro(quiet_macro_config())
        macro.stats.conversions = 10
        assert macro.stats.latency(macro.conversion_time) == pytest.approx(10 * 200e-9)

    def test_programmed_cells_counter(self):
        rng = np.random.default_rng(5)
        macro = AFPRMacro(quiet_macro_config())
        macro.program_weights(rng.standard_normal((16, 8)), ideal=True)
        assert macro.stats.programmed_cells == 16 * 16  # differential pairs


class TestNoiseSensitivity:
    def test_device_noise_degrades_accuracy(self):
        rng = np.random.default_rng(6)
        weights = rng.standard_normal((64, 16)) * 0.1
        acts = np.abs(rng.standard_normal((8, 64)))

        def run(config):
            macro = AFPRMacro(config)
            macro.program_weights(weights)
            macro.calibrate(acts)
            ideal = acts @ weights
            return float(np.mean(np.abs(macro.matvec(acts) - ideal)))

        quiet = run(quiet_macro_config())
        noisy_stats = RRAMStatistics(programming_sigma=0.08, read_noise_sigma=0.03,
                                     stuck_at_lrs_probability=0.0,
                                     stuck_at_hrs_probability=0.0)
        noisy = run(MacroConfig(device_statistics=noisy_stats))
        assert noisy > quiet

    def test_offset_mapping_macro(self):
        rng = np.random.default_rng(7)
        config = dataclasses.replace(quiet_macro_config(), differential_columns=False)
        macro = AFPRMacro(config)
        weights = rng.standard_normal((48, 32)) * 0.2
        macro.program_weights(weights, ideal=True)
        acts = np.abs(rng.standard_normal((8, 48)))
        macro.calibrate(acts)
        ideal = acts @ weights
        measured = macro.matvec(acts)
        corr = np.corrcoef(ideal.ravel(), measured.ravel())[0, 1]
        assert corr > 0.97
