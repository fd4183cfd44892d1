"""Unit tests for the RRAM device model (repro.rram.device)."""

import numpy as np
import pytest

from repro.rram import ConductanceLevels, RRAMDeviceModel, RRAMStatistics


class TestConductanceLevels:
    def test_default_window(self):
        levels = ConductanceLevels()
        assert levels.g_min == pytest.approx(1e-6)
        assert levels.g_max == pytest.approx(25e-6)
        assert levels.levels == 16

    def test_values_are_sorted(self):
        vals = ConductanceLevels().values
        assert np.all(np.diff(vals) > 0)
        assert len(vals) == 16

    def test_log_spacing(self):
        levels = ConductanceLevels(spacing="log")
        vals = levels.values
        ratios = vals[1:] / vals[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ConductanceLevels(g_min=2e-6, g_max=1e-6)
        with pytest.raises(ValueError):
            ConductanceLevels(levels=1)
        with pytest.raises(ValueError):
            ConductanceLevels(spacing="cubic")

    def test_nearest_level_roundtrip(self):
        levels = ConductanceLevels()
        idx = np.arange(levels.levels)
        g = levels.level_to_conductance(idx)
        np.testing.assert_array_equal(levels.nearest_level(g), idx)

    def test_level_to_conductance_out_of_range(self):
        with pytest.raises(ValueError):
            ConductanceLevels().level_to_conductance(np.array([16]))

    def test_bits(self):
        assert ConductanceLevels(levels=16).bits == 4
        assert ConductanceLevels(levels=8).bits == 3


class TestStatisticsValidation:
    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            RRAMStatistics(programming_sigma=-0.1)

    def test_stuck_probability_bound(self):
        with pytest.raises(ValueError):
            RRAMStatistics(stuck_at_lrs_probability=0.6, stuck_at_hrs_probability=0.6)


class TestProgramming:
    def test_ideal_program_snaps_to_levels(self):
        device = RRAMDeviceModel()
        target = np.array([5e-6, 13e-6, 24e-6])
        achieved = device.program(target, ideal=True)
        levels = device.levels.values
        for g in achieved:
            assert np.min(np.abs(levels - g)) < 1e-12

    def test_noisy_program_close_to_target(self):
        device = RRAMDeviceModel(statistics=RRAMStatistics(programming_sigma=0.02,
                                                           stuck_at_lrs_probability=0.0,
                                                           stuck_at_hrs_probability=0.0))
        target = np.full(5000, 13e-6)
        achieved = device.program(target)
        # Mean within 1 %, spread close to the configured 2 %.
        assert np.mean(achieved) == pytest.approx(np.mean(device.program(target, ideal=True)),
                                                  rel=0.01)
        assert np.std(achieved) / np.mean(achieved) == pytest.approx(0.02, rel=0.2)

    def test_program_rejects_negative(self):
        with pytest.raises(ValueError):
            RRAMDeviceModel().program(np.array([-1e-6]))

    def test_stuck_faults_present_at_high_probability(self):
        stats = RRAMStatistics(programming_sigma=0.0,
                               stuck_at_lrs_probability=0.3,
                               stuck_at_hrs_probability=0.3)
        device = RRAMDeviceModel(statistics=stats, seed=1)
        achieved = device.program(np.full(2000, 13e-6))
        assert np.any(achieved == device.g_max)
        assert np.any(achieved == device.g_min)

    def test_programming_deterministic_with_seed(self):
        a = RRAMDeviceModel(seed=7).program(np.full(100, 10e-6))
        b = RRAMDeviceModel(seed=7).program(np.full(100, 10e-6))
        np.testing.assert_array_equal(a, b)


class TestReadEffects:
    def test_read_noise_zero_sigma_is_identity(self):
        device = RRAMDeviceModel(statistics=RRAMStatistics(read_noise_sigma=0.0))
        g = np.full(10, 10e-6)
        np.testing.assert_array_equal(device.read_noise(g), g)

    def test_read_noise_statistics(self):
        device = RRAMDeviceModel(statistics=RRAMStatistics(read_noise_sigma=0.01))
        g = np.full(20000, 10e-6)
        noisy = device.read_noise(g)
        assert np.std(noisy) / np.mean(noisy) == pytest.approx(0.01, rel=0.15)

    @pytest.mark.parametrize("sigma", [0.0, 0.05, 1.0])
    def test_read_noise_in_place_equals_the_allocating_draw(self, sigma):
        # The reference is the allocating formula on an identically seeded
        # generator; a transposed (non-contiguous) g exercises the
        # crossbar's sliced reads.  Values may be NaN, inf, +-0 or
        # subnormal, and sigma 1 drives some below zero (clipped).
        statistics = RRAMStatistics(read_noise_sigma=sigma)
        g = np.random.default_rng(3).uniform(1e-6, 25e-6, (6, 9)).T
        g[0, :4] = [np.nan, np.inf, -0.0, 5e-324]
        reference_rng = np.random.default_rng(11)
        if sigma:
            noisy = g * (1.0 + sigma * reference_rng.standard_normal(g.shape))
            expected = np.clip(noisy, 0.0, None)
        else:
            expected = g.copy()
        for use_out in (False, True):
            device = RRAMDeviceModel(statistics=statistics, seed=11)
            out = np.full(g.shape, -1.0) if use_out else None
            result = device.read_noise(g, out=out)
            assert result is not g
            if use_out:
                assert result is out
            assert np.array_equal(result.view(np.int64), expected.view(np.int64))
            assert device._rng.bit_generator.state == reference_rng.bit_generator.state

    def test_drift_reduces_conductance(self):
        device = RRAMDeviceModel(statistics=RRAMStatistics(drift_coefficient=0.01))
        g = np.full(10, 20e-6)
        drifted = device.drift(g, elapsed_seconds=1e6)
        assert np.all(drifted < g)

    def test_drift_noop_for_fresh_devices(self):
        device = RRAMDeviceModel()
        g = np.full(10, 20e-6)
        np.testing.assert_array_equal(device.drift(g, 0.5), g)

    def test_drift_rejects_negative_time(self):
        with pytest.raises(ValueError):
            RRAMDeviceModel().drift(np.array([1e-6]), -1.0)

    def test_cell_current_ohms_law(self):
        device = RRAMDeviceModel()
        assert device.cell_current(2.0, 10e-6) == pytest.approx(20e-6)

    def test_conductance_for_weight_range(self):
        device = RRAMDeviceModel()
        g = device.conductance_for_weight(np.array([0.0, 0.5, 1.0]), weight_max=1.0)
        assert g[0] == pytest.approx(device.g_min)
        assert g[2] == pytest.approx(device.g_max)
        assert device.g_min < g[1] < device.g_max

    def test_on_off_ratio(self):
        assert RRAMDeviceModel().on_off_ratio == pytest.approx(25.0)
