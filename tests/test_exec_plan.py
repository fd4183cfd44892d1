"""Tests for the compiled execution-plan layer (:mod:`repro.exec.plan`).

The plan's contract is *bit identity*: LUT-fused DAC/ADC kernels, pre-packed
tiles and compiled quantisers must reproduce the generic execution paths bit
for bit — including round-to-nearest-even ties, FP8 underflow/overflow codes
and the stochastic read-noise draws — while being measurably faster.  These
tests pin that contract at every level: the LUT primitives, single tiles,
multi-tile layers, whole-model plans on all four backends, pickled plans,
and process-pool serving.
"""

import dataclasses
import gc
import pickle
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import (
    ADCConfig,
    DACConfig,
    MacroConfig,
    e2m5_macro_config,
    e3m4_macro_config,
    hardware_activation_format,
)
from repro.core.fp_adc import FPADC
from repro.core.fp_dac import FPDAC
from repro.core.macro import AFPRMacro
from repro.core.mapping import MappedLayer, RoutingAdder
from repro.exec import (
    AnalogBackend,
    BatchRunner,
    CompiledMappedLayer,
    ExecutionContext,
    StageProfile,
    available_backends,
    create_backend,
    run_model,
)
from repro.exec import blas
from repro.exec.plan import (
    CompiledTile,
    ModelPlan,
    PlanArena,
    RowCodec,
    _CompiledRoutingAdder,
)
from repro.formats.fp8 import (
    BF16,
    E2M5,
    E3M4,
    E4M3,
    E5M2,
    FP16,
    GRID_BITS,
    MAX_TABLE_CELLS,
    FloatFormat,
    StepTable,
    quantization_lut,
    refine_step_boundaries,
    round_to_format,
)
from repro.formats.quantizer import (
    CalibrationMethod,
    FloatQuantizer,
    IntQuantizer,
    LUTFloatQuantizer,
    compile_quantizer,
)
from repro.nn import DatasetConfig, SGD, Sequential, SyntheticImageDataset, Trainer
from repro.nn.mobilenet import build_mobilenet_lite
from repro.nn.resnet import build_resnet_lite
from repro.nn.layers import (
    BatchNorm2d, Conv2d, Flatten, GlobalAvgPool2d, Layer, Linear, ReLU)
from repro.rram.device import RRAMStatistics


def quiet_stats(**overrides):
    defaults = dict(programming_sigma=0.01, read_noise_sigma=0.005,
                    drift_coefficient=0.0,
                    stuck_at_lrs_probability=0.0, stuck_at_hrs_probability=0.0)
    defaults.update(overrides)
    return RRAMStatistics(**defaults)


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """float64 equality down to the bit pattern (NaNs and signed zeros too)."""
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# ----------------------------------------------------------------------
# LUT primitives
# ----------------------------------------------------------------------
def contract_rank(bounds: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The documented ranking: searchsorted for non-negative values,
    rank 0 for negatives and NaN."""
    rank = np.searchsorted(bounds, v, side="right")
    return np.where(np.isnan(v) | (v < 0), 0, rank)


def contract_lookup(table: StepTable, v: np.ndarray) -> np.ndarray:
    """The documented lookup: ``values[contract_rank(bounds, v)]``."""
    return table.values[contract_rank(table.bounds, v)]


def both_call_paths(table: StepTable, v: np.ndarray):
    """The allocating lookup and the arena-buffered one."""
    out = np.full(v.shape, 7, dtype=table.values.dtype)
    buffered = table(v, out=out, work=np.empty(v.shape, dtype=np.int64),
                     flags=np.empty(v.shape, dtype=bool))
    assert buffered is out
    return table(v), buffered


def float_and_code_tables(bounds: np.ndarray, seed: int = 0):
    """A float table of random values and a uint16 table of ranks."""
    values = np.random.default_rng(seed).standard_normal(bounds.size + 1)
    return [StepTable(bounds, values),
            StepTable(bounds, np.arange(bounds.size + 1, dtype=np.uint16))]


def grid_edges(bounds: np.ndarray) -> np.ndarray:
    """The cell edges next to every bound, on the grid the docstring
    promises: ``2**k`` cells per binade, ``k`` the largest up to
    ``GRID_BITS`` whose range (up to the clip cell, two binades above the
    top bound's) fits ``MAX_TABLE_CELLS``."""
    bits = bounds.view(np.int64)
    clip = min(int(bits[-1] >> 52) + 2, 0x7FF)
    k = GRID_BITS
    while k and ((clip - int(bits[0] >> 52)) << k) + 2 > MAX_TABLE_CELLS:
        k -= 1
    shift = 52 - k
    cells = (bits >> shift)[:, None] + np.arange(-1, 3)
    edges = np.concatenate([(cells << shift).ravel(), [clip << 52]])
    return edges[edges < 0x7FF << 52].view(np.float64)


def equal_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal values down to the bit pattern, for float and uint16 tables."""
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.int64) if a.dtype == np.float64 else a,
        b.view(np.int64) if b.dtype == np.float64 else b)


class TestBucketIndexer:
    """Bucket indexing through :class:`StepTable`: the log grid on the
    float's bits, the constant / sentinel cells and the ``searchsorted``
    fix-up must reproduce ``values[searchsorted(bounds, v, "right")]``."""

    def test_matches_searchsorted_everywhere(self):
        rng = np.random.default_rng(0)
        bounds = np.sort(rng.uniform(0.1, 10.0, size=40))
        values = np.concatenate([
            rng.uniform(0.0, 11.0, size=10000),
            bounds, np.nextafter(bounds, 0.0), np.nextafter(bounds, np.inf),
            [0.0, bounds[-1]],
        ])
        for table in float_and_code_tables(bounds):
            expected = table.values[np.searchsorted(bounds, values, side="right")]
            for result in both_call_paths(table, values):
                assert equal_bits(result, expected)

    @pytest.mark.parametrize("bounds", [
        np.sort(np.random.default_rng(1).uniform(0.1, 10.0, size=40)),
        np.array([3.0]),
        np.array([2.0 ** -1020, 2.0 ** -1019, 3.0 * 2.0 ** -1019]),  # near subnormals
        np.array([1e-9, 1e-9 + 2.0 ** -45, 4e-9]),  # two bounds in one cell
        np.array([0.25, 0.5, 0.75, 1.0]),  # bounds on cell edges
        FPDAC(DACConfig()).voltage_lut().bounds,
        FPADC(ADCConfig(exponent_bits=3, mantissa_bits=4)).conversion_lut().bounds,
    ])
    def test_documented_contract_both_call_paths(self, bounds):
        edges = grid_edges(bounds)
        tiny = np.finfo(np.float64).tiny
        huge = np.finfo(np.float64).max
        specials = np.array([0.0, -0.0, 5e-324, tiny, np.nextafter(tiny, 0.0),
                             -5e-324, -1.0, -bounds[-1], -huge,
                             2.0 * bounds[-1], 1e308, huge,
                             np.inf, -np.inf, np.nan])
        values = np.concatenate([
            bounds, np.nextafter(bounds, -np.inf), np.nextafter(bounds, np.inf),
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            specials,
        ])
        for table in float_and_code_tables(bounds):
            expected = contract_lookup(table, values)
            assert expected[-3] == table.values[-1]  # +inf
            assert expected[-1] == table.values[0]   # NaN
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                allocated, buffered = both_call_paths(table, values)
            assert equal_bits(allocated, expected)
            assert equal_bits(buffered, expected)
            assert table.cells <= MAX_TABLE_CELLS

    @pytest.mark.parametrize("bounds", [
        np.array([0.25, 0.5, 0.75, 1.0]),
        FPADC(ADCConfig(exponent_bits=3, mantissa_bits=4)).conversion_lut().bounds,
    ])
    def test_values_off_the_grid_rank_like_searchsorted(self, bounds):
        # Negatives (-0.0 and -NaN included) are raised to cell 0; +inf,
        # NaN and values over twice the top bound land in the clip cell,
        # whose fix-up reads values[0] for NaN.
        top = bounds[-1]
        values = np.concatenate([
            [-0.0, -1e300, -np.inf, np.nan, np.inf, np.nextafter(top, np.inf),
             1.5 * top, 4.0 * top, 1e300],
            -np.random.default_rng(2).uniform(0.0, 1.0, size=200),
            -bounds, np.nextafter(-bounds, 0.0),
        ])
        assert np.all((values[9:209] > -1.0) & (values[9:209] <= 0.0))
        for table in float_and_code_tables(bounds):
            expected = contract_lookup(table, values)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                allocated, buffered = both_call_paths(table, values)
            assert equal_bits(allocated, expected)
            assert equal_bits(buffered, expected)
            assert np.all(expected[:4] == table.values[0])
            assert np.all(expected[4:9] == table.values[-1])

    def test_fallback_for_huge_dynamic_range(self):
        # 2,000 binades compile on a coarser grid within the cell cap.
        bounds = np.array([1e-300, 1.0, 1e300])
        v = np.array([0.0, -0.0, 1e-300, 0.5, 2.0, 1e300, np.inf, 5e-324,
                      -1.0, -np.inf, np.nan])
        for table in float_and_code_tables(bounds):
            with warnings.catch_warnings():
                # A naive span / step overflows here.
                warnings.simplefilter("error")
                looked_up = table(v)
            assert table.cells <= MAX_TABLE_CELLS
            assert equal_bits(looked_up, contract_lookup(table, v))

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            StepTable(np.array([2.0, 1.0]), np.zeros(3))

    @pytest.mark.parametrize("bounds", [
        np.array([0.0, 1.0]), np.array([-1.0, 1.0]), np.array([1.0, np.inf]),
        np.array([1.0, 1.0]), np.array([]),
    ])
    def test_rejects_non_positive_infinite_or_empty_bounds(self, bounds):
        with pytest.raises(ValueError):
            StepTable(bounds, np.zeros(bounds.size + 1))

    @pytest.mark.parametrize("values", [
        np.zeros(2), np.array([0.0, 1.0, np.nan]),
        np.array([0, 1, 0xFFFF], dtype=np.uint16), np.arange(3, dtype=np.int32),
    ])
    def test_rejects_values_that_cannot_hold_a_sentinel(self, values):
        with pytest.raises(ValueError):
            StepTable(np.array([1.0, 2.0]), values)

    def test_pickle_drops_and_rebuilds_the_grid(self):
        table = StepTable(np.array([1.0, 2.0, 3.0]), np.arange(4.0))
        v = np.linspace(-1.0, 4.0, 101)
        expected = table(v)
        clone = pickle.loads(pickle.dumps(table))
        assert "_grid" in table.__dict__ and "_grid" not in clone.__dict__
        assert equal_bits(clone(v), expected)

    @given(
        seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
        count=st.integers(min_value=1, max_value=300),
        lowest=st.integers(min_value=-1074, max_value=1000),
        binades=st.integers(min_value=1, max_value=600),
        clusters=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_random_bounds_and_bit_patterns(self, seed, count, lowest,
                                            binades, clusters):
        """Property: random increasing positive bounds over 1-600 binades,
        subnormal ones included, with clusters of adjacent floats inside
        one cell, against random float64 bit patterns."""
        rng = np.random.default_rng(seed)
        top = min(lowest + binades, 1023)
        exponents = rng.integers(lowest, top, size=count, endpoint=True)
        bounds = np.ldexp(rng.uniform(1.0, 2.0, size=count), exponents)
        anchors = rng.choice(bounds, size=clusters)
        steps = rng.integers(1, 5, size=(clusters, 4)).cumsum(axis=1)
        cluster_bits = anchors.view(np.int64)[:, None] + steps
        bounds = np.concatenate([bounds, cluster_bits.view(np.float64).ravel()])
        bounds = np.unique(bounds[(bounds > 0) & np.isfinite(bounds)])
        patterns = rng.integers(-2 ** 63, 2 ** 63 - 1, size=4000,
                                dtype=np.int64, endpoint=True).view(np.float64)
        with np.errstate(over="ignore"):
            near = np.ldexp(rng.uniform(1.0, 2.0, size=2000),
                            rng.integers(lowest - 1, top + 2, size=2000))
        values = np.concatenate([
            patterns, bounds, np.nextafter(bounds, -np.inf),
            np.nextafter(bounds, np.inf), -bounds, near,
        ])
        for table in float_and_code_tables(bounds, seed):
            expected = contract_lookup(table, values)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                allocated, buffered = both_call_paths(table, values)
            assert equal_bits(allocated, expected)
            assert equal_bits(buffered, expected)
            assert table.cells <= MAX_TABLE_CELLS


class TestRefineStepBoundaries:
    def test_exact_threshold_recovery(self):
        # A step function with known float thresholds: floor(4x) buckets.
        def classify(v):
            return np.floor(np.asarray(v, dtype=np.float64) * 4.0).astype(np.int64)

        candidates = np.array([0.25, 0.5, 0.75]) + 1e-13  # deliberately off
        bounds = refine_step_boundaries(candidates, classify)
        assert bounds.size == 3
        for b in bounds:
            assert classify(b) > classify(np.nextafter(b, 0.0))

    def test_empty_bucket_candidates_dropped(self):
        def classify(v):
            return (np.asarray(v, dtype=np.float64) >= 1.0).astype(np.int64)

        bounds = refine_step_boundaries(np.array([0.5, 1.0, 1.5]), classify)
        assert bounds.size == 1 and bounds[0] == 1.0


class TestQuantizeViaLUT:
    @pytest.mark.parametrize("fmt", [E2M5, E3M4,
                                     hardware_activation_format(2, 5),
                                     hardware_activation_format(3, 4)])
    def test_bit_identical_to_quantize(self, fmt):
        table = quantization_lut(fmt)
        bounds, values = table.bounds, table.values
        rng = np.random.default_rng(3)
        x = np.concatenate([
            rng.standard_normal(20000) * 10,
            rng.standard_normal(2000) * 1e-3,  # subnormal / underflow region
            bounds, -bounds,
            np.nextafter(bounds, -np.inf), np.nextafter(bounds, np.inf),
            values, -values,
            [0.0, -0.0, np.inf, -np.inf, 1e308, -1e308, 5e-324, np.nan],
        ])
        with np.errstate(over="ignore"):  # 5e-324 overflows the reference's
            reference = fmt.quantize(x)   # mag/step divide; outcome is exact
            fast = np.sign(x) * table(np.abs(x))
        assert bitwise_equal(reference, fast)

    def test_compile_quantizer_swaps_float_and_keeps_int(self):
        fq = FloatQuantizer(fmt=E2M5)
        fq.calibrate(np.linspace(-3, 3, 100))
        compiled = compile_quantizer(fq)
        assert isinstance(compiled, LUTFloatQuantizer)
        assert compiled.scale == fq.scale
        x = np.random.default_rng(0).standard_normal(5000)
        assert bitwise_equal(fq.quantize(x), compiled.quantize(x))

        iq = IntQuantizer()
        assert compile_quantizer(iq) is iq
        pct = FloatQuantizer(fmt=E2M5, method=CalibrationMethod.PERCENTILE)
        assert isinstance(compile_quantizer(pct), LUTFloatQuantizer)


class TestDACVoltageLUT:
    @pytest.mark.parametrize("config", [
        DACConfig(),
        DACConfig(exponent_bits=3, mantissa_bits=4),
        DACConfig(reference_mismatch_sigma=0.01, pga_gain_error_sigma=0.005, seed=5),
    ])
    def test_bit_identical_to_convert_value(self, config):
        dac = FPDAC(config)
        lut = dac.voltage_lut()
        rng = np.random.default_rng(4)
        values = np.concatenate([
            rng.uniform(0.0, config.max_code_value * 1.2, size=20000),
            rng.uniform(0.0, 1.2, size=5000),  # flush-to-zero region
            lut.bounds, np.nextafter(lut.bounds, 0.0),
            [0.0, config.max_code_value],
        ])
        reference = dac.convert_value(np.clip(values, 0.0, config.max_code_value))
        assert bitwise_equal(reference, lut(values))

    def test_stochastic_output_stage_declines(self):
        assert FPDAC(DACConfig(output_noise_rms=1e-4)).voltage_lut() is None

    def test_bounds_shared_per_format_volts_per_dac(self):
        # The encode's bounds depend on the format only: two DACs with
        # different PGA mismatch rank on one array, yet each table holds
        # its own mismatched volts and matches its own convert_value.
        configs = [DACConfig(pga_gain_error_sigma=0.005, seed=1),
                   DACConfig(pga_gain_error_sigma=0.02, seed=2)]
        dacs = [FPDAC(config) for config in configs]
        lut_a, lut_b = (dac.voltage_lut() for dac in dacs)
        assert np.shares_memory(lut_a.bounds, lut_b.bounds)
        assert not np.array_equal(lut_a.values, lut_b.values)
        levels, exponents = configs[0].mantissa_levels, configs[0].exponent_levels
        codes = np.array([(1.0 + m / levels) * 2.0 ** e
                          for e in range(exponents) for m in range(levels)])
        ties = 0.5 * (codes[:-1] + codes[1:])  # binade boundaries included
        top = configs[0].max_code_value
        values = np.concatenate([
            np.linspace(0.0, top * 1.1, 200001), codes, ties,
            np.nextafter(ties, 0.0), np.nextafter(ties, np.inf),
            [1.0 - 0.5 / levels, np.nextafter(1.0 - 0.5 / levels, 0.0)],
        ])
        for dac, lut in zip(dacs, (lut_a, lut_b)):
            reference = dac.convert_value(np.clip(values, 0.0, top))
            assert bitwise_equal(reference, lut(values))

    def test_static_mismatch_shared_between_identical_configs(self):
        config = DACConfig(reference_mismatch_sigma=0.01, seed=9)
        assert FPDAC(config).reference is FPDAC(config).reference
        other = DACConfig(reference_mismatch_sigma=0.01, seed=10)
        assert FPDAC(config).reference is not FPDAC(other).reference


class TestADCConversionLUT:
    """``FPADC.conversion_lut``: the charge → code-value step table."""

    @pytest.mark.parametrize("config", [
        ADCConfig(),
        ADCConfig(exponent_bits=3, mantissa_bits=4),
        ADCConfig(unit_capacitance=37e-15),
    ])
    def test_bit_identical_to_convert(self, config):
        adc = FPADC(config, channels=8)
        lut = adc.conversion_lut()
        fs = adc.full_scale_current
        rng = np.random.default_rng(5)
        currents = np.concatenate([
            rng.uniform(-0.1 * fs, 1.3 * fs, size=20000),  # incl. overflow
            rng.uniform(0.0, 0.02 * fs, size=5000),        # underflow region
            lut.bounds / config.integration_time,
            np.nextafter(lut.bounds, 0.0) / config.integration_time,
            [0.0, fs, 2.0 * fs],
        ]).reshape(-1, 1)
        currents = np.tile(currents, (1, 4))
        reference = adc.convert(currents)
        charge = np.clip(currents, 0.0, None) * config.integration_time
        value = lut(charge)
        assert bitwise_equal(reference.value, value)
        # The counters' tests: saturated == at or above the top bound,
        # underflow == a zero read-out.
        assert np.array_equal(reference.saturated, charge >= lut.bounds[-1])
        assert np.array_equal(reference.underflow, value == 0.0)
        assert reference.saturated.any() and reference.underflow.any()

    @pytest.mark.parametrize("config", [
        ADCConfig(comparator_noise=1e-4),
        ADCConfig(comparator_offset=0.01),
        ADCConfig(capacitor_mismatch_sigma=0.01),
        ADCConfig(subnormal_readout=True),
    ])
    def test_stochastic_or_nonmonotone_configs_decline(self, config):
        assert FPADC(config, channels=4).conversion_lut() is None


class TestRawDomainBounds:
    """The compiled tile ranks raw converter inputs (currents, |x|) against
    bounds pulled back through the generic input transforms.  Random data
    almost never lands on a boundary, so these pin the pulled-back bounds
    at every bound ±1 ulp as well as on random signed inputs."""

    @staticmethod
    def probes(bounds, spread, rng):
        specials = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan,
                    1e308, -1e308]
        return np.concatenate([
            bounds, np.nextafter(bounds, -np.inf), np.nextafter(bounds, np.inf),
            rng.standard_normal(4000) * spread, specials])

    @given(
        differential=st.booleans(),
        bits=st.sampled_from([(2, 5), (3, 4)]),
        integration_time=st.floats(min_value=10e-9, max_value=1e-6),
        full_scale=st.floats(min_value=1e-8, max_value=1e-3),
        a_max=st.floats(min_value=1e-6, max_value=1e4),
        seed=st.integers(min_value=0, max_value=2 ** 16),
    )
    @settings(max_examples=25, deadline=None)
    def test_raw_ranks_equal_composed_ranks(self, differential, bits,
                                            integration_time, full_scale,
                                            a_max, seed):
        e, m = bits
        config = MacroConfig(
            adc=ADCConfig(exponent_bits=e, mantissa_bits=m,
                          integration_time=integration_time),
            dac=DACConfig(exponent_bits=e, mantissa_bits=m),
            differential_columns=differential,
            device_statistics=quiet_stats())
        rng = np.random.default_rng(seed)
        macro = AFPRMacro(config, rng=np.random.default_rng(seed))
        macro.program_weights(rng.standard_normal((16, 6)) * 0.2)
        macro.set_activation_scale(a_max)
        macro.set_adc_full_scale_current(full_scale)
        tile = CompiledTile(macro, StageProfile())

        # Current domain: adc(I) == adc(min(max(I, 0) * T, max_charge))
        # times the value-to-current constant.
        adc = macro.adc.conversion_lut()
        currents = self.probes(tile.adc.bounds, full_scale, rng)
        charge = np.clip(currents, 0.0, None) * integration_time
        with np.errstate(over="ignore"):
            rank = contract_rank(adc.bounds, np.minimum(charge, adc.bounds[-1]))
        measured = tile.adc(currents)
        assert bitwise_equal(
            measured, adc.values[rank] * macro.adc.value_to_current(1.0))
        # The counters' tests == the top and the bottom charge rank.
        saturated = currents >= tile.adc_top
        assert np.array_equal(saturated, rank == adc.bounds.size)
        assert np.array_equal(measured == 0.0, rank == 0)
        assert np.count_nonzero(saturated) > 0
        assert np.count_nonzero(measured == 0.0) > 0

        # Activation domain: code(|x|) == rank in dac(min(|x| / scale, clamp)).
        dac = macro.dac.voltage_lut()
        acts = self.probes(tile.act_codes.bounds, a_max, rng)
        with np.errstate(over="ignore"):
            expected = contract_rank(dac.bounds, np.minimum(
                np.abs(acts) / macro.activation_scale, dac.bounds[-1]))
        assert np.array_equal(tile.act_codes(np.abs(acts)), expected)

    @pytest.mark.parametrize("make_config", [e2m5_macro_config, e3m4_macro_config])
    def test_plan_fix_up_under_two_percent(self, make_config, monkeypatch):
        # Counted work, not wall time: of the elements a ResNet-lite plan's
        # converter tables look up, at most 2 % reach the searchsorted
        # fix-up, and no table outgrows the cell cap.
        dataset = SyntheticImageDataset(DatasetConfig(num_classes=10, image_size=16,
                                                      seed=0))
        images, _ = dataset.generate(96)
        model = build_resnet_lite(stage_widths=(8, 16, 32), seed=0)
        context = ExecutionContext(
            calibration=images[:32], seed=0, max_mapped_layers=None,
            macro_config=make_config(device_statistics=quiet_stats()))
        counted = []
        fix_up = StepTable._fix_up

        def counting_fix_up(table, v, out, flags):
            missed = fix_up(table, v, out, flags)
            counted.append((missed, v.size))
            return missed

        with ModelPlan(model, AnalogBackend(), context) as plan:
            monkeypatch.setattr(StepTable, "_fix_up", counting_fix_up)
            plan.forward(images[32:])
            tiles = [tile for layer in compiled_layers(plan)
                     for tile in layer.tiles]
        missed, converted = np.sum(counted, axis=0)
        assert len(tiles) == 10 and all(isinstance(t, CompiledTile) for t in tiles)
        assert converted >= 64 * 16 * 16 * 8
        assert missed <= 0.02 * converted
        tables = {id(t): t for tile in tiles for t in (tile.adc, tile.act_codes)}
        assert all(t.cells <= MAX_TABLE_CELLS for t in tables.values())


# ----------------------------------------------------------------------
# Tile and layer level
# ----------------------------------------------------------------------
def programmed_macro_pair(config=None, in_features=48, out_features=12, seed=11):
    """Two identically-constructed macros (generic vs. to-be-compiled)."""
    config = config if config is not None else MacroConfig(
        device_statistics=quiet_stats())
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((in_features, out_features)) * 0.2
    calibration = np.abs(rng.standard_normal((16, in_features)))
    macros = []
    for _ in range(2):
        macro = AFPRMacro(config, rng=np.random.default_rng(seed))
        macro.program_weights(weights)
        macro.calibrate(calibration)
        macros.append(macro)
    return macros


class TestCompiledTile:
    def test_bit_identical_including_sign_passes(self):
        generic, compiled_host = programmed_macro_pair()
        tile = CompiledTile(compiled_host, StageProfile())
        rng = np.random.default_rng(12)
        acts = rng.standard_normal((20, generic.in_features))  # mixed signs
        assert bitwise_equal(generic.matvec(acts), tile.matvec(acts))
        assert generic.stats.conversions == compiled_host.stats.conversions

    def test_bit_identical_on_underflow_and_overflow_codes(self):
        # Activations spanning far beyond the calibrated range exercise DAC
        # saturation, flush-to-zero, ADC saturation and ADC underflow codes.
        generic, compiled_host = programmed_macro_pair()
        tile = CompiledTile(compiled_host, StageProfile())
        rng = np.random.default_rng(13)
        base = rng.standard_normal((24, generic.in_features))
        extremes = np.concatenate([
            base * 1e3,   # overflow: DAC and ADC saturation
            base * 1e-5,  # underflow: flush-to-zero and sub-threshold charge
            base,
        ])
        out_generic = generic.matvec(extremes)
        out_compiled = tile.matvec(extremes)
        assert bitwise_equal(out_generic, out_compiled)
        assert generic.stats.adc_saturations == compiled_host.stats.adc_saturations
        assert generic.stats.adc_underflows == compiled_host.stats.adc_underflows
        assert generic.stats.adc_saturations > 0
        assert generic.stats.adc_underflows > 0

    def test_offset_mapping_with_clipped_dac_voltages_bit_identical(self):
        # Offset (non-differential) mapping removes the common-mode current
        # using the voltage sum taken *before* the crossbar input clip; a
        # PGA gain error pushes some DAC outputs past v_input_max, so this
        # pins the compiled tile to the generic path's pre-clip sum.
        config = MacroConfig(
            differential_columns=False,
            device_statistics=quiet_stats(),
            dac=DACConfig(pga_gain_error_sigma=0.05, seed=3),
        )
        generic, compiled_host = programmed_macro_pair(config=config)
        dac_table = compiled_host.dac.voltage_lut().values
        assert np.max(dac_table) > config.dac.v_full_scale  # clip engages
        tile = CompiledTile(compiled_host, StageProfile())
        rng = np.random.default_rng(17)
        acts = rng.standard_normal((16, generic.in_features))
        assert bitwise_equal(generic.matvec(acts), tile.matvec(acts))

    def test_blocked_batches_match(self):
        generic, compiled_host = programmed_macro_pair(in_features=8, out_features=4)
        tile = CompiledTile(compiled_host, StageProfile())
        rows = AFPRMacro.ANALOG_PASS_BLOCK_ROWS + 37  # forces block split
        rng = np.random.default_rng(14)
        acts = rng.standard_normal((rows, 8))
        assert bitwise_equal(generic.matvec(acts), tile.matvec(acts))


class TestCompiledMappedLayer:
    @pytest.mark.parametrize("accumulate_format", [
        pytest.param(FP16, id="FP16"), pytest.param(E5M2, id="E5M2"),
        pytest.param(None, id="float64")])
    def test_multi_tile_layer_bit_identical(self, accumulate_format):
        # 600 input features x 150 outputs: two row tiles (576 + 24) and two
        # column tiles (128 + 22), exercising the routing adder across both
        # and its in-place write into each column range of the output.
        config = MacroConfig(device_statistics=quiet_stats())
        rng = np.random.default_rng(15)
        weights = rng.standard_normal((600, 150)) * 0.1
        calibration = np.abs(rng.standard_normal((8, 600)))
        generic = MappedLayer(weights, macro_config=config,
                              routing_adder=RoutingAdder(accumulate_format))
        generic.calibrate(calibration)
        host = MappedLayer(weights, macro_config=config,
                           routing_adder=RoutingAdder(accumulate_format))
        host.calibrate(calibration)
        compiled = CompiledMappedLayer(host, StageProfile())
        assert len(host.macros) == 4
        assert compiled.compiled_tiles == 4

        acts = rng.standard_normal((10, 600))
        assert bitwise_equal(generic.forward(acts), compiled.forward(acts))
        assert generic.total_conversions() == compiled.total_conversions()
        # Routing-adder accounting matches too.
        assert generic.routing_adder.additions == host.routing_adder.additions

    def test_row_range_without_shared_codec_bit_identical(self):
        # A recalibrated tile breaks its row range's shared code table, so
        # each tile of that range encodes its own slice with its own codec.
        config = MacroConfig(device_statistics=quiet_stats())
        rng = np.random.default_rng(18)
        weights = rng.standard_normal((600, 150)) * 0.1
        calibration = np.abs(rng.standard_normal((8, 600)))
        layers = []
        for _ in range(2):
            layer = MappedLayer(weights, macro_config=config)
            layer.calibrate(calibration)
            layer.macros[1].set_activation_scale(3.7)
            layers.append(layer)
        generic, host = layers
        compiled = CompiledMappedLayer(host, StageProfile())
        assert len({(start, stop) for _, placements in compiled.column_ranges
                    for start, stop, _ in placements}) == 2
        assert compiled.coded_row_ranges == 1

        acts = rng.standard_normal((10, 600))
        assert bitwise_equal(generic.forward(acts), compiled.forward(acts))
        assert generic.total_conversions() == compiled.total_conversions()
        assert generic.routing_adder.additions == host.routing_adder.additions

    def test_stochastic_tiles_fall_back_but_still_match(self):
        # DAC output noise forces the generic fallback inside the compiled
        # layer; results still match because it *is* the generic path.
        config = MacroConfig(device_statistics=quiet_stats(),
                             dac=DACConfig(output_noise_rms=1e-5))
        rng = np.random.default_rng(16)
        weights = rng.standard_normal((32, 8)) * 0.1
        calibration = np.abs(rng.standard_normal((8, 32)))
        generic = MappedLayer(weights, macro_config=config)
        generic.calibrate(calibration)
        host = MappedLayer(weights, macro_config=config)
        host.calibrate(calibration)
        compiled = CompiledMappedLayer(host, StageProfile())
        assert compiled.compiled_tiles == 0
        acts = rng.standard_normal((6, 32))
        assert bitwise_equal(generic.forward(acts), compiled.forward(acts))


class TestCompiledRoutingAdder:
    @pytest.mark.parametrize("accumulate_format", [
        pytest.param(FP16, id="FP16"), pytest.param(E5M2, id="E5M2"),
        pytest.param(FloatFormat(4, 3, signed=False), id="unsigned"),
        pytest.param(None, id="float64")])
    @pytest.mark.parametrize("count", [1, 3])
    def test_bit_identical_to_reference_adder(self, accumulate_format, count):
        # Signed zeros, tiny and huge magnitudes, written through a
        # transposed (n, h, w, cols) view as the planned conv passes it.
        rng = np.random.default_rng(count)
        partials = []
        for _ in range(count):
            partial = rng.standard_normal((2 * 3 * 4, 5))
            partial[rng.random(partial.shape) < 0.2] = -0.0
            partial[0, :3] = [1e-30, -1e-30, 1e30]
            partials.append(partial)
        reference = RoutingAdder(accumulate_format)
        compiled_host = RoutingAdder(accumulate_format)
        adder = _CompiledRoutingAdder(compiled_host, PlanArena(), "a")
        out = np.full((2, 5, 3, 4), np.nan).transpose(0, 2, 3, 1)
        adder.accumulate([p.copy() for p in partials], out)
        expected = reference.accumulate(partials).reshape(out.shape)
        assert bitwise_equal(out, expected)
        assert compiled_host.additions == reference.additions


# ----------------------------------------------------------------------
# Code-domain execution
# ----------------------------------------------------------------------
class TestPlanArena:
    def test_grows_and_reuses(self):
        arena = PlanArena()
        a = arena.take("x", (4, 8))
        b = arena.take("x", (3, 8))
        assert b.base is a.base  # same slab reused for the smaller request
        c = arena.take("x", (64, 64))
        assert c.base is not a.base  # grew
        assert arena.take("x", (64, 64)).base is c.base
        # distinct names and dtypes never share a slab
        assert arena.take("y", (4, 8)).base is not arena.take("x", (4, 8)).base
        assert arena.take("x", (4, 8), np.int64).dtype == np.int64

    def test_pickling_drops_slabs(self):
        arena = PlanArena()
        arena.take("x", (1024, 1024))
        clone = pickle.loads(pickle.dumps(arena))
        assert clone.nbytes() == 0
        assert arena.nbytes() > 0
        clone.take("x", (4, 4))[...] = 1.0  # regrows and works


#: Every accumulation format the compiled routing adder rounds exactly.
ROUNDING_FORMATS = [
    pytest.param(fmt, id=fmt.name)
    for fmt in (FP16, BF16, E2M5, E3M4, E4M3, E5M2,
                FloatFormat(3, 4, subnormals=False, name="E3M4-nosub"))
]


class TestFP16GridQuantize:
    @pytest.mark.parametrize("fmt", ROUNDING_FORMATS)
    def test_bit_identical_to_reference_everywhere(self, fmt):
        grid = fmt.all_values(include_negative=True)
        mids = 0.5 * (grid[:-1] + grid[1:])
        top = np.linspace(2.0 ** fmt.max_exponent, 2.0 * fmt.max_value, 4001)
        rng = np.random.default_rng(8)
        x = np.concatenate([
            rng.standard_normal(50000) * 1e5,
            rng.standard_normal(20000) * 1e-6,  # subnormal / underflow region
            grid, mids,
            np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf),
            [0.0, -0.0, np.inf, -np.inf, 65504.0, 65520.0, 65536.0,
             131008.0, 131040.0, 131072.0, -131040.0, 1e308, -1e308,
             5e-324, -5e-324, 2.0 ** -24, 2.0 ** -25, -2.0 ** -25, np.nan],
            # The format's own subnormal region, its smallest normal ±1 ulp
            # and its top binade up to 2*max.
            rng.uniform(-1.0, 1.0, 20000) * fmt.min_normal,
            [fmt.min_normal, -fmt.min_normal],
            np.nextafter(fmt.min_normal, [0.0, 1.0]),
            np.nextafter(-fmt.min_normal, [0.0, -1.0]),
            top, -top,
        ])
        with np.errstate(over="ignore"):
            reference = fmt.quantize(x)
        fast = round_to_format(fmt, x)
        assert bitwise_equal(reference, fast)

    @pytest.mark.parametrize("fmt", ROUNDING_FORMATS)
    def test_zeros_limits_infinities_and_nan_in_every_mix(self, fmt, monkeypatch):
        # Zeros and ±max_value need no clip pass (routing-adder partials
        # are full of zeros); ±inf and NaN take it, alone or mixed.
        clips = []
        clip = np.clip

        def counting_clip(*args, **kwargs):
            clips.append(1)
            return clip(*args, **kwargs)

        monkeypatch.setattr(np, "clip", counting_clip)
        specials = [0.0, -0.0, fmt.max_value, -fmt.max_value,
                    np.inf, -np.inf, np.nan]
        normal = [1.0, -0.75, 0.3 * fmt.min_normal]
        for mask in range(1 << len(specials)):
            picked = [v for i, v in enumerate(specials) if mask >> i & 1]
            for x in (np.array(picked), np.array(normal + picked)):
                with np.errstate(over="ignore"):
                    reference = fmt.quantize(x)
                del clips[:]
                assert bitwise_equal(reference, round_to_format(fmt, x))
                off_limits = mask >> 4 != 0  # inf, -inf or NaN picked
                assert len(clips) == int(off_limits and x.size > 0)


class TestRowCodec:
    def test_encode_matches_generic_sign_split_ranking(self):
        _, host = programmed_macro_pair()
        tile = CompiledTile(host, StageProfile())
        codec = RowCodec(tile)
        rng = np.random.default_rng(21)
        acts = np.concatenate([
            rng.standard_normal((6, tile.in_features)),
            rng.standard_normal((2, tile.in_features)) * 1e3,   # saturation
            rng.standard_normal((2, tile.in_features)) * 1e-7,  # flush to zero
            np.zeros((1, tile.in_features)),
        ])
        codes = codec.encode(acts, PlanArena(), "t")
        # The generic path ranks each sign pass separately; the signed code
        # composes both: rank of |x| plus the sign in the table offset.
        dac_bounds = host.dac.voltage_lut().bounds
        scale, clamp = host.activation_scale, dac_bounds[-1]
        pos_rank = contract_rank(dac_bounds, np.minimum(
            np.clip(acts, 0.0, None) / scale, clamp))
        neg_rank = contract_rank(dac_bounds, np.minimum(
            np.clip(-acts, 0.0, None) / scale, clamp))
        volts = np.concatenate([tile.dac_volts, np.zeros(codec.levels)])
        assert bitwise_equal(codec.volts_pos[codes], volts[pos_rank])
        assert bitwise_equal(codec.volts_neg[codes],
                             np.where(acts < 0, volts[neg_rank], 0.0))
        # Sign flag: any code >= levels on a row == any negative element.
        assert np.array_equal(np.any(codes >= codec.levels, axis=1),
                              np.any(acts < 0, axis=1))

    def test_non_negative_input_skips_the_sign_passes(self):
        # A ReLU-fed input (-0.0 included) is looked up as it is: the same
        # codes as the signed path, and no |x| or sign-offset slab.
        _, host = programmed_macro_pair()
        codec = RowCodec(CompiledTile(host, StageProfile()))
        rng = np.random.default_rng(22)
        acts = np.maximum(rng.standard_normal((8, host.in_features)), 0.0)
        acts[0, :3] = [-0.0, 0.0, 1e3]
        signed = acts.copy()
        signed[1, 0] = -1.0  # one negative sends the batch down the signed path
        arena = PlanArena()
        codes = codec.encode(acts, arena, "t").copy()
        assert not [name for name, _ in arena._slabs if name in ("t:mag", "t:off")]
        signed_codes = codec.encode(signed, PlanArena(), "t")
        assert np.array_equal(codes[1:, 1:], signed_codes[1:, 1:])
        assert np.array_equal(codes[0], signed_codes[0])
        assert signed_codes[1, 0] >= codec.levels > codes.max()

    @given(
        differential=st.booleans(),
        read_noise=st.booleans(),
        in_features=st.integers(min_value=3, max_value=40),
        out_features=st.integers(min_value=1, max_value=10),
        magnitude=st.sampled_from([1e-4, 1.0, 50.0]),
        seed=st.integers(min_value=0, max_value=2 ** 16),
    )
    @settings(max_examples=12, deadline=None)
    def test_coded_layer_bit_identical_random_configs(
            self, differential, read_noise, in_features, out_features,
            magnitude, seed):
        """Property: for random macro configs and activation regimes the
        compiled layer reproduces the generic mapped layer bit for bit
        (logits, conversions and routing-adder accounting)."""
        config = MacroConfig(
            differential_columns=differential,
            read_noise_enabled=read_noise,
            device_statistics=quiet_stats(
                read_noise_sigma=0.005 if read_noise else 0.0),
        )
        rng = np.random.default_rng(seed)
        weights = rng.standard_normal((in_features, out_features)) * 0.3
        calibration = np.abs(rng.standard_normal((6, in_features))) * magnitude
        generic = MappedLayer(weights, macro_config=config)
        generic.calibrate(calibration)
        host = MappedLayer(weights, macro_config=config)
        host.calibrate(calibration)
        compiled = CompiledMappedLayer(host, StageProfile())
        assert compiled.coded_row_ranges == 1

        acts = rng.standard_normal((9, in_features)) * magnitude
        assert bitwise_equal(generic.forward(acts), compiled.forward(acts))
        assert generic.total_conversions() == compiled.total_conversions()
        assert generic.routing_adder.additions == host.routing_adder.additions


# ----------------------------------------------------------------------
# Whole-model plans
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def plan_setup():
    """A trained CNN (with a >576-feature Linear → multi-tile mapping)."""
    dataset = SyntheticImageDataset(DatasetConfig(num_classes=4, image_size=14,
                                                  noise_sigma=0.3, seed=31))
    x_train, y_train, x_test, y_test = dataset.train_test_split(192, 32)
    model = Sequential(
        Flatten(),
        Linear(588, 150, rng=np.random.default_rng(0)),
        ReLU(),
        Linear(150, 4, rng=np.random.default_rng(1)),
    )
    Trainer(model, SGD(model.parameters(), learning_rate=0.05), batch_size=32).fit(
        x_train, y_train, epochs=1
    )
    return model, x_train, x_test, y_test


def zoo_model(name):
    """An untrained demo-style CNN, ResNet-lite or MobileNet-lite (4
    classes) plus a batch of 14 signed 10x10 images."""
    rng = np.random.default_rng(21)
    if name == "demo_cnn":
        model = Sequential(
            Conv2d(3, 8, 3, padding=1, rng=rng),
            ReLU(),
            Conv2d(8, 12, 3, stride=2, padding=1, rng=rng),
            ReLU(),
            GlobalAvgPool2d(),
            Linear(12, 4, rng=rng),
        )
    elif name == "resnet_lite":
        model = build_resnet_lite(num_classes=4, stage_widths=(4, 8),
                                  blocks_per_stage=1, seed=5)
    else:
        model = build_mobilenet_lite(num_classes=4, widths=(8, 16), seed=3)
    # Untrained BN statistics commute with ReLU; these do not.
    for layer in model.modules():
        if isinstance(layer, BatchNorm2d):
            size = layer.num_features
            layer.running_mean = rng.normal(0.0, 0.3, size)
            layer.running_var = rng.uniform(0.5, 2.0, size)
            layer.gamma.value = rng.normal(1.0, 0.3, size)
            layer.beta.value = rng.normal(0.0, 0.3, size)
    return model, rng.standard_normal((14, 3, 10, 10))


def compiled_layers(plan):
    """The plan's compiled mapped layers, in ``L<i>`` order."""
    return [op.compiled for op in plan.ops if hasattr(op, "compiled")]


def plan_context(x_train, **overrides):
    defaults = dict(
        calibration=x_train[:12],
        macro_config=MacroConfig(device_statistics=quiet_stats()),
        max_mapped_layers=1,
        seed=0,
    )
    defaults.update(overrides)
    return ExecutionContext(**defaults)


class TestModelPlan:
    @pytest.mark.parametrize("backend", ["ideal", "fake_quant", "fast_noise", "analog"])
    def test_planned_bit_identical_to_generic_all_backends(self, plan_setup, backend):
        model, x_train, x_test, y_test = plan_setup
        context = plan_context(x_train)
        planned = run_model(model, x_test, y_test, backend=backend, context=context)
        generic = run_model(model, x_test, y_test, backend=backend,
                            context=plan_context(x_train, compile_plan=False))
        assert bitwise_equal(planned.logits, generic.logits), backend
        assert planned.conversions == generic.conversions
        assert planned.accuracy == generic.accuracy
        # The ideal backend has nothing to compile; the oracle never does.
        assert planned.plan_mode == ("generic" if backend == "ideal"
                                     else "compiled")
        assert generic.plan_mode == "generic"

    def test_conv_model_threads_codes_through_im2col(self):
        # A padded conv (zero-pad codes!), signed inputs (both sign passes)
        # and a bias: the planned forward encodes the un-expanded input,
        # expands its DAC voltages into patches and must reproduce the
        # generic hook path bit for bit.
        dataset = SyntheticImageDataset(DatasetConfig(num_classes=4, image_size=10,
                                                      noise_sigma=0.3, seed=5))
        x_train, y_train, x_test, _ = dataset.train_test_split(96, 16)
        model = Sequential(
            Conv2d(3, 6, 3, padding=1, rng=np.random.default_rng(2)),
            ReLU(),
            GlobalAvgPool2d(),
            Linear(6, 4, rng=np.random.default_rng(3)),
        )
        Trainer(model, SGD(model.parameters(), learning_rate=0.05),
                batch_size=32).fit(x_train, y_train, epochs=1)
        context = plan_context(x_train)
        backend = AnalogBackend()
        runner = BatchRunner(model, backend, context=context)
        try:
            mapped = compiled_layers(runner.plan)[0]
            assert mapped.full_row_codec is not None  # voltage expansion on
            coded = runner.forward(x_test)
        finally:
            runner.close()
        generic = run_model(model, x_test, backend="analog",
                            context=plan_context(x_train, compile_plan=False))
        assert bitwise_equal(coded, generic.logits)

    def test_conv_sign_pass_decided_before_im2col(self):
        # Layer 0 (stride 3) sees negatives only in pixels no patch covers,
        # so its code map is signed but no patch row is; layer 1 is
        # post-ReLU and never signed.  Both must match the generic path,
        # conversions included (no spurious second sign pass).
        dataset = SyntheticImageDataset(DatasetConfig(num_classes=4, image_size=10,
                                                      noise_sigma=0.3, seed=6))
        x_train, y_train, x_test, _ = dataset.train_test_split(96, 16)
        model = Sequential(
            Conv2d(3, 4, 2, stride=3, rng=np.random.default_rng(4)),
            ReLU(),
            Conv2d(4, 6, 2, padding=1, rng=np.random.default_rng(5)),
            ReLU(),
            GlobalAvgPool2d(),
            Linear(6, 4, rng=np.random.default_rng(6)),
        )
        Trainer(model, SGD(model.parameters(), learning_rate=0.05),
                batch_size=32).fit(x_train, y_train, epochs=1)
        images = np.abs(x_test)
        images[:, :, 2, :] = -1.0  # rows 2, 5, 8 are between the stride-3 patches
        images[:, :, 5, 4] = -0.5
        context = plan_context(x_train, max_mapped_layers=None)
        planned = run_model(model, images, backend="analog", context=context)
        generic = run_model(model, images, backend="analog",
                            context=plan_context(x_train, max_mapped_layers=None,
                                                 compile_plan=False))
        assert planned.plan_mode == "compiled"
        assert bitwise_equal(planned.logits, generic.logits)
        assert planned.conversions == generic.conversions

    @pytest.mark.parametrize("case", ["mobilenet", "offset_mapping", "column_tiles"])
    def test_conv_voltage_expansion_bit_identical_to_oracle(self, case):
        # Depthwise convs (one row range per group, no full-row codec) expand
        # their float input; pointwise and dense convs expand DAC voltages.
        # Offset mapping gathers the raw voltage row sums through the same
        # index; a conv over two column tiles shares one voltage slab (and,
        # under offset mapping, one set of row sums).  Both feed a strided
        # 1x1 conv, which converts only the pixels it reads.
        dataset = SyntheticImageDataset(DatasetConfig(num_classes=4, image_size=10,
                                                      noise_sigma=0.3, seed=8))
        x_train, _, x_test, _ = dataset.train_test_split(32, 16)
        macro_config = MacroConfig(device_statistics=quiet_stats())
        if case == "mobilenet":
            model = build_mobilenet_lite(num_classes=4, widths=(8, 16), seed=3)
        else:
            # Two column tiles either way: 128 signed outputs fit one
            # differential tile, 256 one offset-mapped tile.
            out_channels = 130 if case == "column_tiles" else 260
            model = Sequential(
                Conv2d(3, out_channels, 3, padding=1, rng=np.random.default_rng(7)),
                ReLU(),
                Conv2d(out_channels, 6, 1, stride=2, rng=np.random.default_rng(8)),
                GlobalAvgPool2d(),
                Linear(6, 4, rng=np.random.default_rng(9)),
            )
            if case == "offset_mapping":
                macro_config = dataclasses.replace(macro_config,
                                                   differential_columns=False)
        context = plan_context(x_train, macro_config=macro_config,
                               max_mapped_layers=None)
        backend = AnalogBackend()
        with BatchRunner(model, backend, context=context) as runner:
            mapped = compiled_layers(runner.plan)
            before = runner.conversions()
            planned = runner.forward(x_test)
            conversions = runner.conversions() - before
        oracle = run_model(model, x_test, backend="analog",
                           context=dataclasses.replace(context, compile_plan=False))
        assert bitwise_equal(planned, oracle.logits)
        assert conversions == oracle.conversions
        if case == "mobilenet":
            groups = [getattr(layer, "groups", 1) for layer in model.matmul_layers()]
            assert max(groups) > 1
            for group_count, compiled in zip(groups, mapped):
                assert (compiled.full_row_codec is None) == (group_count > 1)
        else:
            assert mapped[0].full_row_codec.raw == (case == "offset_mapping")
            assert len(mapped[0].column_ranges) == 2
            assert mapped[0].coded_row_ranges == 1

    @pytest.mark.parametrize("backend", ["ideal", "fake_quant", "fast_noise", "analog"])
    @pytest.mark.parametrize("name", ["demo_cnn", "resnet_lite", "mobilenet_lite"])
    def test_op_program_matches_model_forward_and_oracle(self, name, backend):
        # Lowering fidelity: the compile_plan=False program equals the
        # backend's own model.forward bit for bit (fresh backend, same
        # seed), and the compiled program equals that oracle — logits and
        # conversions, every layer mapped.  An empty batch gives
        # (0, classes) logits on both.
        model, images = zoo_model(name)
        context = ExecutionContext(
            calibration=images[:8], max_mapped_layers=None, seed=0,
            macro_config=MacroConfig(device_statistics=quiet_stats()))
        direct_backend = create_backend(backend)
        direct_backend.prepare(model, context)
        try:
            direct = direct_backend.forward(model, images)
            direct_conversions = direct_backend.conversions()
        finally:
            direct_backend.teardown(model)
        results = {}
        for compile_plan in (False, True):
            with BatchRunner(model, backend, context=dataclasses.replace(
                    context, compile_plan=compile_plan)) as runner:
                logits = runner.forward(images)
                results[compile_plan] = (logits, runner.conversions())
                empty = runner.forward(images[:0])
            assert empty.shape == (0, 4) and empty.dtype == np.float64
        assert bitwise_equal(results[False][0], direct)
        assert results[False][1] == direct_conversions
        assert bitwise_equal(results[True][0], results[False][0])
        assert results[True][1] == results[False][1]

    def test_two_plans_on_one_backend_stay_independent(self):
        # Neither plan rewrites the model or the adapters, so both compile,
        # and closing one (which detaches the backend's adapters) leaves
        # the other's compiled ops running unchanged.
        model, images = zoo_model("demo_cnn")
        context = ExecutionContext(
            calibration=images[:8], max_mapped_layers=None, seed=0,
            macro_config=MacroConfig(
                device_statistics=quiet_stats(read_noise_sigma=0.0),
                read_noise_enabled=False))
        backend = AnalogBackend()
        first = BatchRunner(model, backend, context=context)
        second = BatchRunner(model, backend, context=context)
        try:
            assert first.plan_mode == second.plan_mode == "compiled"
            before = second.forward(images)
            assert bitwise_equal(first.forward(images), before)
            first.close()
            conversions = second.conversions()
            assert bitwise_equal(second.forward(images), before)
            assert second.conversions() > conversions
        finally:
            first.close()
            second.close()

    def test_registered_backends_are_the_expected_four(self):
        assert set(available_backends()) == {"ideal", "fake_quant",
                                             "fast_noise", "analog"}

    def test_multi_tile_model_plan_compiles_all_tiles(self, plan_setup):
        model, x_train, x_test, _ = plan_setup
        backend = AnalogBackend()
        runner = BatchRunner(model, backend, context=plan_context(x_train))
        try:
            adapter = backend._mapped.adapters[0]
            (compiled,) = compiled_layers(runner.plan)
            assert compiled.mapped is adapter.mapped
            assert compiled.compiled_tiles == len(compiled.tiles) == 4
            logits = runner.forward(x_test[:8])
            assert logits.shape == (8, 4)
            # Flatten and a multi-tile routing adder on an empty batch.
            assert runner.forward(x_test[:0]).shape == (0, 4)
            profile = runner.stage_profile()
            assert profile["dac_s"] > 0 and profile["adc_s"] > 0
            # The plan runs its own ops: the model and the adapter keep
            # their generic forward and mapped layer.
            assert isinstance(adapter.mapped, MappedLayer)
            for layer in model.matmul_layers():
                assert "forward" not in layer.__dict__
        finally:
            runner.close()
        # close() only tore the backend off the model.
        assert isinstance(adapter.mapped, MappedLayer)
        for layer in model.matmul_layers():
            assert layer.quantization is None

    def test_plan_survives_pickling_bit_identically(self, plan_setup):
        import copy

        model, x_train, x_test, _ = plan_setup
        replica = copy.deepcopy(model)
        runner = BatchRunner(replica, "analog", context=plan_context(x_train))
        try:
            clone = pickle.loads(pickle.dumps(runner.plan))
            a = runner.plan.forward(x_test[:6])
            b = clone.forward(x_test[:6])
            assert bitwise_equal(a, b)
            assert runner.conversions() == clone.conversions()
        finally:
            runner.close()

    def test_plan_pickled_after_forward_matches_live_plan(self):
        # Pickled after a batch-64 forward (grown arena, cached patch
        # index), the clone regrows its scratch for smaller batches and
        # tracks the live plan bit for bit, read-noise draws included.
        dataset = SyntheticImageDataset(DatasetConfig(num_classes=4, image_size=10,
                                                      noise_sigma=0.3, seed=9))
        x_train, _, x_test, _ = dataset.train_test_split(32, 64)
        model = Sequential(
            Conv2d(3, 6, 3, padding=1, rng=np.random.default_rng(10)),
            ReLU(),
            Conv2d(6, 8, 3, stride=2, padding=1, rng=np.random.default_rng(11)),
            ReLU(),
            GlobalAvgPool2d(),
            Linear(8, 4, rng=np.random.default_rng(12)),
        )
        runner = BatchRunner(model, "analog",
                             context=plan_context(x_train, max_mapped_layers=None))
        try:
            runner.plan.forward(x_test)
            clone = pickle.loads(pickle.dumps(runner.plan))
            for rows in (1, 5):
                live = runner.plan.forward(x_test[:rows])
                cloned = clone.forward(x_test[:rows])
                assert bitwise_equal(live, cloned)
                assert runner.conversions() == clone.conversions()
        finally:
            runner.close()

    def test_prepared_backend_reuse_still_caches(self, plan_setup):
        # Passing the same analog backend instance to successive runners
        # must keep reusing the programmed macros (no re-programming).
        model, x_train, x_test, _ = plan_setup
        backend = AnalogBackend()
        context = plan_context(x_train)
        r1 = BatchRunner(model, backend, context=context)
        mapped_first = backend._mapped
        r1.close()
        r2 = BatchRunner(model, backend, context=context)
        try:
            assert backend._mapped is mapped_first
        finally:
            r2.close()

    def test_report_carries_stage_profile(self, plan_setup):
        model, x_train, x_test, _ = plan_setup
        report = run_model(model, x_test[:8], backend="analog",
                           context=plan_context(x_train))
        assert report.stage_profile is not None
        assert report.stage_profile["total_s"] > 0
        generic = run_model(model, x_test[:8], backend="analog",
                            context=plan_context(x_train, compile_plan=False))
        assert generic.stage_profile["dac_s"] == 0.0
        # The compiled plan's scratch is reported; the oracle takes none.
        assert report.scratch_bytes >= report.largest_slab[1] > 0
        assert generic.scratch_bytes == 0 and generic.largest_slab is None
        profile = StageProfile(**{k: v for k, v in report.stage_profile.items()
                                  if k not in ("digital_s", "forwards")})
        assert 0 < profile.im2col_s + profile.adder_s <= profile.digital_s
        assert "  adder" in profile.render()

    def test_render_omits_unmetered_digital_sub_stages(self):
        # Aggregated serve/trace profiles carry no sub-stage timers.
        text = StageProfile(dac_s=0.1, total_s=1.0, forwards=1).render()
        assert "digital" in text
        assert "im2col" not in text and "adder" not in text


# ----------------------------------------------------------------------
# Calibration through the compiled op program
# ----------------------------------------------------------------------
#: Context overrides of the calibration cases (read noise on throughout).
CALIBRATION_CASES = {
    "default": {},
    "offset_columns": dict(macro_config=MacroConfig(differential_columns=False)),
    "ir_drop": dict(macro_config=MacroConfig(wire_resistance=2.0,
                                             ir_drop_enabled=True)),
    "stochastic_converters": dict(macro_config=MacroConfig(
        dac=DACConfig(output_noise_rms=1e-5),
        adc=ADCConfig(comparator_noise=1e-4))),
    "two_mapped_layers": dict(max_mapped_layers=2),
    "no_calibration": dict(calibration=None),
}


def hook_calibrated_plan(model, context):
    """A compiled plan on a backend whose mapping the hook path calibrated
    (``model.forward`` on the generic macro models), one BLAS thread."""
    backend = AnalogBackend()
    with blas.single_thread():
        backend.prepare(model, context)
    mapped = backend._mapped
    plan = ModelPlan(model, backend, context)
    assert backend._mapped is mapped  # reused: the plan calibrated nothing
    return plan, backend


def macro_states(backend, layer=None):
    """Per macro (of mapped layer ``layer`` only, if given): calibrated
    scales, counters and every generator's state."""
    adapters = backend._mapped.adapters
    if layer is not None:
        adapters = adapters[layer:layer + 1]
    return [(macro.activation_scale, macro.adc.full_scale_current,
             dataclasses.astuple(macro.stats),
             macro.device._rng.bit_generator.state,
             macro._rng.bit_generator.state)
            for adapter in adapters
            for macro in adapter.mapped.macros]


class TestCompiledCalibration:
    @pytest.mark.parametrize("case", list(CALIBRATION_CASES))
    @pytest.mark.parametrize("name", ["demo_cnn", "resnet_lite", "mobilenet_lite"])
    def test_equals_hook_path_calibration(self, name, case):
        # Each plan gets its own identically built model: calibrating
        # layer i on compiled layers 0..i-1 must give every macro the
        # scales, counters and generator states the hook path gives it,
        # and the same logits and conversions afterwards.
        _, images = zoo_model(name)
        context = dataclasses.replace(ExecutionContext(
            calibration=images[:8], max_mapped_layers=None, seed=0),
            **CALIBRATION_CASES[case])
        compiled_plan = ModelPlan(zoo_model(name)[0], AnalogBackend(), context)
        hook_plan, hook_backend = hook_calibrated_plan(zoo_model(name)[0], context)
        try:
            assert (macro_states(compiled_plan.backend)
                    == macro_states(hook_backend))
            assert ([adapter.mapped.routing_adder.additions
                     for adapter in compiled_plan.backend._mapped.adapters]
                    == [adapter.mapped.routing_adder.additions
                        for adapter in hook_backend._mapped.adapters])
            assert compiled_plan.compiled == (case != "stochastic_converters")
            for _ in range(3):
                assert bitwise_equal(compiled_plan.forward(images),
                                     hook_plan.forward(images))
                assert compiled_plan.conversions() == hook_plan.conversions()
        finally:
            compiled_plan.close()
            hook_plan.close()

    def test_compiles_each_mapped_layer_once(self, monkeypatch):
        # The one calibration forward compiles every layer as it maps it;
        # lowering reuses those ops and compiles none.
        model, images = zoo_model("resnet_lite")
        built = []
        original = CompiledMappedLayer.__init__

        def counting_init(self, mapped, *args, **kwargs):
            built.append(kwargs["key"])
            original(self, mapped, *args, **kwargs)

        monkeypatch.setattr(CompiledMappedLayer, "__init__", counting_init)
        context = ExecutionContext(calibration=images[:8], max_mapped_layers=None)
        with ModelPlan(model, AnalogBackend(), context) as plan:
            keys = [layer.key for layer in compiled_layers(plan)]
        assert sorted(built) == sorted(keys) == sorted(
            f"L{i}" for i in range(len(model.matmul_layers())))

    @pytest.mark.parametrize("compile_plan", [True, False])
    def test_prepare_runs_one_calibration_forward(self, monkeypatch, compile_plan):
        model, images = zoo_model("resnet_lite")
        calls = []
        original = GlobalAvgPool2d.forward

        def counting_forward(self, x, training=False):
            calls.append(x.shape[0])
            return original(self, x, training=training)

        monkeypatch.setattr(GlobalAvgPool2d, "forward", counting_forward)
        context = ExecutionContext(calibration=images[:8], max_mapped_layers=None,
                                   compile_plan=compile_plan)
        with ModelPlan(model, AnalogBackend(), context):
            assert calls == [8]

    def test_layer_calibration_does_not_depend_on_later_layers(self):
        # Read noise on: layer j calibrates on the outputs of layers
        # 0..j-1, each run once on its macros, so mapping more layers after
        # it moves none of its scales, counters or generator states.
        model, images = zoo_model("resnet_lite")
        context = ExecutionContext(calibration=images[:8], max_mapped_layers=None,
                                   seed=0)
        with ModelPlan(model, AnalogBackend(), context) as plan:
            full = [macro_states(plan.backend, layer=j)
                    for j in range(len(model.matmul_layers()))]
        for j, states in enumerate(full):
            prefix = dataclasses.replace(context, max_mapped_layers=j + 1)
            with ModelPlan(zoo_model("resnet_lite")[0], AnalogBackend(),
                           prefix) as plan:
                assert macro_states(plan.backend, layer=j) == states

    def test_layer_inside_an_opaque_composite(self):
        # The lowering runs a Sequential subclass whole: its layers are
        # mapped by their forward hooks, and the plan still equals the
        # hook path bit for bit.
        class Stem(Sequential):
            pass

        def build():
            rng = np.random.default_rng(8)
            return Sequential(
                Stem(Conv2d(3, 6, 3, padding=1, rng=rng), ReLU()),
                Conv2d(6, 8, 3, stride=2, padding=1, rng=rng), ReLU(),
                GlobalAvgPool2d(), Linear(8, 4, rng=rng))

        images = zoo_model("demo_cnn")[1]
        context = ExecutionContext(calibration=images[:8], max_mapped_layers=None,
                                   seed=0)
        compiled_plan = ModelPlan(build(), AnalogBackend(), context)
        hook_plan, hook_backend = hook_calibrated_plan(build(), context)
        try:
            assert len(compiled_plan.backend._mapped.adapters) == 3
            assert macro_states(compiled_plan.backend) == macro_states(hook_backend)
            for _ in range(2):
                assert bitwise_equal(compiled_plan.forward(images),
                                     hook_plan.forward(images))
                assert compiled_plan.conversions() == hook_plan.conversions()
        finally:
            compiled_plan.close()
            hook_plan.close()

    @pytest.mark.parametrize("compile_plan", [True, False])
    def test_unreached_pending_layer_raises(self, compile_plan):
        class SkipsLast(Sequential):
            def forward(self, x, training=False):
                for layer in self.layers[:-1]:
                    x = layer.forward(x, training=training)
                return x

        rng = np.random.default_rng(3)
        model = Sequential(Flatten(), SkipsLast(
            Linear(300, 6, rng=rng), ReLU(), Linear(6, 4, rng=rng)))
        images = zoo_model("demo_cnn")[1]
        backend = AnalogBackend()
        context = ExecutionContext(calibration=images[:8], max_mapped_layers=None,
                                   compile_plan=compile_plan)
        with pytest.raises(ValueError, match=r"matmul layer 1 \(Linear\)"):
            ModelPlan(model, backend, context)
        assert backend._mapped is None
        for layer in model.matmul_layers():
            assert layer.quantization is None and "forward" not in vars(layer)

    @pytest.mark.parametrize("compile_plan", [True, False])
    def test_mapped_convs_drop_training_cols(self, compile_plan):
        model, images = zoo_model("demo_cnn")
        model.forward(images, training=True)
        convs = [layer for layer in model.matmul_layers() if isinstance(layer, Conv2d)]
        assert all(conv._cache["cols"] for conv in convs)
        context = ExecutionContext(calibration=images[:8], max_mapped_layers=None,
                                   compile_plan=compile_plan)
        with ModelPlan(model, AnalogBackend(), context):
            assert not any(conv._cache.get("cols") for conv in convs)

    def test_fresh_plan_profile_is_zero_and_arena_empty(self):
        # The calibration forward ran compiled kernels on unpooled
        # scratch: none of its time or slabs outlives prepare.
        model, images = zoo_model("resnet_lite")
        context = ExecutionContext(calibration=images[:8], max_mapped_layers=None)
        with ModelPlan(model, AnalogBackend(), context) as plan:
            assert compiled_layers(plan)
            assert all(value == 0.0 for value in plan.stage_profile().values())
            assert plan.arena.nbytes() == 0 and plan.arena.pooled
            plan.forward(images)
            assert plan.stage_profile()["forwards"] == 1.0
            assert plan.arena.nbytes() > 0

    @pytest.mark.parametrize("compile_plan", [True, False])
    def test_closed_plan_dies_without_a_collection(self, compile_plan):
        # Nothing the backend or the mapping keeps refers back to the plan
        # (the calibration forward is handed over for prepare only), and
        # the plan holds no cycle, so dropping it frees its arena at once.
        model, images = zoo_model("demo_cnn")
        context = ExecutionContext(calibration=images[:8], max_mapped_layers=None,
                                   compile_plan=compile_plan)
        backend = AnalogBackend()
        gc.collect()
        gc.disable()
        try:
            plan = ModelPlan(model, backend, context)
            plan.forward(images)
            plan.close()
            ref = weakref.ref(plan)
            del plan
            assert ref() is None
        finally:
            gc.enable()
        assert backend._mapped is not None  # the mapping itself is kept


def slab_escapes(plan, images):
    """Walk the plan's op program op by op on ``images``; the indices of
    the ops after which ``x`` or a tensor on the residual stack shares
    memory with an arena slab."""
    plan.forward(images)  # grow every slab to this batch first
    slabs = list(plan.arena._slabs.values())
    assert slabs
    x, stack, escapes = np.asarray(images, dtype=np.float64), [], []
    for index, op in enumerate(plan.ops):
        x = op(x, stack)
        if any(np.shares_memory(tensor, slab)
               for tensor in (x, *stack) for slab in slabs):
            escapes.append(index)
    # No slab regrew, so no escaped view can hide in a dropped one.
    assert [id(slab) for slab in plan.arena._slabs.values()] == list(map(id, slabs))
    return escapes


SCRATCH_CASES = {
    "demo_cnn": {},
    "resnet_lite": {},
    "mobilenet_lite": {},
    "row_and_column_tiles": {},
    "offset_conv": dict(differential_columns=False),
    "fallback_tiles": dict(dac=DACConfig(output_noise_rms=1e-5)),
}


class TestSharedScratch:
    """Arena slabs are named by their role inside an op, so every layer
    draws from the same slabs; that is sound only because none outlives
    the op that took it."""

    @pytest.mark.parametrize("case", list(SCRATCH_CASES))
    def test_no_slab_escapes_an_op(self, case):
        if case == "row_and_column_tiles":
            # 600 features x 150 outputs: two row tiles and two column tiles.
            rng = np.random.default_rng(22)
            model = Sequential(Flatten(), Linear(600, 150, rng=rng), ReLU(),
                               Linear(150, 4, rng=rng))
            images = rng.standard_normal((14, 6, 10, 10))
        else:
            model, images = zoo_model(case if case in ("resnet_lite", "mobilenet_lite")
                                      else "demo_cnn")
        context = ExecutionContext(
            calibration=images[:8], max_mapped_layers=None, seed=0,
            macro_config=MacroConfig(device_statistics=quiet_stats(),
                                     **SCRATCH_CASES[case]))
        with ModelPlan(model, AnalogBackend(), context) as plan:
            layers = compiled_layers(plan)
            assert len(layers) == len(model.matmul_layers())
            if case == "row_and_column_tiles":
                first = layers[0]
                assert len(first.column_ranges) >= 2
                assert len({(start, stop) for _, placements in first.column_ranges
                            for start, stop, _ in placements}) >= 2
            elif case == "fallback_tiles":
                assert all(layer.compiled_tiles == 0 for layer in layers)
            elif case == "mobilenet_lite":
                assert any(layer.full_row_codec is None for layer in layers)
            elif case == "offset_conv":
                assert layers[0].full_row_codec.raw
            assert slab_escapes(plan, images) == []

    def test_perfbench_resnet_arena_holds_the_largest_layer(self):
        # ResNet-lite as the offline benchmark builds it: widths 8/16/32,
        # 16x16 images, batch 64, all ten layers mapped.  With a private
        # set of slabs per layer the arena held 107.5 MB.
        dataset = SyntheticImageDataset(DatasetConfig(num_classes=10, image_size=16,
                                                      seed=0))
        images, _ = dataset.generate(96)
        model = build_resnet_lite(stage_widths=(8, 16, 32), seed=0)
        context = ExecutionContext(calibration=images[:32], macro_config=MacroConfig(),
                                   seed=0)
        with ModelPlan(model, AnalogBackend(), context) as plan:
            keys = [layer.key for layer in compiled_layers(plan)]
            assert len(keys) == 10
            plan.forward(images[32:])
            assert 0 < plan.arena.nbytes() <= 32e6
            names = [name for name, _ in plan.arena._slabs]
            assert not [name for name in names if any(key in name for key in keys)]

    @pytest.mark.parametrize("name", ["demo_cnn", "resnet_lite", "mobilenet_lite"])
    def test_batch_size_changes_match_fresh_plans(self, name):
        # Slabs grown by batch 64 serve batch 1 as prefixes, then batch 64
        # again; every forward equals a fresh plan's at its size.
        model, images = zoo_model(name)
        batch = np.random.default_rng(4).standard_normal((64, 3, 10, 10))
        context = ExecutionContext(
            calibration=images[:8], max_mapped_layers=None, seed=0,
            macro_config=MacroConfig(device_statistics=quiet_stats(),
                                     read_noise_enabled=False))
        sizes = (64, 1, 64)
        with ModelPlan(model, AnalogBackend(), context) as plan:
            shared = [plan.forward(batch[:size]) for size in sizes]
        for size, logits in zip(sizes, shared):
            with ModelPlan(model, AnalogBackend(), context) as fresh:
                assert bitwise_equal(logits, fresh.forward(batch[:size]))


class TestTrainingStateNotPickled:
    @pytest.fixture(scope="class")
    def trained_resnet(self):
        """ResNet-lite right after a 32-image training step (the backward
        caches of its last minibatch still held) and its plan."""
        dataset = SyntheticImageDataset(DatasetConfig(num_classes=10, image_size=16,
                                                      seed=0))
        x_train, y_train, x_test, _ = dataset.train_test_split(64, 16)
        model = build_resnet_lite(stage_widths=(8, 16, 32), seed=0)
        Trainer(model, SGD(model.parameters(), learning_rate=0.05),
                batch_size=32).fit(x_train, y_train, epochs=1)
        context = ExecutionContext(calibration=x_train[:16], max_mapped_layers=None)
        with ModelPlan(model, AnalogBackend(), context) as plan:
            yield model, plan, x_train, y_train, x_test

    def test_plan_payload_drops_backward_caches(self, trained_resnet, monkeypatch):
        _, plan, *_ = trained_resnet
        payload = len(pickle.dumps(plan))
        monkeypatch.delattr(Layer, "__getstate__")
        assert len(pickle.dumps(plan)) - payload >= 3_000_000

    def test_unpickled_plan_forward_is_bit_identical(self, trained_resnet):
        _, plan, _, _, x_test = trained_resnet
        clone = pickle.loads(pickle.dumps(plan))
        assert bitwise_equal(clone.forward(x_test), plan.forward(x_test))

    def test_unpickled_model_still_trains(self, trained_resnet):
        model, _, x_train, y_train, _ = trained_resnet
        clone = pickle.loads(pickle.dumps(model))
        for layer in clone.modules():
            for name, empty in type(layer)._backward_state.items():
                assert getattr(layer, name) == empty
        before = [p.value.copy() for p in clone.parameters()]
        Trainer(clone, SGD(clone.parameters(), learning_rate=0.05),
                batch_size=32).fit(x_train[:32], y_train[:32], epochs=1)
        assert all(np.all(np.isfinite(p.value)) for p in clone.parameters())
        assert any(not np.array_equal(b, p.value)
                   for b, p in zip(before, clone.parameters()))


# ----------------------------------------------------------------------
# One BLAS thread per plan
# ----------------------------------------------------------------------
@pytest.fixture
def blas_default():
    """Restores the process's BLAS thread count after the test; skips
    where OpenBLAS's thread control is not found."""
    default = blas.blas_threads()
    if default is None:
        pytest.skip("no OpenBLAS thread control in this numpy")
    yield default
    blas.set_blas_threads(default)


def set_default_threads(count):
    blas.set_blas_threads(count)
    if blas.blas_threads() != count:
        pytest.skip(f"OpenBLAS refused {count} threads")


class BlasProbe(Layer):
    """Identity layer recording the BLAS thread count inside a forward;
    ``hold`` pauses the forward until ``release`` is set."""

    def __init__(self, fail=False, hold=False):
        self.fail = fail
        self.seen = []
        self.entered = threading.Event()
        self.release = threading.Event()
        if not hold:
            self.release.set()

    def forward(self, x, training=False):
        self.seen.append(blas.blas_threads())
        self.entered.set()
        assert self.release.wait(30)
        if self.fail:
            raise RuntimeError("probe failure")
        return x


class FakeOpenBLAS:
    """A thread count behind the two ctypes functions, counting set calls."""

    def __init__(self, count):
        self.count = count
        self.sets = []

    def get(self):
        return self.count

    def set(self, count):
        self.sets.append(count)
        self.count = count


class TestOneBlasThread:
    def test_logits_do_not_depend_on_the_process_thread_count(
            self, plan_setup, blas_default):
        # Linear(588, 150) gives different bits at 1 and 2 threads from 12
        # rows up: in fake_quant's 12-row calibration forward and in the
        # 32-row forwards.  Both run on one thread inside a plan.
        model, x_train, x_test, _ = plan_setup
        analog_context = ExecutionContext(
            max_mapped_layers=None, seed=0,
            macro_config=MacroConfig(device_statistics=quiet_stats()))
        results = {}
        for default in (1, 2):
            set_default_threads(default)
            runs = []
            for backend in ("fake_quant", "ideal"):
                report = run_model(model, x_test[:32], backend=backend,
                                   context=plan_context(x_train, batch_size=32))
                runs.append((report.logits, report.conversions))
            for name in ("demo_cnn", "resnet_lite", "mobilenet_lite"):
                zoo, images = zoo_model(name)
                context = dataclasses.replace(analog_context,
                                              calibration=images[:8])
                with BatchRunner(zoo, "analog", context=context) as runner:
                    runs.append((runner.forward(images), runner.conversions()))
            assert blas.blas_threads() == default
            results[default] = runs
        for (one, one_conv), (two, two_conv) in zip(results[1], results[2]):
            assert bitwise_equal(one, two)
            assert one_conv == two_conv

    @pytest.mark.parametrize("fail", [False, True])
    def test_forward_restores_the_callers_count(self, blas_default, fail):
        set_default_threads(2)
        probe = BlasProbe(fail=fail)
        model = Sequential(Flatten(), probe,
                           Linear(12, 3, rng=np.random.default_rng(0)))
        images = np.ones((4, 3, 2, 2))
        with BatchRunner(model, "ideal") as runner:
            if fail:
                with pytest.raises(RuntimeError, match="probe failure"):
                    runner.forward(images)
            else:
                runner.forward(images)
        assert probe.seen == [1]
        assert blas.blas_threads() == 2

    def test_concurrent_forwards_hold_one_thread_until_the_last_exits(
            self, blas_default):
        set_default_threads(2)
        probes = [BlasProbe(hold=True), BlasProbe(hold=True)]
        runners = [BatchRunner(Sequential(Flatten(), probe), "ideal")
                   for probe in probes]
        threads = [threading.Thread(target=runner.forward,
                                    args=(np.ones((2, 3)),))
                   for runner in runners]
        try:
            for thread, probe in zip(threads, probes):
                thread.start()
                assert probe.entered.wait(30)
            probes[0].release.set()
            threads[0].join(30)
            assert not threads[0].is_alive()
            assert blas.blas_threads() == 1  # the second is still inside
            probes[1].release.set()
            threads[1].join(30)
            assert blas.blas_threads() == 2
        finally:
            for probe, thread in zip(probes, threads):
                probe.release.set()
                thread.join(30)
            for runner in runners:
                runner.close()
        assert [probe.seen for probe in probes] == [[1], [1]]

    def test_scope_counts_entrants_and_skips_needless_sets(self, monkeypatch):
        fake = FakeOpenBLAS(2)
        monkeypatch.setattr(blas, "_functions", (fake.get, fake.set))
        with blas.single_thread():
            with blas.single_thread():
                assert fake.count == 1
            assert fake.count == 1
        assert fake.count == 2 and fake.sets == [1, 2]
        fake.count, fake.sets = 1, []
        with blas.single_thread():
            assert blas.blas_threads() == 1
        assert fake.sets == []

    def test_missing_symbols_make_every_helper_a_no_op(self, monkeypatch):
        monkeypatch.setattr(blas, "_functions", blas._UNSET)
        monkeypatch.setattr(blas, "_find_functions", lambda: None)
        with pytest.warns(RuntimeWarning, match="OpenBLAS"):
            assert blas.blas_threads() is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # warned once already
            blas.set_blas_threads(2)
            with BatchRunner(Sequential(Flatten()), "ideal") as runner:
                out = runner.forward(np.ones((2, 3)))
            assert blas.blas_threads() is None
        assert out.shape == (2, 3)

    def test_stage_processes_run_on_one_thread(self, blas_default):
        from repro.shard import run_pipelined

        set_default_threads(2)
        model, images = zoo_model("demo_cnn")
        report = run_pipelined(model, images, backend="fake_quant",
                               context=ExecutionContext(calibration=images[:8]),
                               num_stages=2)
        assert [stage["blas_threads"] for stage in report.stage_stats] == [1, 1]
        assert blas.blas_threads() == 2


# ----------------------------------------------------------------------
# Process-pool serving
# ----------------------------------------------------------------------
class TestProcessServing:
    def test_process_pool_reproduces_in_loop_logits(self, plan_setup):
        from repro.serve import ServeConfig, serve_requests

        model, x_train, x_test, _ = plan_setup
        context = plan_context(x_train,
                               macro_config=MacroConfig(
                                   device_statistics=quiet_stats(
                                       programming_sigma=0.0,
                                       read_noise_sigma=0.0),
                                   read_noise_enabled=False))
        images = x_test[:16]
        in_loop, _ = serve_requests(
            model, images, ServeConfig(backend="analog", max_batch=16,
                                       context=context, workers="thread"))
        process, snapshot = serve_requests(
            model, images, ServeConfig(backend="analog", max_batch=16,
                                       context=context, workers="process"))
        assert bitwise_equal(in_loop, process)
        assert all(worker.mode == "process" for worker in snapshot.workers)

    def test_process_multiworker_matches_thread_multiworker(self, plan_setup):
        from repro.serve import ServeConfig, serve_requests

        model, x_train, x_test, _ = plan_setup
        context = plan_context(x_train)
        images = x_test[:24]
        thread, _ = serve_requests(
            model, images, ServeConfig(backend="fake_quant", max_batch=8,
                                       num_workers=2,
                                       context=context, workers="thread"))
        process, _ = serve_requests(
            model, images, ServeConfig(backend="fake_quant", max_batch=8,
                                       num_workers=2,
                                       context=context, workers="process"))
        assert bitwise_equal(thread, process)

    def test_process_conversion_metering_matches_thread_mode(self, plan_setup):
        # Prepare-time calibration spends conversions before any batch is
        # served; neither worker mode may bill them to the first batch.
        from repro.serve import ServeConfig, serve_requests

        model, x_train, x_test, _ = plan_setup
        context = plan_context(x_train)
        images = x_test[:8]
        snapshots = {}
        for mode in ("thread", "process"):
            _, snapshots[mode] = serve_requests(
                model, images, ServeConfig(backend="analog", max_batch=8,
                                           context=context, workers=mode))
        assert snapshots["thread"].conversions == snapshots["process"].conversions

    def test_process_stage_profile_carries_thread_keys(self, plan_setup):
        # Process and pipeline workers report the same breakdown rows as a
        # thread worker, the digital sub-stages (im2col, adder) included;
        # a pipeline worker adds its per-stage list.  Every worker the
        # service builds satisfies the Worker protocol.
        import asyncio

        from repro.serve import InferenceService, ServeConfig
        from repro.serve.workers import Worker

        model, x_train, x_test, _ = plan_setup

        async def served_profile(**substrate):
            service = InferenceService(model, ServeConfig(
                backend="analog", max_batch=4, context=plan_context(x_train),
                **substrate))
            await service.start()
            try:
                await service.submit_many(x_test[:8])
                assert all(isinstance(worker, Worker)
                           for worker in service._workers)
                (profile,) = await service.stage_profiles()
            finally:
                await service.stop()
            return profile

        keys = {}
        for mode, substrate in (("thread", {}),
                                ("process", {"workers": "process"}),
                                ("pipeline", {"pipeline_stages": 2})):
            profile = asyncio.run(served_profile(**substrate))
            keys[mode] = set(profile)
            assert profile["adder_s"] > 0
        assert keys["thread"] == keys["process"]
        assert keys["pipeline"] == keys["thread"] | {"stages"}

    def test_unknown_worker_mode_rejected(self, plan_setup):
        from repro.serve import InferenceService, ServeConfig

        model, _, _, _ = plan_setup
        with pytest.raises(ValueError, match="worker mode"):
            InferenceService(model, ServeConfig(workers="fiber"))
