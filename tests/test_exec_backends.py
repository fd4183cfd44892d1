"""Tests for the unified execution engine: registry, engine, backends.

The backend-equivalence tests train one small fixed-seed CNN and assert that
every registered backend lands within the tolerance the hardware-in-the-loop
integration test has always used (0.2 absolute Top-1 accuracy against the
digital reference).
"""

import hashlib
import threading
import time

import numpy as np
import pytest

from repro.core.config import MacroConfig
from repro.exec import (
    AnalogBackend,
    ExecutionBackend,
    ExecutionContext,
    available_backends,
    compare_backends,
    create_backend,
    get_backend_class,
    register_backend,
    run_model,
)
from repro.exec.registry import _BACKENDS
from repro.nn import (
    CIMNonidealities,
    DatasetConfig,
    SGD,
    Sequential,
    SyntheticImageDataset,
    Trainer,
)
from repro.nn.layers import Conv2d, GlobalAvgPool2d, Linear, ReLU
from repro.rram.device import RRAMStatistics

#: Tolerance of the pre-existing hardware-in-the-loop integration test.
EQUIVALENCE_TOLERANCE = 0.2


def quiet_macro_config(**overrides):
    stats = RRAMStatistics(programming_sigma=0.0, read_noise_sigma=0.0,
                           drift_coefficient=0.0,
                           stuck_at_lrs_probability=0.0, stuck_at_hrs_probability=0.0)
    return MacroConfig(device_statistics=stats, read_noise_enabled=False, **overrides)


@pytest.fixture(scope="module")
def trained_setup():
    """A small fixed-seed trained CNN plus its data, shared across tests."""
    dataset = SyntheticImageDataset(DatasetConfig(num_classes=4, image_size=12,
                                                  noise_sigma=0.3, seed=11))
    x_train, y_train, x_test, y_test = dataset.train_test_split(320, 160)
    model = Sequential(
        Conv2d(3, 6, 3, padding=1, rng=np.random.default_rng(0)),
        ReLU(),
        Conv2d(6, 12, 3, stride=2, padding=1, rng=np.random.default_rng(1)),
        ReLU(),
        GlobalAvgPool2d(),
        Linear(12, 4, rng=np.random.default_rng(2)),
    )
    trainer = Trainer(model, SGD(model.parameters(), learning_rate=0.05), batch_size=32)
    trainer.fit(x_train, y_train, epochs=3)
    return model, x_train, y_train, x_test, y_test


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == ["analog", "fake_quant", "fast_noise", "ideal"]

    def test_create_and_class_lookup(self):
        for name in available_backends():
            backend = create_backend(name)
            assert isinstance(backend, ExecutionBackend)
            assert backend.name == name
            assert get_backend_class(name) is type(backend)

    def test_unknown_backend_keyerror_lists_registered_names(self):
        # The message must name every registered backend so a typo on a CLI
        # flag or a service config is immediately actionable.
        with pytest.raises(KeyError, match="unknown execution backend") as excinfo:
            create_backend("does-not-exist")
        message = str(excinfo.value)
        for name in available_backends():
            assert name in message

    def test_available_backends_sorted(self):
        names = available_backends()
        assert names == sorted(names)

    def test_duplicate_registration_rejected(self):
        class Clone(ExecutionBackend):
            name = "ideal"

            def forward(self, model, images):  # pragma: no cover
                return images

        with pytest.raises(ValueError, match="already registered"):
            register_backend(Clone)
        assert _BACKENDS["ideal"] is not Clone

    def test_abstract_name_rejected(self):
        class Nameless(ExecutionBackend):
            def forward(self, model, images):  # pragma: no cover
                return images

        with pytest.raises(ValueError, match="concrete"):
            register_backend(Nameless)

    def test_custom_backend_roundtrip(self):
        @register_backend
        class Doubling(ExecutionBackend):
            name = "test-doubling"

            def forward(self, model, images):
                return np.asarray(images, dtype=np.float64).reshape(len(images), -1)

        try:
            assert "test-doubling" in available_backends()
            report = run_model(None, np.ones((4, 2, 1, 1)), backend="test-doubling",
                               batch_size=2)
            assert report.logits.shape == (4, 2)
        finally:
            _BACKENDS.pop("test-doubling", None)


class TestRunModel:
    def test_ideal_report_fields(self, trained_setup):
        model, _, _, x_test, y_test = trained_setup
        report = run_model(model, x_test[:40], y_test[:40], backend="ideal")
        assert report.backend == "ideal"
        assert report.logits.shape == (40, 4)
        assert 0.0 <= report.accuracy <= 1.0
        assert report.samples == 40
        assert report.samples_per_second > 0
        assert report.conversions == 0

    def test_cpu_time_is_the_calling_threads(self, trained_setup):
        # A helper thread burning CPU outside the GIL (hashlib releases it
        # for large buffers), like a BLAS helper still spinning after the
        # caller's GEMMs, must not count towards the forwards' CPU time.
        model, x_train, _, x_test, _ = trained_setup
        stop = threading.Event()
        burned = []

        def spin():
            start = time.thread_time()
            block = bytes(1 << 20)
            while not stop.is_set():
                hashlib.sha256(block).digest()
            burned.append(time.thread_time() - start)

        helper = threading.Thread(target=spin)
        helper.start()
        try:
            report = run_model(model, x_test, backend="analog",
                               calibration=x_train[:16], batch_size=16,
                               macro_config=quiet_macro_config())
        finally:
            stop.set()
            helper.join(timeout=10.0)
        assert not helper.is_alive() and burned[0] > 0.0
        # One thread cannot use more CPU than wall time (clock-tick slack).
        assert 0.0 < report.cpu_time_s <= report.wall_time_s + 0.02

    def test_no_labels_no_accuracy(self, trained_setup):
        model, _, _, x_test, _ = trained_setup
        report = run_model(model, x_test[:8], backend="ideal")
        assert report.accuracy is None
        assert report.logits.shape == (8, 4)

    def test_model_restored_after_run(self, trained_setup):
        model, x_train, _, x_test, y_test = trained_setup
        for name in available_backends():
            run_model(model, x_test[:16], y_test[:16], backend=name,
                      calibration=x_train[:8],
                      macro_config=quiet_macro_config(),
                      nonidealities=CIMNonidealities(mac_noise_sigma=0.02))
            assert all(layer.quantization is None for layer in model.matmul_layers()), name

    def test_failed_prepare_leaves_model_clean(self, trained_setup):
        """A prepare failure (bad calibration batch) must not leave adapters
        attached — later digital evaluations would silently be quantised."""
        model, _, _, x_test, _ = trained_setup
        bad_calibration = np.zeros((4, 5, 12, 12))  # wrong channel count
        for name in ("fake_quant", "fast_noise", "analog"):
            with pytest.raises(Exception):
                run_model(model, x_test[:8], backend=name,
                          calibration=bad_calibration,
                          macro_config=quiet_macro_config())
            assert all(layer.quantization is None
                       for layer in model.matmul_layers()), name

    def test_cached_analog_run_scrubs_foreign_adapters(self, trained_setup):
        """A cache-hit analog run must not inherit adapters another backend
        left on the unmapped layers."""
        from repro.nn import attach_adapters
        from repro.formats import E2M5

        model, x_train, _, x_test, y_test = trained_setup
        backend = AnalogBackend()
        kwargs = dict(calibration=x_train[:8],
                      macro_config=quiet_macro_config(), max_mapped_layers=1)
        run_model(model, x_test[:8], y_test[:8], backend=backend, **kwargs)
        attach_adapters(model, E2M5, E2M5)  # simulate leftovers
        run_model(model, x_test[:8], y_test[:8], backend=backend, **kwargs)
        assert all(layer.quantization is None for layer in model.matmul_layers())
        backend.release(model)

    def test_compare_backends_keeps_same_name_instances(self, trained_setup):
        model, x_train, _, x_test, y_test = trained_setup
        reports = compare_backends(
            model, x_test[:16], y_test[:16],
            backends=[AnalogBackend(), AnalogBackend()],
            calibration=x_train[:8],
            macro_config=quiet_macro_config(),
            max_mapped_layers=1,
        )
        assert set(reports) == {"analog", "analog#2"}

    def test_context_overrides_apply(self, trained_setup):
        model, _, _, x_test, y_test = trained_setup
        context = ExecutionContext(batch_size=8)
        report = run_model(model, x_test[:16], y_test[:16], backend="ideal",
                           context=context, batch_size=4)
        assert report.logits.shape == (16, 4)


class TestBackendEquivalence:
    def test_all_backends_agree_within_tolerance(self, trained_setup):
        """Every registered backend reproduces the ideal accuracy within the
        tolerance the hardware-in-the-loop integration test uses."""
        model, x_train, _, x_test, y_test = trained_setup
        reports = compare_backends(
            model, x_test[:80], y_test[:80],
            backends=available_backends(),
            calibration=x_train[:16],
            macro_config=quiet_macro_config(),
            nonidealities=CIMNonidealities(mac_noise_sigma=0.02,
                                           weight_noise_sigma=0.01),
            seed=0,
        )
        ideal = reports["ideal"].accuracy
        for name, report in reports.items():
            assert report.accuracy >= ideal - EQUIVALENCE_TOLERANCE, (
                f"{name}: {report.accuracy} vs ideal {ideal}"
            )


class TestAnalogBackendCaching:
    def test_prepare_is_cached_for_same_model(self, trained_setup):
        model, x_train, _, x_test, y_test = trained_setup
        backend = AnalogBackend()
        kwargs = dict(calibration=x_train[:8],
                      macro_config=quiet_macro_config(),
                      max_mapped_layers=1)
        first = run_model(model, x_test[:16], y_test[:16], backend=backend, **kwargs)
        mapped = backend._mapped
        second = run_model(model, x_test[:16], y_test[:16], backend=backend, **kwargs)
        assert backend._mapped is mapped, "cached mapping was rebuilt"
        assert second.prepare_time_s < first.prepare_time_s
        # The cached run produces logits of the same shape and a sane accuracy.
        assert second.logits.shape == first.logits.shape
        backend.release(model)
        assert backend._mapped is None

    def test_cache_invalidated_by_retrained_weights(self, trained_setup):
        """Continuing to train the model must remap the macros — the tiles
        would otherwise hold conductances programmed from stale weights."""
        model, x_train, y_train, x_test, y_test = trained_setup
        backend = AnalogBackend()
        kwargs = dict(calibration=x_train[:8],
                      macro_config=quiet_macro_config(), max_mapped_layers=1)
        run_model(model, x_test[:8], y_test[:8], backend=backend, **kwargs)
        mapped = backend._mapped
        first_layer = model.matmul_layers()[0]
        original = first_layer.weight.value.copy()
        try:
            first_layer.weight.value = original * 1.1
            run_model(model, x_test[:8], y_test[:8], backend=backend, **kwargs)
            assert backend._mapped is not mapped, "stale weights were reused"
        finally:
            first_layer.weight.value = original
            backend.release(model)

    def test_cache_invalidated_by_new_calibration(self, trained_setup):
        model, x_train, _, x_test, y_test = trained_setup
        backend = AnalogBackend()
        config = quiet_macro_config()
        run_model(model, x_test[:8], y_test[:8], backend=backend,
                  calibration=x_train[:8], macro_config=config, max_mapped_layers=1)
        mapped = backend._mapped
        run_model(model, x_test[:8], y_test[:8], backend=backend,
                  calibration=x_train[8:16], macro_config=config, max_mapped_layers=1)
        assert backend._mapped is not mapped, "new calibration must remap"

    def test_macro_calibration_memoised(self):
        """Repeated calibration with the same batch skips the recomputation."""
        from repro.core import AFPRMacro

        rng = np.random.default_rng(0)
        macro = AFPRMacro(quiet_macro_config())
        macro.program_weights(rng.standard_normal((32, 8)), ideal=True)
        batch = np.abs(rng.standard_normal((8, 32)))
        macro.calibrate(batch)
        adc_before = macro.adc
        macro.calibrate(batch)
        assert macro.adc is adc_before, "identical batch must not rebuild the ADC"
        macro.calibrate(batch * 2.0)
        assert macro.adc is not adc_before, "new data must recalibrate"
        # Manual scale overrides invalidate the memo: the next calibrate with
        # the same batch must re-derive the data-driven scales.
        macro.set_adc_full_scale_current(5e-6)
        overridden = macro.adc
        macro.calibrate(batch * 2.0)
        assert macro.adc is not overridden, "override must not stick after calibrate"
