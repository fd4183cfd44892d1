"""Tests for the PTQ flow, CIM non-idealities and the macro-mapped backend."""

import numpy as np
import pytest

from repro.core.config import MacroConfig
from repro.exec import run_ptq_sweep
from repro.formats import E2M5, E3M4, INT8
from repro.nn import (
    CIMMappedNetwork,
    CIMNonidealities,
    DatasetConfig,
    SGD,
    Sequential,
    SyntheticImageDataset,
    Trainer,
    attach_adapters,
    build_resnet_lite,
    calibrate_adapters,
    evaluate_model,
    extract_cim_nonidealities,
    restore_model,
)
from repro.nn.layers import Conv2d, GlobalAvgPool2d, Linear, ReLU
from repro.nn.quantize import FakeQuantAdapter
from repro.rram.device import RRAMStatistics


@pytest.fixture(scope="module")
def trained_setup():
    """A small trained CNN plus its data, shared across the PTQ tests."""
    dataset = SyntheticImageDataset(DatasetConfig(num_classes=4, image_size=12,
                                                  noise_sigma=0.3, seed=2))
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


class TestFakeQuantAdapter:
    def test_observe_mode_passthrough(self):
        adapter = FakeQuantAdapter(E2M5, E2M5)
        adapter.observing = True
        x = np.array([1.234])
        np.testing.assert_array_equal(adapter.process_input(x), x)
        np.testing.assert_array_equal(adapter.process_output(x), x)

    def test_quantised_activations_on_grid(self):
        adapter = FakeQuantAdapter(E2M5, E2M5)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100)
        adapter.observing = True
        adapter.process_input(x)
        adapter.observing = False
        q = adapter.process_input(x)
        scale = adapter.activation_quantizer.scale
        np.testing.assert_allclose(E2M5.quantize(q / scale) * scale, q, atol=1e-12)

    def test_weight_perturbation_is_static(self):
        nonideal = CIMNonidealities(weight_noise_sigma=0.05)
        adapter = FakeQuantAdapter(E2M5, E2M5, nonidealities=nonideal)
        adapter.weight_quantizer.calibrate(np.ones((4, 4)))
        w = np.ones((4, 4))
        first = adapter.process_weight(w)
        second = adapter.process_weight(w)
        np.testing.assert_array_equal(first, second)
        assert not np.allclose(first, E2M5.quantize(w))

    def test_mac_noise_perturbs_output(self):
        nonideal = CIMNonidealities(mac_noise_sigma=0.05)
        adapter = FakeQuantAdapter(E2M5, E2M5, nonidealities=nonideal)
        out = np.ones((3, 3))
        assert not np.allclose(adapter.process_output(out), out)

    def test_invalid_nonidealities(self):
        with pytest.raises(ValueError):
            CIMNonidealities(mac_noise_sigma=-0.1)


class TestPTQFlow:
    def test_attach_and_restore(self, trained_setup):
        model, x_train, *_ = trained_setup
        adapters = attach_adapters(model, E2M5, E2M5)
        assert len(adapters) == len(model.matmul_layers())
        assert all(layer.quantization is not None for layer in model.matmul_layers())
        restore_model(model)
        assert all(layer.quantization is None for layer in model.matmul_layers())

    def test_calibration_sets_activation_scales(self, trained_setup):
        model, x_train, *_ = trained_setup
        adapters = attach_adapters(model, E2M5, E2M5)
        calibrate_adapters(model, adapters, x_train[:32])
        assert all(a.activation_quantizer.scale is not None for a in adapters)
        restore_model(model)

    def test_quantised_accuracy_close_to_fp32(self, trained_setup):
        model, x_train, _, x_test, y_test = trained_setup
        fp32 = evaluate_model(model, x_test, y_test)
        result = run_ptq_sweep(model, x_train[:32], x_test, y_test,
                               formats={"FP8-E2M5": E2M5})["FP8-E2M5"]
        assert result.accuracy >= fp32 - 0.15
        assert result.fp32_accuracy == fp32
        # The model is restored afterwards.
        assert all(layer.quantization is None for layer in model.matmul_layers())

    def test_heavy_noise_degrades_accuracy(self, trained_setup):
        model, x_train, _, x_test, y_test = trained_setup
        formats = {"FP8-E2M5": E2M5}
        clean = run_ptq_sweep(model, x_train[:32], x_test, y_test,
                              formats=formats, seed=1)["FP8-E2M5"]
        noisy = run_ptq_sweep(model, x_train[:32], x_test, y_test, formats=formats,
                              nonidealities=CIMNonidealities(mac_noise_sigma=0.5),
                              seed=1)["FP8-E2M5"]
        assert noisy.accuracy <= clean.accuracy

    def test_format_sweep_returns_all_formats(self, trained_setup):
        model, x_train, _, x_test, y_test = trained_setup
        results = run_ptq_sweep(model, x_train[:32], x_test, y_test,
                                formats={"INT8": INT8, "FP8-E2M5": E2M5, "FP8-E3M4": E3M4})
        assert set(results) == {"INT8", "FP8-E2M5", "FP8-E3M4"}
        for result in results.values():
            assert 0.0 <= result.accuracy <= 1.0
            assert result.accuracy_delta == pytest.approx(
                result.accuracy - result.fp32_accuracy
            )

    def test_extract_cim_nonidealities(self):
        stats = RRAMStatistics(programming_sigma=0.02)
        nonideal = extract_cim_nonidealities(MacroConfig(device_statistics=stats),
                                             in_features=32, out_features=8,
                                             batches=2, batch_size=8)
        assert 0.0 < nonideal.mac_noise_sigma < 0.2
        assert nonideal.weight_noise_sigma == pytest.approx(0.02)


@pytest.mark.slow
class TestCIMMappedNetwork:
    def test_mapped_network_matches_digital_reasonably(self, trained_setup):
        model, x_train, _, x_test, y_test = trained_setup
        stats = RRAMStatistics(programming_sigma=0.0, read_noise_sigma=0.0,
                               drift_coefficient=0.0,
                               stuck_at_lrs_probability=0.0, stuck_at_hrs_probability=0.0)
        config = MacroConfig(device_statistics=stats, read_noise_enabled=False)
        mapped = CIMMappedNetwork(model, macro_config=config,
                                  calibration_images=x_train[:16])
        try:
            digital = mapped.digital_accuracy(x_test[:60], y_test[:60])
            analog = mapped.evaluate(x_test[:60], y_test[:60], batch_size=30)
            assert analog >= digital - 0.2
            assert mapped.total_conversions() > 0
        finally:
            mapped.unmap()
        assert all(layer.quantization is None for layer in model.matmul_layers())

    def test_partial_mapping(self, trained_setup):
        model, x_train, *_ = trained_setup
        mapped = CIMMappedNetwork(model, calibration_images=x_train[:8],
                                  max_mapped_layers=1)
        try:
            assert len(mapped.adapters) == 1
        finally:
            mapped.unmap()

    def test_forward_shape(self, trained_setup):
        model, x_train, *_ = trained_setup
        mapped = CIMMappedNetwork(model, calibration_images=x_train[:8],
                                  max_mapped_layers=1)
        try:
            out = mapped.forward(x_train[:4])
            assert out.shape == (4, 4)
        finally:
            mapped.unmap()


class TwoBranches(Sequential):
    """``b(x) + a(x)``: the forward reaches its layers in reverse
    ``modules()`` order."""

    def forward(self, x, training=False):
        a, b = self.layers
        return b.forward(x, training) + a.forward(x, training)


class TestOnePassMapping:
    def branches(self):
        return TwoBranches(Linear(6, 3, rng=np.random.default_rng(0)),
                           Linear(6, 3, rng=np.random.default_rng(1)))

    def test_maps_in_forward_order_keeps_matmul_order(self):
        model = self.branches()
        calls = []
        mapped = CIMMappedNetwork(
            model, calibration_images=np.random.default_rng(2).normal(size=(8, 6)),
            calibration_forward=lambda images, map_layer: calls.append(1)
            or model.forward(images))
        try:
            assert calls == [1]
            assert [adapter.layer for adapter in mapped.adapters] == model.layers
            assert all(layer.quantization is adapter
                       for layer, adapter in zip(model.layers, mapped.adapters))
            assert not any("forward" in vars(layer) for layer in model.layers)
        finally:
            mapped.unmap()

    def test_map_layer_is_the_mapping_entry_point(self):
        # A calibration forward may map a layer itself and run it on the
        # returned adapter; a second call, or a layer that is not
        # pending, returns None.
        model = self.branches()
        first, second = model.layers
        images = np.random.default_rng(2).normal(size=(8, 6))

        def forward(x, map_layer):
            adapter = map_layer(second, x)
            assert adapter is not None and adapter.layer is second
            assert map_layer(second, x) is None
            assert map_layer(ReLU(), x) is None
            return model.forward(x)

        mapped = CIMMappedNetwork(model, calibration_images=images,
                                  calibration_forward=forward)
        try:
            assert [adapter.layer for adapter in mapped.adapters] == [first, second]
        finally:
            mapped.unmap()

    def test_unreached_layer_raises_and_unhooks(self):
        model = self.branches()
        with pytest.raises(ValueError, match=r"matmul layer 0 \(Linear\)"):
            CIMMappedNetwork(
                model, calibration_images=np.ones((4, 6)),
                calibration_forward=lambda images, _: model.layers[1].forward(images))
        for layer in model.layers:
            assert layer.quantization is None and "forward" not in vars(layer)

    def test_max_mapped_layers_maps_the_first_layers(self):
        model = self.branches()
        mapped = CIMMappedNetwork(model, calibration_images=np.ones((4, 6)),
                                  max_mapped_layers=1)
        try:
            assert [adapter.layer for adapter in mapped.adapters] == model.layers[:1]
            assert model.layers[1].quantization is None
        finally:
            mapped.unmap()
