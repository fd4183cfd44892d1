"""Fig. 6(c): PTQ Top-1 accuracy of INT8 / FP8 E3M4 / FP8 E2M5.

The paper quantises ResNet and MobileNet post-training to the three formats,
injects the circuit non-linearities extracted from the macro model, and
reports Top-1 accuracy relative to FP32 on ImageNet.  The reproduction runs
the same flow on ResNet-lite and MobileNet-lite trained on a seeded
synthetic image dataset (ImageNet-scale training is out of reach of a
pure-numpy substrate, so formats are compared by their accuracy deltas,
not by absolute ImageNet Top-1); the paper's qualitative claims are

* E2M5 loses less accuracy than INT8 (non-uniform quantisation suits the
  roughly Gaussian activations), and
* E2M5 loses less accuracy than E3M4 (the extra mantissa bit matters more
  than the extra exponent bit for well-behaved networks).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from repro.analysis.report import render_table
from repro.core.config import MacroConfig
from repro.exec import run_ptq_sweep
from repro.nn.data import DatasetConfig, SyntheticImageDataset
from repro.nn.mobilenet import build_mobilenet_lite
from repro.nn.optim import SGD
from repro.nn.quantize import CIMNonidealities, PTQResult, extract_cim_nonidealities
from repro.nn.resnet import build_resnet_lite
from repro.nn.training import Trainer


@dataclasses.dataclass(frozen=True)
class Fig6cConfig:
    """Workload configuration of the accuracy study.

    The defaults are sized so the whole study (training two networks plus
    three PTQ evaluations each) runs in tens of seconds on a laptop while
    still being hard enough that quantisation causes measurable accuracy
    loss.
    """

    num_classes: int = 10
    image_size: int = 16
    train_samples: int = 1200
    test_samples: int = 800
    calibration_samples: int = 128
    epochs: int = 6
    batch_size: int = 32
    learning_rate: float = 0.05
    dataset_noise: float = 0.35
    use_macro_nonidealities: bool = True
    write_verified_devices: bool = True
    mac_noise_override: Optional[float] = None
    seed: int = 0


@dataclasses.dataclass
class Fig6cResult:
    """Accuracy of each network under each quantisation format."""

    fp32_accuracy: Dict[str, float]
    results: Dict[str, Dict[str, PTQResult]]
    nonidealities: CIMNonidealities

    def accuracy_delta(self, network: str, format_name: str) -> float:
        """Accuracy change (quantised minus FP32) for a network/format pair."""
        return self.results[network][format_name].accuracy_delta

    def ordering_holds(self, network: str) -> bool:
        """Whether E2M5 is at least as accurate as both INT8 and E3M4."""
        formats = self.results[network]
        e2m5 = formats["FP8-E2M5"].accuracy
        return e2m5 >= formats["INT8"].accuracy - 1e-9 and e2m5 >= formats["FP8-E3M4"].accuracy - 1e-9

    def render(self) -> str:
        """ASCII rendering of the Fig. 6(c) comparison."""
        rows = []
        for network, formats in self.results.items():
            for format_name, result in formats.items():
                rows.append((
                    network,
                    format_name,
                    f"{result.accuracy:.3f}",
                    f"{result.accuracy_delta:+.3f}",
                ))
        table = render_table(
            ["network", "format", "top-1 accuracy", "delta vs FP32"],
            rows,
            title="Fig. 6(c) PTQ accuracy (synthetic-dataset substitution)",
        )
        note = (
            f"\ninjected CIM MAC noise sigma: {self.nonidealities.mac_noise_sigma:.4f}"
            f", weight programming sigma: {self.nonidealities.weight_noise_sigma:.4f}"
        )
        return table + note


def _train_network(builder, dataset_config: DatasetConfig, config: Fig6cConfig, seed: int):
    """Train one reference network and return (model, data splits)."""
    dataset = SyntheticImageDataset(dataset_config)
    x_train, y_train, x_test, y_test = dataset.train_test_split(
        config.train_samples, config.test_samples
    )
    model = builder(num_classes=config.num_classes, seed=seed)
    trainer = Trainer(
        model,
        SGD(model.parameters(), learning_rate=config.learning_rate),
        batch_size=config.batch_size,
        seed=seed,
    )
    trainer.fit(x_train, y_train, epochs=config.epochs)
    calibration = x_train[: config.calibration_samples]
    return model, calibration, x_test, y_test


def run_fig6c(config: Fig6cConfig = Fig6cConfig(),
              macro_config: MacroConfig = MacroConfig()) -> Fig6cResult:
    """Train the two reference networks and evaluate the three PTQ formats."""
    if config.mac_noise_override is not None:
        nonidealities = CIMNonidealities(
            mac_noise_sigma=config.mac_noise_override,
            weight_noise_sigma=macro_config.device_statistics.programming_sigma,
            seed=config.seed,
        )
    elif config.use_macro_nonidealities:
        if config.write_verified_devices:
            # Production arrays are programmed with write-verify (see
            # repro.rram.programming.write_verify), which tightens the
            # conductance error to about 1 %; extract the lumped MAC noise
            # from a macro with that device quality.
            verified_stats = dataclasses.replace(
                macro_config.device_statistics, programming_sigma=0.01
            )
            macro_config = dataclasses.replace(
                macro_config, device_statistics=verified_stats
            )
        nonidealities = extract_cim_nonidealities(macro_config, seed=config.seed)
    else:
        nonidealities = CIMNonidealities()

    dataset_config = DatasetConfig(
        num_classes=config.num_classes,
        image_size=config.image_size,
        noise_sigma=config.dataset_noise,
        seed=config.seed,
    )

    networks = {
        "ResNet-lite": build_resnet_lite,
        "MobileNet-lite": build_mobilenet_lite,
    }
    fp32_accuracy: Dict[str, float] = {}
    results: Dict[str, Dict[str, PTQResult]] = {}
    for index, (name, builder) in enumerate(networks.items()):
        model, calibration, x_test, y_test = _train_network(
            builder, dataset_config, config, seed=config.seed + index
        )
        # Route the accuracy study through the execution-backend registry:
        # the FP32 baseline runs on the `ideal` backend and each quantised
        # format on `fast_noise` (numerically identical to the legacy
        # repro.nn.quantize flow).
        sweep = run_ptq_sweep(
            model, calibration, x_test, y_test,
            nonidealities=nonidealities, seed=config.seed,
        )
        results[name] = sweep
        fp32_accuracy[name] = next(iter(sweep.values())).fp32_accuracy

    return Fig6cResult(fp32_accuracy=fp32_accuracy, results=results,
                       nonidealities=nonidealities)


def quick_fig6c(seed: int = 0) -> Fig6cResult:
    """A scaled-down Fig. 6(c) run for tests and smoke checks."""
    config = Fig6cConfig(
        num_classes=6,
        train_samples=360,
        test_samples=200,
        calibration_samples=64,
        epochs=2,
        use_macro_nonidealities=False,
        mac_noise_override=0.02,
        seed=seed,
    )
    return run_fig6c(config)
