"""Post-training quantisation (PTQ) flow with CIM non-idealities (Fig. 6(c)).

The paper quantises pretrained FP32 networks to INT8, FP8 E3M4 and FP8 E2M5,
injects the circuit non-linearities extracted from the macro simulation, and
compares Top-1 accuracy.  The flow here mirrors that:

1. train an FP32 reference network (:mod:`repro.nn.training`),
2. *calibrate*: run a few batches through the FP32 network while observers
   attached to every Conv2d / Linear layer record the activation ranges,
3. *quantise*: attach :class:`FakeQuantAdapter` objects that fake-quantise
   the weights (per layer) and the incoming activations (per tensor) to the
   target format and optionally perturb the outputs with the CIM noise
   extracted from the macro model,
4. evaluate Top-1 accuracy and report the delta against the FP32 baseline
   (:func:`repro.exec.run_ptq_sweep` runs steps 2-4 through the backend
   registry).

The adapters plug into the ``quantization`` hook of the matmul layers, so the
original model object is evaluated — no parallel copy of the network graph is
built — and :func:`restore_model` removes every adapter afterwards.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Union

import numpy as np

from repro.core.config import MacroConfig
from repro.core.macro import AFPRMacro
from repro.formats.fp8 import FloatFormat
from repro.formats.intq import IntFormat
from repro.formats.quantizer import CalibrationMethod, TensorQuantizer, make_quantizer
from repro.nn.layers import Layer
from repro.nn.model import Model

FormatLike = Union[FloatFormat, IntFormat]


@dataclasses.dataclass(frozen=True)
class CIMNonidealities:
    """Lumped circuit non-idealities injected into the quantised network.

    Attributes
    ----------
    mac_noise_sigma:
        Relative standard deviation of the MAC output error contributed by
        the analog path (DAC/ADC quantisation residue, device read noise,
        comparator noise), expressed as a fraction of the per-tensor output
        range.
    weight_noise_sigma:
        Relative conductance programming error applied once to the stored
        weights.
    seed:
        Random seed of the injected noise.
    """

    mac_noise_sigma: float = 0.0
    weight_noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mac_noise_sigma < 0 or self.weight_noise_sigma < 0:
            raise ValueError("noise sigmas must be non-negative")


def extract_cim_nonidealities(macro_config: MacroConfig = MacroConfig(),
                              in_features: int = 128, out_features: int = 32,
                              batches: int = 4, batch_size: int = 16,
                              seed: int = 0) -> CIMNonidealities:
    """Measure the macro's effective MAC noise with random workloads.

    This is the reproduction's version of "we extracted the non-linearities
    in circuits and performed the accuracy simulation on the macro model
    simulator": a representative macro is programmed with random weights,
    driven with random activations, and the relative error of its analog MAC
    against the ideal MAC is measured.  The error's standard deviation (as a
    fraction of the output range) becomes the ``mac_noise_sigma`` injected in
    the network-level simulation.
    """
    rng = np.random.default_rng(seed)
    macro = AFPRMacro(macro_config, rng=rng)
    weights = rng.standard_normal((in_features, out_features)) * 0.1
    macro.program_weights(weights)
    calibration = np.abs(rng.standard_normal((batch_size, in_features)))
    macro.calibrate(calibration)

    relative_errors = []
    for _ in range(batches):
        acts = np.abs(rng.standard_normal((batch_size, in_features)))
        ideal = macro.ideal_matvec(acts)
        measured = macro.matvec(acts)
        scale = np.max(np.abs(ideal)) or 1.0
        relative_errors.append((measured - ideal) / scale)
    sigma = float(np.std(np.concatenate([e.ravel() for e in relative_errors])))
    return CIMNonidealities(
        mac_noise_sigma=sigma,
        weight_noise_sigma=macro_config.device_statistics.programming_sigma,
        seed=seed,
    )


class FakeQuantAdapter:
    """Per-layer quantisation hook attached to Conv2d / Linear layers.

    The adapter has two modes:

    * ``observing`` — it only records activation statistics (calibration),
    * otherwise — it fake-quantises activations and weights and perturbs the
      output with the configured CIM noise.
    """

    def __init__(self, weight_format: FormatLike, activation_format: FormatLike,
                 nonidealities: Optional[CIMNonidealities] = None,
                 calibration_method: CalibrationMethod = CalibrationMethod.ABSMAX,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.weight_quantizer: TensorQuantizer = make_quantizer(
            weight_format, method=calibration_method
        )
        self.activation_quantizer: TensorQuantizer = make_quantizer(
            activation_format, method=calibration_method
        )
        self.nonidealities = nonidealities or CIMNonidealities()
        self.observing = False
        self._rng = rng if rng is not None else np.random.default_rng(self.nonidealities.seed)
        self._weight_perturbation: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def process_input(self, x: np.ndarray) -> np.ndarray:
        """Observe or fake-quantise the incoming activations."""
        if self.observing:
            self.activation_quantizer.observe(x)
            return x
        return self.activation_quantizer.quantize(x)

    def process_weight(self, weight: np.ndarray) -> np.ndarray:
        """Fake-quantise (and optionally perturb) the layer weights."""
        if self.observing:
            return weight
        quantized = self.weight_quantizer.quantize(weight)
        sigma = self.nonidealities.weight_noise_sigma
        if sigma > 0:
            if self._weight_perturbation is None or self._weight_perturbation.shape != weight.shape:
                # Programming error is static: drawn once, reused every batch.
                self._weight_perturbation = 1.0 + sigma * self._rng.standard_normal(weight.shape)
            quantized = quantized * self._weight_perturbation
        return quantized

    def process_output(self, out: np.ndarray) -> np.ndarray:
        """Perturb the MAC output with the lumped analog noise."""
        if self.observing:
            return out
        sigma = self.nonidealities.mac_noise_sigma
        if sigma > 0:
            scale = float(np.max(np.abs(out), initial=0.0)) or 1.0
            out = out + sigma * scale * self._rng.standard_normal(out.shape)
        return out


@dataclasses.dataclass
class PTQResult:
    """Accuracy result of one PTQ configuration."""

    format_name: str
    accuracy: float
    fp32_accuracy: float

    @property
    def accuracy_delta(self) -> float:
        """Accuracy difference against the FP32 baseline (negative = loss)."""
        return self.accuracy - self.fp32_accuracy


def attach_adapters(model: Model, weight_format: FormatLike, activation_format: FormatLike,
                    nonidealities: Optional[CIMNonidealities] = None,
                    calibration_method: CalibrationMethod = CalibrationMethod.ABSMAX,
                    seed: int = 0) -> List[FakeQuantAdapter]:
    """Attach a fresh adapter to every matmul layer of ``model``."""
    adapters = []
    rng = np.random.default_rng(seed)
    for index, layer in enumerate(model.matmul_layers()):
        adapter = FakeQuantAdapter(
            weight_format, activation_format, nonidealities=nonidealities,
            calibration_method=calibration_method,
            rng=np.random.default_rng(seed + index),
        )
        adapter.weight_quantizer.calibrate(layer.weight.value)
        layer.quantization = adapter
        adapters.append(adapter)
    return adapters


def restore_model(model: Model) -> None:
    """Detach every quantisation adapter, restoring FP32 behaviour."""
    for layer in model.matmul_layers():
        layer.quantization = None


def calibrate_adapters(model: Model, adapters: List[FakeQuantAdapter],
                       calibration_images: np.ndarray) -> None:
    """Run calibration batches through the model with observers active."""
    for adapter in adapters:
        adapter.observing = True
    model.forward(np.asarray(calibration_images, dtype=np.float64), training=False)
    for adapter in adapters:
        adapter.observing = False
