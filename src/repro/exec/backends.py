"""The built-in execution backends: ideal, fake_quant, fast_noise, analog.

These unify the repository's three pre-existing execution paths behind the
:class:`~repro.exec.backend.ExecutionBackend` protocol:

* ``ideal`` — plain FP32 forward passes (the digital reference),
* ``fake_quant`` — per-layer fake quantisation of weights and activations
  to the configured formats, no analog noise,
* ``fast_noise`` — fake quantisation plus the lumped CIM non-idealities
  extracted from the macro model (the fast path of the Fig. 6(c) study),
* ``analog`` — hardware-in-the-loop: every mapped matmul runs through
  FP-DAC -> RRAM crossbar -> FP-ADC macro models, batch-vectorised over the
  minibatch.  The mapped and calibrated network is cached on the backend
  instance, so repeated evaluations skip re-programming and re-calibration.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.exec.backend import ExecutionBackend, ExecutionContext
from repro.exec.registry import register_backend
from repro.nn.cim_backend import CIMMappedNetwork, MapLayer
from repro.nn.model import Model
from repro.nn.quantize import (
    FakeQuantAdapter,
    attach_adapters,
    calibrate_adapters,
    extract_cim_nonidealities,
    restore_model,
)


@register_backend
class IdealBackend(ExecutionBackend):
    """Digital FP32 execution — the reference every other backend chases."""

    name = "ideal"

    def prepare(self, model: Model, context: ExecutionContext) -> None:
        restore_model(model)


@register_backend
class FakeQuantBackend(ExecutionBackend):
    """Per-layer fake quantisation without analog noise."""

    name = "fake_quant"

    def __init__(self) -> None:
        self._adapters: List[FakeQuantAdapter] = []

    def _make_nonidealities(self, context: ExecutionContext):
        """Noise injected on top of quantisation (none for this backend)."""
        return None

    def prepare(self, model: Model, context: ExecutionContext) -> None:
        restore_model(model)
        self._adapters = attach_adapters(
            model,
            context.weight_format,
            context.activation_format,
            nonidealities=self._make_nonidealities(context),
            seed=context.seed,
        )
        if context.calibration is not None:
            calibrate_adapters(model, self._adapters, context.calibration)

    def teardown(self, model: Model) -> None:
        restore_model(model)
        self._adapters = []


@register_backend
class FastNoiseBackend(FakeQuantBackend):
    """Fake quantisation plus lumped CIM noise (the Fig. 6(c) fast path)."""

    name = "fast_noise"

    def _make_nonidealities(self, context: ExecutionContext):
        if context.nonidealities is not None:
            return context.nonidealities
        return extract_cim_nonidealities(context.macro_config, seed=context.seed)


@register_backend
class AnalogBackend(ExecutionBackend):
    """Hardware-in-the-loop execution on batch-vectorised AFPR-CIM macros."""

    name = "analog"

    def __init__(self) -> None:
        self._mapped: Optional[CIMMappedNetwork] = None
        self._cache_key: Optional[tuple] = None

    @staticmethod
    def _context_key(model: Model, context: ExecutionContext) -> tuple:
        calibration = context.calibration
        fingerprint = (
            None if calibration is None
            else (calibration.shape, hash(np.asarray(calibration).tobytes()))
        )
        # Include the weights of the layers that would be mapped: the macros
        # are programmed from them, so a retrained model must not reuse tiles
        # holding stale conductances.
        layers = model.matmul_layers()
        if context.max_mapped_layers is not None:
            layers = layers[: context.max_mapped_layers]
        weight_key = tuple(
            (layer.weight.value.shape, hash(layer.weight.value.tobytes()))
            for layer in layers
        )
        return (id(model), context.macro_config, context.max_mapped_layers,
                fingerprint, weight_key)

    def prepare(self, model: Model, context: ExecutionContext,
                calibration_forward: Optional[
                    Callable[[np.ndarray, MapLayer], np.ndarray]] = None) -> None:
        """Map, program and calibrate the model's matmul layers (or reuse
        the cached mapping).  ``calibration_forward`` is the one forward
        that maps and calibrates each layer the first time it reaches it
        (see :class:`CIMMappedNetwork`); it is used during this call
        only."""
        key = self._context_key(model, context)
        if self._mapped is not None and key == self._cache_key:
            # Same model and configuration: the programmed and calibrated
            # tiles are still valid, so just re-route the matmuls to them.
            # Scrub any adapters another backend may have left on the other
            # layers first, so the run is purely analog + digital.
            restore_model(model)
            self._mapped.reattach()
            return
        if self._mapped is not None:
            self._mapped.unmap()
        restore_model(model)
        try:
            self._mapped = CIMMappedNetwork(
                model,
                macro_config=context.macro_config,
                calibration_images=context.calibration,
                max_mapped_layers=context.max_mapped_layers,
                calibration_forward=calibration_forward,
            )
        except Exception:
            # A failure mid-mapping leaves earlier layers macro-attached with
            # no CIMMappedNetwork handle; detach everything before re-raising.
            self._mapped = None
            self._cache_key = None
            restore_model(model)
            raise
        self._cache_key = key

    def teardown(self, model: Model) -> None:
        # Keep the mapped macros for the next prepare; only restore digital
        # execution of the model.
        if self._mapped is not None:
            self._mapped.detach()

    def conversions(self) -> int:
        return 0 if self._mapped is None else self._mapped.total_conversions()

    def release(self, model: Model) -> None:
        """Drop the cached mapping entirely (frees the macro models)."""
        if self._mapped is not None:
            self._mapped.unmap()
            self._mapped = None
            self._cache_key = None
