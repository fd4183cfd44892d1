"""Hardware-in-the-loop execution: run network layers on AFPR-CIM macros.

Where :mod:`repro.nn.quantize` injects *lumped* CIM noise for fast
network-level studies, this module actually routes every Conv2d / Linear
matrix product through :class:`~repro.core.mapping.MappedLayer` macros —
FP-DAC, crossbar, FP-ADC and routing adder included.  The macros evaluate
whole minibatches in one vectorised pass per (tile, sign) over the active
sub-array, so hardware-in-the-loop inference is batch-fast; it is still the
slowest fidelity level and is used for small networks and for validating
that the lumped noise model is faithful to the real pipeline.

This class is the implementation behind the ``analog`` backend of the
execution registry (:mod:`repro.exec`); experiment code should normally go
through ``run_model(model, x, backend="analog")`` rather than instantiate
it directly.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.core.config import MacroConfig
from repro.core.mapping import (
    MappedLayer,
    conv_weights_to_matrix,
    grouped_conv_weights_to_matrix,
    im2col,
)
from repro.nn.layers import Conv2d, Layer, Linear
from repro.nn.model import Model
from repro.nn.training import evaluate_model
from repro.nn.data import iterate_minibatches
from repro.nn.functional import accuracy


class CIMExecutionAdapter:
    """A ``quantization``-hook adapter that delegates the matmul to macros.

    Unlike :class:`~repro.nn.quantize.FakeQuantAdapter`, this adapter does
    not touch the inputs or weights (the macro quantises internally); instead
    it intercepts the *output*: the hook contract only lets us post-process,
    so the adapter recomputes the layer's matrix product on the macro and
    replaces the digital result.

    The execution-plan layer (:mod:`repro.exec.plan`) reads ``self.layer``
    and ``self.mapped`` to build a compiled op for the layer, which skips
    the discarded digital matmul entirely; it never rewrites either, so
    this hook path stays intact as the plan's bit-identity oracle.
    """

    def __init__(self, layer: Layer, macro_config: MacroConfig,
                 calibration_inputs: np.ndarray) -> None:
        self.layer = layer
        self.macro_config = macro_config
        groups = 1
        if isinstance(layer, Conv2d):
            # Grouped/depthwise kernels become a block-diagonal matrix over
            # the ordinary full-width im2col; MappedLayer places only the
            # per-group diagonal blocks on macros.
            groups = layer.groups
            weight_matrix = grouped_conv_weights_to_matrix(layer.weight.value,
                                                           groups)
        elif isinstance(layer, Linear):
            weight_matrix = layer.weight.value
        else:
            raise TypeError(f"unsupported layer type: {type(layer)!r}")
        self.mapped = MappedLayer(weight_matrix, macro_config=macro_config,
                                  groups=groups)
        self.mapped.calibrate(calibration_inputs)
        self._pending_input: Optional[np.ndarray] = None

    # -- quantization-hook protocol ------------------------------------
    def process_input(self, x: np.ndarray) -> np.ndarray:
        """Remember the incoming activations for the macro recomputation."""
        self._pending_input = np.asarray(x, dtype=np.float64)
        return x

    def process_weight(self, weight: np.ndarray) -> np.ndarray:
        """Weights are not modified digitally (the macro holds them)."""
        return weight

    def process_output(self, out: np.ndarray) -> np.ndarray:
        """Replace the digital matmul result with the macro's result."""
        if self._pending_input is None:
            return out
        x = self._pending_input
        self._pending_input = None
        layer = self.layer
        if isinstance(layer, Linear):
            result = self.mapped.forward(x)
            if layer.bias is not None:
                result = result + layer.bias.value
            return result
        # Conv2d: expand patches exactly as the digital forward does, push
        # them through the macros, and fold back into C-contiguous NCHW (the
        # digital forward's layout, which pooling reductions round by).
        n = x.shape[0]
        h_out, w_out = out.shape[2], out.shape[3]
        cols = im2col(x, layer.kernel_size, layer.stride, layer.padding)
        result = self.mapped.forward(cols)
        result = np.ascontiguousarray(
            result.reshape(n, h_out, w_out, layer.out_channels).transpose(0, 3, 1, 2))
        if layer.bias is not None:
            result = result + layer.bias.value[None, :, None, None]
        return result


#: The mapping entry point a calibration forward is handed:
#: ``map_layer(layer, x)`` maps and calibrates ``layer`` on its forward
#: input ``x`` and returns its adapter if the layer is still pending, and
#: returns ``None`` for any other layer.
MapLayer = Callable[[Layer, np.ndarray], Optional[CIMExecutionAdapter]]


class CIMMappedNetwork:
    """A trained network whose matmul layers execute on AFPR-CIM macros.

    Parameters
    ----------
    model:
        The trained FP32 network (modified in place while mapped; call
        :meth:`unmap` to restore it).
    macro_config:
        Macro configuration shared by all mapped layers.
    calibration_images:
        A small batch used to calibrate activation scales and ADC ranges of
        every mapped layer, in one forward through the network.
    max_mapped_layers:
        Map at most this many matmul layers (the rest stay digital); keeps
        runtimes manageable for larger models.  ``None`` maps everything.
    calibration_forward:
        The one calibration forward mapping runs,
        ``calibration_forward(images, map_layer) -> logits``.  Every
        pending layer is mapped and calibrated on the input it sees the
        first time the forward reaches it, with the layers reached before
        it already running on their calibrated macros, and it runs on its
        own macros for the rest of that forward.  While it runs, each
        pending layer's ``forward`` is hooked to map the layer on its first
        call.  The default is ``model.forward``, which maps through those
        hooks: the hook path, every mapped layer on its generic macro
        models.  A replacement may instead call ``map_layer(layer, x)``
        (see :data:`MapLayer`) on a layer's input and run the returned
        adapter's mapped layer itself; it must compute the same function
        bit for bit, draw the same read noise and count the same
        conversions.  :class:`~repro.exec.plan.ModelPlan` passes its op
        program, which runs each layer compiled from the moment it is
        mapped.  It is used while mapping only and never stored.
    """

    def __init__(self, model: Model, macro_config: MacroConfig = MacroConfig(),
                 calibration_images: Optional[np.ndarray] = None,
                 max_mapped_layers: Optional[int] = None,
                 calibration_forward: Optional[
                     Callable[[np.ndarray, MapLayer], np.ndarray]] = None) -> None:
        self.model = model
        self.macro_config = macro_config
        self.adapters: List[CIMExecutionAdapter] = []
        self._mapped_layers: List[Layer] = []
        layers = model.matmul_layers()
        if max_mapped_layers is not None:
            layers = layers[:max_mapped_layers]
        if calibration_images is None:
            for layer in layers:
                # A grouped conv maps its block-diagonal matrix, which
                # reads every input channel's patch.
                in_features = (
                    layer.in_features if isinstance(layer, Linear)
                    else layer.in_channels * layer.kernel_size ** 2
                )
                self._attach(layer, np.abs(np.random.default_rng(0).standard_normal(
                    (8, in_features))))
            return
        # By default the hook path: the forward hooks do the mapping.
        self._map_in_one_pass(
            layers, np.asarray(calibration_images, dtype=np.float64),
            calibration_forward or (lambda images, _: self.forward(images)))

    # ------------------------------------------------------------------
    def _attach(self, layer: Layer, inputs: np.ndarray) -> CIMExecutionAdapter:
        """Map and calibrate ``layer`` on ``inputs`` and route it to its
        macros.  Its digital backward state (a training minibatch's im2col)
        is dropped: a mapped layer runs inference only."""
        adapter = CIMExecutionAdapter(layer, self.macro_config, inputs)
        layer.clear_backward_state()
        layer.quantization = adapter
        self.adapters.append(adapter)
        self._mapped_layers.append(layer)
        return adapter

    def _map_in_one_pass(self, layers: List[Layer], images: np.ndarray,
                         calibration_forward: Callable[[np.ndarray, MapLayer],
                                                       np.ndarray]) -> None:
        order = {id(layer): i for i, layer in enumerate(layers)}
        pending = {id(layer): layer for layer in layers}
        own_forwards = {id(layer): vars(layer).get("forward") for layer in layers}

        def unhook(layer: Layer) -> None:
            # Leave no bound method behind in the instance dict.
            own = own_forwards[id(layer)]
            if own is None:
                del layer.forward
            else:
                layer.forward = own

        def map_layer(layer: Layer, x: np.ndarray) -> Optional[CIMExecutionAdapter]:
            if pending.pop(id(layer), None) is None:
                return None
            unhook(layer)
            if isinstance(layer, Conv2d):
                inputs = im2col(x, layer.kernel_size, layer.stride, layer.padding)
            else:
                inputs = np.asarray(x, dtype=np.float64)
            return self._attach(layer, inputs)

        def hook(layer: Layer) -> Callable[..., np.ndarray]:
            def mapping_forward(x, training=False):
                map_layer(layer, x)
                return layer.forward(x, training=training)
            return mapping_forward

        for layer in layers:
            layer.forward = hook(layer)
        try:
            calibration_forward(images, map_layer)
            if pending:
                names = ", ".join(f"{order[key]} ({type(layer).__name__})"
                                  for key, layer in pending.items())
                raise ValueError(
                    f"the calibration forward never reached matmul layer "
                    f"{names}, so it cannot be calibrated")
        except Exception:
            self.unmap()
            raise
        finally:
            for layer in pending.values():
                unhook(layer)
        # Keep matmul_layers() order (the L<i> keys), not forward order.
        pairs = sorted(zip(self._mapped_layers, self.adapters),
                       key=lambda pair: order[id(pair[0])])
        self._mapped_layers = [layer for layer, _ in pairs]
        self.adapters = [adapter for _, adapter in pairs]

    def unmap(self) -> None:
        """Detach all macro adapters, restoring the digital network."""
        for layer in self._mapped_layers:
            layer.quantization = None
        self._mapped_layers.clear()
        self.adapters.clear()

    def detach(self) -> None:
        """Temporarily restore digital execution, keeping the mapped macros.

        Unlike :meth:`unmap` this does not throw away the programmed and
        calibrated tiles, so a later :meth:`reattach` resumes macro execution
        without re-mapping or re-calibrating (the expensive part of
        hardware-in-the-loop evaluation).
        """
        for layer in self._mapped_layers:
            layer.quantization = None

    def reattach(self) -> None:
        """Resume macro execution after a :meth:`detach`."""
        for layer, adapter in zip(self._mapped_layers, self.adapters):
            layer.quantization = adapter

    # ------------------------------------------------------------------
    def forward(self, images: np.ndarray) -> np.ndarray:
        """Inference through the (partially) macro-mapped network."""
        return self.model.forward(np.asarray(images, dtype=np.float64), training=False)

    def evaluate(self, images: np.ndarray, labels: np.ndarray, batch_size: int = 32) -> float:
        """Top-1 accuracy of the macro-mapped network."""
        logits = []
        for batch_x, _ in iterate_minibatches(images, labels, batch_size, shuffle=False):
            logits.append(self.forward(batch_x))
        return accuracy(np.concatenate(logits, axis=0), np.asarray(labels))

    def total_conversions(self) -> int:
        """Macro conversions spent so far across every mapped layer."""
        return sum(adapter.mapped.total_conversions() for adapter in self.adapters)

    def digital_accuracy(self, images: np.ndarray, labels: np.ndarray,
                         batch_size: int = 64) -> float:
        """Accuracy of the same network with the macros detached (reference)."""
        saved = [(layer, layer.quantization) for layer in self._mapped_layers]
        for layer, _ in saved:
            layer.quantization = None
        try:
            return evaluate_model(self.model, images, labels, batch_size=batch_size)
        finally:
            for layer, adapter in saved:
                layer.quantization = adapter
