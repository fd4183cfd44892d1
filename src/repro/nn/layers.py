"""Neural-network layers with forward and backward passes (numpy only).

The Fig. 6(c) experiment needs real trained networks (a ResNet-style and a
MobileNet-style CNN) whose weights and activation statistics are then fed to
the PTQ / CIM-noise evaluation.  These layers provide exactly the pieces
those models require — 2-D convolution (standard, grouped/depthwise),
batch normalisation, ReLU, non-overlapping pooling, global average pooling,
flattening and a fully connected layer — each with a hand-written backward
pass so the models can be trained from scratch without any deep-learning
framework.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional

import numpy as np

from repro.nn.functional import col2im, conv_output_size, im2col


class Parameter:
    """A trainable tensor with its gradient."""

    def __init__(self, value: np.ndarray, name: str = "") -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero."""
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self):
        """Shape of the underlying value array."""
        return self.value.shape

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Parameter({self.name or 'unnamed'}, shape={self.value.shape})"


class Layer:
    """Base class: layers transform activations and can backpropagate."""

    #: Layers that hold a weight matrix the CIM backend can map to a crossbar.
    is_matmul_layer = False

    #: Optional quantisation adapter (see :mod:`repro.nn.quantize`).  When set
    #: on a matmul layer it is consulted during inference to fake-quantise the
    #: incoming activations and the weights and to perturb the output with
    #: CIM non-idealities.  ``None`` means full-precision behaviour.
    quantization = None

    #: Attributes only ``backward`` reads, with their empty values.  A
    #: pickle carries the empty values: a trained model's last minibatch
    #: (a conv's im2col, a ReLU's mask) is not part of the model.
    _backward_state: Dict[str, object] = {}

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output (and cache what backward needs)."""
        raise NotImplementedError

    def clear_backward_state(self) -> None:
        """Drop what the last training forward cached for ``backward``."""
        for name, empty in self._backward_state.items():
            setattr(self, name, copy.copy(empty))

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for name, empty in self._backward_state.items():
            if name in state:
                state[name] = copy.copy(empty)
        return state

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate: accumulate parameter gradients, return input grad."""
        raise NotImplementedError

    def parameters(self) -> List[Parameter]:
        """Trainable parameters of this layer (may be empty)."""
        return []

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)


def _kaiming_init(shape, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """He-normal initialisation, appropriate for ReLU networks."""
    std = np.sqrt(2.0 / max(fan_in, 1))
    return rng.standard_normal(shape) * std


class Conv2d(Layer):
    """2-D convolution over NCHW inputs (optionally grouped / depthwise).

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.  For a depthwise convolution set
        ``groups == in_channels == out_channels``.
    kernel_size:
        Square kernel size.
    stride, padding:
        Convolution stride and zero padding.
    groups:
        Number of channel groups; both channel counts must divide by it.
    bias:
        Whether to add a per-output-channel bias.
    """

    is_matmul_layer = True
    _backward_state = {"_cache": {}}

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, groups: int = 1,
                 bias: bool = True, rng: Optional[np.random.Generator] = None) -> None:
        if in_channels % groups or out_channels % groups:
            raise ValueError("channel counts must be divisible by groups")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        fan_in = (in_channels // groups) * kernel_size * kernel_size
        self.weight = Parameter(
            _kaiming_init((out_channels, in_channels // groups, kernel_size, kernel_size),
                          fan_in, rng),
            name="conv.weight",
        )
        self.bias = Parameter(np.zeros(out_channels), name="conv.bias") if bias else None
        self._cache: Dict[str, np.ndarray] = {}

    def parameters(self) -> List[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    # ------------------------------------------------------------------
    def _group_slices(self):
        in_per_group = self.in_channels // self.groups
        out_per_group = self.out_channels // self.groups
        for g in range(self.groups):
            yield (
                slice(g * in_per_group, (g + 1) * in_per_group),
                slice(g * out_per_group, (g + 1) * out_per_group),
            )

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        weight_value = self.weight.value
        if self.quantization is not None and not training:
            x = self.quantization.process_input(x)
            weight_value = self.quantization.process_weight(weight_value)
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {c}")
        h_out = conv_output_size(h, self.kernel_size, self.stride, self.padding)
        w_out = conv_output_size(w, self.kernel_size, self.stride, self.padding)
        out = np.empty((n, self.out_channels, h_out, w_out), dtype=np.float64)
        self._cache = {"input_shape": x.shape, "cols": [], "h_out": h_out, "w_out": w_out}

        for in_slice, out_slice in self._group_slices():
            cols = im2col(x[:, in_slice], self.kernel_size, self.stride, self.padding)
            w_mat = weight_value[out_slice].reshape(out_slice.stop - out_slice.start, -1)
            result = cols @ w_mat.T
            out[:, out_slice] = result.reshape(
                n, h_out, w_out, w_mat.shape[0]).transpose(0, 3, 1, 2)
            if training:
                self._cache["cols"].append(cols)
        if self.bias is not None:
            out += self.bias.value[None, :, None, None]
        if self.quantization is not None and not training:
            out = self.quantization.process_output(out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_output = np.asarray(grad_output, dtype=np.float64)
        n, _, h_out, w_out = grad_output.shape
        input_shape = self._cache["input_shape"]
        grad_input = np.zeros(input_shape, dtype=np.float64)
        in_per_group = self.in_channels // self.groups

        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=(0, 2, 3))

        for g, (in_slice, out_slice) in enumerate(self._group_slices()):
            cols = self._cache["cols"][g]
            grad_out_mat = grad_output[:, out_slice].transpose(0, 2, 3, 1).reshape(
                n * h_out * w_out, -1
            )
            w_mat = self.weight.value[out_slice].reshape(out_slice.stop - out_slice.start, -1)
            self.weight.grad[out_slice] += (grad_out_mat.T @ cols).reshape(
                self.weight.value[out_slice].shape
            )
            grad_cols = grad_out_mat @ w_mat
            group_shape = (n, in_per_group, input_shape[2], input_shape[3])
            grad_input[:, in_slice] = col2im(
                grad_cols, group_shape, self.kernel_size, self.stride, self.padding
            )
        return grad_input


class Linear(Layer):
    """Fully connected layer ``y = x W + b`` with ``W`` of shape (in, out)."""

    is_matmul_layer = True
    _backward_state = {"_input": None}

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            _kaiming_init((in_features, out_features), in_features, rng), name="linear.weight"
        )
        self.bias = Parameter(np.zeros(out_features), name="linear.bias") if bias else None
        self._input: Optional[np.ndarray] = None

    def parameters(self) -> List[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(f"expected input of shape (batch, {self.in_features})")
        weight_value = self.weight.value
        if self.quantization is not None and not training:
            x = self.quantization.process_input(x)
            weight_value = self.quantization.process_weight(weight_value)
        if training:
            self._input = x
        out = x @ weight_value
        if self.bias is not None:
            out = out + self.bias.value
        if self.quantization is not None and not training:
            out = self.quantization.process_output(out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_output = np.asarray(grad_output, dtype=np.float64)
        if self._input is None:
            raise RuntimeError("backward called before a training forward pass")
        self.weight.grad += self._input.T @ grad_output
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.value.T


class BatchNorm2d(Layer):
    """Batch normalisation over the channel dimension of NCHW tensors."""

    _backward_state = {"_cache": {}}

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features), name="bn.gamma")
        self.beta = Parameter(np.zeros(num_features), name="bn.beta")
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self._cache: Dict[str, np.ndarray] = {}

    def parameters(self) -> List[Parameter]:
        return [self.gamma, self.beta]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(f"expected NCHW input with {self.num_features} channels")
        if not training:
            # The four operations of the training path, in its order, run
            # in place on one fresh output (same bits, no temporaries).
            n, c, h, w = x.shape
            out = np.empty(x.shape)
            np.subtract(x, self.running_mean[:, None, None], out=out)
            flat = out.reshape(n, c, h * w)
            flat /= np.sqrt(self.running_var + self.eps)[:, None]
            flat *= self.gamma.value[:, None]
            flat += self.beta.value[:, None]
            return out
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
        self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        std = np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) / std[None, :, None, None]
        self._cache = {"x_hat": x_hat, "std": std}
        return self.gamma.value[None, :, None, None] * x_hat + self.beta.value[None, :, None, None]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_output = np.asarray(grad_output, dtype=np.float64)
        x_hat = self._cache["x_hat"]
        std = self._cache["std"]
        n, _, h, w = grad_output.shape
        m = n * h * w

        self.gamma.grad += (grad_output * x_hat).sum(axis=(0, 2, 3))
        self.beta.grad += grad_output.sum(axis=(0, 2, 3))

        grad_x_hat = grad_output * self.gamma.value[None, :, None, None]
        sum_grad = grad_x_hat.sum(axis=(0, 2, 3), keepdims=True)
        sum_grad_xhat = (grad_x_hat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        grad_input = (grad_x_hat - sum_grad / m - x_hat * sum_grad_xhat / m) / std[
            None, :, None, None
        ]
        return grad_input


class ReLU(Layer):
    """Rectified linear unit."""

    _backward_state = {"_mask": None}

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if training:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training forward pass")
        return np.asarray(grad_output, dtype=np.float64) * self._mask


class MaxPool2d(Layer):
    """Non-overlapping max pooling (kernel == stride)."""

    _backward_state = {"_cache": {}}

    def __init__(self, kernel_size: int = 2) -> None:
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        self.kernel_size = kernel_size
        self._cache: Dict[str, np.ndarray] = {}

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        n, c, h, w = x.shape
        k = self.kernel_size
        if h % k or w % k:
            raise ValueError(f"spatial size ({h}, {w}) not divisible by pool size {k}")
        reshaped = x.reshape(n, c, h // k, k, w // k, k)
        out = reshaped.max(axis=(3, 5))
        if training:
            mask = reshaped == out[:, :, :, None, :, None]
            # Break ties so exactly one element per window backpropagates:
            # group the window elements on the last axis, keep the first max.
            windows = mask.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // k, w // k, k * k)
            first = np.cumsum(windows, axis=-1) == 1
            windows = windows & first
            mask = windows.reshape(n, c, h // k, w // k, k, k).transpose(0, 1, 2, 4, 3, 5)
            self._cache = {"mask": mask, "input_shape": x.shape}
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_output = np.asarray(grad_output, dtype=np.float64)
        mask = self._cache["mask"]
        n, c, h, w = self._cache["input_shape"]
        k = self.kernel_size
        grad = mask * grad_output[:, :, :, None, :, None]
        return grad.reshape(n, c, h, w)


class AvgPool2d(Layer):
    """Non-overlapping average pooling (kernel == stride)."""

    def __init__(self, kernel_size: int = 2) -> None:
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        self.kernel_size = kernel_size
        self._input_shape = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        n, c, h, w = x.shape
        k = self.kernel_size
        if h % k or w % k:
            raise ValueError(f"spatial size ({h}, {w}) not divisible by pool size {k}")
        if training:
            self._input_shape = x.shape
        return x.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_output = np.asarray(grad_output, dtype=np.float64)
        n, c, h, w = self._input_shape
        k = self.kernel_size
        expanded = np.repeat(np.repeat(grad_output, k, axis=2), k, axis=3)
        return expanded / (k * k)


class GlobalAvgPool2d(Layer):
    """Average over all spatial positions, producing (batch, channels)."""

    def __init__(self) -> None:
        self._input_shape = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if training:
            self._input_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_output = np.asarray(grad_output, dtype=np.float64)
        n, c, h, w = self._input_shape
        return np.broadcast_to(grad_output[:, :, None, None], (n, c, h, w)) / (h * w)


class Flatten(Layer):
    """Flatten everything after the batch dimension."""

    def __init__(self) -> None:
        self._input_shape = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if training:
            self._input_shape = x.shape
        return x.reshape(x.shape[0], int(np.prod(x.shape[1:])))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return np.asarray(grad_output, dtype=np.float64).reshape(self._input_shape)
