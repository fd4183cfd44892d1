"""Neural-network substrate for the network-level evaluation (Fig. 6(c)).

A from-scratch numpy implementation of everything the paper's accuracy study
needs: layers with backpropagation, ResNet-style and MobileNet-style
reference models, a synthetic image dataset standing in for ImageNet, a
training loop, the post-training-quantisation (PTQ) flow for INT8 / FP8
formats with injected CIM non-idealities, and a hardware-in-the-loop backend
that routes matrix products through actual AFPR-CIM macro models.
"""

from repro.nn.layers import (
    Parameter,
    Layer,
    Conv2d,
    Linear,
    BatchNorm2d,
    ReLU,
    MaxPool2d,
    AvgPool2d,
    GlobalAvgPool2d,
    Flatten,
)
from repro.nn.model import Model, Sequential, ResidualBlock, DepthwiseSeparableBlock
from repro.nn.functional import softmax, cross_entropy, accuracy, one_hot, im2col, col2im
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.data import SyntheticImageDataset, DatasetConfig, iterate_minibatches
from repro.nn.resnet import build_resnet_lite, resnet_lite_description
from repro.nn.mobilenet import build_mobilenet_lite, mobilenet_lite_description
from repro.nn.training import Trainer, TrainingHistory, evaluate_model
from repro.nn.quantize import (
    CIMNonidealities,
    extract_cim_nonidealities,
    FakeQuantAdapter,
    PTQResult,
    attach_adapters,
    restore_model,
    calibrate_adapters,
)
from repro.nn.cim_backend import CIMMappedNetwork, CIMExecutionAdapter

__all__ = [
    "Parameter",
    "Layer",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Model",
    "Sequential",
    "ResidualBlock",
    "DepthwiseSeparableBlock",
    "softmax",
    "cross_entropy",
    "accuracy",
    "one_hot",
    "im2col",
    "col2im",
    "SGD",
    "Adam",
    "Optimizer",
    "SyntheticImageDataset",
    "DatasetConfig",
    "iterate_minibatches",
    "build_resnet_lite",
    "resnet_lite_description",
    "build_mobilenet_lite",
    "mobilenet_lite_description",
    "Trainer",
    "TrainingHistory",
    "evaluate_model",
    "CIMNonidealities",
    "extract_cim_nonidealities",
    "FakeQuantAdapter",
    "PTQResult",
    "attach_adapters",
    "restore_model",
    "calibrate_adapters",
    "CIMMappedNetwork",
    "CIMExecutionAdapter",
]
