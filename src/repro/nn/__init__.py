"""Pure-NumPy neural-network substrate (the paper's PyTorch substitution).

Provides layers with hand-derived backprop, model containers exposing flat
parameter/gradient vectors (the representation federated workers upload),
the softmax cross-entropy loss, reference architectures (LeNet,
mini-ResNet), and the fleet kernels that train many replicas as one.
"""

from . import functional, initializers
from .fleet import (
    FleetSequential,
    FleetSoftmaxCrossEntropy,
    fleet_signature,
)
from .layers import (
    AvgPool2d,
    BatchNorm,
    Conv2d,
    Dense,
    Flatten,
    GlobalAvgPool2d,
    Layer,
    LeakyReLU,
    MaxPool2d,
    ReLU,
    Tanh,
)
from .losses import SoftmaxCrossEntropy
from .model import Residual, Sequential
from .models import build_lenet, build_logreg, build_mini_resnet, build_mlp

__all__ = [
    "functional",
    "initializers",
    "Layer",
    "Dense",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Flatten",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "BatchNorm",
    "Residual",
    "Sequential",
    "SoftmaxCrossEntropy",
    "build_logreg",
    "build_mlp",
    "build_lenet",
    "build_mini_resnet",
    "FleetSequential",
    "FleetSoftmaxCrossEntropy",
    "fleet_signature",
]
