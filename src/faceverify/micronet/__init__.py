"""A small from-scratch convolutional network engine.

Dense NHWC tensors, hand-derived backward passes, and an SGD-with-
momentum trainer.  Big enough to instantiate the stock 100x100 face
architecture; small enough to gradient-check every layer against
finite differences.
"""

from faceverify.micronet.layers import (
    Conv3x3,
    CrossChannelNorm,
    Dense,
    Dropout,
    GlobalAvgPool,
    MaxPool2x2,
    PReLU,
    SoftmaxXent,
    softmax,
)
from faceverify.micronet.network import (
    LayerSpec,
    Network,
    NetworkSpec,
    build_face_net,
    extract_features,
)
from faceverify.micronet.training import (
    TrainConfig,
    TrainResult,
    augment_batch,
    learning_rate_at,
    train,
)

__all__ = [
    "Conv3x3",
    "CrossChannelNorm",
    "Dense",
    "Dropout",
    "GlobalAvgPool",
    "MaxPool2x2",
    "PReLU",
    "SoftmaxXent",
    "softmax",
    "LayerSpec",
    "Network",
    "NetworkSpec",
    "build_face_net",
    "extract_features",
    "TrainConfig",
    "TrainResult",
    "augment_batch",
    "learning_rate_at",
    "train",
]
