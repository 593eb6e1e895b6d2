"""Network assembly: layer specs, the stock face architecture, feature
extraction.

The stock net takes 100x100 gray (or RGB) crops through ten 3x3
convolutions in five blocks (32/64, 64/128, 96/192, 128/256, 160/320
channels), max pooling between blocks and global average pooling at the
top, giving a 320-d descriptor that feeds one fully connected
classifier layer.  Every convolution except the last is followed by a
PReLU; cross-channel normalization sits after the activations of the
second and fourth convolutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from faceverify.linalg import l2_normalize
from faceverify.micronet.layers import (
    Conv3x3,
    CrossChannelNorm,
    Dense,
    Dropout,
    GlobalAvgPool,
    Layer,
    MaxPool2x2,
    PReLU,
    SoftmaxXent,
)

__all__ = ["LAYER_KINDS", "LayerSpec", "NetworkSpec", "Network", "build_face_net", "extract_features"]

# (channels per conv, normalization after conv index) for the stock net;
# block boundaries get a 2x2 max pool.
_STOCK_BLOCKS = [
    (32, 64),
    (64, 128),
    (96, 192),
    (128, 256),
    (160, 320),
]
_NORM_AFTER = {1, 3}  # conv indices (0-based) followed by cross-channel norm


@dataclass(frozen=True)
class LayerKind:
    """Everything the spec side knows about one layer kind."""

    cls: type
    fields: tuple  # LayerSpec fields, passed to cls in this (checkpoint) order
    takes_dtype: bool  # cls also takes the compute dtype (parametrized layers)


LAYER_KINDS = {
    k.cls.kind: k
    for k in (
        LayerKind(Conv3x3, ("in_channels", "out_channels"), True),
        LayerKind(PReLU, ("in_channels",), True),
        LayerKind(CrossChannelNorm, ("size", "alpha", "beta", "k"), False),
        LayerKind(MaxPool2x2, (), False),
        LayerKind(GlobalAvgPool, (), False),
        LayerKind(Dropout, ("rate",), False),
        LayerKind(Dense, ("in_channels", "out_channels"), True),
        LayerKind(SoftmaxXent, (), False),
    )
}


@dataclass(frozen=True)
class LayerSpec:
    """Declarative description of one layer; LAYER_KINDS says which
    fields its kind reads."""

    kind: str
    in_channels: int = 0
    out_channels: int = 0
    rate: float = 0.0
    size: int = 5
    alpha: float = 1e-4
    beta: float = 0.75
    k: float = 1.0
    name: str = ""

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")

    def build(self, dtype=np.float64) -> Layer:
        kind = LAYER_KINDS[self.kind]
        args = [getattr(self, f) for f in kind.fields]
        return kind.cls(*args, dtype=dtype) if kind.takes_dtype else kind.cls(*args)


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered layer list plus input geometry."""

    layers: tuple
    input_shape: tuple  # (h, w, c)
    num_classes: int

    def feature_index(self) -> int:
        for i, spec in enumerate(self.layers):
            if spec.kind == "avgpool_global":
                return i
        raise ValueError("spec has no global-average-pool feature layer")


class Network:
    """A spec plus its instantiated layers and parameters."""

    def __init__(self, spec: NetworkSpec, dtype=np.float64):
        self.spec = spec
        self.dtype = np.dtype(dtype).type
        self.layers: list[Layer] = [s.build(self.dtype) for s in spec.layers]
        self.input_mean = 0.0
        self._feature_index = spec.feature_index()

    def initialize(self, rng: np.random.Generator, std: float) -> None:
        """Gaussian(0, std) weights and zero biases, in place and in layer
        order; PReLU slopes keep their fixed start."""
        for _, name, value, _, _ in self.param_items():
            if name == "weights":
                value[...] = rng.normal(0.0, std, value.shape)
            elif name == "bias":
                value[...] = 0.0

    def _walk(self, x: np.ndarray, train: bool = False, rng=None, stop: int | None = None):
        """Check, cast and centre the input, then yield the activation of
        each of layers[:stop] in turn."""
        if x.ndim != 4 or x.shape[1:] != self.spec.input_shape:
            raise ValueError(f"expected batch of shape (n, {self.spec.input_shape}), got {x.shape}")
        out = np.asarray(x, dtype=self.dtype) - self.dtype(self.input_mean)
        for layer in self.layers[:stop]:
            out = layer.forward(out, train=train, rng=rng)
            yield out

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> list[np.ndarray]:
        """Run all layers, returning one activation per layer."""
        return list(self._walk(x, train, rng))

    def loss(self, x: np.ndarray, labels: np.ndarray, train: bool = True, rng=None) -> float:
        self.forward(x, train=train, rng=rng)
        return self._cost_layer().loss(labels)

    def backward(self, labels: np.ndarray) -> None:
        """Fill every layer's parameter gradients after a train forward."""
        grad = self._cost_layer().backward_from_labels(labels)
        for layer in reversed(self.layers[:-1]):
            grad = layer.backward(grad)

    def _cost_layer(self) -> SoftmaxXent:
        last = self.layers[-1]
        if not isinstance(last, SoftmaxXent):
            raise ValueError("network does not end in a softmax cost layer")
        return last

    def features(self, x: np.ndarray) -> np.ndarray:
        """Pooled descriptor (eval mode, dropout off), not yet normalized."""
        for out in self._walk(x, stop=self._feature_index + 1):
            pass  # each activation is dropped once the next one exists
        return out

    def param_items(self):
        for layer in self.layers:
            for item in layer.param_items():
                yield (layer, *item)


def build_face_net(
    num_classes: int = 10548,
    in_channels: int = 1,
    input_size: int = 100,
    width_divisor: int = 1,
    dropout_rate: float = 0.4,
    dtype=np.float64,
) -> Network:
    """Instantiate the stock architecture (parameters start at zero).

    width_divisor scales all channel counts down (e.g. 4 for the toy
    variant trained in the tests); input_size sets the square crop size.
    """
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    specs: list[LayerSpec] = []
    prev = in_channels
    conv_idx = 0
    for block_num, block in enumerate(_STOCK_BLOCKS, start=1):
        for sub, channels in enumerate(block, start=1):
            out_ch = max(1, channels // width_divisor)
            specs.append(
                LayerSpec("conv3x3", in_channels=prev, out_channels=out_ch, name=f"conv{block_num}{sub}")
            )
            is_last_conv = block_num == len(_STOCK_BLOCKS) and sub == len(block)
            if not is_last_conv:
                specs.append(LayerSpec("prelu", in_channels=out_ch, name=f"prelu{block_num}{sub}"))
            if conv_idx in _NORM_AFTER:
                specs.append(LayerSpec("lrn", name=f"norm{block_num}"))
            prev = out_ch
            conv_idx += 1
        if block_num < len(_STOCK_BLOCKS):
            specs.append(LayerSpec("maxpool2x2s2", name=f"pool{block_num}"))
    specs.append(LayerSpec("avgpool_global", name="pool5"))
    specs.append(LayerSpec("dropout", rate=dropout_rate, name="dropout"))
    specs.append(LayerSpec("fully_connected", in_channels=prev, out_channels=num_classes, name="fc6"))
    specs.append(LayerSpec("softmax_xent", name="cost"))
    spec = NetworkSpec(tuple(specs), (input_size, input_size, in_channels), num_classes)
    return Network(spec, dtype=dtype)


def extract_features(net: Network, images: np.ndarray, batch_size: int = 32) -> np.ndarray:
    """Unit-norm pooled descriptors for a stack of aligned images."""
    feats = []
    for start in range(0, images.shape[0], batch_size):
        feats.append(net.features(images[start : start + batch_size]))
    return l2_normalize(np.concatenate(feats, axis=0))
