"""Network assembly: named layers with the input geometry, the stock
face architecture, feature extraction.

The stock net takes 100x100 gray (or RGB) crops through ten 3x3
convolutions in five blocks (32/64, 64/128, 96/192, 128/256, 160/320
channels), max pooling between blocks and global average pooling at the
top, giving a 320-d descriptor that feeds one fully connected
classifier layer.  Every convolution except the last is followed by a
PReLU; cross-channel normalization sits after the activations of the
second and fourth convolutions.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

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

__all__ = ["LAYER_KINDS", "Network", "build_face_net", "extract_features"]

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


LAYER_KINDS = {
    cls.kind: cls
    for cls in (Conv3x3, PReLU, CrossChannelNorm, MaxPool2x2, GlobalAvgPool, Dropout, Dense, SoftmaxXent)
}


class Network:
    """Named layers in order, with the input shape (h, w, c) and the
    class count.  Each layer keeps its name as `layer.name`, so a
    checkpoint takes every fact about a layer from the layer.  The
    compute dtype is the parameters' (float64 when there are none), and
    the global-average-pool layer, layers[feature_index], gives the
    feature descriptor."""

    def __init__(self, named_layers, input_shape: tuple, num_classes: int):
        if len(input_shape) != 3:
            raise ValueError(f"input shape {tuple(input_shape)} is not (h, w, c)")
        if any(size < 1 for size in input_shape):
            raise ValueError(f"input shape {tuple(input_shape)} has a size below 1")
        self.layers: list[Layer] = []
        for name, layer in named_layers:
            if any(ch.isspace() for ch in name):
                raise ValueError(f"layer name {name!r} holds whitespace, which a checkpoint cannot hold")
            layer.name = name
            self.layers.append(layer)
        _check_channels(self.layers, input_shape[2], num_classes)
        self.input_shape = tuple(input_shape)
        self.num_classes = num_classes
        self.dtype = next((np.dtype(layer.dtype).type for layer in self.layers if layer.params), np.float64)
        self.input_mean = 0.0
        self.feature_index = next((i for i, layer in enumerate(self.layers) if isinstance(layer, GlobalAvgPool)), None)
        if self.feature_index is None:
            raise ValueError("network has no global-average-pool feature layer")
        self.layers[0]._input_grad = False  # nothing reads the input's gradient

    def initialize(self, rng: np.random.Generator, std: float) -> None:
        """Gaussian(0, std) weights and zero biases, in place and in layer
        order; PReLU slopes keep their fixed start."""
        for _, name, value, _, _ in self.param_items():
            if name == "weights":
                value[...] = rng.normal(0.0, std, value.shape)
            elif name == "bias":
                value[...] = 0.0

    def _check_batch(self, x: np.ndarray) -> None:
        if x.ndim != 4 or x.shape[1:] != self.input_shape:
            raise ValueError(f"expected batch of shape (n, {self.input_shape}), got {x.shape}")

    def _walk(self, x: np.ndarray, train: bool = False, rng=None, stop: int | None = None):
        """Check, cast and centre the input, then yield the activation of
        each of layers[:stop] in turn."""
        self._check_batch(x)
        out = np.asarray(x, dtype=self.dtype) - self.dtype(self.input_mean)
        for layer in self.layers[:stop]:
            out = layer.forward(out, train=train, rng=rng)
            yield out

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> list[np.ndarray]:
        """Run all layers, returning one activation per layer."""
        return list(self._walk(x, train, rng))

    def loss(self, x: np.ndarray, labels: np.ndarray, train: bool = True, rng=None) -> float:
        for _ in self._walk(x, train, rng):
            pass  # the cost layer keeps the probabilities that loss() reads
        return self._cost_layer().loss(labels)

    def backward(self, labels: np.ndarray) -> None:
        """Fill every layer's parameter gradients after a train forward.
        Every layer's backward runs and takes the cache that forward
        left, so none stays held, and a second backward raises; the first
        layer's returns no input gradient."""
        grad = self._cost_layer().backward_from_labels(labels)
        for layer in reversed(self.layers[:-1]):
            grad = layer.backward(grad)

    def _cost_layer(self) -> SoftmaxXent:
        last = self.layers[-1]
        if not isinstance(last, SoftmaxXent):
            raise ValueError("network does not end in a softmax cost layer")
        return last

    def features(self, x: np.ndarray) -> np.ndarray:
        """Pooled descriptor (eval mode, dropout off), not yet normalized.

        Each image walks the layers alone on a thread pool of _walkers()
        threads (numpy releases the GIL in BLAS and its loops).  Peak
        memory is one image's activations per walker whatever the batch
        size, and a row depends only on its image, never on the batch it
        came in or the thread it ran on."""
        self._check_batch(x)
        n = x.shape[0]
        if n == 0:
            return self._pooled(x)
        with ThreadPoolExecutor(min(n, _walkers())) as pool:
            return np.concatenate(list(pool.map(self._pooled, (x[i : i + 1] for i in range(n)))))

    def _pooled(self, x: np.ndarray) -> np.ndarray:
        for out in self._walk(x, stop=self.feature_index + 1):
            pass  # each activation is dropped once the next one exists
        return out

    def param_items(self):
        for layer in self.layers:
            for item in layer.param_items():
                yield (layer, *item)

    @property
    def spec(self) -> Network:
        """The network itself.  It exists only for perfbench/, which reads
        `spec.layers`, `spec.input_shape` and `spec.num_classes`, and goes
        with the next change to the benchmark."""
        return self


def _check_channels(layers, channels: int, num_classes: int) -> None:
    """Each layer that declares in_channels must get that many from the
    input or the layer before, and the last fully connected layer must
    give num_classes; a layer that declares out_channels changes the
    count, every other layer keeps it."""
    classes = None
    for layer in layers:
        need = getattr(layer, "in_channels", channels)
        if need != channels:
            raise ValueError(f"layer {layer.name or layer.kind} takes {need} channels, but {channels} reach it")
        channels = getattr(layer, "out_channels", channels)
        if isinstance(layer, Dense):
            classes = (layer.name or layer.kind, channels)
    if classes is not None and classes[1] != num_classes:
        raise ValueError(f"layer {classes[0]} gives {classes[1]} classes, not num_classes={num_classes}")


def _walkers() -> int:
    """Concurrent walks for features: the cores this process may run on,
    divided by OpenBLAS's thread count, which is the first whole number
    of at least 1 in OPENBLAS_NUM_THREADS, then GOTO_NUM_THREADS, then
    OMP_NUM_THREADS (OpenBLAS's own order), else one thread per core (so
    an unpinned BLAS leaves one walker)."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    variables = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    counts = (os.environ.get(var, "").strip() for var in variables)
    blas_threads = next((int(v) for v in counts if v.isdecimal() and int(v) >= 1), cores)
    return max(1, cores // blas_threads)


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
    for name, value in (("in_channels", in_channels), ("input_size", input_size), ("width_divisor", width_divisor)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    layers: list[tuple[str, Layer]] = []
    prev = in_channels
    conv_idx = 0
    for block_num, block in enumerate(_STOCK_BLOCKS, start=1):
        for sub, channels in enumerate(block, start=1):
            out_ch = max(1, channels // width_divisor)
            layers.append((f"conv{block_num}{sub}", Conv3x3(prev, out_ch, dtype=dtype)))
            is_last_conv = block_num == len(_STOCK_BLOCKS) and sub == len(block)
            if not is_last_conv:
                layers.append((f"prelu{block_num}{sub}", PReLU(out_ch, dtype=dtype)))
            if conv_idx in _NORM_AFTER:
                layers.append((f"norm{block_num}", CrossChannelNorm()))
            prev = out_ch
            conv_idx += 1
        if block_num < len(_STOCK_BLOCKS):
            layers.append((f"pool{block_num}", MaxPool2x2()))
    layers.append(("pool5", GlobalAvgPool()))
    layers.append(("dropout", Dropout(dropout_rate)))
    layers.append(("fc6", Dense(prev, num_classes, dtype=dtype)))
    layers.append(("cost", SoftmaxXent()))
    return Network(layers, (input_size, input_size, in_channels), num_classes)


def extract_features(net: Network, images: np.ndarray, batch_size: int = 32) -> np.ndarray:
    """Unit-norm pooled descriptors for a stack of aligned images, (0, c)
    for an empty stack.

    `batch_size` is unused: `Network.features` walks one image at a time,
    so no batch size bounds memory or changes a feature.  It stays for
    callers that still pass it."""
    return l2_normalize(net.features(images))
