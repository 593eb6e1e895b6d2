"""Network layers with explicit forward/backward passes.

All activations are NHWC.  A train-mode forward leaves one cache on
its layer, and that layer's backward takes it, so a finished backward
holds none, and any backward without a fresh train-mode forward raises
instead of returning an older batch's gradient.  So training is a
strictly sequential forward -> backward -> update cycle, and a
train-mode pass must not share a layer instance with any other pass.
An eval-mode forward leaves no cache, so concurrent eval-mode forwards
may share one layer.  Dropout keeps its mask until its next forward
(its backward is the identity without one), and SoftmaxXent its
probabilities in both modes, for loss() to read; Network.features
stops before it.

A layer makes its parameters on their first use, under one lock, so
two forwards that first use a layer at once both see the same arrays.
They start at their starting values, or come from the loader that
`load_params_with` set (a checkpoint reader's, for a layer whose bytes
it checked but did not keep).

Gradient arrays start as np.zeros, not np.zeros_like: np.zeros takes
zeroed memory (calloc), so a large array's pages stay untouched until
written, and every backward replaces the arrays, so a net that only
runs eval forwards never makes its gradients resident.

Compute dtype follows the parameter dtype chosen at construction
(float64 by default; float32 roughly halves memory traffic for
desk-scale training runs).  Gradient checks always run float64.

Parameter conventions:
  - conv weights are (3, 3, c_in, c_out), flattened row-major when
    serialized; biases are (c_out,) and start at zero
  - dense weights are (d_in, d_out)
  - PReLU keeps one trainable slope per channel (last axis)
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "Conv3x3",
    "PReLU",
    "CrossChannelNorm",
    "MaxPool2x2",
    "GlobalAvgPool",
    "Dropout",
    "Dense",
    "SoftmaxXent",
    "softmax",
]


# Output pixels per accumulation group of the conv forward (a band of rows
# of one image, or whole small images): small enough to stay in cache.
_GROUP_PIXELS = 4096

# Elements per block of the LRN window sum: its two padded buffers stay
# in cache.
_WINDOW_BLOCK = 32768

# OpenBLAS 0.3.31 sends a GEMM of at most about this many multiply-adds
# (M*N*K) to a small-matrix kernel, which may sum a row in another order.
_SMALL_GEMM = 1_000_000

# Held while any layer makes its parameters (Layer.__getattr__).
_MAKE_PARAMS = threading.Lock()


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted for numerical stability."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _nine_taps(padded, out, groups, taps, start) -> None:
    """Set out[i0:i1, r0:r1] (whole rows, so a view) of each group to start,
    then add each tap's ((di, dj), matrix) window of `padded`, offset by
    (di, dj) from those pixels, times its matrix, in the order given."""
    w = out.shape[2]
    for i0, i1, r0, r1 in groups:
        acc = out[i0:i1, r0:r1].reshape(-1, out.shape[3])
        acc[:] = start
        for (di, dj), mat in taps:
            window = np.ascontiguousarray(padded[i0:i1, r0 + di : r1 + di, dj : dj + w, :])
            acc += window.reshape(-1, padded.shape[3]) @ mat


class Layer:
    """Base class: parameter-free layers only override forward/backward.

    `kind` names the layer's class in a checkpoint, and `name` (which
    `Network` sets) names this layer.  `fields` maps each of its
    checkpoint fields to its type, in checkpoint order.  The constructor
    takes exactly those fields (plus `dtype`, if it has parameters) and
    keeps each as an attribute of the same name.

    `params` maps each parameter to its weight-decay group, in checkpoint
    order.  Parameter p is attribute p, its gradient grad_p; both exist
    from the first read of any of them (see __getattr__).
    """

    kind = "layer"
    name = ""
    fields: dict[str, type] = {}
    params: dict[str, str] = {}
    # Network clears this on its first layer, whose input gradient
    # nothing reads; backward may then skip it and return None.
    _input_grad = True
    _cache = None  # what a train-mode forward left for backward: one value or a tuple

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _take_cache(self):
        """Remove and return the cache of the last train-mode forward."""
        cache = vars(self).pop("_cache", None)
        if cache is None:
            raise RuntimeError("backward requires a train-mode forward pass")
        return cache

    def param_shapes(self) -> list[tuple[int, ...]]:
        """The shape of each parameter, in `params` order."""
        return []

    def _start_values(self) -> list[np.ndarray]:
        return [np.zeros(shape, dtype=self.dtype) for shape in self.param_shapes()]

    def load_params_with(self, load) -> None:
        """Have the parameters come from load() on their first use, in
        place of their starting values.  load returns one array per
        parameter, in `params` order, or raises; a load that raised is
        tried again at the next use, so no read ever sees a stand-in."""
        self._load = load

    def __getattr__(self, name):
        """Make every parameter and gradient on the first read of one
        (Python calls this only for an attribute not yet set).  An
        attribute set before then is kept."""
        if name not in self.params and name.removeprefix("grad_") not in self.params:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        with _MAKE_PARAMS:
            made = self.__dict__
            if name not in made:
                load = made.get("_load")
                values = load() if load is not None else self._start_values()
                for param, value in zip(self.params, values):
                    made.setdefault("grad_" + param, np.zeros(value.shape, dtype=value.dtype))
                    made.setdefault(param, value)
                made.pop("_load", None)
            return made[name]

    def param_items(self):
        """(name, value array, grad array, decay group) per parameter."""
        return [(p, getattr(self, p), getattr(self, "grad_" + p), group) for p, group in self.params.items()]


class Conv3x3(Layer):
    """3x3 convolution, stride 1, zero padding 1 (spatial size preserved).

    The forward pass splits the output pixels into groups of about
    _GROUP_PIXELS: bands of rows of one image, or whole images when one
    image is smaller.  Each group starts from the bias and adds nine
    shift-and-GEMM products against the padded input, in (di, dj) order,
    into its own slice of the output (_nine_taps).  No sum runs across
    groups, and peak memory is one padded copy of the input plus one
    band instead of a full im2col buffer.  A GEMM row's bytes can still
    depend on the size of its call: OpenBLAS sums a row in another order
    in a call of one row or of fewer than about 1e6 multiply-adds.

    Backward keeps each grad-weight GEMM whole, since it sums over every
    pixel of the batch.  The input gradient runs the same nine-tap loop
    from zero, per group of whole images (_dx_groups), on the padded
    output gradient with mirrored taps and transposed weights.
    """

    kind = "conv3x3"
    fields = {"in_channels": int, "out_channels": int}
    params = {"weights": "conv", "bias": "none"}

    def __init__(self, in_channels: int, out_channels: int, dtype=np.float64):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.dtype = dtype

    def param_shapes(self):
        return [(3, 3, self.in_channels, self.out_channels), (self.out_channels,)]

    def _pad(self, x: np.ndarray) -> np.ndarray:
        n, h, w, c = x.shape
        xp = np.zeros((n, h + 2, w + 2, c), dtype=self.dtype)
        xp[:, 1:-1, 1:-1, :] = x
        return xp

    def forward(self, x, train=False, rng=None):
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise ValueError(f"conv3x3 expects (n, h, w, {self.in_channels}), got {x.shape}")
        n, h, w, _ = x.shape
        xp = self._pad(x)
        out = np.empty((n, h, w, self.out_channels), dtype=self.dtype)
        if h * w >= _GROUP_PIXELS:
            rows = max(1, _GROUP_PIXELS // w)
            groups = [(i, i + 1, r, min(r + rows, h)) for i in range(n) for r in range(0, h, rows)]
        else:
            images = _GROUP_PIXELS // max(1, h * w)
            groups = [(i, min(i + images, n), 0, h) for i in range(0, n, images)]
        taps = [((di, dj), self.weights[di, dj]) for di in range(3) for dj in range(3)]
        _nine_taps(xp, out, groups, taps, self.bias)
        self._cache = xp if train else None
        return out

    def backward(self, grad_out):
        xp = self._take_cache()
        n, h, w = xp.shape[0], xp.shape[1] - 2, xp.shape[2] - 2
        c_in, c_out = self.in_channels, self.out_channels
        g2 = np.ascontiguousarray(grad_out).reshape(n * h * w, c_out)
        self.grad_bias = g2.sum(axis=0)
        self.grad_weights = np.empty_like(self.weights)
        # these GEMMs sum over every pixel of the batch, so they stay whole
        patch = np.empty((n, h, w, c_in), dtype=self.dtype)
        for di in range(3):
            for dj in range(3):
                np.copyto(patch, xp[:, di : di + h, dj : dj + w, :])
                self.grad_weights[di, dj] = patch.reshape(n * h * w, c_in).T @ g2
        del patch  # before the dx buffers exist
        if not self._input_grad:
            return None
        # dx gathered per group of whole images: each pixel adds its nine
        # taps in (di, dj) order to a +0.0 start, as a scatter-add over the
        # whole batch would.  A padding row adds a zero (weights are
        # finite) to a sum that is never -0.0, which leaves it unchanged.
        dx = np.empty((n, h, w, c_in), dtype=self.dtype)
        groups = [(i0, i1, 0, h) for i0, i1 in self._dx_groups(n, h * w)]
        taps = [((2 - di, 2 - dj), self.weights[di, dj].T) for di in range(3) for dj in range(3)]
        _nine_taps(self._pad(grad_out), dx, groups, taps, 0)
        return dx

    def _dx_groups(self, n: int, pixels: int) -> list[tuple[int, int]]:
        """Image ranges for the dx GEMMs (pixels rows each image, c_out ->
        c_in).  Each group's call stays on the same side of both OpenBLAS
        switches as one whole-batch call: more than _SMALL_GEMM
        multiply-adds and more than one row, or else the batch is one
        group, as it is when c_in is 1 (a gemv, whose sums depend on the
        call's rows)."""
        macs = self.in_channels * self.out_channels
        if self.in_channels == 1 or n * pixels * macs <= _SMALL_GEMM:
            return [(0, n)]
        rows = max(_GROUP_PIXELS, _SMALL_GEMM // macs + 1)
        count = max(1, n // -(-rows // pixels))  # every group gets at least that many images
        return [(n * g // count, n * (g + 1) // count) for g in range(count)]


class PReLU(Layer):
    """Per-channel parametric rectifier with trainable negative slopes,
    all starting at 0.25."""

    kind = "prelu"
    fields = {"in_channels": int}
    params = {"slope": "none"}

    def __init__(self, in_channels: int, dtype=np.float64):
        self.in_channels = in_channels
        self.dtype = dtype

    def param_shapes(self):
        return [(self.in_channels,)]

    def _start_values(self):
        return [np.full(self.in_channels, 0.25, dtype=self.dtype)]

    def forward(self, x, train=False, rng=None):
        if x.shape[-1] != self.in_channels:
            raise ValueError(f"prelu expects {self.in_channels} channels, got {x.shape}")
        # y = max(x, 0) + slope * min(x, 0), built without boolean masks
        neg_part = np.minimum(x, 0)
        out = np.maximum(x, 0)
        neg_part *= self.slope
        out += neg_part
        self._cache = x if train else None
        return out

    def backward(self, grad_out):
        x = self._take_cache()
        m = (x < 0).astype(grad_out.dtype)  # 1 where x < 0, else 0
        gx = grad_out * x
        gx *= m
        self.grad_slope = gx.reshape(-1, self.in_channels).sum(axis=0)
        # coeff = m*slope - (m - 1): exactly slope or 1 for a finite slope,
        # -0.0 included (s - 0.0 == s), built in the two buffers above
        coeff, shift = m, np.subtract(m, 1, out=gx)
        coeff *= self.slope
        coeff -= shift
        coeff *= grad_out
        return coeff


class CrossChannelNorm(Layer):
    """Local normalization across channels.

    out = x / (k + (alpha / size) * sum_{j in window} x_j^2)^beta, with a
    window of `size` channels centered on each channel and clipped at the
    channel boundaries.
    The size is odd and >= 1, alpha a finite number >= 0, beta finite
    and k a finite number > 0, so the denominator is >= k > 0 wherever x
    is finite.
    """

    kind = "lrn"
    fields = {"size": int, "alpha": float, "beta": float, "k": float}

    def __init__(self, size: int = 5, alpha: float = 1e-4, beta: float = 0.75, k: float = 1.0):
        # NaN fails every comparison, so each rule rejects it
        if size < 1 or size % 2 != 1:
            raise ValueError(f"lrn size must be odd and >= 1, got {size}")
        if not 0.0 <= alpha < np.inf:
            raise ValueError(f"lrn alpha must be a finite number >= 0, got {alpha}")
        if not -np.inf < beta < np.inf:
            raise ValueError(f"lrn beta must be finite, got {beta}")
        if not 0.0 < k < np.inf:
            raise ValueError(f"lrn k must be a finite number > 0, got {k}")
        self.size = size
        self.alpha = alpha
        self.beta = beta
        self.k = k

    def _window_sum(self, v: np.ndarray) -> np.ndarray:
        """Sliding sum over the channel axis, window clipped at the edges:
        channel j adds j+1, j-1, j+2, j-2, ... in that order.  Blocks of
        rows are copied into a buffer whose rows are padded with -0.0
        (x + -0.0 is x for every x, so a clipped term adds nothing), and
        each offset is one add over the flat block."""
        half = (self.size - 1) // 2
        c = v.shape[-1]
        rows = v.reshape(-1, c)
        out = np.empty_like(rows)
        block = max(1, _WINDOW_BLOCK // (c + 2 * half))
        padded = np.full((min(block, len(rows)), c + 2 * half), -0.0, dtype=v.dtype)
        acc = np.empty_like(padded)
        for r0 in range(0, len(rows), block):
            r1 = min(r0 + block, len(rows))
            pad, sums = padded[: r1 - r0], acc[: r1 - r0]
            pad[:, half : half + c] = rows[r0:r1]
            flat, total = pad.reshape(-1), sums.reshape(-1)
            total[:] = flat
            for off in range(1, half + 1):
                total[:-off] += flat[off:]
                total[off:] += flat[:-off]
            out[r0:r1] = sums[:, half : half + c]
        return out.reshape(v.shape)

    def forward(self, x, train=False, rng=None):
        denom = self._window_sum(x * x)
        denom *= self.alpha / self.size
        denom += self.k
        # eval keeps nothing for backward, so it overwrites denom in place
        scale = np.power(denom, -self.beta, out=None if train else denom)
        out = np.multiply(x, scale, out=None if train else scale)
        self._cache = (x, denom, scale) if train else None
        return out

    def backward(self, grad_out):
        x, denom, scale = self._take_cache()
        # d(out_c)/d(x_i) couples channels whose windows overlap; the
        # correction reuses the same symmetric window sum, and
        # denom^(-beta-1) is recovered as scale/denom to avoid a second pow.
        inner = grad_out * x
        inner *= scale / denom
        correction = self._window_sum(inner)
        correction *= x
        correction *= 2.0 * self.alpha * self.beta / self.size
        return grad_out * scale - correction


def _first_max_cell(win: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Index 0-3 of each window's first cell equal to its max `out`, in
    (0,0), (0,1), (1,0), (1,1) order, or of its first NaN cell when the
    window holds a NaN: the cell np.argmax would pick.  idx counts the
    cells passed over before the first match."""
    nan = bool(np.isnan(out).any())
    idx = np.zeros(out.shape, dtype=np.uint8)
    passed = np.ones(out.shape, dtype=bool)
    for di, dj in ((0, 0), (0, 1), (1, 0)):
        cell = win[:, :, di, :, dj, :]
        passed &= cell != out  # true for every cell of a NaN window
        if nan:
            passed &= cell == cell
        idx += passed
    return idx


class MaxPool2x2(Layer):
    """2x2 max pooling, stride 2, ceil-mode output size ceil(n/2)."""

    kind = "maxpool2x2s2"

    def forward(self, x, train=False, rng=None):
        n, h, w, c = x.shape
        ho, wo = (h + 1) // 2, (w + 1) // 2
        if h % 2 or w % 2:  # an odd edge is padded with -inf
            xp = np.full((n, 2 * ho, 2 * wo, c), -np.inf, dtype=x.dtype)
            xp[:, :h, :w, :] = x
        else:
            xp = x
        win = xp.reshape(n, ho, 2, wo, 2, c)
        out = win.max(axis=(2, 4))
        self._cache = (_first_max_cell(win, out), x.shape) if train else None
        return out

    def backward(self, grad_out):
        idx, (n, h, w, c) = self._take_cache()
        ho, wo = (h + 1) // 2, (w + 1) // 2
        dwin = np.zeros((n, ho, wo, 4, c), dtype=grad_out.dtype)
        np.put_along_axis(dwin, idx[:, :, :, None, :], grad_out[:, :, :, None, :], axis=3)
        dxp = dwin.reshape(n, ho, wo, 2, 2, c).transpose(0, 1, 3, 2, 4, 5).reshape(n, 2 * ho, 2 * wo, c)
        return dxp[:, :h, :w, :]


class GlobalAvgPool(Layer):
    """Average over all spatial positions: (n, h, w, c) -> (n, c)."""

    kind = "avgpool_global"

    def forward(self, x, train=False, rng=None):
        self._cache = x.shape if train else None
        return x.mean(axis=(1, 2))

    def backward(self, grad_out):
        n, h, w, c = self._take_cache()
        return np.broadcast_to(grad_out[:, None, None, :] / (h * w), (n, h, w, c)).copy()


class Dropout(Layer):
    """Inverted dropout: scales kept units by 1/(1-rate) at train time,
    so the eval path is exactly the identity."""

    kind = "dropout"
    fields = {"rate": float}

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._mask = None

    def forward(self, x, train=False, rng=None):
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise ValueError("train-mode dropout needs an rng")
        keep = 1.0 - self.rate
        self._mask = ((rng.random(x.shape) < keep) / keep).astype(x.dtype)
        return x * self._mask

    def backward(self, grad_out):
        if self._mask is None:
            return grad_out
        return grad_out * self._mask


class Dense(Layer):
    """Fully connected layer on flattened inputs."""

    kind = "fully_connected"
    fields = {"in_channels": int, "out_channels": int}
    params = {"weights": "fc", "bias": "none"}

    def __init__(self, in_channels: int, out_channels: int, dtype=np.float64):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.dtype = dtype

    def param_shapes(self):
        return [(self.in_channels, self.out_channels), (self.out_channels,)]

    def forward(self, x, train=False, rng=None):
        if x.ndim != 2 or x.shape[1] != self.in_channels:
            raise ValueError(f"dense expects (n, {self.in_channels}), got {x.shape}")
        self._cache = x if train else None
        return x @ self.weights + self.bias

    def backward(self, grad_out):
        self.grad_weights = self._take_cache().T @ grad_out
        self.grad_bias = grad_out.sum(axis=0)
        return grad_out @ self.weights.T


class SoftmaxXent(Layer):
    """Softmax with mean cross-entropy loss; forward emits probabilities."""

    kind = "softmax_xent"

    def __init__(self):
        self._probs = None

    def forward(self, logits, train=False, rng=None):
        # kept in both modes: loss() reads the latest forward's probabilities
        self._probs = softmax(logits)
        return self._probs

    def loss(self, labels: np.ndarray) -> float:
        n = self._probs.shape[0]
        p = self._probs[np.arange(n), labels]
        return float(-np.log(np.maximum(p, 1e-300)).mean())

    def backward_from_labels(self, labels: np.ndarray) -> np.ndarray:
        """Gradient of the mean cross-entropy w.r.t. the logits."""
        n = self._probs.shape[0]
        grad = self._probs.copy()
        grad[np.arange(n), labels] -= 1.0
        return grad / n
