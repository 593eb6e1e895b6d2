"""SGD training for the network engine.

Classifier training follows one fixed recipe: momentum SGD with
momentum MOMENTUM (0.9), a learning rate halved every
LR_HALVING_INTERVAL (100,000) iterations, weight decay WEIGHT_DECAY_FC
(5e-4) on the fully connected weights only (never on biases or PReLU
slopes), and optional horizontal-flip / random-crop augmentation.
Everything is deterministic given the config seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from faceverify.linalg import make_rng

__all__ = ["TrainConfig", "TrainResult", "learning_rate_at", "augment_batch", "train"]

LR_HALVING_INTERVAL = 100_000  # iterations between halvings of the learning rate
MOMENTUM = 0.9
WEIGHT_DECAY_FC = 5e-4  # on the fully connected weights only


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 128
    learning_rate: float = 1e-2
    max_iters: int = 1000
    seed: int = 0
    init_std: float = 0.01
    hflip: bool = False
    random_crop: bool = False
    crop_size: int = 100

    def __post_init__(self):
        if not 0.0 <= self.learning_rate < np.inf:  # NaN fails too
            raise ValueError(f"learning_rate must be a finite number >= 0, got {self.learning_rate}")
        for name, least in (("batch_size", 1), ("max_iters", 1), ("crop_size", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")


@dataclass
class TrainResult:
    losses: list[float] = field(default_factory=list)  # one per iteration

    @property
    def iterations(self) -> int:
        return len(self.losses)


def learning_rate_at(cfg: TrainConfig, iteration: int) -> float:
    """Step schedule: base rate halved every LR_HALVING_INTERVAL iterations."""
    return cfg.learning_rate * 0.5 ** (iteration // LR_HALVING_INTERVAL)


def augment_batch(batch: np.ndarray, rng: np.random.Generator, cfg: TrainConfig) -> np.ndarray:
    """Per-sample horizontal flip (p=0.5) and random square crop, for
    training.  Raises if the input is smaller than the crop target."""
    out = batch
    if cfg.random_crop:
        n, h, w, _ = out.shape
        size = cfg.crop_size
        if h < size or w < size:
            raise ValueError(f"input {h}x{w} is smaller than crop size {size}")
        oy = rng.integers(0, h - size + 1, size=n)
        ox = rng.integers(0, w - size + 1, size=n)
        cropped = np.empty((n, size, size, out.shape[3]))
        for i in range(n):
            cropped[i] = out[i, oy[i] : oy[i] + size, ox[i] : ox[i] + size, :]
        out = cropped
    if cfg.hflip:
        flips = rng.random(out.shape[0]) < 0.5
        out = out.copy()
        out[flips] = out[flips, :, ::-1, :]
    return out


class _MomentumSGD:
    """Classical momentum: v <- mu*v - lr*(grad + wd*w); w <- w + v, with
    mu = MOMENTUM, and wd = WEIGHT_DECAY_FC on the fully connected weights
    and 0 elsewhere."""

    def __init__(self, net):
        self.net = net
        self.velocities = [np.zeros_like(value) for _, _, value, _, _ in net.param_items()]

    def step(self, lr: float) -> None:
        for v, (_, _, value, grad, group) in zip(self.velocities, self.net.param_items()):
            wd = WEIGHT_DECAY_FC if group == "fc" else 0.0
            g = grad + wd * value if wd else grad
            v *= MOMENTUM
            v -= lr * g
            value += v


def train(net, images: np.ndarray, labels: np.ndarray, cfg: TrainConfig) -> TrainResult:
    """Run momentum SGD for cfg.max_iters iterations.

    images: (n, h, w, c) float64 in [0, 1]; labels: (n,) int class ids.
    The net subtracts the training images' mean pixel from every input.
    Batches are drawn by reshuffling the dataset each epoch.  Aborts
    with RuntimeError if the loss turns non-finite.
    """
    rng = make_rng(cfg.seed)
    net.initialize(rng, cfg.init_std)
    net.input_mean = float(images.mean())
    optimizer = _MomentumSGD(net)
    result = TrainResult()

    n = images.shape[0]
    order = rng.permutation(n)
    cursor = 0
    for it in range(cfg.max_iters):
        if cursor + cfg.batch_size > n:
            order = rng.permutation(n)
            cursor = 0
        idx = order[cursor : cursor + cfg.batch_size]
        cursor += cfg.batch_size

        batch = augment_batch(images[idx], rng, cfg)
        loss = net.loss(batch, labels[idx], train=True, rng=rng)
        if not np.isfinite(loss):
            raise RuntimeError(f"training diverged: loss={loss} at iteration {it}")
        net.backward(labels[idx])
        optimizer.step(learning_rate_at(cfg, it))
        result.losses.append(loss)
    return result
