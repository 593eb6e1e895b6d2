"""Joint Bayesian similarity and large-margin metric training.

A pair of unit-norm features (x_i, x_j) is scored with the quadratic
form

    d(x_i, x_j) = (x_i - x_j)^T M (x_i - x_j) - 2 x_i^T B x_j
    similarity  = b - d(x_i, x_j)

where M, B and the bias b are learned by stochastic subgradient descent
on a unit-margin hinge objective: a pair with label y in {+1, -1} is in
violation whenever y * similarity <= 1, and only violating pairs update
the model.  M and B start from random Gram matrices V V^T and W W^T so
both are symmetric positive semi-definite at initialization; every M
update adds a symmetric rank-one term, so M stays symmetric throughout.

The literal B update (+2 * gamma * y * x_i x_j^T) is asymmetric in the
pair order; by default we apply its symmetrized form
gamma * y * (x_i x_j^T + x_j x_i^T), which keeps similarity(x, y) ==
similarity(y, x) at every step.  Set symmetrize_b=False for the literal
rule.

hinge_step runs once per pair step, so numpy's per-call overhead is
most of its cost.  It scores through ndarray.dot, not @: both reach the
same BLAS gemv and ddot calls and give the same bytes, but at d=32
matmul's dispatch for 1-D operands costs about 1.8 us per chain against
about 0.95 us for .dot.  It computes x_i - x_j once and builds each
update in one d x d buffer, every element's operations in the order of
the np.outer form, so the model keeps its bytes.

train_metric's margin decisions are exact: every pair step decides as
the scalar hinge_step would, so the model is the same bit for bit.  An
epoch is screened while it has met fewer than steps / n violators (n
training rows): the first epoch starts screened, a later one starts
screened when the one before ended under that bound, and a screened
epoch that reaches it finishes on the plain loop.  Each violator met
while screened costs one n x d x d cache rebuild, so an epoch makes at
most about steps / n + 1 of them, and a busy epoch costs at most about
twice a plain one.  train_metric caches a_k = x_k^T M x_k,
R = X (M + B), b and tol for the current model, so a pair's distance
a_i + a_j - 2 R_i x_j costs O(d), and skips a pair of a screened epoch
only where its screened margin y (b - d) - 1 exceeds

    tol = 4 gamma_{2d+8} (4 r^2 (|M|_F + |B|_F) + |b| + 1),
    gamma_k = k u / (1 - k u),  u = 2^-53,

with r the largest row norm.  That bounds the rounding error of both
forms, in any summation order (Higham, Accuracy and Stability of
Numerical Algorithms, section 3.1).  Every other pair, NaN included,
goes to hinge_step.  Every update drops the cache; a screened epoch
then screens its next 256 pairs against the updated model.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from faceverify.linalg import check_finite_rows, l2_normalize, make_rng

__all__ = [
    "JointBayesModel",
    "MetricTrainConfig",
    "PairBatch",
    "PairSampler",
    "SyntheticEmbeddingModel",
    "cosine_matrix",
    "similarity_matrix",
    "hinge_step",
    "init_model",
    "train_metric",
    "generate_synthetic",
]

# train_metric's margin screen: pairs screened per pass, which bounds the
# gathered rows to 2 x 256 x d floats, and the float64 unit roundoff
_SCREEN_CHUNK = 256
_UNIT_ROUNDOFF = 2.0**-53


@dataclass
class JointBayesModel:
    M: np.ndarray
    B: np.ndarray
    b: float

    @property
    def dim(self) -> int:
        return self.M.shape[0]


@dataclass(frozen=True)
class MetricTrainConfig:
    gamma: float = 1e-3       # learning rate for M and B
    gamma_b: float = 1e-4     # learning rate for the bias
    neg_to_pos_ratio: int = 20
    epochs: int = 20
    seed: int = 0
    symmetrize_b: bool = True

    def __post_init__(self):
        # zero rates are allowed: they turn training into a pure
        # violation census without moving the model
        for name, rate in (("gamma", self.gamma), ("gamma_b", self.gamma_b)):
            if not 0.0 <= rate < np.inf:  # NaN fails too
                raise ValueError(f"{name} must be a finite number >= 0, got {rate}")
        for name, least in (("neg_to_pos_ratio", 1), ("epochs", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")


@dataclass
class PairBatch:
    """Index pairs into a feature set with +-1 same-subject labels."""

    i: np.ndarray
    j: np.ndarray
    y: np.ndarray


def _distance(model: JointBayesModel, x_i: np.ndarray, x_j: np.ndarray, diff: np.ndarray) -> float:
    """The single-pair form on float64 vectors of length model.dim, with
    diff = x_i - x_j; checks nothing.  It uses ndarray.dot for the
    reason the module docstring gives."""
    return float(diff.dot(model.M).dot(diff) - 2.0 * x_i.dot(model.B).dot(x_j))


def similarity_matrix(model: JointBayesModel, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Similarity b - d(x_i, x_j) of every (row of left) x (row of
    right) pair."""
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    if left.shape[1] != model.dim or right.shape[1] != model.dim:
        raise ValueError("feature dimension does not match model")
    lm = np.einsum("nd,de,ne->n", left, model.M, left)
    rm = np.einsum("nd,de,ne->n", right, model.M, right)
    cross = left @ (model.M + model.B) @ right.T
    dist = lm[:, None] + rm[None, :] - 2.0 * cross
    return model.b - dist


def cosine_matrix(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Cosine similarity of every (row of left) x (row of right) pair,
    the metric-free baseline."""
    return l2_normalize(np.asarray(left, dtype=np.float64)) @ l2_normalize(np.asarray(right, dtype=np.float64)).T


def init_model(d: int, rng: np.random.Generator) -> JointBayesModel:
    """Random Gram-matrix start: M = V V^T, B = W W^T, b = 0."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    v = rng.standard_normal((d, d))
    w = rng.standard_normal((d, d))
    return JointBayesModel(v @ v.T, w @ w.T, 0.0)


def hinge_step(
    model: JointBayesModel,
    x_i: np.ndarray,
    x_j: np.ndarray,
    y: int,
    cfg: MetricTrainConfig,
) -> bool:
    """One stochastic update; mutates model only if the pair violates
    the unit margin.  Returns whether it did.

    x_i and x_j must be float64 vectors of length model.dim: this runs
    once per pair step and checks nothing (train_metric checks its
    feature matrix once per call).

    numpy's per-call overhead is most of the step's cost, so it
    computes diff once, scores through ndarray.dot (the same BLAS calls
    as @, at half the dispatch cost for vectors) and builds each update
    in one d x d buffer.  Each element keeps the operation order of the
    np.outer form, so the model is the same bit for bit: M takes
    s (d_i d_j) with s = gamma y, the symmetric B s (c_ij + c_ji) with
    c = x_i x_j^T, and the literal B (2 gamma y) c_ij.
    """
    diff = x_i - x_j
    if y * (model.b - _distance(model, x_i, x_j, diff)) > 1.0:
        return False
    s = cfg.gamma * y
    buf = diff[:, None] * diff
    buf *= s
    model.M -= buf
    np.multiply(x_i[:, None], x_j, out=buf)
    if cfg.symmetrize_b:
        buf += buf.T  # numpy reads the overlapping transpose from a copy
        buf *= s
    else:
        buf *= 2.0 * cfg.gamma * y
    model.B += buf
    model.b += cfg.gamma_b * y
    return True


def _same_subject_pairs(labels: np.ndarray) -> np.ndarray:
    """Flat indices i * n + j of the i < j same-label pairs, ascending
    (row-major order), built one subject size at a time."""
    n = len(labels)
    try:
        _, codes, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    except TypeError as err:  # np.unique sorts them
        raise ValueError(f"labels must be mutually orderable: {err}") from err
    order = np.argsort(codes, kind="stable")  # each subject's rows, ascending
    first = np.cumsum(sizes) - sizes  # where each subject's rows start in order
    flat = [np.empty(0, dtype=np.int64)]
    for size in sorted(set(sizes[sizes > 1].tolist())):
        members = order[first[sizes == size, None] + np.arange(size)]
        a, b = np.triu_indices(size, 1)
        flat.append((members[:, a] * n + members[:, b]).ravel())
    return np.sort(np.concatenate(flat))


class PairSampler:
    """Builds the positive/negative pair pools and emits alternating epochs.

    The positive pool holds every same-subject pair; the negative pool is
    subsampled (without replacement) to neg_to_pos_ratio times the
    positive count.  Each epoch is one shuffled pass over the positives
    with one negative drawn after each positive; the negative queue
    cycles through the pool, reshuffling whenever it runs out.  Pools and
    emission order are deterministic given the rng.

    Labels are grouped by value with np.unique, so they must be
    mutually orderable (a str, int, float or bool array; other labels
    fail quoting numpy's message), and a NaN or inf float label, which
    equals no label, is rejected.
    """

    def __init__(self, labels: np.ndarray, rng: np.random.Generator, cfg: MetricTrainConfig):
        labels = np.asarray(labels)
        if labels.dtype.kind in "fc" and not np.isfinite(labels).all():
            bad = np.flatnonzero(~np.isfinite(labels))
            raise ValueError(f"labels must be finite, got {labels[bad[0]]} at row {bad[0]} ({len(bad)} in all)")
        n = len(labels)
        pos = _same_subject_pairs(labels)
        if len(pos) == 0:
            raise ValueError("no positive pair available: need a subject with >= 2 samples")
        n_neg = n * (n - 1) // 2 - len(pos)
        if n_neg == 0:
            raise ValueError("no negative pair available: need >= 2 subjects")
        pi, pj = np.divmod(pos, n)
        cap = min(n_neg, cfg.neg_to_pos_ratio * len(pos))
        # rank r among the negatives to rank t among all i < j pairs in
        # row-major order: the k-th positive, at rank prank_k, has
        # prank_k - k negatives before it, so t = r + #{k: prank_k - k <= r}
        r = np.sort(rng.choice(n_neg, size=cap, replace=False))
        rows = np.arange(n)
        row_start = rows * n - rows * (rows + 1) // 2  # rank of (i, i + 1)
        prank = row_start[pi] + pj - pi - 1
        t = r + np.searchsorted(prank - np.arange(len(prank)), r, side="right")
        ni = np.searchsorted(row_start, t, side="right") - 1
        self.pos_pairs = np.stack([pi, pj], axis=1)
        self.neg_pairs = np.stack([ni, t - row_start[ni] + ni + 1], axis=1)
        self._rng = rng
        self._neg_queue = rng.permutation(len(self.neg_pairs))
        self._neg_cursor = 0

    def _next_negatives(self, count: int) -> np.ndarray:
        out = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            take = min(count - filled, len(self._neg_queue) - self._neg_cursor)
            out[filled : filled + take] = self._neg_queue[self._neg_cursor : self._neg_cursor + take]
            self._neg_cursor += take
            filled += take
            if self._neg_cursor == len(self._neg_queue):
                self._neg_queue = self._rng.permutation(len(self.neg_pairs))
                self._neg_cursor = 0
        return out

    def epoch(self) -> PairBatch:
        """Alternating +1/-1 sequence covering every positive pair once."""
        n_pos = len(self.pos_pairs)
        pos = self.pos_pairs[self._rng.permutation(n_pos)]
        neg = self.neg_pairs[self._next_negatives(n_pos)]
        i = np.empty(2 * n_pos, dtype=np.int64)
        j = np.empty(2 * n_pos, dtype=np.int64)
        y = np.empty(2 * n_pos, dtype=np.int64)
        i[0::2], j[0::2], y[0::2] = pos[:, 0], pos[:, 1], 1
        i[1::2], j[1::2], y[1::2] = neg[:, 0], neg[:, 1], -1
        return PairBatch(i, j, y)


def _screen_cache(features: np.ndarray, r2: float, model: JointBayesModel) -> tuple:
    """(a, R, b, tol) for one model state, with a = rowwise(X M . X) and
    R = X (M + B): a_i + a_j - 2 R_i . x_j is hinge_step's distance while
    M is exactly symmetric, as init_model and every update keep it.  r2
    is the largest squared row norm; tol is the module docstring's."""
    xm = features @ model.M
    a = np.einsum("nd,nd->n", xm, features)
    r = np.matmul(features, model.M + model.B, out=xm)
    k = 2 * model.dim + 8
    gamma_k = k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)
    scale = 4.0 * r2 * (np.linalg.norm(model.M) + np.linalg.norm(model.B)) + abs(model.b) + 1.0
    return a, r, model.b, 4.0 * gamma_k * scale


def _undecided(cache: tuple, features: np.ndarray, i: np.ndarray, j: np.ndarray, y: np.ndarray) -> np.ndarray:
    """True for each pair hinge_step must decide: every pair whose
    screened margin does not clear the unit margin by more than tol,
    NaN included."""
    a, r, b, tol = cache
    dist = a[i] + a[j] - 2.0 * np.einsum("nd,nd->n", r[i], features[j])
    return ~(y * (b - dist) - 1.0 > tol)


def train_metric(
    features: np.ndarray,
    labels: np.ndarray,
    cfg: MetricTrainConfig,
) -> tuple[JointBayesModel, list[float]]:
    """Fit (M, B, b) on labeled features; returns the model and the
    per-epoch fraction of pairs that violated the margin.

    The one check of the metric stage's input: features must be a 2-D
    finite matrix with one label per row, and PairSampler rejects a
    non-finite label.  The pair steps check nothing; the model is checked
    after each epoch, and a NaN or inf in M, B or b (steps too large for
    the features) aborts with ValueError naming the epoch.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or labels.shape != features.shape[:1]:
        raise ValueError(f"need a 2-D feature matrix and one label per row, got {features.shape} and {labels.shape}")
    check_finite_rows(features, "features")
    norms = np.linalg.norm(features, axis=1)
    if not np.allclose(norms, 1.0, atol=1e-6):
        warnings.warn("features are not unit-norm; metric training expects L2-normalized inputs")
    rng = make_rng(cfg.seed)
    model = init_model(features.shape[1], rng)
    sampler = PairSampler(labels, rng, cfg)

    rows = list(features)
    r2 = float(np.einsum("nd,nd->n", features, features).max())
    cache = None  # _screen_cache of the current model, built on demand
    screened = True  # no history yet, so the first epoch starts screened
    violation_fractions: list[float] = []
    for epoch in range(1, cfg.epochs + 1):
        batch = sampler.epoch()
        pair_i, pair_j, pair_y = batch.i.tolist(), batch.j.tolist(), batch.y.tolist()
        steps = len(pair_y)
        violations = 0
        k = 0
        while k < steps:
            if screened:
                stop = min(k + _SCREEN_CHUNK, steps)
                if cache is None:
                    cache = _screen_cache(features, r2, model)
                keep = _undecided(cache, features, batch.i[k:stop], batch.j[k:stop], batch.y[k:stop])
                todo = (k + np.flatnonzero(keep)).tolist()
            else:
                stop = steps
                todo = range(k, steps)
            k = stop
            for t in todo:
                if hinge_step(model, rows[pair_i[t]], rows[pair_j[t]], pair_y[t], cfg):
                    violations += 1
                    cache = None
                    if screened:  # screen the rest against the new model, while still quiet
                        k = t + 1
                        screened = violations * len(rows) < steps
                        break
        if not (np.isfinite(model.M).all() and np.isfinite(model.B).all() and np.isfinite(model.b)):
            raise ValueError(f"metric training diverged: M, B or b holds NaN or inf after epoch {epoch}")
        violation_fractions.append(violations / steps)
        # a violator met while screened costs one n x d x d rebuild, so an
        # epoch is screened only while it has met fewer than steps / n of
        # them; the next epoch starts as this one ended
        screened = violations * len(rows) < steps
    return model, violation_fractions


@dataclass(frozen=True)
class SyntheticEmbeddingModel:
    """Generator for identity-plus-variation features: x = mu + eps with
    mu ~ N(0, between_cov I) drawn once per subject and eps ~ N(0,
    within_cov I) per sample, then L2-normalized like real features.
    Both covariances are scalar multiples of the identity, the only
    kind.  Every rule is checked when the model is built: each size is
    >= 1, the seed is >= 0, each scale is a finite number >= 0, and the
    two scales are not both zero (every sample would be the zero
    vector)."""

    dim: int
    num_subjects: int
    samples_per_subject: int
    between_cov: float = 1.0
    within_cov: float = 0.25
    seed: int = 0

    def __post_init__(self):
        for name, least in (("dim", 1), ("num_subjects", 1), ("samples_per_subject", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        for name in ("between_cov", "within_cov"):
            scale = getattr(self, name)
            if not (np.isscalar(scale) and 0.0 <= scale < np.inf):  # NaN fails too
                raise ValueError(f"{name} must be a finite number >= 0, got {scale}")
        if self.between_cov == 0 and self.within_cov == 0:
            raise ValueError("between_cov and within_cov are both zero, so every sample would be zero")


def generate_synthetic(model: SyntheticEmbeddingModel) -> tuple[np.ndarray, np.ndarray]:
    """Draw the full synthetic set; returns (features, subject labels).
    One draw, in stream order, holds each subject's mean and then its
    samples."""
    rng = make_rng(model.seed)
    z = rng.standard_normal((model.num_subjects, 1 + model.samples_per_subject, model.dim))
    sb, sw = np.sqrt(float(model.between_cov)), np.sqrt(float(model.within_cov))
    feats = sb * z[:, :1] + sw * z[:, 1:]
    labels = np.repeat(np.arange(model.num_subjects), model.samples_per_subject)
    return l2_normalize(feats.reshape(-1, model.dim)), labels
