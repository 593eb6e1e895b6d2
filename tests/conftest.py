import csv
import io
import struct
from pathlib import Path

import numpy as np
import pytest

from faceverify.linalg import make_rng
from faceverify.metric import JointBayesModel, PairSampler, _distance, hinge_step, init_model


def make_blob_images(n=500, size=32, num_classes=10, seed=0):
    """Ten-class image set: one Gaussian blob per class on a ring, with
    jittered centers and pixel noise.  Easy enough to learn at desk scale,
    hard enough that an untrained net sits at chance."""
    rng = make_rng(seed)
    angles = np.linspace(0, 2 * np.pi, num_classes, endpoint=False)
    centers = np.stack(
        [size / 2 + (size / 3) * np.cos(angles), size / 2 + (size / 3) * np.sin(angles)], axis=1
    )
    yy, xx = np.mgrid[0:size, 0:size]
    images = np.empty((n, size, size, 1))
    labels = rng.integers(0, num_classes, size=n)
    for k in range(n):
        cy, cx = centers[labels[k]]
        cy += rng.normal(0, 1.0)
        cx += rng.normal(0, 1.0)
        img = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * 3.0**2))
        img += rng.normal(0, 0.05, img.shape)
        images[k, :, :, 0] = np.clip(img, 0, 1)
    return images, labels


def write_landmark_file(path, records):
    """Write (media, LandmarkSet) records in the format that
    align.read_landmark_file parses: 'media,x0,y0,...,x6,y6' per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for media, lm in records:
            coords = ",".join(f"{v:.6f}" for v in lm.points.ravel())
            fh.write(f"{media},{coords}\n")


def replace_spec_text(path, old, new):
    """Rewrite a checkpoint's text spec in place, with old replaced by new
    (which must be there) and the spec length updated."""
    data = Path(path).read_bytes()
    (spec_len,) = struct.unpack_from("<I", data, 8)
    text = data[12 : 12 + spec_len].decode("utf-8")
    assert old in text
    bad = text.replace(old, new).encode("utf-8")
    Path(path).write_bytes(data[:8] + struct.pack("<I", len(bad)) + bad + data[12 + spec_len :])


def net_outline(net):
    """Each layer's kind and name, the input shape and the class count:
    every fact about a network's structure besides its fields."""
    return [(layer.kind, layer.name) for layer in net.layers], net.input_shape, net.num_classes


def central_diff_gradient(f, x, eps=1e-5):
    """Central finite-difference gradient of scalar f w.r.t. array x,
    computed entry by entry (x is perturbed in place and restored)."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.ravel()
    gflat = grad.ravel()
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + eps
        hi = f()
        flat[k] = orig - eps
        lo = f()
        flat[k] = orig
        gflat[k] = (hi - lo) / (2 * eps)
    return grad


def max_relative_error(analytic, numeric, floor=1e-8):
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    scale = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / scale))


@pytest.fixture(scope="session")
def blob_dataset():
    return make_blob_images()


def plain_train_metric(features, labels, cfg):
    """train_metric as a plain loop: PairSampler epochs, and hinge_step
    on every pair."""
    rng = make_rng(cfg.seed)
    model = init_model(features.shape[1], rng)
    sampler = PairSampler(labels, rng, cfg)
    fractions = []
    for _ in range(cfg.epochs):
        batch = sampler.epoch()
        violations = 0
        for i, j, y in zip(batch.i.tolist(), batch.j.tolist(), batch.y.tolist()):
            violations += hinge_step(model, features[i], features[j], y, cfg)
        fractions.append(violations / len(batch.y))
    return model, fractions


def reference_hinge_step(model, x_i, x_j, y, cfg) -> bool:
    """hinge_step written with @ chains and np.outer copies, the
    reference whose flags and model bytes the step must equal."""
    diff = x_i - x_j
    if y * (model.b - float(diff @ model.M @ diff - 2.0 * (x_i @ model.B @ x_j))) > 1.0:
        return False
    model.M -= cfg.gamma * y * np.outer(diff, diff)
    if cfg.symmetrize_b:
        cross = np.outer(x_i, x_j)
        model.B += cfg.gamma * y * (cross + cross.T)
    else:
        model.B += 2.0 * cfg.gamma * y * np.outer(x_i, x_j)
    model.b += cfg.gamma_b * y
    return True


def _check_vector(model: JointBayesModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.shape[0] != model.dim:
        raise ValueError(f"feature length {x.shape[0]} does not match model dim {model.dim}")
    return x


def distance(model: JointBayesModel, x_i, x_j) -> float:
    """The single-pair reference: (x_i-x_j)^T M (x_i-x_j) - 2 x_i^T B
    x_j, through hinge_step's own form, with both vectors checked."""
    x_i, x_j = _check_vector(model, x_i), _check_vector(model, x_j)
    return _distance(model, x_i, x_j, x_i - x_j)


def similarity(model: JointBayesModel, x_i, x_j) -> float:
    """Bias minus distance; larger means more likely the same subject."""
    return model.b - distance(model, x_i, x_j)


class MaskPairSampler(PairSampler):
    """PairSampler with its pools built through the dense n x n
    same-subject mask, the reference the mask-free pools must equal
    array for array, with the rng left in the same state."""

    def __init__(self, labels, rng, cfg):
        labels = np.asarray(labels)
        same = labels[:, None] == labels[None, :]
        # flat indices i * n + j of the i < j pairs, in row-major order
        pos = np.flatnonzero(np.triu(same, 1))
        if len(pos) == 0:
            raise ValueError("no positive pair available: need a subject with >= 2 samples")
        neg = np.flatnonzero(np.triu(~same, 1))
        if len(neg) == 0:
            raise ValueError("no negative pair available: need >= 2 subjects")
        cap = min(len(neg), cfg.neg_to_pos_ratio * len(pos))
        neg = neg[np.sort(rng.choice(len(neg), size=cap, replace=False))]
        self.pos_pairs = np.stack(np.divmod(pos, len(labels)), axis=1)
        self.neg_pairs = np.stack(np.divmod(neg, len(labels)), axis=1)
        self._rng = rng
        self._neg_queue = rng.permutation(len(self.neg_pairs))
        self._neg_cursor = 0


def reference_score_matrix_bytes(scores, gallery_ids, probe_ids) -> bytes:
    """write_score_matrix's text through csv.writer with every score a
    %.17g cell, the reference its per-row format string must equal."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["gallery_id", *probe_ids])
    for gid, row in zip(gallery_ids, np.asarray(scores).tolist()):
        writer.writerow([gid, *("%.17g" % v for v in row)])
    return buf.getvalue().encode("utf-8")


def reference_roc_bytes(curve) -> bytes:
    """emit_curves' ROC table formatted value by value, the reference
    its per-block format string must equal."""
    rows = zip(curve.far.tolist(), curve.tar.tolist())
    return ("far,tar\r\n" + "".join("%.17g,%.17g\r\n" % row for row in rows)).encode("utf-8")
