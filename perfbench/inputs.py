"""Seeded generation of every workload's inputs.

Inputs are written once per (workload, seed) under the benchmark's
work directory and reused by later runs.  Generation is not timed: the
program only ever sees the files written here.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("verify_d320", "verify_hard_d32", "enroll_stock", "train_toy")

# `faceverify report` configs.  d=320 is the paper's feature size; there
# almost no pair violates the margin, so nearly every hinge step only
# scores a pair.  In the hard d=32 set about a fifth of all pair steps
# violate, and the test set is big enough that scoring, ROC/CMC and the
# score/curve files do real work.
REPORT_CONFIGS = {
    "verify_d320": {
        "synth_subjects": 120, "synth_samples": 5, "synth_dim": 320,
        "synth_s_mu": 1.0, "synth_s_eps": 0.25, "train_fraction": 0.6666666666666666, "epochs": 20,
    },
    "verify_hard_d32": {
        "synth_subjects": 1600, "synth_samples": 3, "synth_dim": 32,
        "synth_s_mu": 1.0, "synth_s_eps": 2.0, "train_fraction": 0.8, "epochs": 10,
    },
}
REPORT_METRIC = {"gamma": 20.0, "gamma_b": 2.0, "neg_to_pos_ratio": 20}
REPORT_FARS = (0.01, 0.1)
REPORT_RANKS = (1, 5, 10)

# Stock 10-conv/320-d net with random weights.  The weights do not
# depend on the workload seed, so one 41 MB file next to the seed
# directories serves every seed.
STOCK_CLASSES = 10548
STOCK_WEIGHT_SEED = 12345
ENROLL_IMAGES = 12
ENROLL_SOURCE_SIZE = 224
ENROLL_BLOB_SIGMA = 4.0       # canonical pixels
ENROLL_BACKGROUND = 0.1

TOY_IMAGES = 500
TOY_SIZE = 32
TOY_CLASSES = 10
TOY_ITERS = 6
TOY_BATCH = 128
TOY_LEARNING_RATE = 1e-2
TOY_INIT_STD = 0.1


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))


def _stamp() -> str:
    """Written last into each finished input set; a set made by another
    version of this file is made again.  (hashlib is imported here, not
    at the top: jobs import this module, and its library would add to
    their peak RSS.)"""
    import hashlib

    return hashlib.sha256(Path(__file__).read_bytes()).hexdigest()


def _finished(done: Path) -> bool:
    return done.exists() and done.read_text() == _stamp()


def ensure_inputs(work: Path, workload: str, seed: int) -> Path:
    """Write the inputs for (workload, seed) unless a finished copy exists."""
    out = work / "inputs" / workload / f"seed{seed}"
    if _finished(out / "DONE"):
        return out
    out.mkdir(parents=True, exist_ok=True)
    if workload in REPORT_CONFIGS:
        write_report_config(out / "config.ini", workload, seed)
    elif workload == "enroll_stock":
        ensure_stock_checkpoint(out.parent / "stock.jvnt")
        write_faces(out, seed)
    elif workload == "train_toy":
        write_blobs(out, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (out / "DONE").write_text(_stamp())
    return out


def write_report_config(path: Path, workload: str, seed: int) -> None:
    src = REPORT_CONFIGS[workload]
    lines = [
        "[pipeline]", f"seed = {seed}", "splits = 1", "scorer = jointbayes", "",
        "[source]",
        *(f"{k} = {src[k]}" for k in ("synth_subjects", "synth_samples", "synth_dim", "synth_s_mu", "synth_s_eps")),
        "",
        "[protocol]", f"train_fraction = {src['train_fraction']!r}",
        "fars = " + ",".join(str(f) for f in REPORT_FARS),
        "ranks = " + ",".join(str(k) for k in REPORT_RANKS), "",
        "[metric]", f"epochs = {src['epochs']}", *(f"{k} = {v}" for k, v in REPORT_METRIC.items()),
        "symmetrize_b = true", "",
    ]
    path.write_text("\n".join(lines), encoding="utf-8")


def ensure_stock_checkpoint(path: Path) -> None:
    done = path.with_suffix(".done")
    if not _finished(done):
        from faceverify.micronet import build_face_net

        write_random_checkpoint(path, build_face_net(num_classes=STOCK_CLASSES), STOCK_WEIGHT_SEED)
        done.write_text(_stamp())


def write_random_checkpoint(path: Path, net, seed: int) -> None:
    """He-scaled Gaussian weights, so activations keep their scale
    through all ten convolutions, written with the program's own
    checkpoint writer."""
    from faceverify.storage import write_checkpoint

    rng = rng_for(seed, 0)
    for _, name, value, _, _ in net.param_items():
        if name == "weights":
            fan_in = value.size // value.shape[-1]
            value[...] = rng.normal(0.0, math.sqrt(2.0 / fan_in), value.shape)
        elif name == "bias":
            value[...] = rng.normal(0.0, 0.01, value.shape)
    net.input_mean = 0.2
    tmp = path.with_suffix(".tmp")
    write_checkpoint(tmp, net)
    tmp.replace(path)


# -- enroll_stock: faces drawn under a known similarity transform ------------

CANONICAL_POINTS = np.array(
    [[25.0, 40.0], [39.0, 40.0], [61.0, 40.0], [75.0, 40.0], [50.0, 60.0], [36.0, 78.0], [64.0, 78.0]]
)


def face_pattern(xs: np.ndarray, ys: np.ndarray, amplitudes) -> np.ndarray:
    """The canonical face: a Gaussian blob at each landmark on a flat
    background, evaluated at canonical coordinates (xs, ys)."""
    out = np.full(np.broadcast(xs, ys).shape, ENROLL_BACKGROUND)
    for (px, py), amp in zip(CANONICAL_POINTS, amplitudes):
        out += amp * np.exp(-((xs - px) ** 2 + (ys - py) ** 2) / (2.0 * ENROLL_BLOB_SIGMA**2))
    return out


def face_transform(rng: np.random.Generator) -> tuple[float, float, float, float]:
    """(a, b, tx, ty) of a canonical->source similarity that keeps the
    whole 100x100 canonical frame inside the source image."""
    scale = rng.uniform(1.1, 1.4)
    angle = rng.uniform(-0.35, 0.35)
    a, b = scale * math.cos(angle), scale * math.sin(angle)
    corners = np.array([[0, 0], [99, 0], [0, 99], [99, 99]], dtype=np.float64)
    mapped = np.stack([a * corners[:, 0] - b * corners[:, 1], b * corners[:, 0] + a * corners[:, 1]], axis=1)
    lo, hi = mapped.min(axis=0), mapped.max(axis=0)
    margin = 2.0
    tx = rng.uniform(margin - lo[0], ENROLL_SOURCE_SIZE - 1 - margin - hi[0])
    ty = rng.uniform(margin - lo[1], ENROLL_SOURCE_SIZE - 1 - margin - hi[1])
    return a, b, tx, ty


def write_pgm(path: Path, img: np.ndarray) -> None:
    q = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (q.shape[1], q.shape[0]))
        fh.write(q.tobytes())


def write_faces(out: Path, seed: int) -> None:
    rng = rng_for(seed, 1)
    raw = out / "raw"
    raw.mkdir(exist_ok=True)
    faces = {}
    lines = []
    size = ENROLL_SOURCE_SIZE
    vs, us = np.mgrid[0:size, 0:size].astype(np.float64)
    for k in range(ENROLL_IMAGES):
        name = f"face{k:03d}.pgm"
        amplitudes = rng.uniform(0.3, 0.8, len(CANONICAL_POINTS)).tolist()
        a, b, tx, ty = face_transform(rng)
        # source pixel (u, v) shows the pattern at the canonical point
        # mapped back through the inverse similarity
        s2 = a * a + b * b
        du, dv = us - tx, vs - ty
        cx, cy = (a * du + b * dv) / s2, (-b * du + a * dv) / s2
        write_pgm(raw / name, face_pattern(cx, cy, amplitudes))
        pts = np.stack([a * CANONICAL_POINTS[:, 0] - b * CANONICAL_POINTS[:, 1] + tx,
                        b * CANONICAL_POINTS[:, 0] + a * CANONICAL_POINTS[:, 1] + ty], axis=1)
        lines.append(name + "," + ",".join(f"{v:.9f}" for v in pts.ravel()))
        faces[name] = {"amplitudes": amplitudes, "transform": [a, b, tx, ty]}
    (out / "landmarks.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out / "faces.json").write_text(json.dumps(faces, indent=1), encoding="utf-8")


# -- train_toy: ten-class blob images ----------------------------------------


def write_blobs(out: Path, seed: int) -> None:
    """One Gaussian blob per class on a ring, jittered centre and pixel
    noise; an untrained net sits at chance (loss ln 10)."""
    rng = rng_for(seed, 2)
    img_dir = out / "images"
    img_dir.mkdir(exist_ok=True)
    angles = np.linspace(0, 2 * np.pi, TOY_CLASSES, endpoint=False)
    centers = np.stack([TOY_SIZE / 2 + (TOY_SIZE / 3) * np.cos(angles),
                        TOY_SIZE / 2 + (TOY_SIZE / 3) * np.sin(angles)], axis=1)
    yy, xx = np.mgrid[0:TOY_SIZE, 0:TOY_SIZE]
    labels = rng.integers(0, TOY_CLASSES, size=TOY_IMAGES)
    rows = []
    for k, label in enumerate(labels):
        cy, cx = centers[label] + rng.normal(0, 1.0, 2)
        img = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * 3.0**2)) + rng.normal(0, 0.05, (TOY_SIZE, TOY_SIZE))
        name = f"b{k:04d}.pgm"
        write_pgm(img_dir / name, np.clip(img, 0, 1))
        rows.append(f"{name},{label}")
    (out / "labels.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
