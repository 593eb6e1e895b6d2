"""Output checks, made apart from the program.

Every check reads the files a job wrote with its own parsers and
recomputes what they claim from first principles; none compares with
a stored copy of an earlier output.  A failed check raises CheckFailed.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

from perfbench.inputs import ENROLL_IMAGES, REPORT_FARS, REPORT_RANKS, TOY_INIT_STD, TOY_ITERS, face_pattern

# Stated before any run: an untrained 10-class net sits within this of ln 10.
FIRST_LOSS_TOL = 0.05
# Gradient check, float64: relative error bound (the repo's contract),
# and a floor that turns it into an absolute 1e-8 for gradients near 0,
# above the ~4e-9 round-off of a difference quotient of a loss near 2.3.
# The derivative is only defined away from PReLU and max-pool kinks, so a
# sampled entry counts only where the quotients at two steps agree.
GRAD_REL_TOL = 1e-4
GRAD_FLOOR = 1e-4
GRAD_STEPS = (1e-6, 1e-7)
GRAD_TRIES = 5
GRAD_BATCHES = 3
# Aligned crops: bilinear interpolation error of the blob pattern, at
# most (1/8)(|f_uu| + |f_vv|) = amp/(4 sigma^2) <= 0.8/(4 * 4.4^2) = 0.0103
# for the largest blob at the smallest scale, plus 8-bit quantization of
# the source and of the crop (0.5/255 each).
ALIGN_TOL = 0.02
UNIT_NORM_TOL = 1e-5
# Direct forward vs stored float32 descriptor components.
FEATURE_TOL = 1e-5
DIRECT_FORWARD_IMAGES = 2
# Images in the gradient check's batch.
GRAD_BATCH = 2


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- independent readers ------------------------------------------------------


def read_jvfe(path: Path) -> tuple[np.ndarray, list[str]]:
    data = Path(path).read_bytes()
    require(data[:4] == b"JVFE", f"{path}: bad magic")
    dim, count = struct.unpack_from("<IQ", data, 4)
    require(len(data) == 16 + 4 * dim * count, f"{path}: size {len(data)} does not match {count}x{dim}")
    feats = np.frombuffer(data, dtype="<f4", offset=16).reshape(count, dim).astype(np.float64)
    ids = Path(str(path) + ".ids").read_text(encoding="utf-8").splitlines()
    require(len(ids) == count, f"{path}: {len(ids)} ids for {count} rows")
    return feats, ids


def read_jvjb(path: Path) -> tuple[np.ndarray, np.ndarray, float]:
    data = Path(path).read_bytes()
    require(data[:4] == b"JVJB", f"{path}: bad magic")
    (d,) = struct.unpack_from("<I", data, 4)
    require(len(data) == 8 + 16 * d * d + 8, f"{path}: size {len(data)} does not match dim {d}")
    m = np.frombuffer(data, dtype="<f8", count=d * d, offset=8).reshape(d, d)
    b = np.frombuffer(data, dtype="<f8", count=d * d, offset=8 + 8 * d * d).reshape(d, d)
    (bias,) = struct.unpack_from("<d", data, 8 + 16 * d * d)
    return m, b, bias


def read_scores(path: Path) -> tuple[np.ndarray, list[str], list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    require(rows and rows[0][0] == "gallery_id", f"{path}: bad header")
    probe_ids = rows[0][1:]
    require(all(len(r) == len(probe_ids) + 1 for r in rows[1:]), f"{path}: ragged rows")
    return np.array([[float(v) for v in r[1:]] for r in rows[1:]]), [r[0] for r in rows[1:]], probe_ids


def read_subjects(manifest: Path) -> dict[str, str]:
    with open(manifest, encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    return {r[0]: r[1] for r in rows[1:]}


def read_report(path: Path) -> dict[str, list[float]]:
    """Column name -> values of the split rows, then mean and std."""
    columns: dict[str, list[float]] = {}
    header = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("split,"):
            header = line.split(",")[1:]
            for h in header:
                columns[h] = []
        elif header and line and line[0].isalnum() and "," in line:
            for h, v in zip(header, line.split(",")[1:]):
                columns[h].append(float(v))
        elif not line:
            header = None
    return columns


def read_pgm(path: Path) -> np.ndarray:
    """8-bit binary PGM: magic, width, height, maxval, one whitespace
    byte, then the pixels (which may themselves be whitespace bytes)."""
    data = Path(path).read_bytes()
    fields, pos = [], 0
    while len(fields) < 4:
        while data[pos : pos + 1].isspace():
            pos += 1
        end = pos
        while end < len(data) and not data[end : end + 1].isspace():
            end += 1
        fields.append(data[pos:end])
        pos = end
    require(fields[0] == b"P5" and fields[3] == b"255", f"{path}: not an 8-bit PGM")
    w, h = int(fields[1]), int(fields[2])
    pixels = data[pos + 1 :]
    require(len(pixels) == w * h, f"{path}: {len(pixels)} pixel bytes for {w}x{h}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w) / 255.0


# -- verify_*: scores, metric model, report -------------------------------------


def check_symmetric(m: np.ndarray, b: np.ndarray) -> None:
    for name, a in (("M", m), ("B", b)):
        err = float(np.abs(a - a.T).max())
        require(err <= 1e-10 * max(1.0, float(np.abs(a).max())), f"{name} is not symmetric (max |{name}-{name}^T| = {err:.3g})")


def check_scores(split_dir: Path) -> None:
    """b - d(x_i, x_j) recomputed pair by pair from metric.jvjb and the
    pooled gallery/probe features."""
    m, b, bias = read_jvjb(split_dir / "metric.jvjb")
    gallery, gallery_ids = read_jvfe(split_dir / "gallery.jvfe")
    probe, probe_ids = read_jvfe(split_dir / "probe.jvfe")
    scores, s_gallery, s_probe = read_scores(split_dir / "scores.csv")
    require(s_gallery == gallery_ids and s_probe == probe_ids, "scores.csv ids differ from the template files")
    # The program scores float64 pooled features and stores them as
    # float32 (relative rounding 2^-24 per vector); a unit vector moved by
    # that much moves a score by at most 8 (|M| + |B|) 2^-24.
    tol = 16.0 * 2.0**-24 * (np.linalg.norm(m) + np.linalg.norm(b))
    worst = 0.0
    for g, row in zip(gallery, scores):
        diff = g - probe
        d = np.einsum("nd,de,ne->n", diff, m, diff) - 2.0 * (probe @ (b.T @ g))
        worst = max(worst, float(np.abs((bias - d) - row).max()))
    require(worst <= tol, f"{split_dir.name}: score differs from b - d(x_i, x_j) by {worst:.3g} (tol {tol:.3g})")


def tar_at_far(scores: list[float], positive: list[bool], far: float) -> float:
    """Sweep the thresholds from the top: accept score >= t.  The TAR of
    the lowest threshold whose FAR stays <= far (step convention); the
    all-reject point (0, 0) is always eligible."""
    pairs = sorted(zip(scores, positive), key=lambda p: -p[0])
    n_pos = sum(positive)
    n_neg = len(positive) - n_pos
    tp = fp = 0
    best = 0.0
    k = 0
    while k < len(pairs):
        t = pairs[k][0]
        while k < len(pairs) and pairs[k][0] == t:
            tp += pairs[k][1]
            fp += not pairs[k][1]
            k += 1
        if fp / n_neg <= far:
            best = tp / n_pos
    return best


def rank_accuracy(scores: np.ndarray, gallery_subjects: list[str], probe_subjects: list[str], k: int) -> float:
    """Fraction of probes whose best matching gallery score has fewer
    than k non-matching scores at or above it (ties count against)."""
    gs = np.array(gallery_subjects)
    hits = 0
    for j, subject in enumerate(probe_subjects):
        col = scores[:, j]
        match = gs == subject
        require(match.any(), f"probe subject {subject} has no gallery template")
        rank = 1 + int((col[~match] >= col[match].max()).sum())
        hits += rank <= k
    return hits / len(probe_subjects)


def check_report(run_dir: Path) -> None:
    """Recount every TAR@FAR and rank-k in report.txt from the score
    files and split manifests."""
    report = read_report(run_dir / "report.txt")
    expected = [f"tar@far={f:g}" for f in REPORT_FARS] + [f"rank-{k}" for k in REPORT_RANKS]
    require(sorted(report) == sorted(expected), f"report.txt lists {sorted(report)}, expected {expected}")
    splits = sorted(run_dir.glob("split*"))
    require(bool(splits), f"{run_dir}: no split directories")
    per_split: dict[str, list[float]] = {}
    for split_dir in splits:
        scores, gallery_ids, probe_ids = read_scores(split_dir / "scores.csv")
        subject = read_subjects(split_dir / "manifest.csv")
        gs = [subject[g] for g in gallery_ids]
        ps = [subject[p] for p in probe_ids]
        positive = (np.array(gs)[:, None] == np.array(ps)[None, :]).ravel().tolist()
        flat = scores.ravel().tolist()
        for column in report:
            kind, value = column.split("=", 1) if "=" in column else column.split("-", 1)
            if kind == "tar@far":
                got = tar_at_far(flat, positive, float(value))
            else:
                got = rank_accuracy(scores, gs, ps, min(int(value), len(gs)))
            per_split.setdefault(column, []).append(got)
    for column, values in per_split.items():
        listed = report[column]
        require(len(listed) == len(values) + 2, f"report.txt: {column} has {len(listed)} rows for {len(values)} splits")
        std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        for want, got in zip([*values, float(np.mean(values)), std], listed):
            require(abs(want - got) <= 5e-7 + 1e-12, f"report.txt: {column} reads {got:.6f}, recount gives {want:.6f}")


def check_verify(out: Path) -> None:
    run_dir = out / "report"
    for split_dir in sorted(run_dir.glob("split*")):
        check_symmetric(*read_jvjb(split_dir / "metric.jvjb")[:2])
        check_scores(split_dir)
    check_report(run_dir)


# -- enroll_stock: descriptors and aligned crops ------------------------------


def read_checkpoint(path: Path) -> tuple[list[tuple[dict, list[np.ndarray]]], float, tuple]:
    """JVNT parsed apart from the program: [(layer fields, params)],
    input mean, input shape."""
    data = Path(path).read_bytes()
    require(data[:4] == b"JVNT", f"{path}: bad magic")
    version, spec_len = struct.unpack_from("<II", data, 4)
    require(version == 1, f"{path}: version {version}")
    text = data[12 : 12 + spec_len].decode("utf-8")
    pos = 12 + spec_len
    layers = []
    input_mean, input_shape = 0.0, None
    for line in text.splitlines():
        key, _, value = line.partition("=")
        if key == "input_mean":
            input_mean = float(value)
        elif key == "input":
            input_shape = tuple(int(v) for v in value.split(","))
        elif key == "layer":
            fields = dict(part.split("=", 1) for part in line.split())
            shapes = []
            if fields["layer"] == "conv3x3":
                cin, cout = int(fields["in_channels"]), int(fields["out_channels"])
                shapes = [(3, 3, cin, cout), (cout,)]
            elif fields["layer"] == "prelu":
                shapes = [(int(fields["in_channels"]),)]
            elif fields["layer"] == "fully_connected":
                shapes = [(int(fields["in_channels"]), int(fields["out_channels"])), (int(fields["out_channels"]),)]
            params = []
            for shape in shapes:
                n = math.prod(shape)
                params.append(np.frombuffer(data, dtype="<f8", count=n, offset=pos).reshape(shape))
                pos += 8 * n
            layers.append((fields, params))
    require(pos == len(data), f"{path}: {len(data) - pos} bytes left after the parameters")
    return layers, input_mean, input_shape


def direct_features(layers, input_mean: float, image: np.ndarray) -> np.ndarray:
    """Float64 forward to the pooled descriptor, one image, convolution
    summed directly over each output pixel's 3x3 window."""
    x = image.astype(np.float64) - input_mean
    for fields, params in layers:
        kind = fields["layer"]
        if kind == "conv3x3":
            w, bias = params
            h, wd, _ = x.shape
            xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
            windows = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(0, 1))  # h, w, c, 3, 3
            x = np.einsum("yxcij,ijco->yxo", windows, w, optimize=True) + bias
        elif kind == "prelu":
            x = np.where(x >= 0, x, params[0] * x)
        elif kind == "lrn":
            size, alpha, beta, k = int(fields["size"]), float(fields["alpha"]), float(fields["beta"]), float(fields["k"])
            half = size // 2
            c = x.shape[2]
            sq = x * x
            denom = np.stack([sq[:, :, max(0, i - half) : i + half + 1].sum(axis=2) for i in range(c)], axis=2)
            x = x / (k + alpha / size * denom) ** beta
        elif kind == "maxpool2x2s2":
            h, wd, c = x.shape
            xp = np.full((h + h % 2, wd + wd % 2, c), -np.inf)
            xp[:h, :wd] = x
            x = xp.reshape(xp.shape[0] // 2, 2, xp.shape[1] // 2, 2, c).max(axis=(1, 3))
        elif kind == "avgpool_global":
            f = x.mean(axis=(0, 1))
            return f / np.linalg.norm(f)
    raise CheckFailed("checkpoint has no global pooling layer")


def check_aligned(inputs: Path, out: Path) -> None:
    """Each aligned crop recovers the canonical face it was drawn from."""
    faces = json.loads((inputs / "faces.json").read_text(encoding="utf-8"))
    ys, xs = np.mgrid[0:100, 0:100].astype(np.float64)
    for name, face in sorted(faces.items()):
        crop = read_pgm(out / "aligned" / name)
        require(crop.shape == (100, 100), f"{name}: aligned crop is {crop.shape}")
        err = float(np.abs(crop - face_pattern(xs, ys, face["amplitudes"])).max())
        require(err <= ALIGN_TOL, f"{name}: aligned crop is {err:.4f} from the canonical face (tol {ALIGN_TOL})")


def check_features(inputs: Path, out: Path, checkpoint: Path) -> None:
    feats, media = read_jvfe(out / "features.jvfe")
    require(media == sorted(json.loads((inputs / "faces.json").read_text(encoding="utf-8"))),
            "features.jvfe ids differ from the face set")
    require(feats.shape[0] == ENROLL_IMAGES, f"{feats.shape[0]} features for {ENROLL_IMAGES} images")
    norms = np.linalg.norm(feats, axis=1)
    require(bool(np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL)), f"feature norms span {norms.min():.7f}..{norms.max():.7f}")
    layers, input_mean, _ = read_checkpoint(checkpoint)
    for k in range(DIRECT_FORWARD_IMAGES):
        direct = direct_features(layers, input_mean, read_pgm(out / "aligned" / media[k])[:, :, None])
        err = float(np.abs(direct - feats[k]).max())
        require(err <= FEATURE_TOL, f"{media[k]}: descriptor differs from the direct forward pass by {err:.3g}")


def check_enroll(inputs: Path, out: Path, checkpoint: Path) -> None:
    check_aligned(inputs, out)
    check_features(inputs, out, checkpoint)


# -- train_toy: loss curve and gradients ----------------------------------------


def check_losses(losses: list[float]) -> None:
    require(len(losses) == TOY_ITERS, f"{len(losses)} losses for {TOY_ITERS} iterations")
    require(all(math.isfinite(v) for v in losses), "non-finite loss")
    require(abs(losses[0] - math.log(10)) <= FIRST_LOSS_TOL,
            f"first loss {losses[0]:.4f} is not within {FIRST_LOSS_TOL} of ln 10")


def check_loss_fell(inputs: Path, checkpoint: Path, seed: int) -> None:
    """The trained net's eval-mode cross-entropy over the whole training
    set is below that of the net train() starts from.  Over TOY_ITERS
    iterations the expected fall (about 0.01) is the size of the
    minibatch noise in the per-iteration losses, which therefore cannot
    show it; a deterministic forward over the whole set can."""
    from faceverify.linalg import make_rng
    from faceverify.storage import read_checkpoint as load

    rows = [line.split(",") for line in (inputs / "labels.csv").read_text(encoding="utf-8").split()]
    images = np.stack([read_pgm(inputs / "images" / m)[:, :, None] for m, _ in rows])
    labels = np.array([int(label) for _, label in rows])
    trained = load(checkpoint)
    initial = load(checkpoint)
    # the draws train() makes first; input_mean stays the trained net's
    initial.initialize(make_rng(seed), TOY_INIT_STD)

    def xent(net) -> float:
        probs = net.forward(images, train=False)[-1]
        return float(-np.log(probs[np.arange(len(labels)), labels]).mean())

    before, after = xent(initial), xent(trained)
    require(after < before, f"training-set loss did not fall: {before:.5f} -> {after:.5f}")


def check_gradients(checkpoint: Path, seed: int) -> None:
    """Analytic gradients of the trained toy net, loaded in float64,
    against central differences on one sampled entry of every
    parameter array.  The inputs are uniform noise: on the blob images'
    clipped, flat background whole regions share one value, and a step
    that carries it across a kink moves them all at once.  A single
    unit near its kink downstream of every parameter puts all samples
    of a batch on that kink, so a batch without a clean sample of some
    array is replaced by a fresh one."""
    from faceverify.linalg import make_rng
    from faceverify.storage import read_checkpoint as load

    net = load(checkpoint)
    pick = np.random.Generator(np.random.PCG64(seed))

    def loss() -> float:
        return net.loss(x, y, train=True, rng=make_rng(seed))

    def quotient(flat, k, eps) -> float:
        orig = flat[k]
        flat[k] = orig + eps
        hi = loss()
        flat[k] = orig - eps
        lo = loss()
        flat[k] = orig
        return (hi - lo) / (2 * eps)

    def rel(a, b) -> float:
        return abs(a - b) / max(abs(a), abs(b), GRAD_FLOOR)

    def sample(value, grad):
        """(entry, analytic, numeric) away from any kink, or None."""
        flat, gflat = value.reshape(-1), np.asarray(grad).reshape(-1).copy()
        for _ in range(GRAD_TRIES):
            k = int(pick.integers(flat.size))
            coarse, numeric = (quotient(flat, k, eps) for eps in GRAD_STEPS)
            if rel(coarse, numeric) <= GRAD_REL_TOL:
                return k, float(gflat[k]), numeric
        return None

    for _ in range(GRAD_BATCHES):
        x = pick.random((GRAD_BATCH, *net.spec.input_shape))
        y = pick.integers(0, net.spec.num_classes, GRAD_BATCH)
        loss()
        net.backward(y)
        samples = []
        for layer, name, value, grad, _ in list(net.param_items()):
            found = sample(value, grad)
            if found is None:
                break
            samples.append((f"{type(layer).__name__}.{name}", *found))
        else:
            break
    else:
        raise CheckFailed(f"gradient check: in each of {GRAD_BATCHES} batches, {GRAD_TRIES} samples of some "
                          f"parameter array all sit on a kink")
    err, where = max((rel(analytic, numeric), f"{array}[{k}]: analytic {analytic:.6g}, numeric {numeric:.6g}")
                     for array, k, analytic, numeric in samples)
    require(err <= GRAD_REL_TOL, f"gradient check: relative error {err:.3g} at {where}")


def check_train(inputs: Path, out: Path, losses: list[float], seed: int) -> None:
    check_losses(losses)
    check_loss_fell(inputs, out / "toy.jvnt", seed)
    check_gradients(out / "toy.jvnt", seed)


def run_checks(workload: str, inputs: Path, out: Path, result: dict, seed: int) -> None:
    if workload.startswith("verify_"):
        check_verify(out)
    elif workload == "enroll_stock":
        check_enroll(inputs, out, inputs.parent / "stock.jvnt")
    elif workload == "train_toy":
        check_train(inputs, out, result["losses"], seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
