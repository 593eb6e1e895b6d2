"""Command-line surface.

Subcommands cover the pipeline stage by stage (align, train-cnn,
extract, pool, train-metric, score, evaluate, fuse, synth) plus
`report`, which runs the whole evaluation end to end from a config
file.  Warnings (skipped media, degenerate landmarks) never change the
exit code; fatal errors exit non-zero with a stage-tagged message.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from faceverify import align as al
from faceverify import evaluation as ev
from faceverify import pipeline as pl
from faceverify import pnm, storage, templates
from faceverify.metric import MetricTrainConfig, train_metric
from faceverify.micronet import TrainConfig, build_face_net, extract_features, train

IMAGE_SUFFIXES = (".pgm", ".ppm")


def _image_list(directory: Path) -> list[Path]:
    return sorted(p for p in directory.iterdir() if p.suffix.lower() in IMAGE_SUFFIXES)


def cmd_align(args) -> int:
    frame = al.CanonicalFrame()
    landmarks = {media: lm for media, lm in al.read_landmark_file(args.landmarks)}
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures: list[tuple[str, str]] = []
    written = 0
    for img_path in _image_list(Path(args.images)):
        name = img_path.name
        if name not in landmarks:
            failures.append((name, "no landmark record"))
            continue
        try:
            img = pnm.read_pnm(img_path)
            lm = landmarks[name]
            lm.validate()
            transform = al.estimate_similarity(lm.points, frame.landmarks)
            warped = al.warp_to_canonical(img, transform, frame)
            pnm.write_pnm(out_dir / name, warped)
            written += 1
        except (ValueError, OSError) as exc:
            failures.append((name, str(exc)))
    if failures:
        text = "".join(f"{name},{reason}\n" for name, reason in failures)
        storage.write_file(out_dir / "align_failures.txt", [text.encode("utf-8")])
    print(f"align: wrote {written} images, {len(failures)} warnings")
    return 0


def _read_label_manifest(path) -> list[tuple[str, str]]:
    rows = []
    with storage.open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "," not in line:
                raise ValueError(f"{path}:{line_no}: expected media_path,label")
            media, label = line.split(",", 1)
            rows.append((media, label))
    return rows


def _load_images(root: Path, media: list[str], source) -> np.ndarray:
    """The images that source (a directory or a list file) names, stacked."""
    if not media:
        raise ValueError(f"{source}: no {' or '.join(IMAGE_SUFFIXES)} images")
    imgs = []
    for m in media:
        img = pnm.read_pnm(root / m)
        if img.ndim == 2:
            img = img[:, :, None]
        if imgs and img.shape != imgs[0].shape:
            raise ValueError(f"{root / m}: shape {img.shape} differs from {imgs[0].shape} of {root / media[0]}")
        imgs.append(img)
    return np.stack(imgs)


# TrainConfig field -> the train-cnn flag that sets it, declared here only
_TRAIN_CNN_FLAGS = {
    "batch_size": "--batch-size",
    "learning_rate": "--lr",
    "max_iters": "--iters",
    "seed": "--seed",
    "hflip": "--hflip",
    "random_crop": "--random-crop",
    "crop_size": "--crop-size",
}


def cmd_train_cnn(args) -> int:
    rows = _read_label_manifest(args.manifest)
    classes = sorted({label for _, label in rows})
    class_index = {c: i for i, c in enumerate(classes)}
    images = _load_images(Path(args.images_root), [m for m, _ in rows], args.manifest)
    labels = np.array([class_index[label] for _, label in rows])
    h, w = images.shape[1:3]
    if h != w and not args.random_crop:  # the net's input is square
        raise ValueError(f"{args.manifest}: images are {h}x{w}, not square; crop them with --random-crop")
    net = build_face_net(
        num_classes=len(classes),
        in_channels=images.shape[3],
        input_size=args.crop_size if args.random_crop else h,
        width_divisor=args.width_divisor,
        dtype=np.float32 if args.float32 else np.float64,
    )
    with pl.named_as_written(_TRAIN_CNN_FLAGS):
        cfg = TrainConfig(**{field: getattr(args, field) for field in _TRAIN_CNN_FLAGS})
    result = train(net, images, labels, cfg)
    storage.write_checkpoint(args.out, net)
    print(f"train-cnn: {result.iterations} iterations, final loss {result.losses[-1]:.4f}, saved {args.out}")
    return 0


def cmd_extract(args) -> int:
    net = storage.read_checkpoint(args.model)
    root = Path(args.images)
    if args.list:
        with storage.open_text(args.list) as fh:
            media = [line.strip() for line in fh if line.strip()]
    else:
        media = [p.name for p in _image_list(root)]
    images = _load_images(root, media, args.list or root)
    (h, w), (th, tw) = images.shape[1:3], net.input_shape[:2]
    if h < th or w < tw:
        raise ValueError(f"{root / media[0]}: {h}x{w} image is smaller than the {th}x{tw} net input")
    oy, ox = (h - th) // 2, (w - tw) // 2  # center-crop larger inputs
    images = images[:, oy : oy + th, ox : ox + tw, :]
    with storage.naming(args.model):
        feats = extract_features(net, images)
    storage.write_features(args.out, feats, media)
    print(f"extract: {feats.shape[0]} features of dim {feats.shape[1]} -> {args.out}")
    return 0


def _read_split_manifest(path) -> list[templates.ManifestRow]:
    """A template manifest whose gallery and probe share no media within
    a split (check_split_disjoint); a breach fails naming the file."""
    rows = templates.read_manifest(path)
    with storage.naming(path):
        templates.check_split_disjoint(rows)
    return rows


def cmd_pool(args) -> int:
    feats, media_ids = storage.read_features(args.features)
    rows = _read_split_manifest(args.manifest)
    with storage.naming(f"{args.manifest} with {args.features}"):
        ids, _, pooled = templates.build_templates(rows, feats, media_ids, role=args.role, split=args.split)
    storage.write_features(args.out, pooled, ids)
    print(f"pool: {len(ids)} templates -> {args.out}")
    return 0


# MetricTrainConfig field -> the train-metric flag that sets it, declared
# here only (symmetrize_b is set by the absence of --literal-b-update)
_TRAIN_METRIC_FLAGS = {
    "gamma": "--gamma",
    "gamma_b": "--gamma-b",
    "neg_to_pos_ratio": "--ratio",
    "epochs": "--epochs",
    "seed": "--seed",
}


def cmd_train_metric(args) -> int:
    feats, media_ids, subject_of = templates.read_labelled_features(args.features, args.manifest)
    labels = np.array([subject_of[m] for m in media_ids])
    with pl.named_as_written(_TRAIN_METRIC_FLAGS):
        values = {field: getattr(args, field) for field in _TRAIN_METRIC_FLAGS}
        cfg = MetricTrainConfig(**values, symmetrize_b=not args.literal_b_update)
    model, violations = train_metric(feats, labels, cfg)
    storage.write_metric_model(args.out, model)
    print(
        f"train-metric: violations {violations[0]:.3f} -> {violations[-1]:.3f} "
        f"over {cfg.epochs} epochs, saved {args.out}"
    )
    return 0


def cmd_score(args) -> int:
    gallery, gallery_ids = storage.read_features(args.gallery)
    probe, probe_ids = storage.read_features(args.probe)
    if args.scorer == "jointbayes" and not args.model:
        print("score: --model required for jointbayes", file=sys.stderr)
        return 2
    model = storage.read_metric_model(args.model) if args.scorer == "jointbayes" else None
    files = (args.gallery, args.probe, args.model) if args.scorer == "jointbayes" else (args.gallery, args.probe)
    with storage.naming(", ".join(files)):
        scores = templates.score_templates(gallery, probe, args.scorer, model)
    templates.write_score_matrix(args.out, scores, gallery_ids, probe_ids)
    print(f"score: {scores.shape[0]}x{scores.shape[1]} matrix -> {args.out}")
    return 0


def _at_least_one(text: str) -> int:
    """A train-cnn --width-divisor, --batch-size, --iters or --crop-size
    value: a whole number, at least 1.  argparse prefixes the error with
    the flag."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a whole number: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_list(flag: str, text: str, kind, check) -> tuple:
    """A comma-separated flag value, read and range-checked; a bad item
    fails naming the flag."""
    with storage.naming(flag):  # the message quotes the bad item
        values = ev.parse_list(text, kind)
        check(values)
    return values


def cmd_evaluate(args) -> int:
    fars = _parse_list("--fars", args.fars, float, ev.check_fars)
    ranks = _parse_list("--ranks", args.ranks, int, ev.check_ranks)
    scores, gallery_ids, probe_ids = templates.read_score_matrix(args.scores)
    rows = _read_split_manifest(args.manifest)
    with storage.naming(args.manifest):
        subject_of_template = templates.template_subjects(rows)
    missing = [t for t in gallery_ids + probe_ids if t not in subject_of_template]
    if missing:
        raise ValueError(f"{args.manifest}: lacks template {missing[0]!r} named in {args.scores}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tars, accuracies = ev.evaluate_split(
        scores,
        [subject_of_template[g] for g in gallery_ids],
        [subject_of_template[p] for p in probe_ids],
        fars,
        ranks,
        out_dir / "roc.csv",
        out_dir / "cmc.csv",
    )
    lines = [f"tar@far={f:g},{tar:.6f}" for f, tar in tars.items()]
    lines += [f"rank-{k},{acc:.6f}" for k, acc in accuracies.items()]
    storage.write_file(out_dir / "summary.csv", [("\n".join(lines) + "\n").encode("utf-8")])
    print("evaluate:", "; ".join(lines))
    return 0


def cmd_fuse(args) -> int:
    s1, g1, p1 = templates.read_score_matrix(args.a)
    s2, g2, p2 = templates.read_score_matrix(args.b)
    if g1 != g2 or p1 != p2:
        print(f"fuse: template id mismatch between {args.a} and {args.b}", file=sys.stderr)
        return 2
    with storage.naming(f"{args.a} + {args.b}"):
        fused = templates.fuse_scores(s1, s2)
    templates.write_score_matrix(args.out, fused, g1, p1)
    print(f"fuse: wrote {args.out}")
    return 0


# PipelineConfig field -> the synth flag that sets it, declared here only
_SYNTH_FLAGS = {
    "synth_subjects": "--subjects",
    "synth_samples": "--samples",
    "synth_dim": "--dim",
    "synth_s_mu": "--s-mu",
    "synth_s_eps": "--s-eps",
    "seed": "--seed",
}


def cmd_synth(args) -> int:
    with pl.named_as_written(_SYNTH_FLAGS):  # every flag is checked before anything is written
        cfg = pl.PipelineConfig(out_dir=args.out_dir, **{field: getattr(args, field) for field in _SYNTH_FLAGS})
    out_dir = Path(args.out_dir)
    pl.synthesize_dataset(cfg, out_dir)
    print(f"synth: {cfg.synth_subjects * cfg.synth_samples} features of dim {cfg.synth_dim} -> {out_dir}")
    return 0


# PipelineConfig field -> the report flag that overrides it when given, declared here only
_REPORT_FLAGS = {"seed": "--seed", "splits": "--splits", "scorer": "--scorer", "out_dir": "--out-dir"}


def cmd_report(args) -> int:
    cfg = pl.load_config(args.config) if args.config else pl.PipelineConfig()
    overrides = {field: getattr(args, field) for field in _REPORT_FLAGS if getattr(args, field) is not None}
    with pl.named_as_written(_REPORT_FLAGS):
        cfg = replace(cfg, **overrides)
    sys.stdout.write(pl.run_pipeline(cfg))
    return 0


def _add_settings(p, flags: dict[str, str], settings, *, overrides: bool = False, **extra: dict) -> None:
    """Add one option per field -> flag entry of flags, in table order,
    kept as args.<field>.  A bool field is a store_true switch; any
    other takes type(default) and the default of settings (a settings
    class), or None with overrides, so that only a flag given replaces
    the config's value.  extra[field] adds or replaces argparse keywords."""
    for field, flag in flags.items():
        default = getattr(settings, field)
        if isinstance(default, bool):
            kwargs = {"action": "store_true"}
        else:
            kwargs = {"type": type(default), "default": None if overrides else default}
        p.add_argument(flag, dest=field, **{**kwargs, **extra.get(field, {})})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="faceverify", description=__doc__)
    parser.add_argument(
        "-v",
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="print the faceverify logger's messages of this level and above on stderr (default: none)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("align", help="warp images into the canonical frame")
    p.add_argument("--landmarks", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_align)

    p = sub.add_parser("train-cnn", help="train the feature extractor")
    p.add_argument("--manifest", required=True, help="media_path,label per line")
    p.add_argument("--images-root", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--width-divisor", type=_at_least_one, default=1)
    positive = {"type": _at_least_one}
    _add_settings(p, _TRAIN_CNN_FLAGS, TrainConfig, batch_size=positive, max_iters=positive, crop_size=positive)
    p.add_argument("--float32", action="store_true")
    p.set_defaults(fn=cmd_train_cnn)

    p = sub.add_parser("extract", help="extract pooled features")
    p.add_argument("--model", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--list", default="")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("pool", help="pool media features into templates")
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--role", default=None)
    p.add_argument("--split", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_pool)

    p = sub.add_parser("train-metric", help="fit the joint Bayes metric")
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    _add_settings(p, _TRAIN_METRIC_FLAGS, MetricTrainConfig)
    p.add_argument("--literal-b-update", action="store_true")
    p.set_defaults(fn=cmd_train_metric)

    p = sub.add_parser("score", help="score gallery x probe templates")
    p.add_argument("--gallery", required=True)
    p.add_argument("--probe", required=True)
    p.add_argument("--scorer", choices=templates.SCORERS, default="cosine")
    p.add_argument("--model", default="")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("evaluate", help="ROC/CMC from a score matrix")
    p.add_argument("--scores", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--fars", default=",".join(f"{f:g}" for f in ev.DEFAULT_FARS))
    p.add_argument("--ranks", default=",".join(str(k) for k in ev.DEFAULT_RANKS))
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("fuse", help="sum two score matrices")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_fuse)

    p = sub.add_parser("synth", help="generate a synthetic feature set")
    p.add_argument("--out-dir", required=True)
    _add_settings(p, _SYNTH_FLAGS, pl.PipelineConfig)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("report", help="run the full pipeline from a config")
    p.add_argument("--config", default="")
    _add_settings(p, _REPORT_FLAGS, pl.PipelineConfig, overrides=True, scorer={"choices": templates.SCORERS})
    p.set_defaults(fn=cmd_report)

    return parser


@contextlib.contextmanager
def _log_to_stderr(level: str | None):
    """While the block runs, send the faceverify logger's records of
    level and above to stderr; None leaves the logger as it is (silent).
    The logger is restored afterwards, so main can run many times in one
    process."""
    if level is None:
        yield
        return
    log = logging.getLogger("faceverify")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(levelname)s: %(message)s"))
    old_level = log.level
    log.addHandler(handler)
    log.setLevel(level.upper())
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(old_level)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with _log_to_stderr(args.log_level):
        try:
            return args.fn(args)
        except Exception as exc:  # fatal: tag with the failing stage
            print(f"{args.command}: error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
