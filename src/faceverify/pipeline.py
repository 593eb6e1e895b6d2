"""End-to-end evaluation pipeline.

Runs feature sourcing (synthetic generator or a prebuilt feature file)
-> subject splits -> metric training -> template pooling -> scoring ->
ROC/CMC evaluation, persisting every intermediate artifact so stages
can be re-run in isolation.  A single root seed is split into fixed
per-stage streams (see _STREAMS), which makes every artifact
byte-reproducible for a given config.

Each split runs in _run_split, which is handed the feature set, writes
only under split<s>/ and returns that split's ({far: TAR}, {k: rank-k
accuracy}).  report.txt is rendered once, from those records alone in
split order, and run_pipeline returns that text for `report` to print.
A stage that makes a NaN or inf (a diverged metric, an overflowing
score) fails before writing it.

Every settings object, PipelineConfig and the SyntheticEmbeddingModel
and MetricTrainConfig it builds, checks every rule when it is built or
replaced and is frozen, so a bad setting fails before anything is
written.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import logging
import re
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from faceverify import evaluation as ev
from faceverify.linalg import derive_seed, make_rng
from faceverify.metric import (
    MetricTrainConfig,
    SyntheticEmbeddingModel,
    generate_synthetic,
    train_metric,
)
from faceverify.storage import naming, open_text, write_features, write_file, write_metric_model
from faceverify.templates import (
    SCORERS,
    ManifestRow,
    build_templates,
    check_split_disjoint,
    read_labelled_features,
    score_templates,
    write_manifest,
    write_score_matrix,
)

__all__ = ["PipelineConfig", "named_as_written", "run_pipeline", "synthesize_dataset", "load_config"]

log = logging.getLogger("faceverify")

# Per-stage seed streams; appending is fine, renumbering breaks reproducibility.
_STREAMS = {"synth": 1, "split": 100, "metric": 200}

# SyntheticEmbeddingModel field -> the [source] key that sets it
_SYNTH_KEYS = {
    "num_subjects": "synth_subjects",
    "samples_per_subject": "synth_samples",
    "dim": "synth_dim",
    "between_cov": "synth_s_mu",
    "within_cov": "synth_s_eps",
}


@contextlib.contextmanager
def named_as_written(names: dict[str, str]):
    """Re-raise a ValueError from the block with each field name of names
    (a library field -> the config key or flag that sets it) in its
    message replaced by the name the user wrote."""
    try:
        yield
    except ValueError as exc:
        pattern = re.compile(r"\b(?:" + "|".join(names) + r")\b")
        raise ValueError(pattern.sub(lambda m: names[m[0]], str(exc))) from exc


@dataclass(frozen=True)
class PipelineConfig:
    out_dir: str = "run"
    seed: int = 0
    splits: int = 2
    scorer: str = "jointbayes"
    # feature source: synthetic unless a feature file + manifest is given
    features_path: str = ""
    manifest_path: str = ""
    synth_subjects: int = 30
    synth_samples: int = 5
    synth_dim: int = 16
    synth_s_mu: float = 1.0
    synth_s_eps: float = 0.25
    # protocol
    train_fraction: float = 2.0 / 3.0
    fars: tuple[float, ...] = ev.DEFAULT_FARS
    ranks: tuple[int, ...] = ev.DEFAULT_RANKS
    # metric training: steps sized for the unit-margin objective on the
    # synthetic desk-scale sets (library defaults in MetricTrainConfig are
    # much smaller; these are the documented values used by the runs here)
    gamma: float = 20.0
    gamma_b: float = 2.0
    epochs: int = 50
    neg_to_pos_ratio: int = 20
    symmetrize_b: bool = True

    def metric_config(self, seed: int) -> MetricTrainConfig:
        return MetricTrainConfig(**{key: getattr(self, key) for key in _SECTIONS["metric"]}, seed=seed)

    def synthetic_model(self) -> SyntheticEmbeddingModel:
        """The synthetic source; a bad value fails naming its config key."""
        with named_as_written(_SYNTH_KEYS):
            return SyntheticEmbeddingModel(
                **{name: getattr(self, key) for name, key in _SYNTH_KEYS.items()},
                seed=derive_seed(self.seed, _STREAMS["synth"]),
            )

    def __post_init__(self):
        if self.scorer not in SCORERS:
            raise ValueError(f"unknown scorer {self.scorer!r}")
        if self.seed < 0:  # before derive_seed, whose error names no seed
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.splits < 1:
            raise ValueError("need at least one split")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        ev.check_fars(self.fars)
        ev.check_ranks(self.ranks)
        for p in (self.features_path, self.manifest_path):
            if p and not Path(p).exists():
                raise FileNotFoundError(f"configured path does not exist: {p}")
        if bool(self.features_path) != bool(self.manifest_path):
            raise ValueError("features_path and manifest_path must be given together")
        if not self.features_path:
            self.synthetic_model()  # SyntheticEmbeddingModel checks its own fields
        self.metric_config(self.seed)  # so does MetricTrainConfig


def _report_text(scorer: str, splits: list[tuple[dict, dict]]) -> str:
    """report.txt from what each _run_split returned, in split order:
    ({far: TAR}, {k: rank-k accuracy})."""
    lines = ["faceverify evaluation report", f"scorer={scorer}", f"splits={len(splits)}"]
    for section, column, label in (("verification", 0, "tar@far={:g}"), ("identification", 1, "rank-{}")):
        table = {k: [split[column][k] for split in splits] for k in sorted(splits[0][column])}
        lines += ["", f"[{section}]", "split," + ",".join(label.format(k) for k in table)]
        lines += [f"{s}," + ",".join(f"{table[k][s]:.6f}" for k in table) for s in range(len(splits))]
        for stat, idx in (("mean", 0), ("std", 1)):
            lines.append(stat + "," + ",".join(f"{ev.aggregate_splits(table[k])[idx]:.6f}" for k in table))
    return "\n".join(lines) + "\n"


def synthesize_dataset(cfg: PipelineConfig, out_dir: Path) -> tuple[Path, Path]:
    """Write synthetic features plus a one-medium-per-template manifest;
    returns the paths of the two files."""
    feats, labels = generate_synthetic(cfg.synthetic_model())
    out_dir.mkdir(parents=True, exist_ok=True)
    media_ids = [f"s{lbl:04d}/m{k % cfg.synth_samples:02d}" for k, lbl in enumerate(labels)]
    paths = out_dir / "features.jvfe", out_dir / "media.csv"
    write_features(paths[0], feats, media_ids)
    rows = [
        ManifestRow(template_id=m, subject_id=f"s{lbl:04d}", media_path=m, role="train", split="all")
        for m, lbl in zip(media_ids, labels)
    ]
    write_manifest(paths[1], rows)
    return paths


def make_split_manifest(
    media_ids: list[str],
    subject_of: dict,
    rng: np.random.Generator,
    train_fraction: float,
    split_name: str,
) -> list[ManifestRow]:
    """Partition subjects into train/test; test media become one pooled
    gallery template per subject plus single-medium probe templates."""
    subjects = sorted({subject_of[m] for m in media_ids})
    if len(subjects) < 3:
        raise ValueError("need at least 3 subjects to form train and test sets")
    order = rng.permutation(len(subjects))
    n_train = max(1, min(len(subjects) - 2, int(round(train_fraction * len(subjects)))))
    train_subjects = {subjects[i] for i in order[:n_train]}

    by_subject: dict[str, list[str]] = {}
    for m in media_ids:
        by_subject.setdefault(subject_of[m], []).append(m)

    rows: list[ManifestRow] = []
    for subj in subjects:
        media = sorted(by_subject[subj])
        if subj in train_subjects:
            rows += [ManifestRow(m, subj, m, "train", split_name) for m in media]
            continue
        media = [media[i] for i in rng.permutation(len(media))]
        # single-medium subjects enroll in the gallery only
        n_gallery = max(1, len(media) // 2)
        gallery, probes = media[:n_gallery], media[n_gallery:]
        rows += [ManifestRow(f"g_{subj}", subj, m, "gallery", split_name) for m in gallery]
        rows += [ManifestRow(f"p_{subj}_{k}", subj, m, "probe", split_name) for k, m in enumerate(probes)]
    return rows


def run_pipeline(cfg: PipelineConfig) -> str:
    """Full deterministic run; returns the text it wrote to report.txt."""
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_config(cfg, out_dir / "config.resolved.ini")

    # a synthetic set is read back from its files too, so every run scores what later stages read
    source = (cfg.features_path, cfg.manifest_path) if cfg.features_path else synthesize_dataset(cfg, out_dir)
    feats, media_ids, subject_of = read_labelled_features(*source)
    report = _report_text(cfg.scorer, [_run_split(cfg, feats, media_ids, subject_of, s) for s in range(cfg.splits)])
    write_file(out_dir / "report.txt", [report.encode("utf-8")])
    return report


def _run_split(cfg: PipelineConfig, feats: np.ndarray, media_ids: list[str], subject_of: dict, s: int):
    """Split s of a run on the given feature set: writes its manifest,
    metric, templates, scores and curves under split<s>/ only, and
    returns ({far: TAR}, {k: rank-k accuracy}).  An error in it starts
    with split<s>."""
    name = f"split{s:02d}"
    with naming(name):
        split_dir = Path(cfg.out_dir) / name
        split_dir.mkdir(exist_ok=True)
        split_rng = make_rng(derive_seed(cfg.seed, _STREAMS["split"] + s))
        rows = make_split_manifest(media_ids, subject_of, split_rng, cfg.train_fraction, str(s))
        check_split_disjoint(rows)
        write_manifest(split_dir / "manifest.csv", rows)

        model = None
        if cfg.scorer == "jointbayes":
            train_rows = [r for r in rows if r.role == "train"]
            idx = {m: i for i, m in enumerate(media_ids)}
            train_feats = feats[[idx[r.media_path] for r in train_rows]]
            train_labels = np.array([r.subject_id for r in train_rows])
            mcfg = cfg.metric_config(derive_seed(cfg.seed, _STREAMS["metric"] + s))
            model, violations = train_metric(train_feats, train_labels, mcfg)
            write_metric_model(split_dir / "metric.jvjb", model)
            log.info("split %d: metric violations %.3f -> %.3f", s, violations[0], violations[-1])

        g_ids, g_subjects, gallery = build_templates(rows, feats, media_ids, role="gallery")
        p_ids, p_subjects, probe = build_templates(rows, feats, media_ids, role="probe")
        write_features(split_dir / "gallery.jvfe", gallery, g_ids)
        write_features(split_dir / "probe.jvfe", probe, p_ids)

        scores = score_templates(gallery, probe, scorer=cfg.scorer, model=model)
        write_score_matrix(split_dir / "scores.csv", scores, g_ids, p_ids)

        tars, accuracies = ev.evaluate_split(
            scores, g_subjects, p_subjects, cfg.fars, cfg.ranks, split_dir / "roc.csv", split_dir / "cmc.csv"
        )
        log.info("split %d done: %s", s, tars)
        return tars, accuracies


# -- config file (key=value INI sections) -----------------------------------

_SECTIONS = {
    "pipeline": ("out_dir", "seed", "splits", "scorer"),
    "source": ("features_path", "manifest_path", "synth_subjects", "synth_samples",
               "synth_dim", "synth_s_mu", "synth_s_eps"),
    "protocol": ("train_fraction", "fars", "ranks"),
    "metric": ("gamma", "gamma_b", "epochs", "neg_to_pos_ratio", "symmetrize_b"),
}


_FIELD_TYPES = typing.get_type_hints(PipelineConfig)


def _parse_value(parser: configparser.ConfigParser, section: str, key: str):
    kind = _FIELD_TYPES[key]
    if kind is bool:
        return parser.getboolean(section, key)
    raw = parser.get(section, key)
    if typing.get_origin(kind) is tuple:
        return ev.parse_list(raw, typing.get_args(kind)[0])
    return kind(raw)


def load_config(path) -> PipelineConfig:
    """Read and validate a config file; an unknown section or key, or a
    value its field cannot take, fails with an error naming the file."""
    parser = configparser.ConfigParser(interpolation=None)
    with open_text(path) as fh:
        parser.read_file(fh)
    if parser.defaults():
        raise ValueError(f"{path}: unknown section [{parser.default_section}]")
    kwargs = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValueError(f"{path}: unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SECTIONS[section]:
                raise ValueError(f"{path}: unknown key {key!r} in [{section}]")
            with naming(f"{path}: [{section}] {key}"):
                kwargs[key] = _parse_value(parser, section, key)
    with naming(path):
        return PipelineConfig(**kwargs)


def write_config(cfg: PipelineConfig, path) -> None:
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in _SECTIONS.items():
        parser.add_section(section)
        for key in keys:
            value = getattr(cfg, key)
            if isinstance(value, tuple):  # str of a float is its repr, which reads back to the same float
                value = ",".join(map(str, value))
            parser.set(section, key, str(value))
    buf = io.StringIO()
    parser.write(buf)
    write_file(path, [buf.getvalue().encode("utf-8")])
