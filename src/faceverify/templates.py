"""Template pooling, gallery/probe scoring, and score fusion.

A template bundles all media (images or video frames) of one subject
that form a single enrollment or query unit.  Its descriptor is the
arithmetic mean of the unit-norm per-medium features, re-normalized to
unit length so both scorers see unit vectors.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from faceverify.linalg import check_finite_rows
from faceverify.metric import JointBayesModel, cosine_matrix, similarity_matrix
from faceverify.storage import naming, open_text, read_features, write_file

__all__ = [
    "SCORERS",
    "ManifestRow",
    "read_manifest",
    "write_manifest",
    "read_labelled_features",
    "template_subjects",
    "check_split_disjoint",
    "pool_template",
    "build_templates",
    "score_templates",
    "fuse_scores",
    "read_score_matrix",
    "write_score_matrix",
]


SCORERS = ("cosine", "jointbayes")


@dataclass(frozen=True)
class ManifestRow:
    template_id: str
    subject_id: str
    media_path: str
    role: str  # gallery | probe | train
    split: str = "0"


MANIFEST_HEADER = [f.name for f in fields(ManifestRow)]


def _csv_lines(header, rows):
    """The header and each row as one UTF-8 csv line, made only when
    it is written."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in itertools.chain([header], rows):
        writer.writerow(row)
        yield buf.getvalue().encode("utf-8")
        buf.seek(0)
        buf.truncate()


def read_manifest(path) -> list[ManifestRow]:
    rows: list[ManifestRow] = []
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != MANIFEST_HEADER:
            raise ValueError(f"{path}:1: expected header {','.join(MANIFEST_HEADER)}")
        for rec in reader:
            if not rec:
                continue
            if len(rec) != len(MANIFEST_HEADER):
                raise ValueError(f"{path}:{reader.line_num}: malformed row {rec!r}")
            rows.append(ManifestRow(*rec))
    return rows


def write_manifest(path, rows: list[ManifestRow]) -> None:
    # attrgetter, not dataclasses.astuple, which deep-copies every field
    write_file(path, _csv_lines(MANIFEST_HEADER, map(operator.attrgetter(*MANIFEST_HEADER), rows)))


def read_labelled_features(features_path, manifest_path) -> tuple[np.ndarray, list[str], dict[str, str]]:
    """A feature file plus the subject of every media id in it, read
    from a manifest's media_path,subject_id pairs; a media id the
    manifest lacks fails naming both files, and a media the manifest
    gives two subjects fails naming the manifest."""
    feats, media_ids = read_features(features_path)
    rows = read_manifest(manifest_path)
    with naming(manifest_path):
        subject_of = _subject_of("media", ((r.media_path, r.subject_id) for r in rows))
    missing = [m for m in media_ids if m not in subject_of]
    if missing:
        raise ValueError(f"{manifest_path}: lacks media {missing[0]!r} named in {features_path}")
    return feats, media_ids, subject_of


def _subject_of(kind: str, pairs) -> dict[str, str]:
    """{key: subject} from (key, subject) pairs, in first-seen order; a
    key (a template or media) paired with two subjects is rejected."""
    subject_of: dict[str, str] = {}
    for key, subject in pairs:
        first = subject_of.setdefault(key, subject)
        if first != subject:
            raise ValueError(f"{kind} {key} spans subjects {first} and {subject}")
    return subject_of


def template_subjects(rows: list[ManifestRow]) -> dict[str, str]:
    """Subject of each template, in manifest order; a template whose
    rows name two subjects is rejected."""
    return _subject_of("template", ((r.template_id, r.subject_id) for r in rows))


def check_split_disjoint(rows: list[ManifestRow]) -> None:
    """Enforce the test-set invariants within each split: gallery and
    probe share no media, and template ids are unique per role."""
    by_split: dict[str, dict[str, set]] = {}
    templates_seen: dict[tuple, str] = {}
    for r in rows:
        media = by_split.setdefault(r.split, {"gallery": set(), "probe": set()})
        if r.role in media:
            media[r.role].add(r.media_path)
        key = (r.split, r.template_id)
        if key in templates_seen and templates_seen[key] != r.role:
            raise ValueError(f"template {r.template_id} appears in two roles in split {r.split}")
        templates_seen[key] = r.role
    for split, media in by_split.items():
        overlap = media["gallery"] & media["probe"]
        if overlap:
            raise ValueError(
                f"split {split}: gallery and probe share media (e.g. {sorted(overlap)[0]!r})"
            )


def pool_template(features: list[np.ndarray] | np.ndarray) -> np.ndarray:
    """Mean of unit-norm per-medium features, re-normalized to unit length.

    Invariant to the order of the media up to rounding only: the m
    features are summed in the order given, and any two orders move
    the mean by at most 2 gamma_{m-1} (gamma_k = k u / (1 - k u),
    u = 2^-53) and the pooled direction by at most about
    4 gamma_{m-1} / |mean|.  So media that nearly cancel pool to a
    direction that depends on their order (two near-antipodal pairs
    moved it by up to 9.3e-7).  Raises on an empty list and on exact
    antipodal cancellation (zero-norm mean).
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.size == 0:
        raise ValueError("cannot pool an empty feature list")
    mean = feats.mean(axis=0)
    norm = np.linalg.norm(mean)
    if norm == 0.0:
        raise ValueError("pooled feature has zero norm (media features cancel)")
    return mean / norm


def build_templates(
    rows: list[ManifestRow],
    features: np.ndarray,
    media_ids: list[str],
    role: str | None = None,
    split: str | None = None,
) -> tuple[list[str], list[str], np.ndarray]:
    """Group manifest rows into templates and pool each one, in manifest
    order; returns (template ids, subject ids, templates x dim matrix).

    features rows are matched to manifest media via media_ids.
    """
    rows = [r for r in rows if role in (None, r.role) and split in (None, r.split)]
    if not rows:
        raise ValueError(f"no manifest rows with role {role!r} and split {split!r} (None: any)")
    subject_of = template_subjects(rows)
    index = {m: i for i, m in enumerate(media_ids)}
    media_rows: dict[str, list[int]] = {}
    for r in rows:
        if r.media_path not in index:
            raise ValueError(f"no feature row for media {r.media_path!r}")
        media_rows.setdefault(r.template_id, []).append(index[r.media_path])
    pooled = np.stack([pool_template(features[media_rows[t]]) for t in subject_of])
    return list(subject_of), list(subject_of.values()), pooled


def score_templates(
    gallery: np.ndarray,
    probe: np.ndarray,
    scorer: str = "cosine",
    model: JointBayesModel | None = None,
) -> np.ndarray:
    """Dense |gallery| x |probe| similarity matrix of two stacked
    (templates x dim) feature matrices; a NaN or inf entry is rejected,
    in the features and in the scores they give."""
    check_finite_rows(gallery, "gallery")
    check_finite_rows(probe, "probe")
    dims = {"gallery": gallery.shape[1], "probe": probe.shape[1]}
    if scorer == "jointbayes" and model is not None:
        dims["model"] = model.dim
    if len(set(dims.values())) > 1:
        raise ValueError("dimensions differ: " + ", ".join(f"{what} {d}" for what, d in dims.items()))
    if scorer == "cosine":
        scores = cosine_matrix(gallery, probe)
    elif scorer == "jointbayes":
        if model is None:
            raise ValueError("jointbayes scoring needs a trained model")
        scores = similarity_matrix(model, gallery, probe)
    else:
        raise ValueError(f"unknown scorer {scorer!r}")
    check_finite_rows(scores, "score matrix")
    return scores


def fuse_scores(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Elementwise sum of two similarity matrices of identical shape; a
    sum that overflows to inf is rejected."""
    s1 = np.asarray(s1, dtype=np.float64)
    s2 = np.asarray(s2, dtype=np.float64)
    if s1.shape != s2.shape:
        raise ValueError(f"score matrices differ in shape: {s1.shape} vs {s2.shape}")
    fused = s1 + s2
    check_finite_rows(fused, "fused score matrix")
    return fused


def write_score_matrix(path, scores: np.ndarray, gallery_ids: list[str], probe_ids: list[str]) -> None:
    """CSV with probe ids across the header and gallery ids down column 0."""
    scores = np.asarray(scores)
    if scores.shape != (len(gallery_ids), len(probe_ids)):
        raise ValueError("score matrix shape does not match id lists")
    header = ["gallery_id", *probe_ids]
    if probe_ids:
        write_file(path, _score_lines(header, gallery_ids, scores))
    else:  # each id alone on its row, where csv quotes an empty one
        write_file(path, _csv_lines(header, ([gid] for gid in gallery_ids)))


def _score_lines(header, gallery_ids, scores):
    """write_score_matrix's lines for at least one probe: csv writes the
    header and each gallery id, and one format string writes a row's
    scores, which never need quoting."""
    lines = _csv_lines(header, ([gid, ""] for gid in gallery_ids))
    yield next(lines)
    scores_text = ",%.17g" * scores.shape[1] + "\r\n"
    for id_line, row in zip(lines, scores):
        # the id with an empty cell after it, since csv quotes an empty
        # id alone on its row; drop that cell's ",\r\n"
        yield id_line[:-3] + (scores_text % tuple(row.tolist())).encode("utf-8")


def read_score_matrix(path) -> tuple[np.ndarray, list[str], list[str]]:
    """(scores, gallery ids, probe ids) of a write_score_matrix file; a
    short row or a score that is not a finite number fails naming
    path:line."""
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "gallery_id":
            raise ValueError(f"{path}: not a score matrix file")
        probe_ids = header[1:]
        gallery_ids: list[str] = []
        rows: list[list[float]] = []
        for rec in reader:
            if not rec:
                continue
            if len(rec) != len(header):
                raise ValueError(f"{path}:{reader.line_num}: {len(rec) - 1} scores for {len(probe_ids)} probes")
            with naming(f"{path}:{reader.line_num}"):
                row = [float(v) for v in rec[1:]]
            bad = [v for v in row if not math.isfinite(v)]
            if bad:
                raise ValueError(f"{path}:{reader.line_num}: score must be finite, got {bad[0]}")
            rows.append(row)
            gallery_ids.append(rec[0])
    return np.array(rows, dtype=np.float64), gallery_ids, probe_ids
