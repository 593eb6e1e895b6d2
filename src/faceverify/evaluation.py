"""Verification and identification metrics.

Conventions, fixed so every figure is reproducible and oracle-checkable:

  - ROC points come from a full sweep over the distinct scores with an
    accept-if-score>=threshold rule, so TAR and FAR are exact empirical
    step functions.  The curve always contains the all-reject point
    (FAR 0) and the all-accept point (1, 1).
  - tar_at_far reads the step function conservatively: the TAR of the
    largest operating point whose FAR does not exceed the target.  No
    interpolation.
  - CMC ties break pessimistically: a non-matching gallery template
    that ties the best matching score is counted as ranked ahead.
  - Split aggregates report the mean and the sample (n-1) standard
    deviation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from faceverify.storage import write_file

__all__ = [
    "DEFAULT_FARS",
    "DEFAULT_RANKS",
    "parse_list",
    "check_fars",
    "check_ranks",
    "RocCurve",
    "roc",
    "tar_at_far",
    "cmc",
    "aggregate_splits",
    "emit_curves",
    "evaluate_split",
]


# Operating points reported per split unless a run asks for others.
DEFAULT_FARS = (1e-2, 1e-1)
DEFAULT_RANKS = (1, 5, 10)

# ROC table rows formatted per chunk written, so the text of a large
# curve is never held whole
_ROC_BLOCK = 4096


def parse_list(text: str, kind) -> tuple:
    """FARs (kind float) or ranks (kind int) from a flag's or a config's
    comma-separated list, none from an empty text; an empty or
    unreadable item fails, quoting it."""
    return tuple(kind(item) for item in text.split(",")) if text else ()


def check_fars(fars) -> None:
    """Reject a FAR outside (0, 1]."""
    for far in fars:
        if not 0.0 < far <= 1.0:
            raise ValueError(f"far must be in (0, 1], got {far}")


def check_ranks(ranks) -> None:
    """Reject a rank below 1."""
    for k in ranks:
        if k < 1:
            raise ValueError(f"rank must be at least 1, got {k}")


@dataclass(frozen=True)
class RocCurve:
    """Operating points by descending threshold, all-reject (0, 0) first."""

    far: np.ndarray
    tar: np.ndarray


def roc(scores, labels) -> RocCurve:
    """Empirical ROC from scores and +-1 labels."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1-D arrays")
    if not np.isfinite(scores).all():
        raise ValueError("ROC scores must be finite")
    pos = scores[labels > 0]
    neg = scores[labels <= 0]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("ROC needs at least one positive and one negative pair")

    thresholds = np.unique(scores)[::-1]
    # accepted(t) = #scores >= t, computed per class via searchsorted;
    # subtract counts before dividing so values match direct enumeration
    pos_sorted = np.sort(pos)
    neg_sorted = np.sort(neg)
    tar = (len(pos) - np.searchsorted(pos_sorted, thresholds, side="left")) / len(pos)
    far = (len(neg) - np.searchsorted(neg_sorted, thresholds, side="left")) / len(neg)
    return RocCurve(far=np.concatenate([[0.0], far]), tar=np.concatenate([[0.0], tar]))


def tar_at_far(curve: RocCurve, far: float) -> float:
    """TAR at the largest operating point with FAR <= far (step convention)."""
    check_fars((far,))
    eligible = curve.far <= far
    return float(curve.tar[eligible].max())


def cmc(sim_matrix, gallery_subjects, probe_subjects) -> np.ndarray:
    """Closed-set identification accuracy per rank: element k-1 is the
    fraction of probes whose match is within rank k.

    rank(probe) = 1 + number of non-matching gallery templates whose
    score is >= the best matching-subject score (ties pessimistic).
    A probe whose subject is absent from the gallery is rejected.
    """
    sim = np.asarray(sim_matrix, dtype=np.float64)
    gallery_subjects = np.asarray(gallery_subjects)
    probe_subjects = np.asarray(probe_subjects)
    if sim.shape != (len(gallery_subjects), len(probe_subjects)):
        raise ValueError(f"matrix shape {sim.shape} does not match subject list lengths")
    if not np.isfinite(sim).all():
        raise ValueError("CMC scores must be finite")
    if len(probe_subjects) == 0:
        raise ValueError("no probes to rank")
    same = gallery_subjects[:, None] == probe_subjects[None, :]
    absent = ~same.any(axis=0)
    if absent.any():
        raise ValueError(f"probe subject {probe_subjects[absent.argmax()]!r} absent from gallery (open set)")
    best = np.where(same, sim, -np.inf).max(axis=0)
    ranks = 1 + ((sim >= best) & ~same).sum(axis=0)
    ks = np.arange(1, len(gallery_subjects) + 1)
    return (ranks[None, :] <= ks[:, None]).mean(axis=1)


def aggregate_splits(values) -> tuple[float, float]:
    """Mean and sample (n-1) standard deviation over per-split figures."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("no split values to aggregate")
    if values.size == 1:
        return float(values[0]), 0.0
    return float(values.mean()), float(values.std(ddof=1))


def emit_curves(curve: RocCurve, accuracies: np.ndarray, roc_path, cmc_path) -> None:
    """Write plot-ready (far, tar) and (rank, accuracy) CSV tables, \\r\\n-terminated."""
    write_file(roc_path, _roc_lines(curve))
    cmc_rows = enumerate(accuracies.tolist(), start=1)
    cmc_text = "rank,accuracy\r\n" + "".join("%d,%.17g\r\n" % row for row in cmc_rows)
    write_file(cmc_path, [cmc_text.encode("utf-8")])


def _roc_lines(curve: RocCurve):
    """The ROC table as UTF-8 text, _ROC_BLOCK rows at a time."""
    yield b"far,tar\r\n"
    # TAR takes at most |pos| + 1 values, so each distinct one is formatted
    # once; distinct by bits, as 0.0 and -0.0 print differently
    bits = np.ascontiguousarray(curve.tar, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    tar_text = np.array(["%.17g" % t for t in distinct.view(np.float64).tolist()], dtype=object)
    for start in range(0, len(curve.far), _ROC_BLOCK):
        stop = start + _ROC_BLOCK
        far = curve.far[start:stop].tolist()
        cells = [None] * (2 * len(far))  # far, tar text, far, tar text, ...
        cells[0::2] = far
        cells[1::2] = tar_text[inverse[start:stop]].tolist()
        yield (("%.17g,%s\r\n" * len(far)) % tuple(cells)).encode("utf-8")


def evaluate_split(
    scores, gallery_subjects, probe_subjects, fars, ranks, roc_path, cmc_path
) -> tuple[dict, dict]:
    """ROC and CMC of one gallery x probe score matrix, with a pair
    labelled +1 where gallery and probe subjects agree.  Writes both
    curve tables and returns ({far: TAR}, {k: rank-k accuracy}); a rank
    past the gallery size reads the last rank, and a rank below 1 fails
    before anything is written."""
    check_ranks(ranks)
    labels = np.where(np.asarray(gallery_subjects)[:, None] == np.asarray(probe_subjects)[None, :], 1, -1)
    curve = roc(np.ravel(scores), labels.ravel())
    by_rank = cmc(scores, gallery_subjects, probe_subjects)
    emit_curves(curve, by_rank, roc_path, cmc_path)
    tars = {f: tar_at_far(curve, f) for f in fars}
    accuracies = {k: float(by_rank[min(k, len(by_rank)) - 1]) for k in ranks}
    return tars, accuracies
