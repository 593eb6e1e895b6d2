import csv
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from faceverify.evaluation import (
    aggregate_splits,
    cmc,
    emit_curves,
    evaluate_split,
    roc,
    tar_at_far,
)
from faceverify.linalg import make_rng
from faceverify.templates import read_score_matrix, write_score_matrix


def brute_force_roc(scores, labels):
    """O(n^2) threshold enumeration: accept iff score >= t."""
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    pos = scores[labels > 0]
    neg = scores[labels <= 0]
    points = [(0.0, 0.0)]
    for t in sorted(set(scores.tolist()), reverse=True):
        tar = sum(1 for s in pos if s >= t) / len(pos)
        far = sum(1 for s in neg if s >= t) / len(neg)
        points.append((far, tar))
    return points


def brute_force_cmc(sim, gallery_subjects, probe_subjects):
    """Sort-based rank computation with pessimistic tie handling."""
    n_gallery = len(gallery_subjects)
    ranks = []
    for p in range(len(probe_subjects)):
        col = sim[:, p]
        best = max(col[g] for g in range(n_gallery) if gallery_subjects[g] == probe_subjects[p])
        ahead = sum(
            1
            for g in range(n_gallery)
            if gallery_subjects[g] != probe_subjects[p] and col[g] >= best
        )
        ranks.append(1 + ahead)
    return [np.mean([r <= k for r in ranks]) for k in range(1, n_gallery + 1)]


class TestRoc:
    def test_perfect_separation(self):
        scores = np.array([5.0, 4.0, 1.0, 0.0])
        labels = np.array([1, 1, -1, -1])
        curve = roc(scores, labels)
        assert tar_at_far(curve, 1e-6) == 1.0  # TAR 1 already at FAR 0

    def test_all_equal_scores_two_trivial_points(self):
        curve = roc(np.ones(10), np.array([1] * 5 + [-1] * 5))
        npt.assert_array_equal(curve.far, [0.0, 1.0])
        npt.assert_array_equal(curve.tar, [0.0, 1.0])

    def test_matches_brute_force(self):
        rng = make_rng(0)
        for trial in range(5):
            n = int(rng.integers(20, 500))
            scores = np.round(rng.standard_normal(n), 2)  # duplicates likely
            labels = np.where(rng.random(n) < 0.3, 1, -1)
            if not (labels > 0).any() or not (labels < 0).any():
                continue
            curve = roc(scores, labels)
            expected = brute_force_roc(scores, labels)
            npt.assert_allclose(
                np.stack([curve.far, curve.tar], axis=1), np.array(expected), atol=1e-15
            )

    def test_monotone_under_score_transform(self):
        rng = make_rng(1)
        scores = rng.standard_normal(200)
        labels = np.where(rng.random(200) < 0.5, 1, -1)
        a = roc(scores, labels)
        b = roc(3.0 * scores + 7.0, labels)  # strictly increasing transform
        npt.assert_array_equal(a.far, b.far)
        npt.assert_array_equal(a.tar, b.tar)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc(np.arange(4.0), np.ones(4))


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scores_rejected(self, bad):
        # a NaN threshold would otherwise be swept and read as TAR 1.0
        with pytest.raises(ValueError, match="finite"):
            roc([bad, 0.2, 0.1], [1, -1, -1])


class TestTarAtFar:
    def test_step_convention(self):
        # operating points: FAR 0 -> TAR 0.5, FAR 0.25 -> TAR 1.0, then (1,1)
        scores = np.array([4.0, 3.0, 2.0, 1.0, 2.5, 0.5, 0.0, -1.0])
        labels = np.array([1, 1, 1, 1, -1, -1, -1, -1])
        curve = roc(scores, labels)
        assert tar_at_far(curve, 0.1) == 0.5   # no point between FAR 0 and 0.25
        assert tar_at_far(curve, 0.25) == 1.0
        assert tar_at_far(curve, 0.3) == 1.0   # step holds until the next point
        assert tar_at_far(curve, 1.0) == 1.0

    def test_below_achievable_far_returns_zero_far_tar(self):
        scores = np.array([3.0, 1.0, 2.0, 0.0])
        labels = np.array([1, 1, -1, -1])
        curve = roc(scores, labels)
        # smallest nonzero FAR is 0.5; below it we fall back to FAR=0
        assert tar_at_far(curve, 0.01) == 0.5

    def test_monotone_in_far(self):
        rng = make_rng(2)
        scores = rng.standard_normal(300)
        labels = np.where(rng.random(300) < 0.5, 1, -1)
        curve = roc(scores, labels)
        values = [tar_at_far(curve, f) for f in (0.001, 0.01, 0.1, 0.5, 1.0)]
        assert values == sorted(values)

    def test_chance_scorer_tar_tracks_far(self):
        rng = make_rng(3)
        n = 100_000
        scores = rng.standard_normal(n)
        labels = np.where(rng.random(n) < 0.5, 1, -1)
        curve = roc(scores, labels)
        assert tar_at_far(curve, 0.01) == pytest.approx(0.01, abs=0.005)

    def test_domain(self):
        scores = np.array([1.0, 0.0])
        labels = np.array([1, -1])
        curve = roc(scores, labels)
        with pytest.raises(ValueError):
            tar_at_far(curve, 0.0)


class TestCmc:
    def test_diagonal_dominant_rank1(self):
        sim = np.eye(5) + 0.01
        assert cmc(sim, [f"s{i}" for i in range(5)], [f"s{i}" for i in range(5)])[0] == 1.0

    def test_reversed_worst_case(self):
        # correct match scored strictly lowest among 4 gallery entries
        sim = np.array([[0.9], [0.8], [0.7], [0.1]])
        accuracies = cmc(sim, ["a", "b", "c", "d"], ["d"])
        assert accuracies[0] == 0.0  # rank 1
        assert accuracies[3] == 1.0  # rank 4

    def test_matches_brute_force(self):
        rng = make_rng(4)
        for _ in range(5):
            n_g, n_p = 20, 50
            gallery_subjects = [f"s{i}" for i in range(n_g)]
            probe_subjects = [f"s{int(rng.integers(0, n_g))}" for _ in range(n_p)]
            sim = np.round(rng.standard_normal((n_g, n_p)), 1)  # force ties
            expected = brute_force_cmc(sim, gallery_subjects, probe_subjects)
            npt.assert_allclose(cmc(sim, gallery_subjects, probe_subjects), expected, atol=1e-15)
        # subjects repeat in the gallery: a probe's best match is the
        # highest of its subject's templates
        gallery_subjects = [f"s{int(k)}" for k in rng.integers(0, 6, 24)]
        probe_subjects = [gallery_subjects[int(k)] for k in rng.integers(0, 24, 60)]
        assert max(gallery_subjects.count(s) for s in probe_subjects) > 1
        sim = np.round(rng.standard_normal((24, 60)), 1)
        expected = brute_force_cmc(sim, gallery_subjects, probe_subjects)
        npt.assert_array_equal(cmc(sim, gallery_subjects, probe_subjects), expected)

    def test_non_decreasing_and_closed_set_tops_out(self):
        rng = make_rng(5)
        sim = rng.standard_normal((8, 30))
        gallery = [f"s{i}" for i in range(8)]
        probes = [f"s{int(rng.integers(0, 8))}" for _ in range(30)]
        acc = cmc(sim, gallery, probes)
        assert np.all(np.diff(acc) >= 0)
        assert acc[-1] == 1.0

    def test_open_set_probe_rejected_or_skipped(self):
        sim = np.ones((2, 2))
        with pytest.raises(ValueError, match="absent"):
            cmc(sim, ["a", "b"], ["a", "zz"])

    def test_pessimistic_ties(self):
        # non-match ties the best match: counted as ranked ahead
        sim = np.array([[0.5], [0.5]])
        npt.assert_array_equal(cmc(sim, ["right", "wrong"], ["right"]), [0.0, 1.0])

    @pytest.mark.parametrize("k", [0, -1])
    def test_rank_below_one_rejected(self, k, tmp_path):
        # evaluate_split's accuracies[k - 1] would read from the end
        subjects = ["a", "b", "c"]
        with pytest.raises(ValueError, match=f"rank must be at least 1, got {k}"):
            evaluate_split(np.eye(3), subjects, subjects, (0.5,), (1, k), tmp_path / "roc.csv", tmp_path / "cmc.csv")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        # a NaN matching score would otherwise count as a rank-1 hit
        with pytest.raises(ValueError, match="finite"):
            cmc([[bad, 0.9], [0.5, 0.1]], ["a", "b"], ["a", "b"])


class TestAggregate:
    def test_hand_example(self):
        mean, std = aggregate_splits([0.7, 0.8])
        assert mean == pytest.approx(0.75)
        assert std == pytest.approx(0.0707106781, abs=1e-9)

    def test_constant_list(self):
        assert aggregate_splits([0.5] * 10) == (0.5, 0.0)

    def test_matches_direct_formula(self):
        rng = make_rng(6)
        values = rng.random(10)
        mean, std = aggregate_splits(values)
        assert mean == pytest.approx(values.sum() / 10, abs=1e-15)
        assert std == pytest.approx(
            np.sqrt(((values - values.mean()) ** 2).sum() / 9), abs=1e-15
        )

    def test_mean_within_bounds(self):
        rng = make_rng(7)
        values = rng.random(6)
        mean, _ = aggregate_splits(values)
        assert values.min() <= mean <= values.max()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_splits([])


def read_table(path):
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, np.array(rows, dtype=np.float64)


class TestEmitCurves:
    def test_roundtrip(self, tmp_path):
        rng = make_rng(11)
        scores = rng.standard_normal(50)
        labels = np.where(rng.random(50) < 0.5, 1, -1)
        curve = roc(scores, labels)
        sim = rng.standard_normal((4, 9))
        gallery = ["a", "b", "c", "d"]
        probes = [gallery[int(rng.integers(0, 4))] for _ in range(9)]
        accuracies = cmc(sim, gallery, probes)

        roc_path = tmp_path / "roc.csv"
        cmc_path = tmp_path / "cmc.csv"
        emit_curves(curve, accuracies, roc_path, cmc_path)

        header, rows = read_table(roc_path)
        assert header == ["far", "tar"]
        assert rows.shape[0] == len(curve.far)
        npt.assert_array_equal(rows[:, 0], curve.far)
        npt.assert_array_equal(rows[:, 1], curve.tar)

        header, rows = read_table(cmc_path)
        assert header == ["rank", "accuracy"]
        assert rows.shape[0] == len(accuracies)
        npt.assert_array_equal(rows[:, 0], np.arange(1, len(accuracies) + 1))
        npt.assert_array_equal(rows[:, 1], accuracies)


def test_writers_peak_memory_at_the_hard_benchmark_shape(tmp_path):
    # one split of the d=32 hard benchmark run: 320 gallery x 640 probe
    # templates, a 204,801-point ROC; holding each file's whole text
    # peaked at 33.5 MB
    rng = make_rng(12)
    scores = rng.standard_normal((320, 640))
    gallery = rng.integers(0, 320, 320)
    probes = gallery[rng.integers(0, 320, 640)]
    curve = roc(scores.ravel(), np.where(gallery[:, None] == probes[None, :], 1, -1).ravel())
    accuracies = cmc(scores, gallery, probes)
    gallery_ids = [f"g{k:04d}" for k in range(320)]
    probe_ids = [f"p{k:04d}" for k in range(640)]
    tracemalloc.start()
    try:
        write_score_matrix(tmp_path / "scores.csv", scores, gallery_ids, probe_ids)
        emit_curves(curve, accuracies, tmp_path / "roc.csv", tmp_path / "cmc.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6
    back, _, _ = read_score_matrix(tmp_path / "scores.csv")
    npt.assert_array_equal(back, scores)
    _, rows = read_table(tmp_path / "roc.csv")
    npt.assert_array_equal(rows, np.stack([curve.far, curve.tar], axis=1))


def test_evaluate_split(tmp_path):
    scores = np.array([[0.9, 0.2, 0.4], [0.3, 0.8, 0.5]])
    gallery, probes = ["a", "b"], ["a", "b", "a"]
    tars, accuracies = evaluate_split(
        scores, gallery, probes, (0.5, 1.0), (1, 10), tmp_path / "roc.csv", tmp_path / "cmc.csv"
    )
    labels = np.array([[1, -1, 1], [-1, 1, -1]])
    curve = roc(scores.ravel(), labels.ravel())
    assert tars == {0.5: tar_at_far(curve, 0.5), 1.0: 1.0}
    # the third probe ("a") ranks second; rank 10 reads the last rank (2)
    assert accuracies == {1: pytest.approx(2 / 3), 10: 1.0}
    assert read_table(tmp_path / "roc.csv")[1].shape == (len(curve.far), 2)
    assert read_table(tmp_path / "cmc.csv")[1].shape == (2, 2)
