import copy
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from conftest import (
    MaskPairSampler,
    distance,
    max_relative_error,
    plain_train_metric,
    reference_hinge_step,
    similarity,
)
from faceverify.linalg import l2_normalize, make_rng
from faceverify.metric import (
    JointBayesModel,
    MetricTrainConfig,
    PairSampler,
    SyntheticEmbeddingModel,
    cosine_matrix,
    generate_synthetic,
    hinge_step,
    init_model,
    similarity_matrix,
    train_metric,
)
from faceverify.metric import _distance, _screen_cache, _undecided

GOLDEN = Path(__file__).parent / "golden"

# Generator settings and epoch counts of the train_metric runs pinned in
# golden/train_metric.json: at d=32 about a fifth of the pair steps
# violate the margin in every epoch; at d=320 (the paper's feature size)
# a third violate in the first epoch and 1-2% in each later one.  Both
# screen only the start of the first epoch, up to its steps / n-th
# violator, and run the rest plain.  At d=64 some epochs follow one with
# at most two violators, so train_metric screens them too, and epoch 9
# of those still holds four violators.
TRAIN_GOLDEN_SETS = {
    "d32": (dict(dim=32, num_subjects=300, samples_per_subject=3, within_cov=2.0, seed=11), 8),
    "d320": (dict(dim=320, num_subjects=30, samples_per_subject=5, within_cov=4.0, seed=11), 5),
    "d64": (dict(dim=64, num_subjects=40, samples_per_subject=4, within_cov=1.0, seed=4), 12),
}


def train_golden_record(name):
    """Per-epoch violation fractions, b, and M and B applied to two
    fixed probe vectors, for one run of TRAIN_GOLDEN_SETS."""
    gen_kwargs, epochs = TRAIN_GOLDEN_SETS[name]
    feats, labels = generate_synthetic(SyntheticEmbeddingModel(**gen_kwargs))
    cfg = MetricTrainConfig(gamma=20.0, gamma_b=2.0, epochs=epochs, seed=12)
    model, fractions = train_metric(feats, labels, cfg)
    probes = make_rng(13).standard_normal((model.dim, 2))
    return {
        "violation_fractions": fractions,
        "b": model.b,
        "M_probes": (model.M @ probes).tolist(),
        "B_probes": (model.B @ probes).tolist(),
    }


def random_model(d, seed=0, scale=1.0):
    rng = make_rng(seed)
    m = rng.standard_normal((d, d))
    b = rng.standard_normal((d, d))
    return JointBayesModel(scale * (m + m.T) / 2, scale * (b + b.T) / 2, rng.standard_normal())


class TestDistance:
    def test_zero_model(self):
        model = JointBayesModel(np.zeros((3, 3)), np.zeros((3, 3)), 0.0)
        assert distance(model, np.ones(3), np.zeros(3)) == 0.0

    def test_euclidean_case(self):
        model = JointBayesModel(np.eye(2), np.zeros((2, 2)), 0.0)
        assert distance(model, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(2.0)

    def test_expansion_identity(self):
        # d(x,y) must equal x'Mx + y'My - 2x'Ry with R = M + B
        rng = make_rng(1)
        model = random_model(4, seed=2)
        r = model.M + model.B
        for _ in range(10):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            expanded = x @ model.M @ x + y @ model.M @ y - 2 * x @ r @ y
            assert distance(model, x, y) == pytest.approx(expanded, abs=1e-12)

    def test_dimension_mismatch(self):
        model = random_model(4)
        with pytest.raises(ValueError):
            distance(model, np.ones(3), np.ones(4))


class TestSimilarity:
    def test_symmetric_when_b_symmetric(self):
        rng = make_rng(3)
        model = random_model(5, seed=4)
        for _ in range(10):
            x, y = rng.standard_normal(5), rng.standard_normal(5)
            assert similarity(model, x, y) == pytest.approx(similarity(model, y, x), abs=1e-12)

    def test_identical_unit_inputs_identity_matrices(self):
        model = JointBayesModel(np.eye(3), np.eye(3), 0.0)
        x = np.array([1.0, 0.0, 0.0])
        # d = 0 - 2*x'Bx = -2 for unit x, so similarity = +2
        assert similarity(model, x, x) == pytest.approx(2.0)

    def test_bias_shift_preserves_ordering(self):
        rng = make_rng(5)
        model = random_model(4, seed=6)
        pairs = [(rng.standard_normal(4), rng.standard_normal(4)) for _ in range(20)]
        base = np.array([similarity(model, x, y) for x, y in pairs])
        shifted_model = JointBayesModel(model.M, model.B, model.b + 7.5)
        shifted = np.array([similarity(shifted_model, x, y) for x, y in pairs])
        npt.assert_array_equal(np.argsort(base), np.argsort(shifted))

    def test_matrix_matches_scalar(self):
        rng = make_rng(7)
        model = random_model(4, seed=8)
        left = rng.standard_normal((3, 4))
        right = rng.standard_normal((5, 4))
        mat = similarity_matrix(model, left, right)
        for i in range(3):
            for j in range(5):
                assert mat[i, j] == pytest.approx(similarity(model, left[i], right[j]), abs=1e-10)


class TestCosine:
    def test_basis_cases(self):
        left = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        npt.assert_allclose(cosine_matrix(left, np.array([[1.0, 0.0]]))[:, 0], [1.0, 0.0, 1 / np.sqrt(2)])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine_matrix(np.zeros((1, 2)), np.ones((1, 2)))


class TestInitModel:
    def test_gram_matrices_psd_and_symmetric(self):
        model = init_model(6, make_rng(9))
        npt.assert_array_equal(model.M, model.M.T)
        npt.assert_array_equal(model.B, model.B.T)
        assert np.linalg.eigvalsh(model.M).min() >= -1e-10
        assert np.linalg.eigvalsh(model.B).min() >= -1e-10
        assert model.b == 0.0

    def test_deterministic(self):
        a = init_model(5, make_rng(10))
        b = init_model(5, make_rng(10))
        npt.assert_array_equal(a.M, b.M)
        npt.assert_array_equal(a.B, b.B)

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            init_model(0, make_rng(0))


class TestHingeStep:
    def test_satisfied_pair_untouched(self):
        # margin comfortably met: y=+1 and b - d = 2
        model = JointBayesModel(np.zeros((2, 2)), np.zeros((2, 2)), 2.0)
        before = copy.deepcopy(model)
        cfg = MetricTrainConfig(gamma=0.1, gamma_b=0.1)
        violated = hinge_step(model, np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1, cfg)
        assert not violated
        npt.assert_array_equal(model.M, before.M)
        npt.assert_array_equal(model.B, before.B)
        assert model.b == before.b

    def test_scalar_hand_case(self):
        # d=1, x_i=1, x_j=0, y=-1, all-zero model: violated, M gains 0.1
        model = JointBayesModel(np.zeros((1, 1)), np.zeros((1, 1)), 0.0)
        cfg = MetricTrainConfig(gamma=0.1, gamma_b=0.1)
        violated = hinge_step(model, np.array([1.0]), np.array([0.0]), -1, cfg)
        assert violated
        assert model.M[0, 0] == pytest.approx(0.1)
        assert model.B[0, 0] == pytest.approx(0.0)  # x_j = 0 kills the B update
        assert model.b == pytest.approx(-0.1)

    @pytest.mark.parametrize("d", [2, 8])
    @pytest.mark.parametrize("y", [1, -1])
    def test_update_equals_negative_subgradient(self, d, y):
        # literal update rule against central differences of the hinge term
        rng = make_rng(20 + d)
        cfg = MetricTrainConfig(gamma=0.05, gamma_b=0.01, symmetrize_b=False)
        x_i = rng.standard_normal(d)
        x_j = rng.standard_normal(d)
        model = random_model(d, seed=30 + d, scale=0.1)
        # place b so the pair clearly violates the margin on both labels
        model.b = distance(model, x_i, x_j) + (0.5 if y == 1 else -0.5)
        assert y * (model.b - distance(model, x_i, x_j)) <= 1.0

        def hinge(m):
            return max(1.0 - y * (m.b - distance(m, x_i, x_j)), 0.0)

        before = copy.deepcopy(model)
        violated = hinge_step(model, x_i, x_j, y, cfg)
        assert violated

        eps = 1e-6
        for attr, lr in (("M", cfg.gamma), ("B", cfg.gamma)):
            update = getattr(model, attr) - getattr(before, attr)
            num = np.zeros((d, d))
            arr = getattr(before, attr)
            for r in range(d):
                for c in range(d):
                    orig = arr[r, c]
                    arr[r, c] = orig + eps
                    hi = hinge(before)
                    arr[r, c] = orig - eps
                    lo = hinge(before)
                    arr[r, c] = orig
                    num[r, c] = (hi - lo) / (2 * eps)
            assert max_relative_error(update, -lr * num, floor=1e-10) < 1e-6, attr
        # bias: central difference over b
        orig = before.b
        before.b = orig + eps
        hi = hinge(before)
        before.b = orig - eps
        lo = hinge(before)
        before.b = orig
        assert model.b - orig == pytest.approx(-cfg.gamma_b * (hi - lo) / (2 * eps), rel=1e-6)

    def test_symmetrized_update_keeps_symmetry(self):
        rng = make_rng(40)
        cfg = MetricTrainConfig(gamma=0.1, gamma_b=0.1, symmetrize_b=True)
        model = init_model(4, rng)
        for _ in range(20):
            x_i, x_j = rng.standard_normal(4), rng.standard_normal(4)
            y = 1 if rng.random() < 0.5 else -1
            hinge_step(model, x_i / np.linalg.norm(x_i), x_j / np.linalg.norm(x_j), y, cfg)
            npt.assert_array_equal(model.M, model.M.T)
            npt.assert_allclose(model.B, model.B.T, atol=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 32, 320])
    @pytest.mark.parametrize("symmetrize_b", [True, False], ids=["symmetric", "literal"])
    @pytest.mark.parametrize("stride", [1, 2], ids=["contiguous", "strided"])
    def test_same_bytes_as_the_reference_step(self, d, symmetrize_b, stride):
        # 200 steps of mixed labels, about two thirds of them violators;
        # gamma is no power of two, so scaling diff before the product,
        # (s d_i) d_j, rounds differently from s (d_i d_j)
        rng = make_rng(90 + d)
        feats = rng.standard_normal((20, stride * d))[:, ::stride]
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        model = random_model(d, seed=d, scale=1.0 / np.sqrt(d))
        want_model = copy.deepcopy(model)
        cfg = MetricTrainConfig(gamma=0.37, gamma_b=0.11, symmetrize_b=symmetrize_b)
        got, want = [], []
        for _ in range(200):
            i, j = rng.integers(0, 20, 2)
            y = int(rng.choice([-1, 1]))
            got.append(hinge_step(model, feats[i], feats[j], y, cfg))
            want.append(reference_hinge_step(want_model, feats[i], feats[j], y, cfg))
        assert got == want
        assert 50 < sum(got) < 180
        assert model.M.tobytes() == want_model.M.tobytes()
        assert model.B.tobytes() == want_model.B.tobytes()
        assert np.float64(model.b).tobytes() == np.float64(want_model.b).tobytes()

    def test_score_symmetry_preserved_during_training(self):
        rng = make_rng(41)
        cfg = MetricTrainConfig(gamma=0.1, gamma_b=0.1, symmetrize_b=True)
        model = init_model(3, rng)
        probes = [(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(5)]
        for _ in range(10):
            x_i, x_j = rng.standard_normal(3), rng.standard_normal(3)
            hinge_step(model, x_i, x_j, 1 if rng.random() < 0.5 else -1, cfg)
            for x, y in probes:
                assert similarity(model, x, y) == pytest.approx(
                    similarity(model, y, x), abs=1e-12
                )


def brute_force_pairs(labels):
    """Same- and different-subject (i, j) pairs, i < j, in row-major order."""
    n = len(labels)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pos = [(i, j) for i, j in pairs if labels[i] == labels[j]]
    neg = [(i, j) for i, j in pairs if labels[i] != labels[j]]
    return np.array(pos).reshape(-1, 2), np.array(neg).reshape(-1, 2)


PAIR_LABELS = {
    "grouped": np.repeat(np.arange(6), 3),
    "shuffled": make_rng(57).permutation(np.repeat(np.arange(5), [1, 2, 3, 4, 5])),
    "strings": np.array(["s07", "s02", "s07", "s11", "s02", "s11", "s07", "s30", "s02"]),
    "interleaved": np.tile(np.arange(4), 3),
    "singletons": np.array([5, 1, 5, 9, 2, 7, 1, 3, 5, 8]),
    "sorted-floats": np.array([0.5, 0.5, 1.5, 1.5, 1.5, 2.25, 3.0, 3.0]),
    # one positive and exactly 20 negatives: ratio 20 takes every negative
    "one-pair": np.array([3, 0, 5, 1, 0, 4, 2]),
}


class TestPairSampler:
    @pytest.mark.parametrize("name", sorted(PAIR_LABELS))
    @pytest.mark.parametrize("ratio, capped", [(1, True), (2, True), (20, False), (1000, False)])
    def test_pools_match_brute_force_enumeration(self, name, ratio, capped):
        labels = PAIR_LABELS[name]
        pos, neg = brute_force_pairs(labels.tolist())
        cap = min(len(neg), ratio * len(pos))
        assert (cap < len(neg)) == capped
        cfg = MetricTrainConfig(neg_to_pos_ratio=ratio)
        sampler = PairSampler(labels, make_rng(56), cfg)
        npt.assert_array_equal(sampler.pos_pairs, pos)
        pick = np.sort(make_rng(56).choice(len(neg), cap, replace=False))
        npt.assert_array_equal(sampler.neg_pairs, neg[pick])
        # the same draws as the mask construction, so the same epochs
        reference = MaskPairSampler(labels, make_rng(56), cfg)
        npt.assert_array_equal(sampler._neg_queue, reference._neg_queue)
        for _ in range(2):
            got, want = sampler.epoch(), reference.epoch()
            for field in ("i", "j", "y"):
                npt.assert_array_equal(getattr(got, field), getattr(want, field))

    def test_peak_memory_at_hard_benchmark_training_shape(self):
        # 1280 subjects x 3 samples, the training set of the d=32 hard
        # benchmark run: an (i, j) list of all 7.4M pairs peaked at 376
        # MB, and the n x n same-subject mask at 88.5 MB
        labels = np.repeat(np.array([f"s{k:04d}" for k in range(1280)]), 3)
        tracemalloc.start()
        try:
            PairSampler(labels, make_rng(58), MetricTrainConfig(neg_to_pos_ratio=20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_labels_rejected(self, bad):
        # the mask made each NaN a subject of its own; grouping by value
        # would join them, so neither reading is taken
        feats = l2_normalize(make_rng(59).standard_normal((5, 3)))
        labels = np.array([1.0, 1.0, bad, 2.0, bad])
        with pytest.raises(ValueError, match=rf"labels must be finite, got {bad} at row 2 \(2 in all\)"):
            train_metric(feats, labels, MetricTrainConfig(epochs=1))

    def test_unorderable_labels_rejected(self):
        labels = np.array(["a", None, "a", 1, 1], dtype=object)
        with pytest.raises(
            ValueError, match=r"^labels must be mutually orderable: '<' not supported between instances of "
        ):
            PairSampler(labels, make_rng(60), MetricTrainConfig())

    def test_pool_counts(self):
        labels = np.array([0, 0, 1, 1])
        cfg = MetricTrainConfig()
        sampler = PairSampler(labels, make_rng(50), cfg)
        assert len(sampler.pos_pairs) == 2
        assert len(sampler.neg_pairs) == min(4, 20 * 2)
        assert len(sampler.neg_pairs) == 4

    def test_alternating_labels(self):
        labels = np.array([0, 0, 0, 1, 1, 1, 2, 2])
        sampler = PairSampler(labels, make_rng(51), MetricTrainConfig())
        batch = sampler.epoch()
        npt.assert_array_equal(batch.y[0::2], 1)
        npt.assert_array_equal(batch.y[1::2], -1)

    def test_labels_match_subjects(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        sampler = PairSampler(labels, make_rng(52), MetricTrainConfig())
        batch = sampler.epoch()
        for i, j, y in zip(batch.i, batch.j, batch.y):
            assert (labels[i] == labels[j]) == (y == 1)

    def test_deterministic(self):
        labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        seqs = []
        for _ in range(2):
            sampler = PairSampler(labels, make_rng(53), MetricTrainConfig())
            batch = sampler.epoch()
            seqs.append((batch.i.copy(), batch.j.copy(), batch.y.copy()))
        npt.assert_array_equal(seqs[0][0], seqs[1][0])
        npt.assert_array_equal(seqs[0][1], seqs[1][1])

    def test_ratio_caps_negative_pool(self):
        labels = np.repeat(np.arange(10), 2)  # 10 pos pairs, 180 neg pairs
        cfg = MetricTrainConfig(neg_to_pos_ratio=5)
        sampler = PairSampler(labels, make_rng(54), cfg)
        assert len(sampler.neg_pairs) == 50

    def test_requires_positive_pair(self):
        with pytest.raises(ValueError):
            PairSampler(np.array([0, 1, 2]), make_rng(55), MetricTrainConfig())


class TestTrainMetric:
    def _separable_set(self):
        gen = SyntheticEmbeddingModel(
            dim=8, num_subjects=20, samples_per_subject=5, between_cov=1.0,
            within_cov=0.01, seed=60,
        )
        return generate_synthetic(gen)

    def test_zero_final_violations_on_separable_set(self):
        feats, labels = self._separable_set()
        # recorded from the training oracle: zero violations within 30 epochs
        cfg = MetricTrainConfig(gamma=5.0, gamma_b=0.5, epochs=30, seed=61)
        model, violations = train_metric(feats, labels, cfg)
        assert violations[-1] == 0.0

    def test_no_violation_fixed_point(self):
        feats, labels = self._separable_set()
        cfg = MetricTrainConfig(gamma=5.0, gamma_b=0.5, epochs=30, seed=61)
        model, violations = train_metric(feats, labels, cfg)
        # retrain from the converged model: no pair may update it
        sampler = PairSampler(labels, make_rng(62), cfg)
        frozen = copy.deepcopy(model)
        batch = sampler.epoch()
        for i, j, y in zip(batch.i, batch.j, batch.y):
            assert not hinge_step(model, feats[i], feats[j], int(y), cfg)
        npt.assert_array_equal(model.M, frozen.M)
        npt.assert_array_equal(model.B, frozen.B)

    def test_objective_decreases(self):
        feats, labels = self._separable_set()
        fixed_pairs = PairSampler(labels, make_rng(63), MetricTrainConfig()).epoch()

        def hinge_objective(model):
            return sum(
                max(1.0 - y * similarity(model, feats[i], feats[j]), 0.0)
                for i, j, y in zip(fixed_pairs.i, fixed_pairs.j, fixed_pairs.y)
            )

        cfg1 = MetricTrainConfig(gamma=0.5, gamma_b=0.05, epochs=1, seed=64)
        model1, _ = train_metric(feats, labels, cfg1)
        cfg20 = MetricTrainConfig(gamma=0.5, gamma_b=0.05, epochs=20, seed=64)
        model20, _ = train_metric(feats, labels, cfg20)
        assert hinge_objective(model20) < hinge_objective(model1)

    def test_zero_rates_return_initialization(self):
        feats, labels = self._separable_set()
        cfg = MetricTrainConfig(gamma=0.0, gamma_b=0.0, epochs=3, seed=67)
        model, _ = train_metric(feats, labels, cfg)
        reference = init_model(feats.shape[1], make_rng(67))
        npt.assert_array_equal(model.M, reference.M)
        npt.assert_array_equal(model.B, reference.B)
        assert model.b == 0.0

    def test_warns_on_unnormalized_features(self):
        feats, labels = self._separable_set()
        with pytest.warns(UserWarning, match="unit-norm"):
            train_metric(feats * 3.0, labels, MetricTrainConfig(epochs=1, seed=65))

    def test_nan_feature_rejected_before_any_step(self, monkeypatch):
        feats, labels = self._separable_set()
        feats[7, 3] = np.nan

        def no_step(*args):
            raise AssertionError("hinge_step ran on a NaN feature set")

        monkeypatch.setattr("faceverify.metric.hinge_step", no_step)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the unit-norm warning must not come first
            with pytest.raises(ValueError, match="features row 7 holds NaN or inf"):
                train_metric(feats, labels, MetricTrainConfig(epochs=1, seed=65))

    @pytest.mark.parametrize("epochs", [0, -3])
    def test_epochs_below_one_rejected(self, epochs):
        with pytest.raises(ValueError, match=f"^epochs must be >= 1, got {epochs}$"):
            MetricTrainConfig(epochs=epochs)

    @pytest.mark.parametrize("shape, n_labels", [((100,), 100), ((100, 8), 99)])
    def test_shape_checked(self, shape, n_labels):
        with pytest.raises(ValueError, match="one label per row"):
            train_metric(np.ones(shape), np.zeros(n_labels), MetricTrainConfig(epochs=1))

    def test_deterministic(self):
        feats, labels = self._separable_set()
        cfg = MetricTrainConfig(gamma=0.2, gamma_b=0.02, epochs=3, seed=66)
        m1, v1 = train_metric(feats, labels, cfg)
        m2, v2 = train_metric(feats, labels, cfg)
        npt.assert_array_equal(m1.M, m2.M)
        assert v1 == v2


# (generator settings, training settings) of sets whose screened epochs
# hold violators, so the screen drops and rebuilds its cache mid-epoch
SCREENED_SETS = [
    *(
        (dict(dim=64, num_subjects=40, samples_per_subject=4, within_cov=1.0, seed=s),
         dict(gamma=20.0, gamma_b=2.0, epochs=12, seed=s, symmetrize_b=sym))
        for sym, seeds in ((True, range(8)), (False, (1, 3, 4, 9)))
        for s in seeds
    ),
    # zero rates: violators never move the model, but still drop the cache
    (dict(dim=64, num_subjects=20, samples_per_subject=10, within_cov=0.2, seed=1),
     dict(gamma=0.0, gamma_b=0.0, epochs=4, seed=1)),
]


class TestMarginScreen:
    """train_metric screens the first epoch, and each later one after an
    epoch with fewer than steps / n violators, while it has met fewer
    than steps / n; each screened decision must equal hinge_step's."""

    @pytest.mark.parametrize(
        "gen_kwargs, cfg_kwargs",
        SCREENED_SETS,
        ids=[f"seed{c['seed']}-{'symmetric' if c.get('symmetrize_b', True) else 'literal'}-gamma{c['gamma']:g}"
             for _, c in SCREENED_SETS],
    )
    def test_matches_plain_loop_exactly(self, gen_kwargs, cfg_kwargs, monkeypatch):
        feats, labels = generate_synthetic(SyntheticEmbeddingModel(**gen_kwargs))
        cfg = MetricTrainConfig(**cfg_kwargs)
        want_model, want = plain_train_metric(feats, labels, cfg)

        calls = []

        def counted_step(*args):
            calls.append(1)
            return hinge_step(*args)

        monkeypatch.setattr("faceverify.metric.hinge_step", counted_step)
        model, got = train_metric(feats, labels, cfg)
        npt.assert_array_equal(model.M, want_model.M)
        npt.assert_array_equal(model.B, want_model.B)
        assert model.b == want_model.b
        assert got == want

        steps = len(PairSampler(labels, make_rng(0), cfg).pos_pairs) * 2
        violations = [round(f * steps) for f in want]
        screened = [e for e in range(cfg.epochs) if e == 0 or violations[e - 1] * len(labels) < steps]
        assert any(violations[e] for e in screened)  # the cache was dropped mid-epoch
        assert len(calls) < steps * cfg.epochs  # the screen skipped pairs

    def test_quiet_first_epoch_is_screened(self, monkeypatch):
        # at d=320 almost no pair violates after the Gram-matrix start
        feats, labels = generate_synthetic(
            SyntheticEmbeddingModel(dim=320, num_subjects=40, samples_per_subject=5, within_cov=0.25)
        )
        cfg = MetricTrainConfig()
        calls = []

        def counted_step(*args):
            calls.append(1)
            return hinge_step(*args)

        monkeypatch.setattr("faceverify.metric.hinge_step", counted_step)
        train_metric(feats, labels, cfg)
        steps = len(PairSampler(labels, make_rng(0), cfg).pos_pairs) * 2
        assert len(calls) < steps  # all epochs together, the first included

    def test_busy_epoch_drops_to_the_plain_loop(self, monkeypatch):
        # about a fifth of every epoch's steps violate, so the first epoch
        # is screened only up to its steps / n-th violator
        gen_kwargs, epochs = TRAIN_GOLDEN_SETS["d32"]
        feats, labels = generate_synthetic(SyntheticEmbeddingModel(**gen_kwargs))
        cfg = MetricTrainConfig(gamma=20.0, gamma_b=2.0, epochs=epochs, seed=12)
        builds = []

        def counted_cache(*args):
            builds.append(1)
            return _screen_cache(*args)

        monkeypatch.setattr("faceverify.metric._screen_cache", counted_cache)
        _, fractions = train_metric(feats, labels, cfg)
        steps = len(PairSampler(labels, make_rng(0), cfg).pos_pairs) * 2
        assert min(fractions) * len(labels) >= 1  # every epoch is busy
        assert 1 <= len(builds) <= steps // len(labels) + 2

    @pytest.mark.parametrize("symmetric_b", [True, False])
    def test_never_skips_a_violator_on_the_margin(self, symmetric_b):
        feats, labels = generate_synthetic(
            SyntheticEmbeddingModel(dim=64, num_subjects=40, samples_per_subject=4, within_cov=1.0, seed=4)
        )
        rng = make_rng(80)
        model = init_model(64, rng)
        if not symmetric_b:
            model.B += rng.standard_normal((64, 64))
        cfg = MetricTrainConfig(gamma=20.0, gamma_b=2.0, symmetrize_b=symmetric_b)
        batch = PairSampler(labels, rng, cfg).epoch()
        r2 = float(np.einsum("nd,nd->n", feats, feats).max())
        violators = 0
        for k, (i, j, y) in enumerate(zip(batch.i[:400], batch.j[:400], batch.y[:400])):
            # the scalar margin sits on the unit margin, give or take two ulps of b
            b = int(y) + _distance(model, feats[i], feats[j], feats[i] - feats[j])
            model.b = b + (k % 5 - 2) * np.spacing(b)
            skipped = not _undecided(_screen_cache(feats, r2, model), feats, i[None], j[None], y[None])[0]
            if hinge_step(copy.deepcopy(model), feats[i], feats[j], int(y), cfg):
                violators += 1
                assert not skipped, (i, j, y)
        assert 100 < violators < 300  # the pairs fall on both sides of the margin

        model.b = np.nan
        assert _undecided(_screen_cache(feats, r2, model), feats, batch.i, batch.j, batch.y).all()


class TestTrainMetricGolden:
    """train_metric's outputs as recorded in golden/train_metric.json:
    every violation fraction exactly, b and the M and B probe products to
    1e-12 relative.  One flipped margin decision changes a fraction and
    moves M, B and b by a rank-one step."""

    @staticmethod
    def assert_matches_golden(name, got):
        want = json.loads((GOLDEN / "train_metric.json").read_text(encoding="utf-8"))[name]
        assert got["violation_fractions"] == want["violation_fractions"]
        assert abs(got["b"] - want["b"]) <= 1e-12 * abs(want["b"])
        for key in ("M_probes", "B_probes"):
            want_arr = np.array(want[key])
            assert np.max(np.abs(np.array(got[key]) - want_arr)) <= 1e-12 * np.max(np.abs(want_arr)), key

    @pytest.mark.parametrize("name", sorted(TRAIN_GOLDEN_SETS))
    def test_matches_golden(self, name):
        self.assert_matches_golden(name, train_golden_record(name))

    def test_every_update_goes_through_hinge_step(self, monkeypatch):
        # each violator the fractions count is a hinge_step call that
        # returned True, so no second copy of the update can run
        updates = []

        def counted_step(*args):
            violated = hinge_step(*args)
            updates.append(violated)
            return violated

        monkeypatch.setattr("faceverify.metric.hinge_step", counted_step)
        got = train_golden_record("d32")
        self.assert_matches_golden("d32", got)
        gen_kwargs, epochs = TRAIN_GOLDEN_SETS["d32"]
        _, labels = generate_synthetic(SyntheticEmbeddingModel(**gen_kwargs))
        steps = 2 * len(PairSampler(labels, make_rng(0), MetricTrainConfig()).pos_pairs)
        assert sum(updates) == sum(round(f * steps) for f in got["violation_fractions"]) > 0


class TestVerificationRegression:
    """End-to-end guard on the training dynamics: trained-metric and
    cosine TAR@FAR=1e-2 on held-out sample pairs, frozen from a verified
    run.  Any change to the update rule, sampler, or generator that
    shifts generalization shows up here."""

    def test_held_out_sample_pair_tars(self):
        from faceverify.evaluation import roc, tar_at_far
        from faceverify.linalg import derive_seed
        from faceverify.metric import cosine_matrix

        seed = 20260809
        gen = SyntheticEmbeddingModel(
            dim=32, num_subjects=200, samples_per_subject=5,
            between_cov=1.0, within_cov=0.25, seed=derive_seed(seed, 1),
        )
        feats, labels = generate_synthetic(gen)
        golden = {0: (1.0, 1.0), 1: (1.0, 1.0)}  # (jointbayes, cosine)
        for s in range(2):
            rng = make_rng(derive_seed(seed, 300 + s))
            order = rng.permutation(200)
            train_mask = np.isin(labels, order[:133])
            cfg = MetricTrainConfig(
                gamma=20.0, gamma_b=2.0, epochs=150, seed=derive_seed(seed, 400 + s)
            )
            model, _ = train_metric(feats[train_mask], labels[train_mask], cfg)
            te_feats, te_labels = feats[~train_mask], labels[~train_mask]
            iu, ju = np.triu_indices(len(te_labels), k=1)
            pair_labels = np.where(te_labels[iu] == te_labels[ju], 1, -1)
            jb = tar_at_far(
                roc(similarity_matrix(model, te_feats, te_feats)[iu, ju], pair_labels), 1e-2
            )
            cos = tar_at_far(roc(cosine_matrix(te_feats, te_feats)[iu, ju], pair_labels), 1e-2)
            assert jb == pytest.approx(golden[s][0], abs=1e-6)
            assert cos == pytest.approx(golden[s][1], abs=1e-6)


class TestSyntheticGenerator:
    def test_zero_within_cov_gives_identical_samples(self):
        gen = SyntheticEmbeddingModel(
            dim=6, num_subjects=4, samples_per_subject=3, between_cov=1.0, within_cov=0.0, seed=70
        )
        feats, labels = generate_synthetic(gen)
        for s in range(4):
            rows = feats[labels == s]
            npt.assert_allclose(rows, np.broadcast_to(rows[0], rows.shape), atol=1e-12)

    def test_zero_between_cov_removes_class_structure(self):
        # with no identity component, same/different cosine distributions
        # must be statistically indistinguishable (two-sample KS test)
        gen = SyntheticEmbeddingModel(
            dim=16, num_subjects=40, samples_per_subject=4, between_cov=0.0, within_cov=1.0, seed=71
        )
        feats, labels = generate_synthetic(gen)
        sims = feats @ feats.T
        iu, ju = np.triu_indices(len(labels), k=1)
        same = sims[iu, ju][labels[iu] == labels[ju]]
        diff = sims[iu, ju][labels[iu] != labels[ju]]

        # two-sample Kolmogorov-Smirnov statistic and asymptotic p-value
        pooled = np.sort(np.concatenate([same, diff]))
        cdf_s = np.searchsorted(np.sort(same), pooled, side="right") / len(same)
        cdf_d = np.searchsorted(np.sort(diff), pooled, side="right") / len(diff)
        ks = np.abs(cdf_s - cdf_d).max()
        ne = len(same) * len(diff) / (len(same) + len(diff))
        lam = (np.sqrt(ne) + 0.12 + 0.11 / np.sqrt(ne)) * ks
        p = 2 * sum((-1) ** (k - 1) * np.exp(-2 * (lam * k) ** 2) for k in range(1, 101))
        assert p > 0.01

    @pytest.mark.parametrize("field", ["dim", "num_subjects", "samples_per_subject"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_size_below_one_rejected(self, field, value):
        sizes = {**dict(dim=5, num_subjects=3, samples_per_subject=2), field: value}
        with pytest.raises(ValueError, match=f"^{field} must be >= 1, got {value}$"):
            SyntheticEmbeddingModel(**sizes)

    def test_negative_seed_rejected_when_built(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            SyntheticEmbeddingModel(dim=5, num_subjects=3, samples_per_subject=2, seed=-1)
        SyntheticEmbeddingModel(dim=5, num_subjects=3, samples_per_subject=2, seed=0)

    def test_deterministic(self):
        gen = SyntheticEmbeddingModel(dim=5, num_subjects=3, samples_per_subject=2, seed=72)
        a, la = generate_synthetic(gen)
        b, lb = generate_synthetic(gen)
        npt.assert_array_equal(a, b)
        npt.assert_array_equal(la, lb)

    def test_unit_norm_output(self):
        gen = SyntheticEmbeddingModel(dim=5, num_subjects=3, samples_per_subject=2, seed=73)
        feats, _ = generate_synthetic(gen)
        npt.assert_allclose(np.linalg.norm(feats, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("which", ["between_cov", "within_cov"])
    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf, -1.0, -1e-300], ids=["nan", "inf", "-inf", "-1", "-tiny"])
    def test_bad_scale_rejected_when_built(self, which, scale):
        with pytest.raises(ValueError, match=f"^{which} must be a finite number >= 0, got {scale}$"):
            SyntheticEmbeddingModel(dim=3, num_subjects=2, samples_per_subject=2, **{which: scale})

    @pytest.mark.parametrize("which", ["between_cov", "within_cov"])
    @pytest.mark.parametrize("cov", [
        np.where(np.eye(3) == 1, np.nan, 0.0),
        np.where(np.eye(3) == 1, 1.0, np.inf),
        np.eye(4),
        np.ones(3),
        np.ones((3, 2)),
    ], ids=["nan", "inf", "4x4", "vector", "3x2"])
    def test_bad_matrix_rejected_when_built(self, which, cov):
        # scalar covariances are the only kind: an array, which a full
        # covariance once was, fails when built, naming the field
        with pytest.raises(ValueError, match=f"^{which} must be a finite number >= 0, got "):
            SyntheticEmbeddingModel(dim=3, num_subjects=2, samples_per_subject=2, **{which: cov})

    def test_both_covariances_zero_rejected_when_built(self):
        sizes = dict(dim=3, num_subjects=4, samples_per_subject=3, seed=77)
        for between, within in ((0.0, 0.0), (0, 0), (-0.0, 0.0)):
            with pytest.raises(ValueError, match="^between_cov and within_cov are both zero"):
                SyntheticEmbeddingModel(between_cov=between, within_cov=within, **sizes)
        # one zero covariance is a valid model whose rows are still unit-norm
        for between, within in ((0.0, 0.25), (1.0, 0.0), (0, 1e-300)):
            feats, _ = generate_synthetic(SyntheticEmbeddingModel(between_cov=between, within_cov=within, **sizes))
            npt.assert_allclose(np.linalg.norm(feats, axis=1), 1.0, atol=1e-12)
