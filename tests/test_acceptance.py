"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines.  Expected values marked as golden were recorded from the first
verified run in this environment and are deterministic given the seeds.
"""

import copy
import math
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from conftest import central_diff_gradient, distance, make_blob_images, max_relative_error
from faceverify.align import CanonicalFrame, SimilarityTransform, estimate_similarity
from faceverify.evaluation import cmc, roc, tar_at_far
from faceverify.linalg import derive_seed, l2_normalize, make_rng
from faceverify.metric import (
    MetricTrainConfig,
    SyntheticEmbeddingModel,
    generate_synthetic,
    hinge_step,
    train_metric,
)
from faceverify.micronet import TrainConfig, build_face_net, train
from faceverify.micronet.layers import (
    Conv3x3,
    CrossChannelNorm,
    Dense,
    Dropout,
    PReLU,
    SoftmaxXent,
)
from faceverify.pipeline import PipelineConfig, make_split_manifest, run_pipeline
from faceverify.templates import build_templates, score_templates


def report_line(num, name, ok):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


# -- criterion 1: stock architecture reproduced exactly ----------------------

STOCK_SHAPES = [
    ("conv11", (100, 100, 32)),
    ("conv12", (100, 100, 64)),
    ("pool1", (50, 50, 64)),
    ("conv21", (50, 50, 64)),
    ("conv22", (50, 50, 128)),
    ("pool2", (25, 25, 128)),
    ("conv31", (25, 25, 96)),
    ("conv32", (25, 25, 192)),
    ("pool3", (13, 13, 192)),
    ("conv41", (13, 13, 128)),
    ("conv42", (13, 13, 256)),
    ("pool4", (7, 7, 256)),
    ("conv51", (7, 7, 160)),
    ("conv52", (7, 7, 320)),
    ("pool5", (320,)),
    ("dropout", (320,)),
    ("fc6", (10548,)),
    ("cost", (10548,)),
]

# published per-layer weight counts in units of 1024 ("K"), biases excluded
STOCK_KCOUNTS = {
    "conv11": 0.28,
    "conv12": 18,
    "conv21": 36,
    "conv22": 72,
    "conv31": 108,
    "conv32": 162,
    "conv41": 216,
    "conv42": 288,
    "conv51": 360,
    "conv52": 450,
    "fc6": 3296,
}


def test_criterion_1_stock_architecture():
    t0 = time.perf_counter()
    net = build_face_net(num_classes=10548, in_channels=1)
    # per-sample shapes from one eval-mode pass of a zero batch
    acts = net.forward(np.zeros((1, *net.input_shape)))
    shapes = {layer.name: a.shape[1:] for layer, a in zip(net.layers, acts)}
    for name, expected in STOCK_SHAPES:
        assert shapes[name] == expected, f"{name}: {shapes[name]} != {expected}"

    counts = {}
    for layer in net.layers:
        for name, value, _, _ in layer.param_items():
            if name == "weights":
                counts[layer.name] = value.size
    assert counts["conv52"] == 460_800  # worked example: 460800 -> 450K
    for name, k_expected in STOCK_KCOUNTS.items():
        k = counts[name] / 1024
        tol = 0.005 if k_expected < 1 else 0.5
        assert abs(k - k_expected) < tol, f"{name}: {k}K != {k_expected}K"
    total = sum(counts.values())
    assert total // 1024 == 5006
    elapsed = time.perf_counter() - t0
    report_line(1, "stock architecture", elapsed < 1.0)


# -- criterion 2: per-layer gradients vs central finite differences ---------

GRAD_TOL = 1e-4


def _check_layer(layer, x, rng, params=True):
    proj = rng.standard_normal(layer.forward(x, train=True).shape)

    def loss():
        return float((layer.forward(x, train=True) * proj).sum())

    analytic_dx = layer.backward(proj)
    assert max_relative_error(analytic_dx, central_diff_gradient(loss, x)) < GRAD_TOL
    if params:
        layer.forward(x, train=True)
        layer.backward(proj)
        for name, value, grad, _ in layer.param_items():
            numeric = central_diff_gradient(loss, value)
            # grads are recomputed on rebind; re-run backward for a fresh copy
            layer.forward(x, train=True)
            layer.backward(proj)
            current = dict((n, g) for n, _, g, _ in layer.param_items())[name]
            assert max_relative_error(current, numeric) < GRAD_TOL, name


def test_criterion_2_gradient_correctness():
    t0 = time.perf_counter()
    rng = make_rng(1001)

    conv = Conv3x3(4, 3)
    conv.weights[...] = rng.normal(0.0, 0.4, conv.weights.shape)
    _check_layer(conv, rng.standard_normal((2, 8, 8, 4)), rng)

    prelu = PReLU(4)
    prelu.slope[:] = [0.25, 0.5, -0.2, 0.8]
    x = rng.standard_normal((2, 8, 8, 4))
    x = np.where(np.abs(x) < 0.1, x + 0.3, x)  # stay clear of the kink
    _check_layer(prelu, x, rng)

    lrn = CrossChannelNorm(5, alpha=0.2, beta=0.75, k=1.0)
    _check_layer(lrn, rng.standard_normal((2, 8, 8, 4)), rng, params=False)

    dense = Dense(8, 5)
    dense.weights[...] = rng.normal(0.0, 0.5, dense.weights.shape)
    _check_layer(dense, rng.standard_normal((4, 8)), rng)

    sx = SoftmaxXent()
    logits = rng.standard_normal((6, 5))
    labels = rng.integers(0, 5, 6)
    sx.forward(logits, train=True)
    analytic = sx.backward_from_labels(labels)

    def xent_loss():
        sx.forward(logits, train=True)
        return sx.loss(labels)

    assert max_relative_error(analytic, central_diff_gradient(xent_loss, logits, eps=1e-6)) < GRAD_TOL

    # dropout in eval mode: exact identity Jacobian
    drop = Dropout(0.4)
    g = rng.standard_normal((3, 7))
    drop.forward(rng.standard_normal((3, 7)), train=False)
    npt.assert_array_equal(drop.backward(g), g)

    elapsed = time.perf_counter() - t0
    report_line(2, "gradient correctness", elapsed < 120.0)


# -- criterion 3: hinge update equals -gamma * subgradient ------------------


def test_criterion_3_metric_update_correctness():
    for d in (2, 8):
        rng = make_rng(2000 + d)
        cfg = MetricTrainConfig(gamma=0.05, gamma_b=0.01, symmetrize_b=False)
        for y in (1, -1):
            x_i = rng.standard_normal(d)
            x_j = rng.standard_normal(d)
            m0 = rng.standard_normal((d, d))
            from faceverify.metric import JointBayesModel

            model = JointBayesModel(0.1 * (m0 + m0.T), 0.1 * np.eye(d), 0.0)
            model.b = distance(model, x_i, x_j) + (0.5 if y == 1 else -0.5)
            before = copy.deepcopy(model)
            assert hinge_step(model, x_i, x_j, y, cfg)

            def hinge():
                return max(1.0 - y * (before.b - distance(before, x_i, x_j)), 0.0)

            # relative error measured at the scale of the subgradient matrix
            num_m = central_diff_gradient(hinge, before.M, eps=1e-6)
            target = -cfg.gamma * num_m
            assert np.abs((model.M - before.M) - target).max() < 1e-6 * np.abs(target).max()
            num_b = central_diff_gradient(hinge, before.B, eps=1e-6)
            target = -cfg.gamma * num_b
            assert np.abs((model.B - before.B) - target).max() < 1e-6 * np.abs(target).max()
            b_arr = np.array([before.b])

            def hinge_b():
                shifted = copy.deepcopy(before)
                shifted.b = float(b_arr[0])
                return max(1.0 - y * (shifted.b - distance(shifted, x_i, x_j)), 0.0)

            num_bias = central_diff_gradient(hinge_b, b_arr, eps=1e-6)
            assert abs((model.b - before.b) - (-cfg.gamma_b * num_bias[0])) < 1e-9

        # satisfied pair: bit-identical model, no update
        from faceverify.metric import JointBayesModel

        model = JointBayesModel(np.zeros((d, d)), np.zeros((d, d)), 5.0)
        frozen = copy.deepcopy(model)
        x = np.zeros(d)
        x2 = np.zeros(d)
        assert not hinge_step(model, x, x2, 1, cfg)  # y*(b-d) = 5 > 1
        npt.assert_array_equal(model.M, frozen.M)
        npt.assert_array_equal(model.B, frozen.B)
        assert model.b == frozen.b
    report_line(3, "metric update correctness", True)


# -- criterion 4: ROC/CMC vs brute-force oracles -----------------------------


def brute_force_roc_points(scores, labels):
    pos = scores[labels > 0]
    neg = scores[labels <= 0]
    points = [(0.0, 0.0)]
    for t in sorted(set(scores.tolist()), reverse=True):
        points.append(
            (sum(1 for s in neg if s >= t) / len(neg), sum(1 for s in pos if s >= t) / len(pos))
        )
    return np.array(points)


def brute_force_cmc_curve(sim, gallery_subjects, probe_subjects):
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
    return np.array([np.mean([r <= k for r in ranks]) for k in range(1, n_gallery + 1)])


def test_criterion_4_roc_cmc_oracle_equivalence():
    t0 = time.perf_counter()
    rng = make_rng(3000)
    for trial in range(15):
        n = int(rng.integers(10, 501))
        scores = np.round(rng.standard_normal(n), 2)
        labels = np.where(rng.random(n) < 0.4, 1, -1)
        if not (labels > 0).any() or not (labels < 0).any():
            labels[0], labels[1] = 1, -1
        curve = roc(scores, labels)
        expected = brute_force_roc_points(scores, labels)
        npt.assert_array_equal(np.stack([curve.far, curve.tar], axis=1), expected)
    for trial in range(15):
        n_g = int(rng.integers(2, 21))
        n_p = int(rng.integers(1, 51))
        gallery = [f"s{i}" for i in range(n_g)]
        probes = [f"s{int(rng.integers(0, n_g))}" for _ in range(n_p)]
        sim = np.round(rng.standard_normal((n_g, n_p)), 1)
        npt.assert_array_equal(cmc(sim, gallery, probes), brute_force_cmc_curve(sim, gallery, probes))
    elapsed = time.perf_counter() - t0
    report_line(4, "ROC/CMC oracle equivalence", elapsed < 30.0)


# -- criterion 5: synthetic verification benchmark ---------------------------

BENCH_SEED = 20260809
# golden values from the first verified run (gamma=20, gamma_b=2, 150 epochs,
# 2:1 subject split, pooled-gallery/single-probe templates)
GOLDEN_JB_TARS = [1.0] * 10
GOLDEN_COS_TARS = [1.0] * 10
GOLDEN_FIRST_VIOL = [
    0.009774, 0.010902, 0.011278, 0.007895, 0.006391,
    0.011654, 0.012406, 0.012782, 0.007143, 0.010526,
]


@pytest.fixture(scope="module")
def benchmark_results():
    gen = SyntheticEmbeddingModel(
        dim=32, num_subjects=200, samples_per_subject=5,
        between_cov=1.0, within_cov=0.25, seed=derive_seed(BENCH_SEED, 1),
    )
    feats, labels = generate_synthetic(gen)
    media_ids = [f"s{lbl:04d}/m{k % 5:02d}" for k, lbl in enumerate(labels)]
    subject_of = {m: f"s{lbl:04d}" for m, lbl in zip(media_ids, labels)}

    t0 = time.perf_counter()
    results = []
    for s in range(10):
        rng = make_rng(derive_seed(BENCH_SEED, 100 + s))
        rows = make_split_manifest(media_ids, subject_of, rng, 2 / 3, str(s))
        idx = {m: i for i, m in enumerate(media_ids)}
        train_rows = [r for r in rows if r.role == "train"]
        cfg = MetricTrainConfig(
            gamma=20.0, gamma_b=2.0, epochs=150, seed=derive_seed(BENCH_SEED, 200 + s)
        )
        model, violations = train_metric(
            feats[[idx[r.media_path] for r in train_rows]],
            np.array([r.subject_id for r in train_rows]),
            cfg,
        )
        _, g_subjects, g = build_templates(rows, feats, media_ids, role="gallery")
        _, p_subjects, p = build_templates(rows, feats, media_ids, role="probe")
        pair_labels = np.where(
            np.array(g_subjects)[:, None] == np.array(p_subjects)[None, :], 1, -1
        ).ravel()
        jb = score_templates(g, p, "jointbayes", model).ravel()
        cos = score_templates(g, p, "cosine").ravel()
        results.append(
            {
                "jb": tar_at_far(roc(jb, pair_labels), 1e-2),
                "cos": tar_at_far(roc(cos, pair_labels), 1e-2),
                "first_viol": violations[0],
                "last_viol": violations[-1],
            }
        )
    return results, time.perf_counter() - t0


def test_criterion_5a_jointbayes_not_worse_than_cosine(benchmark_results):
    results, elapsed = benchmark_results
    for s, r in enumerate(results):
        assert r["jb"] >= r["cos"], f"split {s}: jb {r['jb']} < cos {r['cos']}"
        assert abs(r["jb"] - GOLDEN_JB_TARS[s]) < 1e-6
        assert abs(r["cos"] - GOLDEN_COS_TARS[s]) < 1e-6
    report_line(5, "benchmark TAR comparison (a)", elapsed < 300.0)


def test_criterion_5b_violations_decrease(benchmark_results):
    results, _ = benchmark_results
    for s, r in enumerate(results):
        assert r["last_viol"] < r["first_viol"], f"split {s}"
        assert abs(r["first_viol"] - GOLDEN_FIRST_VIOL[s]) < 1e-6
        assert r["last_viol"] == 0.0
    report_line(5, "benchmark violation decrease (b)", True)


# Criterion 5c: a regime where cosine is not enough.  8 of the 32 dims
# carry large within-subject variation, which cosine scores as identity
# and a trained metric learns to discount.  Golden TAR@1e-2 per split
# from the first verified run (gamma=20, gamma_b=2, 50 epochs).
HARD_WITHIN_COV = np.diag([4.0] * 8 + [0.05] * 24)
GOLDEN_HARD_TARS = {
    "jb": [1.0, 1.0, 1.0],
    "cos": [0.776119, 0.751244, 0.711443],
    "untrained": [0.547264, 0.517413, 0.517413],
}


def draw_with_within_cov(num_subjects, samples_per_subject, within_cov, seed):
    """x = mu + eps, L2-normalized, with mu ~ N(0, I) per subject and eps
    ~ N(0, within_cov) per sample for a full covariance matrix, which
    SyntheticEmbeddingModel (scalar covariances only) does not take.
    Each draw is one standard_normal(dim) in stream order, and eps is
    one gemv by the eigh factor of within_cov."""
    rng = make_rng(seed)
    dim = within_cov.shape[0]
    vals, vecs = np.linalg.eigh(within_cov)
    factor = vecs * np.sqrt(vals)
    feats = np.empty((num_subjects, samples_per_subject, dim))
    for s in range(num_subjects):
        mu = rng.standard_normal(dim)
        for k in range(samples_per_subject):
            feats[s, k] = mu + factor @ rng.standard_normal(dim)
    labels = np.repeat(np.arange(num_subjects), samples_per_subject)
    return l2_normalize(feats.reshape(-1, dim)), labels


@pytest.fixture(scope="module")
def hard_benchmark_results():
    feats, labels = draw_with_within_cov(200, 5, HARD_WITHIN_COV, derive_seed(BENCH_SEED, 2))
    media_ids = [f"s{lbl:04d}/m{k % 5:02d}" for k, lbl in enumerate(labels)]
    subject_of = {m: f"s{lbl:04d}" for m, lbl in zip(media_ids, labels)}
    idx = {m: i for i, m in enumerate(media_ids)}
    results = {name: [] for name in GOLDEN_HARD_TARS}
    for s in range(3):
        rows = make_split_manifest(media_ids, subject_of, make_rng(derive_seed(BENCH_SEED, 300 + s)), 2 / 3, str(s))
        train_rows = [r for r in rows if r.role == "train"]
        _, g_subjects, g = build_templates(rows, feats, media_ids, role="gallery")
        _, p_subjects, p = build_templates(rows, feats, media_ids, role="probe")
        pair_labels = np.where(
            np.array(g_subjects)[:, None] == np.array(p_subjects)[None, :], 1, -1
        ).ravel()
        results["cos"].append(tar_at_far(roc(score_templates(g, p, "cosine").ravel(), pair_labels), 1e-2))
        # the control runs the same epochs with zero rates: the model
        # train_metric starts from, scored the same way
        for name, gamma, gamma_b in (("jb", 20.0, 2.0), ("untrained", 0.0, 0.0)):
            cfg = MetricTrainConfig(gamma=gamma, gamma_b=gamma_b, epochs=50, seed=derive_seed(BENCH_SEED, 400 + s))
            model, _ = train_metric(
                feats[[idx[r.media_path] for r in train_rows]],
                np.array([r.subject_id for r in train_rows]),
                cfg,
            )
            jb = score_templates(g, p, "jointbayes", model).ravel()
            results[name].append(tar_at_far(roc(jb, pair_labels), 1e-2))
    return results


def test_criterion_5c_trained_metric_beats_cosine_where_untrained_does_not(hard_benchmark_results):
    results = hard_benchmark_results
    for name, golden in GOLDEN_HARD_TARS.items():
        npt.assert_allclose(results[name], golden, atol=1e-6, err_msg=name)
    trained_wins = all(jb > cos for jb, cos in zip(results["jb"], results["cos"]))
    untrained_wins = all(u > cos for u, cos in zip(results["untrained"], results["cos"]))
    assert not untrained_wins, "the untrained control beats cosine: the check cannot fail"
    report_line(5, "trained metric beats cosine where cosine falls short (c)", trained_wins)


# -- criterion 6: toy CNN end to end -----------------------------------------

TOY_ITERATION_BUDGET = 150  # frozen from the first verified run


def accuracy(net, images, labels, batch_size=64):
    """Top-1 accuracy of the classifier in eval mode (dropout off)."""
    hits = 0
    for start in range(0, images.shape[0], batch_size):
        probs = net.forward(images[start : start + batch_size], train=False)[-1]
        hits += int((probs.argmax(axis=1) == labels[start : start + batch_size]).sum())
    return hits / images.shape[0]


def test_criterion_6_toy_cnn_end_to_end():
    images, labels = make_blob_images(n=500, size=32, num_classes=10, seed=0)
    net = build_face_net(
        num_classes=10, in_channels=1, input_size=32, width_divisor=4, dtype=np.float32
    )
    cfg = TrainConfig(
        batch_size=128, learning_rate=1e-2, max_iters=TOY_ITERATION_BUDGET,
        seed=1, init_std=0.1,
    )
    t0 = time.perf_counter()
    train(net, images, labels, cfg)
    elapsed = time.perf_counter() - t0
    acc = accuracy(net, images, labels)
    assert acc >= 0.95, f"train accuracy {acc}"
    report_line(6, f"toy CNN accuracy {acc:.3f} in {elapsed:.0f}s", elapsed < 600.0)


# -- criterion 7: alignment recovery ------------------------------------------


def test_criterion_7_alignment_recovery():
    t0 = time.perf_counter()
    canon = CanonicalFrame().landmarks
    rng = make_rng(7000)
    for _ in range(100):
        s = float(rng.uniform(0.5, 2.0))
        theta = float(rng.uniform(-1.0, 1.0))
        tx, ty = (float(v) for v in rng.uniform(-20, 20, 2))
        t = SimilarityTransform.from_params(s, theta, tx, ty)
        est = estimate_similarity(canon, t.apply(canon))
        assert abs(est.scale - s) < 1e-9
        assert abs(est.rotation - theta) < 1e-9
        assert abs(est.tx - tx) < 1e-9
        assert abs(est.ty - ty) < 1e-9

    # sigma = 0.5 px landmark noise: closed form must beat a 10^4-point grid
    for trial in range(3):
        s, theta, tx, ty = 1.4, 0.3, 6.0, -4.0
        t = SimilarityTransform.from_params(s, theta, tx, ty)
        noisy = t.apply(canon) + rng.normal(0, 0.5, canon.shape)
        est = estimate_similarity(canon, noisy)

        def residual(tr):
            return float(np.sum((tr.apply(canon) - noisy) ** 2))

        grid_best = math.inf
        for gs in np.linspace(s - 0.1, s + 0.1, 10):
            for gth in np.linspace(theta - 0.1, theta + 0.1, 10):
                for gtx in np.linspace(tx - 1, tx + 1, 10):
                    for gty in np.linspace(ty - 1, ty + 1, 10):
                        grid_best = min(
                            grid_best,
                            residual(SimilarityTransform.from_params(gs, gth, gtx, gty)),
                        )
        assert residual(est) <= grid_best + 1e-12
    elapsed = time.perf_counter() - t0
    report_line(7, "alignment recovery", elapsed < 5.0)


# -- criterion 8: end-to-end determinism --------------------------------------


def test_criterion_8_pipeline_determinism(tmp_path):
    blobs = {}
    for name in ("first", "second"):
        out = tmp_path / name
        run_pipeline(PipelineConfig(out_dir=str(out), seed=0, splits=2))
        blobs[name] = {
            p.relative_to(out): p.read_bytes()
            for p in sorted(out.rglob("*"))
            # the config echo necessarily differs: it contains out_dir itself
            if p.is_file() and p.name != "config.resolved.ini"
        }
    assert blobs["first"].keys() == blobs["second"].keys()
    for rel, data in blobs["first"].items():
        assert data == blobs["second"][rel], f"{rel} differs between runs"
    names = {str(k) for k in blobs["first"]}
    assert "features.jvfe" in names and "report.txt" in names
    assert any(n.endswith("metric.jvjb") for n in names)
    report_line(8, "pipeline determinism", True)


# -- criterion 9: full-scale results are explicitly out of scope --------------


def test_criterion_9_desk_scale_limits_documented():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    assert "desk scale" in readme.lower()
    assert "not" in readme.lower() and "reproduc" in readme.lower()
    report_line(9, "desk-scale limits documented", True)
