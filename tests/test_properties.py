"""Property tests: invariants that hold for every input hypothesis
generates, not only for the fixed cases of the other test files.

Each test runs a capped, derandomized set of examples, so a run is
repeatable and adds only seconds."""

import itertools
import struct

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    MaskPairSampler,
    net_outline,
    plain_train_metric,
    reference_roc_bytes,
    reference_score_matrix_bytes,
)
from faceverify.evaluation import _ROC_BLOCK, RocCurve, cmc, emit_curves, roc
from faceverify.linalg import make_rng
from faceverify.metric import JointBayesModel, MetricTrainConfig, PairSampler, train_metric
from faceverify.micronet import (
    Conv3x3,
    CrossChannelNorm,
    Dense,
    Dropout,
    GlobalAvgPool,
    MaxPool2x2,
    Network,
    PReLU,
    SoftmaxXent,
    build_face_net,
)
from faceverify.storage import (
    read_checkpoint,
    read_features,
    read_metric_model,
    write_checkpoint,
    write_features,
    write_metric_model,
)
from faceverify.templates import pool_template, read_score_matrix, write_score_matrix

CAPPED = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
# a small score range makes ties, which the step conventions must handle
scores = st.one_of(st.integers(-3, 3).map(float), st.floats(-1.0, 1.0))


@CAPPED
@given(st.lists(st.tuples(scores, st.booleans()), min_size=2, max_size=40))
def test_roc_never_falls_as_the_threshold_drops(pairs):
    labels = np.array([1 if same else -1 for _, same in pairs])
    assume(1 in labels and -1 in labels)
    curve = roc(np.array([s for s, _ in pairs]), labels)
    assert curve.far[0] == curve.tar[0] == 0.0
    assert np.all(np.diff(curve.far) >= 0) and np.all(np.diff(curve.tar) >= 0)
    assert curve.far[-1] == curve.tar[-1] == 1.0  # the lowest threshold accepts every pair


@st.composite
def identification_sets(draw):
    gallery = draw(st.lists(st.integers(0, 5), min_size=1, max_size=8))
    probes = draw(st.lists(st.sampled_from(gallery), min_size=1, max_size=8))
    sim = draw(arrays(np.float64, (len(gallery), len(probes)), elements=scores))
    return sim, gallery, probes


@CAPPED
@given(identification_sets())
def test_cmc_never_falls_as_the_rank_grows(case):
    sim, gallery, probes = case
    accuracy = cmc(sim, gallery, probes)
    assert accuracy.shape == (len(gallery),)
    assert np.all(np.diff(accuracy) >= 0)
    assert accuracy[-1] == 1.0  # closed set: every probe's match is within the whole gallery


@st.composite
def media_with_order(draw):
    n = draw(st.integers(1, 8))
    dim = draw(st.integers(2, 6))
    raw = draw(arrays(np.float64, (n, dim), elements=st.floats(-1.0, 1.0)))
    norms = np.linalg.norm(raw, axis=1)
    assume(np.all(norms > 1e-3))
    feats = raw / norms[:, None]
    assume(np.linalg.norm(feats.mean(axis=0)) > 1e-2)  # far from cancelling
    return feats, draw(st.permutations(range(n)))


@CAPPED
@given(media_with_order())
def test_pool_template_ignores_the_order_of_media(case):
    feats, order = case
    # the mean sums in another order, so equal to rounding, not bit for bit
    npt.assert_allclose(pool_template(feats[order]), pool_template(feats), rtol=0, atol=1e-12)


media_ids = st.text(st.characters(exclude_characters="\r\n"), min_size=1, max_size=12)


@st.composite
def feature_files(draw):
    count = draw(st.integers(0, 6))
    dim = draw(st.integers(1, 5))
    feats = draw(arrays(np.float32, (count, dim), elements=st.floats(allow_nan=False, allow_infinity=False, width=32)))
    ids = draw(st.lists(media_ids, min_size=count, max_size=count, unique=True))
    return feats, ids


@CAPPED
@given(feature_files())
def test_features_round_trip_exactly(tmp_path, case):
    feats, ids = case
    path = tmp_path / "f.jvfe"
    write_features(path, feats, ids)
    got, got_ids = read_features(path)
    assert got.dtype == np.float64 and got.shape == feats.shape
    assert got.astype(np.float32).tobytes() == feats.tobytes()  # every bit, -0.0 included
    assert got_ids == ids


@st.composite
def metric_models(draw):
    dim = draw(st.integers(1, 5))
    m, b_mat = (draw(arrays(np.float64, (dim, dim), elements=finite)) for _ in range(2))
    return JointBayesModel(m, b_mat, draw(finite))


@CAPPED
@given(metric_models())
def test_metric_model_round_trips_exactly(tmp_path, model):
    path = tmp_path / "m.jvjb"
    write_metric_model(path, model)
    got = read_metric_model(path)
    assert got.M.tobytes() == model.M.tobytes()
    assert got.B.tobytes() == model.B.tobytes()
    assert np.float64(got.b).tobytes() == np.float64(model.b).tobytes()


# Layer names: any text without whitespace, which Network rejects, with
# "=" and a non-ASCII letter drawn often; the empty name is drawn too.
layer_names = st.text(
    st.sampled_from("=é") | st.characters(exclude_categories=["Cs"]).filter(lambda c: not c.isspace()), max_size=4
)


@st.composite
def checkpoint_nets(draw):
    """A small net of every layer kind with generated names and fields:
    channel counts, an LRN within its rules, a dropout rate, the input
    mean and every parameter value."""
    c_in, c1, c2 = (draw(st.integers(1, 4)) for _ in range(3))
    classes = draw(st.integers(2, 5))
    lrn = CrossChannelNorm(
        size=2 * draw(st.integers(0, 4)) + 1,
        alpha=draw(st.floats(min_value=0.0, allow_infinity=False)),
        beta=draw(finite),
        k=draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
    )
    layers = [
        Conv3x3(c_in, c1),
        PReLU(c1),
        lrn,
        MaxPool2x2(),
        Conv3x3(c1, c2),
        GlobalAvgPool(),
        Dropout(draw(st.floats(0.0, 1.0, exclude_max=True))),
        Dense(c2, classes),
        SoftmaxXent(),
    ]
    named = zip(draw(st.lists(layer_names, min_size=len(layers), max_size=len(layers))), layers)
    net = Network(named, (draw(st.integers(1, 6)), draw(st.integers(1, 6)), c_in), classes)
    net.input_mean = draw(finite)
    for _, _, value, _, _ in net.param_items():
        value[...] = draw(arrays(np.float64, value.shape, elements=finite))
    return net


@CAPPED
@given(checkpoint_nets())
def test_checkpoint_round_trips_exactly(tmp_path, net):
    path, again = tmp_path / "net.jvnt", tmp_path / "again.jvnt"
    write_checkpoint(path, net)
    back = read_checkpoint(path)
    write_checkpoint(again, back)
    assert again.read_bytes() == path.read_bytes()  # the same spec text, then the same parameter bytes
    assert net_outline(back) == net_outline(net)
    assert np.float64(back.input_mean).tobytes() == np.float64(net.input_mean).tobytes()
    for before, after in zip(net.layers, back.layers, strict=True):
        for f in before.fields:
            want, got = getattr(before, f), getattr(after, f)
            assert type(got) is type(want) and np.array(got).tobytes() == np.array(want).tobytes(), f
    for (_, name, want, _, _), (_, _, got, _, _) in zip(net.param_items(), back.param_items(), strict=True):
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), name


def read_cut(path, data: bytes, offset: int, read) -> None:
    """Write data cut at offset to path; reading it back must fail with
    a ValueError that names the file."""
    path.write_bytes(data[:offset])
    with pytest.raises(ValueError) as info:
        read(path)
    assert str(path) in str(info.value)


def test_cut_features_and_metric_model_fail_naming_the_file(tmp_path):
    rng = make_rng(7)
    features, model = tmp_path / "f.jvfe", tmp_path / "m.jvjb"
    write_features(features, rng.standard_normal((5, 4)), ["a", "b", "c", "d", "e"])
    write_metric_model(model, JointBayesModel(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)), 0.5))
    for path, read in ((features, read_features), (model, read_metric_model)):
        data = path.read_bytes()
        for offset in range(len(data)):
            read_cut(path, data, offset, read)


def toy_checkpoint(path) -> tuple[bytes, list[int]]:
    """A toy net's checkpoint bytes, and the offsets where its magic,
    version, spec length, spec and each parameter array end."""
    net = build_face_net(num_classes=4, input_size=8, width_divisor=32)
    write_checkpoint(path, net)
    data = path.read_bytes()
    (spec_len,) = struct.unpack_from("<I", data, 8)
    sizes = [8 * value.size for _, _, value, _, _ in net.param_items()]
    return data, [0, 4, 8, 12, *itertools.accumulate(sizes, initial=12 + spec_len)][:-1]


def test_checkpoint_cut_at_a_boundary_fails_naming_the_file(tmp_path):
    path = tmp_path / "net.jvnt"
    data, boundaries = toy_checkpoint(path)
    for offset in boundaries:
        read_cut(path, data, offset, read_checkpoint)


@CAPPED
@given(st.data())
def test_checkpoint_cut_anywhere_fails_naming_the_file(tmp_path, data):
    path = tmp_path / "net.jvnt"
    raw, _ = toy_checkpoint(path)
    read_cut(path, raw, data.draw(st.integers(0, len(raw) - 1)), read_checkpoint)


template_ids = st.text(st.characters(exclude_categories=["Cs"]), max_size=6)


@st.composite
def score_files(draw):
    shape = (draw(st.integers(0, 4)), draw(st.integers(1, 4)))
    scores = draw(arrays(np.float64, shape, elements=finite))
    gallery_ids, probe_ids = (draw(st.lists(template_ids, min_size=k, max_size=k)) for k in shape)
    return scores, gallery_ids, probe_ids


@CAPPED
@given(score_files())
def test_score_matrix_round_trips_exactly(tmp_path, case):
    scores, gallery_ids, probe_ids = case
    path = tmp_path / "scores.csv"
    write_score_matrix(path, scores, gallery_ids, probe_ids)
    got, got_gallery, got_probe = read_score_matrix(path)
    assert got.reshape(scores.shape).tobytes() == scores.tobytes()  # %.17g keeps every bit, -0.0 included
    assert (got_gallery, got_probe) == (gallery_ids, probe_ids)


# ids csv must quote or pass through as they are, and values whose text
# is easy to get wrong: -0.0, subnormals, +-inf, nan, and values whose
# %.17g text differs from their %.16g
awkward_ids = st.one_of(st.sampled_from(["", "a,b", 'q"x', " lead", "\u00fcmlaut", "x\ny", "\n", "a\r\nb"]), template_ids)
awkward_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.225e-308, np.inf, -np.inf, np.nan, 0.1, 1 / 3]),
    st.floats(width=64),
)


@st.composite
def awkward_score_files(draw):
    shape = (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
    scores = draw(arrays(np.float64, shape, elements=awkward_floats))
    gallery_ids, probe_ids = (draw(st.lists(awkward_ids, min_size=k, max_size=k)) for k in shape)
    return scores, gallery_ids, probe_ids


@CAPPED
@given(awkward_score_files())
@example((np.zeros((3, 0)), ["", "a,b", "x\ny"], []))  # no probes: each id alone on its row
@example((np.array([[-0.0, 1 / 3]]), [""], ["", 'q"x']))
def test_score_matrix_text_equals_the_csv_writer_form(tmp_path, case):
    scores, gallery_ids, probe_ids = case
    path = tmp_path / "scores.csv"
    write_score_matrix(path, scores, gallery_ids, probe_ids)
    assert path.read_bytes() == reference_score_matrix_bytes(scores, gallery_ids, probe_ids)


@CAPPED
@given(
    st.sampled_from([0, 1, 5, _ROC_BLOCK - 1, _ROC_BLOCK, 2 * _ROC_BLOCK + 3]),
    st.lists(st.tuples(awkward_floats, awkward_floats), min_size=1, max_size=8),
    st.integers(0, 2**32 - 1),
)
def test_roc_text_equals_the_value_by_value_form(tmp_path, n, awkward, seed):
    # n random points, with the awkward ones written over random rows;
    # TAR repeats a few values, as a real curve's does
    rng = make_rng(seed)
    far = rng.random(n) * 10.0 ** rng.integers(-320, 300, n)
    tar = rng.integers(0, 7, n) / 6
    if n:
        rows = rng.integers(0, n, len(awkward))
        far[rows], tar[rows[::-1]] = zip(*awkward)
    curve = RocCurve(far, tar)
    emit_curves(curve, np.array([1.0]), tmp_path / "roc.csv", tmp_path / "cmc.csv")
    assert (tmp_path / "roc.csv").read_bytes() == reference_roc_bytes(curve)


@st.composite
def label_sets(draw):
    """Unit-norm features of 3-12 subjects with 1-6 samples each; at
    least one subject has two samples, so a positive pair exists.  The
    first epoch starts screened, and most of these sets screen a later
    one too; many meet a violator inside a screened epoch, so the cache
    is dropped and rebuilt mid-epoch, and some meet steps / n of them,
    so the epoch finishes on the plain loop."""
    counts = draw(st.lists(st.integers(1, 6), min_size=3, max_size=12))
    assume(max(counts) >= 2)
    dim = draw(st.sampled_from([8, 16, 32]))
    spread = draw(st.sampled_from([0.1, 0.5, 1.0]))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.repeat(np.arange(len(counts)), counts)
    feats = rng.standard_normal((len(counts), dim))[labels] + spread * rng.standard_normal((len(labels), dim))
    order = rng.permutation(len(labels))  # subjects interleaved, as in a shuffled manifest
    feats, labels = feats[order], labels[order]
    return feats / np.linalg.norm(feats, axis=1, keepdims=True), labels


@settings(CAPPED, max_examples=25)
@given(
    label_sets(),
    st.sampled_from([0.0, 1.0, 20.0]),
    st.booleans(),
    st.integers(0, 2**16),
)
def test_screened_train_metric_equals_the_plain_loop(case, gamma, symmetrize_b, seed):
    feats, labels = case
    cfg = MetricTrainConfig(
        gamma=gamma, gamma_b=gamma / 10, neg_to_pos_ratio=3, epochs=6, seed=seed, symmetrize_b=symmetrize_b
    )
    want, want_fractions = plain_train_metric(feats, labels, cfg)
    got, got_fractions = train_metric(feats, labels, cfg)
    assert got_fractions == want_fractions
    assert got.M.tobytes() == want.M.tobytes()
    assert got.B.tobytes() == want.B.tobytes()
    assert got.b == want.b


@CAPPED
@given(
    st.lists(st.integers(0, 9), min_size=2, max_size=40),
    st.sampled_from([1, 3, 20, 1000]),
    st.booleans(),
    st.integers(0, 2**16),
)
def test_pair_pools_equal_the_mask_construction(codes, ratio, as_text, seed):
    labels = np.array([f"s{c}" for c in codes]) if as_text else np.array(codes)
    same = labels[:, None] == labels[None, :]
    assume(np.triu(same, 1).any() and not same.all())
    cfg = MetricTrainConfig(neg_to_pos_ratio=ratio)
    got, want = PairSampler(labels, make_rng(seed), cfg), MaskPairSampler(labels, make_rng(seed), cfg)
    npt.assert_array_equal(got.pos_pairs, want.pos_pairs)
    npt.assert_array_equal(got.neg_pairs, want.neg_pairs)
    npt.assert_array_equal(got._neg_queue, want._neg_queue)
    batch, reference = got.epoch(), want.epoch()
    for field in ("i", "j", "y"):
        npt.assert_array_equal(getattr(batch, field), getattr(reference, field))
