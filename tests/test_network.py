import inspect
import re
import sys
import threading
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from faceverify.linalg import make_rng
from faceverify.micronet import build_face_net, extract_features, network
from faceverify.micronet.layers import Conv3x3, Dense, GlobalAvgPool, PReLU, SoftmaxXent
from faceverify.micronet.network import LAYER_KINDS, Network
from faceverify.storage import read_checkpoint, write_checkpoint

# frozen reference architecture: per-sample output shape and weight count
# of each layer; global pooling emits (n, c)
STOCK_SHAPES = {
    "conv11": (100, 100, 32),
    "conv12": (100, 100, 64),
    "pool1": (50, 50, 64),
    "conv21": (50, 50, 64),
    "conv22": (50, 50, 128),
    "pool2": (25, 25, 128),
    "conv31": (25, 25, 96),
    "conv32": (25, 25, 192),
    "pool3": (13, 13, 192),
    "conv41": (13, 13, 128),
    "conv42": (13, 13, 256),
    "pool4": (7, 7, 256),
    "conv51": (7, 7, 160),
    "conv52": (7, 7, 320),
    "pool5": (320,),
    "dropout": (320,),
    "fc6": (10548,),
    "cost": (10548,),
}

STOCK_WEIGHTS = {
    "conv11": 288,
    "conv12": 18432,
    "conv21": 36864,
    "conv22": 73728,
    "conv31": 110592,
    "conv32": 165888,
    "conv41": 221184,
    "conv42": 294912,
    "conv51": 368640,
    "conv52": 460800,
    "fc6": 3375360,
}


def output_shapes(net):
    """Per-sample output shape of each named layer, from one eval-mode
    forward pass of a zero batch."""
    acts = net.forward(np.zeros((1, *net.spec.input_shape)))
    return {spec.name: a.shape[1:] for spec, a in zip(net.spec.layers, acts)}


def param_sizes(net, counted=("weights",)):
    """Per-layer sum of the sizes of the counted parameters, for layers
    that have any; PReLU slopes are trainable but never counted."""
    sizes = {}
    for spec, layer in zip(net.spec.layers, net.layers):
        size = sum(value.size for name, value, _, _ in layer.param_items() if name in counted)
        if size:
            sizes[spec.name] = size
    return sizes


class TestStockArchitecture:
    def test_output_shapes(self):
        shapes = output_shapes(build_face_net())
        for name, expected in STOCK_SHAPES.items():
            assert shapes[name] == expected, name

    def test_weight_counts(self):
        counts = param_sizes(build_face_net())
        assert counts == STOCK_WEIGHTS
        assert sum(counts.values()) == 5126688
        assert sum(counts.values()) // 1024 == 5006

    def test_eleven_parameterized_layers(self):
        assert len(param_sizes(build_face_net())) == 11

    def test_stock_feature_dim(self):
        assert build_face_net().features(np.zeros((1, 100, 100, 1))).shape == (1, 320)

    def test_with_biases_counts_more(self):
        with_b = param_sizes(build_face_net(), counted=("weights", "bias"))
        assert with_b["conv11"] == 288 + 32
        assert with_b["fc6"] == 3375360 + 10548

    def test_rgb_variant(self):
        net = build_face_net(in_channels=3)
        assert param_sizes(net)["conv11"] == 3 * 3 * 3 * 32
        assert net.spec.input_shape == (100, 100, 3)

    def test_scaled_variant_shapes(self):
        net = build_face_net(num_classes=10, input_size=32, width_divisor=4)
        shapes = output_shapes(net)
        assert shapes["conv11"] == (32, 32, 8)
        assert shapes["pool5"] == (80,)
        assert shapes["fc6"] == (10,)
        assert net.features(np.zeros((1, 32, 32, 1))).shape == (1, 80)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            build_face_net(num_classes=1)

    @pytest.mark.parametrize("arg", ["in_channels", "input_size", "width_divisor"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_size_below_one_names_the_argument(self, arg, value):
        # width_divisor=-1 built one-channel convs; 0 divided by zero
        with pytest.raises(ValueError, match=f"^{arg} must be at least 1, got {value}$"):
            build_face_net(num_classes=3, **{arg: value})

    @pytest.mark.parametrize("shape", [(0, 0, 1), (4, 4, 0), (4, -1, 1)])
    def test_network_rejects_an_input_size_below_one(self, shape):
        pairs = [("gap", GlobalAvgPool()), ("fc", Dense(1, 3)), ("cost", SoftmaxXent())]
        with pytest.raises(ValueError, match=re.escape(f"input shape {shape} has a size below 1")):
            Network(pairs, shape, 3)


@pytest.mark.parametrize("pairs, message", [
    ([("conv", Conv3x3(2, 2)), ("gap", GlobalAvgPool()), ("fc", Dense(2, 3))], "layer conv takes 2 channels, but 1 reach it"),
    ([("conv", Conv3x3(1, 2)), ("act", PReLU(3)), ("gap", GlobalAvgPool()), ("fc", Dense(2, 3))],
     "layer act takes 3 channels, but 2 reach it"),
    ([("conv", Conv3x3(1, 2)), ("gap", GlobalAvgPool()), ("fc", Dense(3, 3))], "layer fc takes 3 channels, but 2 reach it"),
    ([("conv", Conv3x3(1, 2)), ("gap", GlobalAvgPool()), ("fc", Dense(2, 4))], "layer fc gives 4 classes, not num_classes=3"),
], ids=["first-layer", "prelu-after-conv", "classifier-input", "classifier-output"])
def test_network_rejects_channels_that_do_not_chain(pairs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Network([*pairs, ("cost", SoftmaxXent())], (4, 4, 1), 3)


@pytest.mark.parametrize("kind", sorted(LAYER_KINDS))
def test_layer_class_is_the_one_source_of_its_fields(kind):
    """A class's `fields` are its constructor's parameters other than the
    dtype, in order, and each is kept as an attribute of the same name."""
    cls = LAYER_KINDS[kind]
    assert cls.kind == kind
    params = [p for p in inspect.signature(cls).parameters if p != "dtype"]
    assert list(cls.fields) == params
    sample = {int: 3, float: 0.5}  # valid for every field: LRN sizes are odd, dropout rates below 1
    args = {f: sample[t] for f, t in cls.fields.items()}
    layer = cls(**args)
    assert {f: getattr(layer, f) for f in cls.fields} == args


def test_network_from_a_generator_keeps_every_layer(tmp_path):
    pairs = [("conv", Conv3x3(1, 2)), ("gap", GlobalAvgPool()), ("fc", Dense(2, 3)), ("cost", SoftmaxXent())]
    net = Network(((name, layer) for name, layer in pairs), (4, 4, 1), 3)
    assert len(net.spec.layers) == len(net.layers) == len(pairs)
    assert [s.name for s in net.spec.layers] == [name for name, _ in pairs]
    net.initialize(make_rng(12), 0.3)
    path = tmp_path / "net.jvnt"
    write_checkpoint(path, net)
    back = read_checkpoint(path)
    assert back.spec == net.spec
    for (_, n1, v1, _, _), (_, n2, v2, _, _) in zip(net.param_items(), back.param_items(), strict=True):
        assert n1 == n2
        npt.assert_array_equal(v1, v2)


class TestForward:
    def test_zero_weights_give_zero_feature(self):
        net = build_face_net(num_classes=10, input_size=32, width_divisor=4)
        x = np.zeros((2, 32, 32, 1))
        npt.assert_array_equal(net.features(x), 0.0)

    def test_softmax_rows_sum_to_one(self):
        net = build_face_net(num_classes=7, input_size=16, width_divisor=8)
        net.initialize(make_rng(0), 0.1)
        x = make_rng(1).random((3, 16, 16, 1))
        probs = net.forward(x, train=False)[-1]
        npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_eval_loss_is_cross_entropy_of_forward(self):
        net = build_face_net(num_classes=7, input_size=16, width_divisor=8)
        net.initialize(make_rng(0), 0.1)
        rng = make_rng(1)
        x, labels = rng.random((3, 16, 16, 1)), np.array([0, 4, 6])
        loss = net.loss(x, labels, train=False)  # fresh net: no earlier forward
        probs = net.forward(x)[-1]
        assert loss == pytest.approx(-np.log(probs[np.arange(3), labels]).mean(), rel=1e-12)
        # a train-mode pass on another batch does not leak into the next eval loss
        net.loss(rng.random((5, 16, 16, 1)), np.zeros(5, dtype=int), train=True, rng=make_rng(2))
        assert net.loss(x, labels, train=False) == loss

    def test_shape_mismatch_rejected(self):
        net = build_face_net(num_classes=10, input_size=32, width_divisor=4)
        with pytest.raises(ValueError):
            net.forward(np.zeros((1, 16, 16, 1)))

    def test_activation_count_matches_layers(self):
        net = build_face_net(num_classes=10, input_size=32, width_divisor=4)
        acts = net.forward(np.zeros((1, 32, 32, 1)))
        assert len(acts) == len(net.layers)


# Workers forced onto features' thread pool whatever the machine's cores.
POOL_WORKERS = 3


def set_blas_threads(monkeypatch, openblas, goto, omp):
    """Four cores, and OpenBLAS's three thread-count variables set to the
    given texts (unset for None)."""
    monkeypatch.setattr(network.os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("GOTO_NUM_THREADS", goto), ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)


class TestStreamingFeatures:
    @pytest.mark.parametrize("input_size, width_divisor", [(100, 1), (32, 4)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_rows_equal_each_image_alone(self, monkeypatch, input_size, width_divisor, dtype):
        net = build_face_net(num_classes=3, input_size=input_size, width_divisor=width_divisor, dtype=dtype)
        net.initialize(make_rng(8), 0.05)
        x = make_rng(9).random((POOL_WORKERS + 1, input_size, input_size, 1))
        alone = [net.features(x[i : i + 1]) for i in range(len(x))]  # one walker each
        monkeypatch.setattr(network, "_walkers", lambda: POOL_WORKERS)
        for n in (0, 1, 2, POOL_WORKERS + 1):
            feats = net.features(x[:n])
            assert feats.shape == (n, 320 // width_divisor) and feats.dtype == dtype
            assert feats.tobytes() == b"".join(row.tobytes() for row in alone[:n])
        if dtype == np.float64:
            # every GEMM of these shapes is large enough that BLAS sums
            # each row alike in a batch and alone, so streaming changes
            # no float64 feature of the whole-batch walk
            pooled = net.forward(x[:3])[[s.kind for s in net.spec.layers].index("avgpool_global")]
            assert net.features(x[:3]).tobytes() == pooled.tobytes()

    def test_pool_runs_one_walk_per_image_on_at_most_that_many_workers(self, monkeypatch):
        net = build_face_net(num_classes=3, input_size=16, width_divisor=8)
        seen, pooled = [], net._pooled

        def spy(image):
            seen.append((image.shape, threading.get_ident()))
            return pooled(image)

        monkeypatch.setattr(net, "_pooled", spy)
        monkeypatch.setattr(network, "_walkers", lambda: POOL_WORKERS)
        net.features(np.zeros((7, 16, 16, 1)))
        assert [shape for shape, _ in seen] == [(1, 16, 16, 1)] * 7
        assert threading.get_ident() not in {ident for _, ident in seen}
        assert len({ident for _, ident in seen}) <= POOL_WORKERS

    def test_more_workers_than_cores_under_fast_thread_switching(self, monkeypatch):
        # every walk shares the net's layers, and an eval forward only
        # sets their caches to None, so each row stays its lone walk's
        net = build_face_net(num_classes=3, input_size=16, width_divisor=8)
        net.initialize(make_rng(13), 0.1)
        x = make_rng(14).random((24, 16, 16, 1))
        alone = b"".join(net.features(x[i : i + 1]).tobytes() for i in range(len(x)))
        monkeypatch.setattr(network, "_walkers", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert net.features(x).tobytes() == alone
        finally:
            sys.setswitchinterval(interval)

    def test_error_in_one_walk_reaches_the_caller(self, monkeypatch):
        net = build_face_net(num_classes=3, input_size=16, width_divisor=8)
        conv, forward = net.layers[0], net.layers[0].forward

        def failing(x, train=False, rng=None):
            if x[0, 0, 0, 0] == 5.0:
                raise RuntimeError("walk of image 5 failed")
            return forward(x, train, rng)

        monkeypatch.setattr(conv, "forward", failing)
        monkeypatch.setattr(network, "_walkers", lambda: POOL_WORKERS)
        x = np.broadcast_to(np.arange(8.0)[:, None, None, None], (8, 16, 16, 1))
        with pytest.raises(RuntimeError, match="walk of image 5 failed"):
            net.features(x)

    @pytest.mark.parametrize(
        "openblas, omp, walkers",
        [(None, None, 1), ("1", None, 4), ("2", "1", 2), ("3", None, 1), ("8", None, 1),
         (None, "1", 4), ("0", "2", 2), ("x", None, 1), ("", "4", 1)],
    )
    def test_walkers_share_the_cores_with_blas_threads(self, monkeypatch, openblas, omp, walkers):
        # OpenBLAS takes its thread count from OPENBLAS_NUM_THREADS, then
        # GOTO_NUM_THREADS, then OMP_NUM_THREADS, else one thread per core;
        # counts that are not whole numbers of at least 1 are passed over
        set_blas_threads(monkeypatch, openblas, None, omp)
        assert network._walkers() == walkers

    @pytest.mark.parametrize(
        "openblas, goto, omp, walkers",
        [(None, "2", "1", 2), (None, "1", None, 4), ("4", "1", None, 1), (None, "x", "2", 2), (None, "0", None, 1)],
    )
    def test_walkers_read_goto_num_threads_between_openblas_and_omp(self, monkeypatch, openblas, goto, omp, walkers):
        set_blas_threads(monkeypatch, openblas, goto, omp)
        assert network._walkers() == walkers

    def test_empty_batch(self):
        net = build_face_net(num_classes=3, input_size=16, width_divisor=8)
        assert net.features(np.zeros((0, 16, 16, 1))).shape == (0, 40)

    @pytest.mark.parametrize("shape", [(16, 16, 1), (), (2, 16, 15, 1)])
    def test_wrong_shape_is_named_before_the_walk(self, shape):
        net = build_face_net(num_classes=3, input_size=16, width_divisor=8)
        with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
            net.features(np.zeros(shape))

    def test_peak_memory_does_not_grow_with_the_batch(self, monkeypatch):
        # one image's activations per worker: a fixed worker count holds
        # about as much for 8 images as for one image per worker
        net = build_face_net(num_classes=3, input_size=100, width_divisor=8)
        net.initialize(make_rng(10), 0.05)
        x = make_rng(11).random((8, 100, 100, 1))
        for workers in (1, 2):
            monkeypatch.setattr(network, "_walkers", lambda: workers)
            peaks = {}
            for n in (workers, 8):
                tracemalloc.start()
                try:
                    net.features(x[:n])
                    peaks[n] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peaks[8] < 2 * peaks[workers], (workers, peaks)


class TestInitialize:
    def test_gaussian_weights_in_layer_order_zero_biases_slopes_kept(self):
        net = build_face_net(num_classes=3, input_size=8, width_divisor=16, dtype=np.float32)
        for _, _, value, _, _ in net.param_items():
            value[...] = 7.0
        net.initialize(make_rng(5), 0.2)
        oracle = make_rng(5)
        for _, name, value, _, _ in net.param_items():
            assert value.dtype == np.float32
            if name == "weights":
                npt.assert_array_equal(value, oracle.normal(0.0, 0.2, value.shape).astype(np.float32))
            else:  # biases restart at zero, PReLU slopes keep their value
                npt.assert_array_equal(value, 0.0 if name == "bias" else 7.0)


class TestTrainStep:
    def test_first_layer_backward_runs_and_fills_its_gradients(self):
        # nothing reads the input's gradient, so the first layer skips only
        # that: a lone copy fed the same input and gradient agrees on the
        # parameter gradients, and returns the input gradient too
        net = build_face_net(num_classes=3, input_size=8, width_divisor=16)
        net.initialize(make_rng(4), 0.3)
        first = net.layers[0]
        calls = []
        backward = first.backward

        def spy(grad):
            calls.append((grad, backward(grad)))
            return calls[-1][1]

        first.backward = spy
        x, y = make_rng(5).random((3, 8, 8, 1)), np.array([0, 2, 1])
        net.loss(x, y, train=True, rng=make_rng(6))
        net.backward(y)
        [(grad, returned)] = calls
        assert returned is None
        assert np.count_nonzero(first.grad_weights) == first.grad_weights.size
        alone = Conv3x3(first.in_channels, first.out_channels)
        alone.weights[...] = first.weights
        alone.forward(x, train=True)
        assert alone.backward(grad).shape == x.shape
        assert alone.grad_weights.tobytes() == first.grad_weights.tobytes()
        assert alone.grad_bias.tobytes() == first.grad_bias.tobytes()


class TestWholeNetGradient:
    def test_loss_gradient_against_finite_differences(self):
        # spot-check end-to-end backprop through conv/prelu/lrn/pool/fc
        from conftest import max_relative_error

        net = build_face_net(num_classes=4, input_size=8, width_divisor=16, dropout_rate=0.0)
        net.initialize(make_rng(2), 0.3)
        x = make_rng(3).random((2, 8, 8, 1))
        labels = np.array([1, 3])

        net.loss(x, labels, train=True)
        net.backward(labels)
        checked = 0
        for layer, name, value, grad, _ in net.param_items():
            flat = value.ravel()
            gflat = grad.ravel()
            for k in range(0, flat.size, max(1, flat.size // 10)):
                orig = flat[k]
                eps = 1e-5
                flat[k] = orig + eps
                hi = net.loss(x, labels, train=True)
                flat[k] = orig - eps
                lo = net.loss(x, labels, train=True)
                flat[k] = orig
                numeric = (hi - lo) / (2 * eps)
                assert max_relative_error([gflat[k]], [numeric], floor=1e-6) < 1e-3, (
                    f"{name}[{k}]"
                )
                checked += 1
        assert checked > 50


class TestExtractFeatures:
    def _tiny_net(self):
        net = build_face_net(num_classes=5, input_size=16, width_divisor=8)
        net.initialize(make_rng(4), 0.1)
        return net

    def test_unit_norm_rows(self):
        net = self._tiny_net()
        imgs = make_rng(5).random((7, 16, 16, 1))
        feats = extract_features(net, imgs, batch_size=3)
        npt.assert_allclose(np.linalg.norm(feats, axis=1), 1.0, atol=1e-12)

    def test_duplicate_images_identical_features(self):
        net = self._tiny_net()
        img = make_rng(6).random((1, 16, 16, 1))
        feats = extract_features(net, np.concatenate([img, img]), batch_size=2)
        npt.assert_array_equal(feats[0], feats[1])

    def test_empty_stack_gives_no_rows(self):
        net = self._tiny_net()
        feats = extract_features(net, np.zeros((0, 16, 16, 1)), batch_size=32)
        assert feats.shape == (0, 40)

    def test_zero_feature_rejected(self):
        net = build_face_net(num_classes=5, input_size=16, width_divisor=8)  # zero weights
        with pytest.raises(ValueError):
            extract_features(net, np.zeros((2, 16, 16, 1)))

    def test_horizontal_symmetry_with_symmetric_weights(self):
        # if every conv kernel is left-right symmetric, mirroring the input
        # must leave the pooled feature unchanged (all pools hit even sizes)
        net = self._tiny_net()
        for layer in net.layers:
            if hasattr(layer, "weights") and layer.weights.ndim == 4:
                layer.weights = 0.5 * (layer.weights + layer.weights[:, ::-1, :, :])
        img = make_rng(7).random((1, 16, 16, 1))
        flipped = img[:, :, ::-1, :].copy()
        f1 = extract_features(net, img)
        f2 = extract_features(net, flipped)
        npt.assert_allclose(f1, f2, atol=1e-10)
