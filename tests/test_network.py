import inspect
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from faceverify.linalg import make_rng
from faceverify.micronet import build_face_net, extract_features
from faceverify.micronet.layers import Conv3x3
from faceverify.micronet.network import LAYER_KINDS

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


class TestStreamingFeatures:
    @pytest.mark.parametrize("input_size, width_divisor", [(100, 1), (32, 4)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_rows_equal_each_image_alone(self, input_size, width_divisor, dtype):
        net = build_face_net(num_classes=3, input_size=input_size, width_divisor=width_divisor, dtype=dtype)
        net.initialize(make_rng(8), 0.05)
        x = make_rng(9).random((3, input_size, input_size, 1))
        feats = net.features(x)
        assert feats.shape == (3, 320 // width_divisor) and feats.dtype == dtype
        for i in range(3):
            assert feats[i : i + 1].tobytes() == net.features(x[i : i + 1]).tobytes()
        if dtype == np.float64:
            # every GEMM of these shapes is large enough that BLAS sums
            # each row alike in a batch and alone, so streaming changes
            # no float64 feature of the whole-batch walk
            pooled = net.forward(x)[[s.kind for s in net.spec.layers].index("avgpool_global")]
            assert feats.tobytes() == pooled.tobytes()

    def test_empty_batch(self):
        net = build_face_net(num_classes=3, input_size=16, width_divisor=8)
        assert net.features(np.zeros((0, 16, 16, 1))).shape == (0, 40)

    @pytest.mark.parametrize("shape", [(16, 16, 1), (), (2, 16, 15, 1)])
    def test_wrong_shape_is_named_before_the_walk(self, shape):
        net = build_face_net(num_classes=3, input_size=16, width_divisor=8)
        with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
            net.features(np.zeros(shape))

    def test_peak_memory_does_not_grow_with_the_batch(self):
        net = build_face_net(num_classes=3, input_size=100, width_divisor=8)
        net.initialize(make_rng(10), 0.05)
        x = make_rng(11).random((8, 100, 100, 1))
        peaks = {}
        for n in (1, 8):
            tracemalloc.start()
            try:
                net.features(x[:n])
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8] < 2 * peaks[1], peaks


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
