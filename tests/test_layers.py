"""Finite-difference oracles for every layer's backward pass."""

import itertools

import numpy as np
import numpy.testing as npt
import pytest

from conftest import central_diff_gradient, max_relative_error
from faceverify.linalg import make_rng
from faceverify.micronet.layers import (
    Conv3x3,
    CrossChannelNorm,
    Dense,
    Dropout,
    GlobalAvgPool,
    MaxPool2x2,
    PReLU,
    SoftmaxXent,
    softmax,
)

TOL = 1e-4  # max relative error against central differences


def projected_loss(layer, x, proj):
    return float((layer.forward(x, train=True) * proj).sum())


def check_input_gradient(layer, x, rng):
    proj = rng.standard_normal(layer.forward(x, train=True).shape)
    analytic = layer.backward(proj)
    numeric = central_diff_gradient(lambda: projected_loss(layer, x, proj), x)
    assert max_relative_error(analytic, numeric) < TOL


def check_param_gradients(layer, x, rng):
    proj = rng.standard_normal(layer.forward(x, train=True).shape)
    layer.backward(proj)
    for name, value, grad, _ in layer.param_items():
        analytic = grad.copy()
        numeric = central_diff_gradient(lambda: projected_loss(layer, x, proj), value)
        assert max_relative_error(analytic, numeric) < TOL, f"param {name}"


# (n, h, w, c_in, c_out) like the stock and toy layers': whole-image groups
# with a partial last group (4x4, 7x7, 1x200, 13x13), bands of rows with a
# partial last band (100x100, 70x90, 50x100) and a row wider than a band
CONV_SHAPES = [
    (128, 4, 4, 32, 64),
    (100, 7, 7, 64, 40),
    (45, 1, 200, 3, 5),
    (30, 13, 13, 24, 48),
    (9, 32, 32, 1, 8),
    (2, 100, 100, 1, 32),
    (1, 100, 100, 8, 16),
    (2, 70, 90, 4, 6),
    (2, 50, 100, 3, 4),
    (1, 2, 5000, 2, 3),
]


def whole_batch_conv_backward(conv, x, grad_out):
    """(grad_weights, grad_bias, dx) as one nine-tap pass over the whole
    batch: each tap's dx rows in one GEMM, scatter-added into a zeroed
    padded buffer in (di, dj) order."""
    n, h, w, c_in = x.shape
    xp = np.zeros((n, h + 2, w + 2, c_in), dtype=conv.dtype)
    xp[:, 1:-1, 1:-1, :] = x
    g2 = np.ascontiguousarray(grad_out).reshape(n * h * w, conv.out_channels)
    grad_weights = np.empty_like(conv.weights)
    dxp = np.zeros_like(xp)
    for di in range(3):
        for dj in range(3):
            patch = np.ascontiguousarray(xp[:, di : di + h, dj : dj + w, :])
            grad_weights[di, dj] = patch.reshape(n * h * w, c_in).T @ g2
            dpatch = g2 @ conv.weights[di, dj].T
            dxp[:, di : di + h, dj : dj + w, :] += dpatch.reshape(n, h, w, c_in)
    return grad_weights, g2.sum(axis=0), dxp[:, 1:-1, 1:-1, :]


class TestConv3x3:
    def test_matches_naive_correlation(self):
        # hand-unrolled 3x3 correlation with zero padding on a 4x4 input
        rng = make_rng(0)
        conv = Conv3x3(2, 3)
        conv.weights[...] = rng.normal(0.0, 0.5, conv.weights.shape)
        x = rng.standard_normal((1, 4, 4, 2))
        out = conv.forward(x)
        xp = np.zeros((6, 6, 2))
        xp[1:5, 1:5, :] = x[0]
        for i in range(4):
            for j in range(4):
                for co in range(3):
                    acc = conv.bias[co]
                    for di in range(3):
                        for dj in range(3):
                            for ci in range(2):
                                acc += xp[i + di, j + dj, ci] * conv.weights[di, dj, ci, co]
                    assert out[0, i, j, co] == pytest.approx(acc, rel=1e-12)

    def test_gradients(self):
        rng = make_rng(1)
        conv = Conv3x3(4, 3)
        conv.weights[...] = rng.normal(0.0, 0.4, conv.weights.shape)
        x = rng.standard_normal((2, 8, 8, 4))
        check_input_gradient(conv, x, rng)
        check_param_gradients(conv, x, rng)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            Conv3x3(2, 3).forward(np.zeros((1, 4, 4, 5)))

    @pytest.mark.parametrize("n, h, w, c_in, c_out", CONV_SHAPES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("train", [False, True])
    def test_banded_forward_matches_whole_batch_nine_taps(self, n, h, w, c_in, c_out, dtype, train):
        # the reference adds the nine taps over the whole batch at once; the
        # layer splits the output pixels into groups and keeps every sum's
        # order.  Here each group's GEMMs and the whole batch's take the
        # same BLAS kernel (see the next test), so the bytes must agree.
        rng = make_rng(14)
        conv = Conv3x3(c_in, c_out, dtype=dtype)
        conv.weights[...] = rng.normal(0.0, 0.3, conv.weights.shape)
        conv.bias[...] = rng.normal(0.0, 0.3, conv.bias.shape)
        x = rng.standard_normal((n, h, w, c_in)).astype(dtype)
        xp = np.zeros((n, h + 2, w + 2, c_in), dtype=dtype)
        xp[:, 1:-1, 1:-1, :] = x
        expected = np.empty((n * h * w, c_out), dtype=dtype)
        expected[:] = conv.bias
        for di in range(3):
            for dj in range(3):
                patch = np.ascontiguousarray(xp[:, di : di + h, dj : dj + w, :]).reshape(-1, c_in)
                expected += patch @ conv.weights[di, dj]
        out = conv.forward(x, train=train)
        assert out.shape == (n, h, w, c_out) and out.dtype == dtype
        assert out.tobytes() == expected.tobytes()

    # CONV_SHAPES, then: the toy net's conv12, whose dx runs in 16 groups;
    # groups of 8 images whose 8192 x 16 -> 8 GEMMs sit just above the
    # small-matrix switch (4-image groups would fall under it); two groups
    # of 22 images; a batch just above the switch, and one under it, each
    # one group; c_in = 1 on a large batch, one group (a gemv)
    @pytest.mark.parametrize(
        "n, h, w, c_in, c_out",
        CONV_SHAPES
        + [
            (128, 32, 32, 8, 16),
            (44, 32, 32, 8, 16),
            (44, 16, 16, 16, 16),
            (20, 16, 16, 16, 16),
            (3, 8, 8, 16, 16),
            (64, 32, 32, 1, 8),
        ],
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_matches_whole_batch_scatter_add(self, n, h, w, c_in, c_out, dtype):
        rng = make_rng(19)
        conv = Conv3x3(c_in, c_out, dtype=dtype)
        conv.weights[...] = rng.normal(0.0, 0.3, conv.weights.shape)
        x = rng.standard_normal((n, h, w, c_in)).astype(dtype)
        grad_out = rng.standard_normal((n, h, w, c_out)).astype(dtype)
        grad_weights, grad_bias, dx = whole_batch_conv_backward(conv, x, grad_out)
        conv.forward(x, train=True)
        got = conv.backward(grad_out)
        assert got.shape == x.shape and got.dtype == dtype
        assert got.tobytes() == np.ascontiguousarray(dx).tobytes()
        assert conv.grad_weights.tobytes() == grad_weights.tobytes()
        assert conv.grad_bias.tobytes() == grad_bias.tobytes()

    def test_dx_groups_stay_on_the_whole_batch_side_of_both_switches(self):
        from faceverify.micronet.layers import _SMALL_GEMM

        for n, pixels, (c_in, c_out) in itertools.product(
            [1, 2, 7, 44, 128, 1000],
            [1, 4, 16, 49, 64, 256, 1024, 10000],
            [(1, 8), (8, 16), (16, 32), (48, 32), (160, 320), (1000, 2000)],
        ):
            case = (n, pixels, c_in, c_out)
            groups = Conv3x3(c_in, c_out)._dx_groups(n, pixels)
            assert [i for g in groups for i in range(*g)] == list(range(n)), case  # in order, no gap or overlap
            whole = n * pixels * c_in * c_out
            if c_in == 1 or whole <= _SMALL_GEMM:
                assert groups == [(0, n)], case
            for i0, i1 in groups:
                rows = (i1 - i0) * pixels
                assert rows > 1 or n * pixels == 1, case
                assert (rows * c_in * c_out > _SMALL_GEMM) == (whole > _SMALL_GEMM), case

    def test_small_last_group_agrees_to_rounding(self):
        # 100 images of 7x7 form groups of 83 and 17.  The second group's
        # 833 x 16 x 20 GEMMs fall under OpenBLAS's small-matrix cutoff
        # (about 1e6 multiply-adds), whose kernel sums the 16 input channels
        # in another order than the whole batch's 4900-row call: the rows
        # agree to rounding, and the bytes depend on the BLAS build.
        rng = make_rng(18)
        conv = Conv3x3(16, 20)
        conv.weights[...] = rng.normal(0.0, 0.3, conv.weights.shape)
        x = rng.standard_normal((100, 7, 7, 16))
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        expected = sum(
            np.ascontiguousarray(xp[:, di : di + 7, dj : dj + 7, :]).reshape(-1, 16) @ conv.weights[di, dj]
            for di in range(3)
            for dj in range(3)
        )
        npt.assert_allclose(conv.forward(x).reshape(-1, 20), expected, rtol=1e-12, atol=1e-13)


class TestPReLU:
    def test_scalar_semantics(self):
        layer = PReLU(1)
        x = np.array([1.0, -1.0, -5.0]).reshape(3, 1)
        npt.assert_array_equal(layer.forward(x), [[1.0], [-0.25], [-1.25]])
        layer.slope[:] = 0.0  # zero slope reduces to ReLU
        npt.assert_array_equal(layer.forward(x), [[1.0], [0.0], [0.0]])

    def test_gradients_including_slope(self):
        rng = make_rng(2)
        layer = PReLU(4)
        layer.slope[:] = [0.25, 0.5, -0.2, 0.8]
        # keep inputs away from the kink so finite differences are clean
        x = rng.standard_normal((2, 5, 5, 4))
        x = np.where(np.abs(x) < 0.1, x + 0.3, x)
        check_input_gradient(layer, x, rng)
        check_param_gradients(layer, x, rng)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_matches_where_form(self, dtype):
        # the reference picks each coefficient with np.where; signed zeros,
        # infinities and NaN in x and in the gradient keep their bytes
        rng = make_rng(20)
        layer = PReLU(5, dtype=dtype)
        layer.slope[:] = [0.25, -0.0, 0.0, -0.3, 1.5]
        special = np.array([0.0, -0.0, -np.inf, np.inf, np.nan, -1e-30, 1e-30], dtype=dtype)
        x = rng.standard_normal((3, 6, 7, 5)).astype(dtype)
        grad = rng.standard_normal(x.shape).astype(dtype)
        x.reshape(-1)[::3] = rng.choice(special, x.size // 3 + 1)[: x.reshape(-1)[::3].size]
        grad.reshape(-1)[1::4] = rng.choice(special, grad.size)[: grad.reshape(-1)[1::4].size]
        neg = x < 0
        gx = grad * x
        gx *= neg
        grad_slope = gx.reshape(-1, 5).sum(axis=0)
        dx = grad * np.where(neg, layer.slope, np.asarray(1.0, dtype=dtype))
        layer.forward(x, train=True)
        got = layer.backward(grad)
        assert got.dtype == dtype
        assert got.tobytes() == dx.tobytes()
        assert layer.grad_slope.tobytes() == grad_slope.tobytes()

    def test_default_slope(self):
        layer = PReLU(3)
        npt.assert_array_equal(layer.slope, 0.25)


class TestCrossChannelNorm:
    def test_alpha_zero_is_identity(self):
        rng = make_rng(3)
        x = rng.standard_normal((1, 3, 3, 6))
        out = CrossChannelNorm(5, alpha=0.0, beta=0.75, k=1.0).forward(x)
        npt.assert_array_equal(out, x)

    def test_scalar_oracle_size_one(self):
        # single channel, size 1: out = x / (k + alpha*x^2)^beta pointwise
        rng = make_rng(4)
        x = rng.standard_normal((1, 4, 4, 1))
        layer = CrossChannelNorm(1, alpha=0.3, beta=0.6, k=2.0)
        out = layer.forward(x)
        expected = x / (2.0 + 0.3 * x**2) ** 0.6
        npt.assert_allclose(out, expected, rtol=1e-12)

    def test_brightness_scaling_analytic(self):
        # constant input c scaled by lam: out = lam*c / (k + alpha*(lam*c)^2)^beta
        layer = CrossChannelNorm(3, alpha=0.1, beta=0.75, k=1.0)
        for lam in (0.5, 2.0):
            x = np.full((1, 2, 2, 5), 0.7 * lam)
            out = layer.forward(x)
            # interior channels see a full window of 3 identical values
            denom = 1.0 + (0.1 / 3) * 3 * (0.7 * lam) ** 2
            assert out[0, 0, 0, 2] == pytest.approx(0.7 * lam / denom**0.75, rel=1e-12)

    def test_window_clipping_at_edges(self):
        x = np.ones((1, 1, 1, 4))
        layer = CrossChannelNorm(3, alpha=0.3, beta=1.0, k=1.0)
        out = layer.forward(x)
        edge = 1.0 / (1.0 + 0.1 * 2)   # channels 0,3 see 2 neighbors
        mid = 1.0 / (1.0 + 0.1 * 3)    # channels 1,2 see 3
        npt.assert_allclose(out[0, 0, 0], [edge, mid, mid, edge], rtol=1e-12)

    @pytest.mark.parametrize("size, alpha, beta, k", [(5, 1e-4, 0.75, 1.0), (3, 0.3, 1.0, 2.0), (1, 0.2, 0.5, 1.0)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eval_matches_train_bytes(self, size, alpha, beta, k, dtype):
        # the eval path runs the same ops in place
        x = (make_rng(15).standard_normal((3, 5, 4, 9)) * 4).astype(dtype)
        layer = CrossChannelNorm(size, alpha=alpha, beta=beta, k=k)
        out = layer.forward(x, train=False)
        assert out.dtype == dtype
        assert out.tobytes() == layer.forward(x, train=True).tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf + -inf
    @pytest.mark.parametrize("size", [1, 3, 5, 7])
    @pytest.mark.parametrize("shape", [(3, 5, 4, 9), (2, 100, 60, 16), (700, 1, 1, 1), (4, 2), (0, 4, 4, 8)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_window_sum_matches_strided_adds(self, size, shape, dtype):
        # the reference adds the neighbours inside the clipped window with
        # strided slices, in the same order; the layer sums blocks of rows
        # (several here, the last one partial) in a -0.0 padded buffer.
        # Signed zeros, infinities and NaN keep their bytes.
        rng = make_rng(21)
        v = rng.standard_normal(shape).astype(dtype)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=dtype)
        v.reshape(-1)[::4] = rng.choice(special, v.size)[: v.reshape(-1)[::4].size]
        expected = v.copy()
        for off in range(1, (size - 1) // 2 + 1):
            expected[..., :-off] += v[..., off:]
            expected[..., off:] += v[..., :-off]
        got = CrossChannelNorm(size)._window_sum(v)
        assert got.shape == v.shape and got.dtype == dtype
        assert got.tobytes() == expected.tobytes()

    def test_gradients(self):
        rng = make_rng(5)
        layer = CrossChannelNorm(5, alpha=0.2, beta=0.75, k=1.0)
        x = rng.standard_normal((2, 4, 4, 6))
        check_input_gradient(layer, x, rng)

    def test_even_size_rejected(self):
        with pytest.raises(ValueError):
            CrossChannelNorm(4)


class TestMaxPool:
    def test_ceil_mode_sizes(self):
        layer = MaxPool2x2()
        assert layer.forward(np.zeros((1, 25, 25, 2))).shape == (1, 13, 13, 2)
        assert layer.forward(np.zeros((1, 13, 13, 2))).shape == (1, 7, 7, 2)
        assert layer.forward(np.zeros((1, 8, 8, 2))).shape == (1, 4, 4, 2)

    def test_values_odd_input(self):
        x = np.arange(9, dtype=float).reshape(1, 3, 3, 1)
        out = layer_out = MaxPool2x2().forward(x)
        npt.assert_array_equal(out[0, :, :, 0], [[4.0, 5.0], [7.0, 8.0]])

    def test_gradients(self):
        rng = make_rng(6)
        layer = MaxPool2x2()
        x = rng.standard_normal((2, 7, 7, 3))  # odd size exercises ceil mode
        check_input_gradient(layer, x, rng)

    @pytest.mark.parametrize("h, w", [(4, 6), (5, 7), (1, 3), (6, 5)])
    def test_matches_per_window_loop_with_ties(self, h, w):
        # integer values make ties common; the finite-difference check
        # never sees one, so this loop is the reference for the tie rule:
        # all gradient goes to the first maximal cell in (0,0), (0,1),
        # (1,0), (1,1) order, and cells past an odd edge are left out
        rng = make_rng(12)
        n, c = 2, 3
        x = rng.integers(0, 3, (n, h, w, c)).astype(np.float64)
        grad_out = rng.standard_normal((n, (h + 1) // 2, (w + 1) // 2, c))
        expected = np.empty(grad_out.shape)
        expected_dx = np.zeros(x.shape)
        for b, i, j, ch in np.ndindex(grad_out.shape):
            cells = [(2 * i + di, 2 * j + dj) for di in (0, 1) for dj in (0, 1)]
            cells = [(y, z) for y, z in cells if y < h and z < w]
            values = [x[b, y, z, ch] for y, z in cells]
            first = int(np.argmax(values))
            expected[b, i, j, ch] = values[first]
            expected_dx[(b, *cells[first], ch)] = grad_out[b, i, j, ch]
        layer = MaxPool2x2()
        npt.assert_array_equal(layer.forward(x, train=True), expected)
        npt.assert_array_equal(layer.backward(grad_out), expected_dx)

    @pytest.mark.parametrize("h, w", [(5, 7), (1, 1), (4, 3)])
    @pytest.mark.parametrize("train", [False, True])
    def test_nan_propagates_and_odd_edges_never_win(self, h, w, train):
        # both modes take the output from one max over each window; a NaN
        # cell makes its window NaN and the -inf padding past an odd edge
        # never wins, even against -inf cells.  Backward sends a NaN
        # window's gradient to its first NaN cell, and an all -inf
        # window's to cell (0, 0).
        rng = make_rng(16)
        x = rng.standard_normal((2, h, w, 3))
        x[rng.random(x.shape) < 0.2] = -np.inf
        x[0, -1, -1, 0] = np.nan  # in the last window, cut short by an odd edge
        if h > 1 and w > 1:
            x[1, :2, :2, 1] = -np.inf  # a window of -inf cells only
            x[1, 0, 1, 2] = x[1, 1, 0, 2] = np.nan  # first NaN at cell (0, 1)
        expected = np.empty((2, (h + 1) // 2, (w + 1) // 2, 3))
        expected_dx = np.zeros(x.shape)
        grad_out = rng.standard_normal(expected.shape)
        for b, i, j, ch in np.ndindex(expected.shape):
            window = x[b, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2, ch]
            expected[b, i, j, ch] = np.max(window)
            # the first NaN cell, else the first maximal one (cell (0, 0)
            # when every cell is -inf); only cells inside x count
            values = window.reshape(-1)
            first = int(np.argmax(np.isnan(values))) if np.isnan(values).any() else int(np.argmax(values))
            expected_dx[b, 2 * i + first // window.shape[1], 2 * j + first % window.shape[1], ch] = grad_out[b, i, j, ch]
        layer = MaxPool2x2()
        out = layer.forward(x, train=train)
        npt.assert_array_equal(out, expected)
        assert np.isnan(out[0, -1, -1, 0])
        if train:
            dx = layer.backward(grad_out)
            npt.assert_array_equal(dx, expected_dx)
            if h > 1 and w > 1:
                assert dx[1, 0, 0, 1] == grad_out[1, 0, 0, 1] and dx[1, 0, 1, 2] == grad_out[1, 0, 0, 2]


class TestGlobalAvgPool:
    def test_mean(self):
        rng = make_rng(7)
        x = rng.standard_normal((2, 5, 4, 3))
        npt.assert_allclose(GlobalAvgPool().forward(x), x.mean(axis=(1, 2)))

    def test_gradients(self):
        rng = make_rng(8)
        x = rng.standard_normal((2, 4, 4, 3))
        check_input_gradient(GlobalAvgPool(), x, rng)


class TestDropout:
    def test_eval_is_identity(self):
        rng = make_rng(9)
        x = rng.standard_normal((4, 8))
        layer = Dropout(0.4)
        npt.assert_array_equal(layer.forward(x, train=False), x)
        # eval-mode backward is the identity Jacobian
        g = rng.standard_normal((4, 8))
        npt.assert_array_equal(layer.backward(g), g)

    def test_train_scales_kept_units(self):
        rng = make_rng(10)
        x = np.ones((1000, 4))
        layer = Dropout(0.4)
        out = layer.forward(x, train=True, rng=rng)
        kept = out[out != 0]
        npt.assert_allclose(kept, 1.0 / 0.6, rtol=1e-12)
        assert abs((out != 0).mean() - 0.6) < 0.03

    def test_train_needs_rng(self):
        with pytest.raises(ValueError):
            Dropout(0.4).forward(np.ones((2, 2)), train=True)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestDense:
    def test_gradients(self):
        rng = make_rng(11)
        layer = Dense(6, 4)
        layer.weights[...] = rng.normal(0.0, 0.5, layer.weights.shape)
        x = rng.standard_normal((3, 6))
        check_input_gradient(layer, x, rng)
        check_param_gradients(layer, x, rng)


class TestSoftmaxXent:
    def test_rows_sum_to_one(self):
        rng = make_rng(12)
        probs = softmax(rng.standard_normal((40, 11)) * 20)
        npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_loss_nonnegative_and_gradient(self):
        rng = make_rng(13)
        layer = SoftmaxXent()
        logits = rng.standard_normal((6, 5))
        labels = rng.integers(0, 5, 6)
        layer.forward(logits, train=True)
        assert layer.loss(labels) >= 0.0
        analytic = layer.backward_from_labels(labels)

        def loss():
            layer.forward(logits, train=True)
            return layer.loss(labels)

        numeric = central_diff_gradient(loss, logits, eps=1e-6)
        assert max_relative_error(analytic, numeric) < TOL

    def test_saturated_prediction_has_zero_loss_and_gradient(self):
        layer = SoftmaxXent()
        logits = np.array([[200.0, 0.0, 0.0], [0.0, 200.0, 0.0]])
        labels = np.array([0, 1])
        layer.forward(logits, train=True)
        assert layer.loss(labels) == pytest.approx(0.0, abs=1e-12)
        npt.assert_allclose(layer.backward_from_labels(labels), 0.0, atol=1e-12)


def _cached_layers():
    """(layer, input) for every layer whose backward reads a train-mode cache."""
    rng = make_rng(17)
    conv, dense = Conv3x3(2, 3), Dense(4, 3)
    conv.weights[...] = rng.standard_normal(conv.weights.shape)
    dense.weights[...] = rng.standard_normal(dense.weights.shape)
    image = rng.standard_normal((2, 4, 4, 2))
    return {
        "conv": (conv, image),
        "prelu": (PReLU(2), image),
        "lrn": (CrossChannelNorm(3, alpha=0.5), image),
        "maxpool": (MaxPool2x2(), image),
        "avgpool": (GlobalAvgPool(), image),
        "dense": (dense, rng.standard_normal((2, 4))),
    }


@pytest.mark.parametrize("name", sorted(_cached_layers()))
def test_backward_after_an_eval_forward_raises(name):
    layer, x = _cached_layers()[name]
    grad = np.ones(layer.forward(x).shape)
    with pytest.raises(RuntimeError, match="train-mode forward"):
        layer.backward(grad)  # fresh layer: nothing cached yet
    layer.forward(x + 1.0, train=True)
    layer.forward(x, train=False)  # drops the cache of the batch above
    with pytest.raises(RuntimeError, match="train-mode forward"):
        layer.backward(grad)
    layer.forward(x, train=True)
    assert layer.backward(grad).shape == x.shape
