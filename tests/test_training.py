import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from conftest import make_blob_images
from faceverify.linalg import make_rng
from faceverify.micronet import (
    TrainConfig,
    augment_batch,
    build_face_net,
    learning_rate_at,
    train,
)


class TestSchedule:
    def test_halving_steps(self):
        cfg = TrainConfig()
        assert learning_rate_at(cfg, 0) == 1e-2
        assert learning_rate_at(cfg, 99_999) == 1e-2
        assert learning_rate_at(cfg, 100_000) == 5e-3
        # two halvings by iteration 250k
        assert learning_rate_at(cfg, 250_000) == pytest.approx(2.5e-3)

    def test_plain_sgd_step_is_w_minus_lr_grad(self):
        net = build_face_net(num_classes=4, input_size=8, width_divisor=16, dropout_rate=0.0)
        net.initialize(make_rng(0), 0.2)
        before = [value.copy() for _, _, value, _, _ in net.param_items()]
        x = make_rng(1).random((4, 8, 8, 1))
        labels = np.array([0, 1, 2, 3])

        from faceverify.micronet.training import _MomentumSGD

        cfg = TrainConfig(momentum=0.0, weight_decay_fc=0.0)
        net.loss(x, labels, train=True)
        net.backward(labels)
        grads = [grad.copy() for _, _, _, grad, _ in net.param_items()]
        _MomentumSGD(net, cfg).step(0.05)
        for (layer, name, value, _, _), g, prev in zip(net.param_items(), grads, before):
            npt.assert_array_equal(value, prev - 0.05 * g)


@pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf, -1e-3])
def test_learning_rate_must_be_finite_and_non_negative(rate):
    with pytest.raises(ValueError, match=f"^learning_rate must be a finite number >= 0, got {rate}$"):
        TrainConfig(learning_rate=rate)
    assert TrainConfig(learning_rate=0.0).learning_rate == 0.0


@pytest.mark.parametrize("name", ["batch_size", "max_iters", "crop_size"])
def test_sizes_must_be_at_least_one(name):
    with pytest.raises(ValueError, match=f"^{name} must be >= 1, got 0$"):
        TrainConfig(**{name: 0})


class TestAugment:
    def _batch(self, n=6):
        return make_rng(2).random((n, 125, 125, 1))

    def test_crop_offsets_in_bounds(self):
        cfg = TrainConfig(random_crop=True, crop_size=100)
        batch = self._batch()
        out = augment_batch(batch, make_rng(3), cfg)
        assert out.shape == (6, 100, 100, 1)
        # every crop must be an exact sub-window of its source image
        for i in range(6):
            found = False
            for oy in range(26):
                for ox in range(26):
                    sub = batch[i, oy : oy + 100, ox : ox + 100, :]
                    if np.array_equal(sub, out[i]) or np.array_equal(sub[:, ::-1, :], out[i]):
                        found = True
                        break
                if found:
                    break
            assert found

    def test_flip_is_involution(self):
        x = self._batch(1)
        npt.assert_array_equal(x[:, :, ::-1, :][:, :, ::-1, :], x)

    def test_deterministic_given_seed(self):
        cfg = TrainConfig(random_crop=True, crop_size=100, hflip=True)
        batch = self._batch()
        a = augment_batch(batch, make_rng(5), cfg)
        b = augment_batch(batch, make_rng(5), cfg)
        npt.assert_array_equal(a, b)

    def test_too_small_input_rejected(self):
        cfg = TrainConfig(random_crop=True, crop_size=100)
        with pytest.raises(ValueError):
            augment_batch(np.zeros((1, 64, 64, 1)), make_rng(6), cfg)


class TestTrainLoop:
    def test_full_batch_loss_non_increasing_small_lr(self):
        images, labels = make_blob_images(n=64, size=16, num_classes=4, seed=8)
        # deterministic full-batch gradient descent: no dropout, no momentum
        net = build_face_net(num_classes=4, input_size=16, width_divisor=8, dropout_rate=0.0)
        cfg = TrainConfig(
            batch_size=64, learning_rate=1e-3, momentum=0.0, max_iters=50, seed=9, init_std=0.1
        )
        result = train(net, images, labels, cfg)
        diffs = np.diff(result.losses)
        assert np.all(diffs <= 1e-12), f"loss increased at {np.argmax(diffs > 0)}"

    def test_deterministic_given_seed(self):
        images, labels = make_blob_images(n=32, size=16, num_classes=4, seed=10)
        losses = []
        for _ in range(2):
            net = build_face_net(num_classes=4, input_size=16, width_divisor=8)
            cfg = TrainConfig(batch_size=16, max_iters=5, seed=11, init_std=0.1)
            losses.append(train(net, images, labels, cfg).losses)
        npt.assert_array_equal(losses[0], losses[1])

    def test_returns_holding_no_training_cache(self):
        images, labels = make_blob_images(n=32, size=16, num_classes=4, seed=14)
        net = build_face_net(num_classes=4, input_size=16, width_divisor=8, dtype=np.float32)
        cfg = TrainConfig(batch_size=32, max_iters=1, seed=15, init_std=0.1)
        tracemalloc.start()
        try:
            train(net, images, labels, cfg)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        params = sum(value.nbytes + grad.nbytes for _, _, value, grad, _ in net.param_items())
        assert held - params < 0.25e6

    def test_divergence_aborts(self):
        images, labels = make_blob_images(n=32, size=16, num_classes=4, seed=12)
        net = build_face_net(num_classes=4, input_size=16, width_divisor=8)
        cfg = TrainConfig(batch_size=16, learning_rate=1e6, max_iters=50, seed=13, init_std=0.5)
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="diverged"):
            train(net, images, labels, cfg)
