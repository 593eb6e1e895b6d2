import math

import numpy as np
import numpy.testing as npt
import pytest

from conftest import write_landmark_file
from faceverify.align import (
    CanonicalFrame,
    LandmarkSet,
    SimilarityTransform,
    estimate_similarity,
    read_landmark_file,
    warp_image,
    warp_to_canonical,
)
from faceverify.linalg import make_rng


def bilinear_oracle(img, x, y):
    """Direct per-pixel bilinear formula with zero fill outside bounds."""
    h, w = img.shape[:2]
    x0, y0 = math.floor(x), math.floor(y)
    fx, fy = x - x0, y - y0
    total = 0.0
    for dy, wy in ((0, 1 - fy), (1, fy)):
        for dx, wx in ((0, 1 - fx), (1, fx)):
            xi, yi = x0 + dx, y0 + dy
            if 0 <= xi < w and 0 <= yi < h:
                total += wx * wy * img[yi, xi]
    return total


class TestCanonicalFrame:
    def test_default_interocular_distance(self):
        pts = CanonicalFrame().landmarks
        left, right = pts[0:2].mean(axis=0), pts[2:4].mean(axis=0)  # eye centres
        assert np.linalg.norm(right - left) == pytest.approx(36.0)

    def test_default_size(self):
        frame = CanonicalFrame()
        assert (frame.width, frame.height) == (100, 100)

    def test_shared_layout_is_read_only(self):
        assert CanonicalFrame().landmarks is CanonicalFrame().landmarks
        with pytest.raises(ValueError, match="read-only"):
            CanonicalFrame().landmarks[0, 0] = 0.0


class TestLandmarkValidation:
    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            LandmarkSet(np.full((7, 2), 3.0)).validate()

    def test_default_layout_valid(self):
        LandmarkSet(CanonicalFrame().landmarks).validate()

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            LandmarkSet(np.zeros((6, 2)))


class TestEstimateSimilarity:
    def test_identity(self):
        pts = CanonicalFrame().landmarks
        t = estimate_similarity(pts, pts)
        assert t.a == pytest.approx(1.0, abs=1e-12)
        assert t.b == pytest.approx(0.0, abs=1e-12)
        assert t.tx == pytest.approx(0.0, abs=1e-9)
        assert t.ty == pytest.approx(0.0, abs=1e-9)

    def test_pure_translation(self):
        # src displaced so the aligning transform shifts by (5, -3)
        dst = CanonicalFrame().landmarks
        src = dst - np.array([5.0, -3.0])
        t = estimate_similarity(src, dst)
        assert t.a == pytest.approx(1.0, abs=1e-12)
        assert t.b == pytest.approx(0.0, abs=1e-12)
        assert t.tx == pytest.approx(5.0, abs=1e-9)
        assert t.ty == pytest.approx(-3.0, abs=1e-9)

    def test_roundtrip_recovery(self):
        # apply a known transform to the canonical points, then recover it
        canon = CanonicalFrame().landmarks
        t0 = SimilarityTransform.from_params(1.7, math.radians(40.0), 12.0, -8.0)
        moved = t0.apply(canon)
        est = estimate_similarity(canon, moved)
        assert est.scale == pytest.approx(1.7, abs=1e-9)
        assert est.rotation == pytest.approx(math.radians(40.0), abs=1e-9)
        assert est.tx == pytest.approx(12.0, abs=1e-9)
        assert est.ty == pytest.approx(-8.0, abs=1e-9)

    def test_degenerate_rejected(self):
        src = np.ones((7, 2))
        with pytest.raises(ValueError):
            estimate_similarity(src, CanonicalFrame().landmarks)

    def test_least_squares_beats_grid(self):
        # noisy correspondence: the closed form must beat a dense local grid
        rng = make_rng(3)
        canon = CanonicalFrame().landmarks
        t0 = SimilarityTransform.from_params(1.3, 0.4, 5.0, -2.0)
        noisy = t0.apply(canon) + rng.normal(0, 0.5, (7, 2))
        est = estimate_similarity(canon, noisy)

        def residual(t):
            return float(np.sum((t.apply(canon) - noisy) ** 2))

        best_grid = math.inf
        for s in np.linspace(1.2, 1.4, 10):
            for th in np.linspace(0.3, 0.5, 10):
                for tx in np.linspace(4.0, 6.0, 10):
                    for ty in np.linspace(-3.0, -1.0, 10):
                        best_grid = min(
                            best_grid, residual(SimilarityTransform.from_params(s, th, tx, ty))
                        )
        assert residual(est) <= best_grid + 1e-12


class TestTransform:
    def test_inverse_composes_to_identity(self):
        t = SimilarityTransform.from_params(2.0, 0.7, 3.0, -1.0)
        pts = make_rng(0).standard_normal((10, 2)) * 30
        npt.assert_allclose(t.inverse().apply(t.apply(pts)), pts, atol=1e-10)

    def test_preserves_angles_and_distance_ratios(self):
        t = SimilarityTransform.from_params(1.4, -0.3, 2.0, 5.0)
        tri = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
        out = t.apply(tri)
        d_in = [np.linalg.norm(tri[i] - tri[j]) for i, j in ((0, 1), (1, 2), (2, 0))]
        d_out = [np.linalg.norm(out[i] - out[j]) for i, j in ((0, 1), (1, 2), (2, 0))]
        ratios = np.array(d_out) / np.array(d_in)
        npt.assert_allclose(ratios, ratios[0], rtol=1e-12)

    def test_zero_scale_not_invertible(self):
        with pytest.raises(ValueError):
            SimilarityTransform(0.0, 0.0, 1.0, 1.0).inverse()


class TestWarp:
    def test_identity_is_bit_exact(self):
        rng = make_rng(1)
        img = rng.random((100, 100))
        out = warp_to_canonical(img, SimilarityTransform(1.0, 0.0, 0.0, 0.0))
        npt.assert_array_equal(out, img)

    def test_integer_translation_of_constant_image(self):
        img = np.full((40, 40), 0.5)
        # negative shift keeps all 20x20 output samples inside the input
        out = warp_image(img, SimilarityTransform(1.0, 0.0, -7.0, -3.0), 20, 20)
        npt.assert_array_equal(out, np.full((20, 20), 0.5))
        # positive shift zero-fills the columns that sample out of bounds
        shifted = warp_image(img, SimilarityTransform(1.0, 0.0, 7.0, 0.0), 20, 20)
        npt.assert_array_equal(shifted[:, :7], 0.0)
        npt.assert_array_equal(shifted[:, 7:], 0.5)

    def test_upscale_matches_bilinear_oracle(self):
        img = np.array([[1.0, 0.0], [0.0, 1.0]])
        t = SimilarityTransform(2.0, 0.0, 0.0, 0.0)
        out = warp_image(img, t, 4, 4)
        inv = t.inverse()
        for oy in range(4):
            for ox in range(4):
                sx, sy = inv.apply(np.array([ox, oy], dtype=float))
                assert out[oy, ox] == pytest.approx(bilinear_oracle(img, sx, sy), abs=1e-12)

    def test_value_range_preserved(self):
        rng = make_rng(2)
        img = rng.random((30, 30)) * 10
        t = SimilarityTransform.from_params(0.8, 0.5, 4.0, -2.0)
        out = warp_image(img, t, 25, 25)
        assert out.min() >= min(img.min(), 0.0) - 1e-12
        assert out.max() <= img.max() + 1e-12

    def test_color_channels_warped_alike(self):
        rng = make_rng(3)
        gray = rng.random((20, 20))
        color = np.stack([gray, gray, gray], axis=2)
        t = SimilarityTransform.from_params(1.1, 0.2, 1.0, 2.0)
        out = warp_image(color, t, 20, 20)
        npt.assert_array_equal(out[:, :, 0], out[:, :, 1])
        npt.assert_array_equal(out[:, :, 0], warp_image(gray, t, 20, 20))


class TestCropResize:
    def test_resize_ramp_matches_oracle(self):
        ramp = np.tile(np.linspace(0.0, 1.0, 125), (125, 1))
        scale = 100 / 125
        out = warp_image(ramp, SimilarityTransform(scale, 0.0, 0.0, 0.0), 100, 100)  # pure-scale resize
        for ox in (0, 13, 57, 99):
            sx = ox / scale
            assert out[50, ox] == pytest.approx(bilinear_oracle(ramp, sx, 50 / scale), abs=1e-12)


def test_landmark_file_roundtrip(tmp_path):
    rng = make_rng(5)
    records = [
        (f"img{k}.pgm", LandmarkSet(CanonicalFrame().landmarks + rng.normal(0, 2, (7, 2))))
        for k in range(3)
    ]
    path = tmp_path / "landmarks.csv"
    write_landmark_file(path, records)
    back = read_landmark_file(path)
    assert [m for m, _ in back] == [m for m, _ in records]
    for (_, a), (_, b) in zip(back, records):
        npt.assert_allclose(a.points, b.points, atol=1e-6)


def test_landmark_file_non_numeric_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# header\nimg.pgm," + ",".join(["1"] * 13) + ",x\n")
    with pytest.raises(ValueError, match=r"bad\.csv:2: could not convert"):
        read_landmark_file(path)


def test_landmark_file_rejects_short_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("img.pgm,1,2,3\n")
    with pytest.raises(ValueError):
        read_landmark_file(path)
