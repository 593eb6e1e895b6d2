import numpy as np
import numpy.testing as npt
import pytest

from faceverify.linalg import make_rng
from faceverify.pnm import read_pnm, write_pnm


def test_gray_roundtrip(tmp_path):
    rng = make_rng(0)
    img = np.round(rng.random((7, 5)) * 255) / 255
    path = tmp_path / "img.pgm"
    write_pnm(path, img)
    back = read_pnm(path)
    npt.assert_allclose(back, img, atol=1e-12)
    assert back.shape == (7, 5)


def test_color_roundtrip(tmp_path):
    rng = make_rng(1)
    img = np.round(rng.random((4, 6, 3)) * 255) / 255
    path = tmp_path / "img.ppm"
    write_pnm(path, img)
    back = read_pnm(path)
    npt.assert_allclose(back, img, atol=1e-12)
    assert back.shape == (4, 6, 3)


def test_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + payload)
    img = read_pnm(path)
    assert img.shape == (2, 3)
    npt.assert_allclose(img.ravel() * 255, np.arange(6), atol=1e-9)


def test_rejects_other_formats(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n1 1\n255\n0")
    with pytest.raises(ValueError):
        read_pnm(path)


def test_rejects_truncated(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(ValueError) as info:
        read_pnm(path)
    assert str(info.value) == f"{path}: truncated pixel data"


@pytest.mark.parametrize("data, message", [
    (b"P6\n2 2\n255\n" + bytes(11), "truncated pixel data"),
    (b"P5\n4 4", "truncated PNM header"),
    (b"P5\n4 x\n255\n" + bytes(16), "invalid literal for int() with base 10: b'x'"),
    (b"P5\n-4 4\n255\n" + bytes(16), "negative image size -4x4"),
    (b"P5\n0 0\n255\n", "empty image size 0x0"),
    (b"P6\n0 4\n255\n", "empty image size 0x4"),
    (b"P5\n4 0\n255\n" + bytes(16), "empty image size 4x0"),
], ids=["short-color-pixels", "short-header", "bad-size", "negative-size", "empty", "zero-width", "zero-height"])
def test_errors_name_the_file(tmp_path, data, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(ValueError) as info:
        read_pnm(path)
    assert str(info.value) == f"{path}: {message}"


def test_write_clips_range(tmp_path):
    img = np.array([[-0.5, 0.5], [1.5, 1.0]])
    path = tmp_path / "clip.pgm"
    write_pnm(path, img)
    back = read_pnm(path)
    assert back.min() == 0.0 and back.max() == 1.0
