"""Binary PGM (P5) and PPM (P6) image I/O.

Dependency-free reader/writer for 8-bit images.  Grayscale images load
as (h, w) float64 arrays in [0, 1]; color images as (h, w, 3).
"""

from __future__ import annotations

import os

import numpy as np

from faceverify.storage import naming, write_file

__all__ = ["read_pnm", "write_pnm"]


def _read_tokens(data: bytes, count: int, pos: int) -> tuple[list[bytes], int]:
    # Header tokens separated by whitespace; '#' starts a comment to EOL.
    tokens: list[bytes] = []
    n = len(data)
    while len(tokens) < count:
        while pos < n and data[pos : pos + 1].isspace():
            pos += 1
        if pos < n and data[pos : pos + 1] == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < n and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("truncated PNM header")
        tokens.append(data[start:pos])
    return tokens, pos


def read_pnm(path: str | os.PathLike) -> np.ndarray:
    """Read a binary PGM/PPM file into a float64 array scaled to [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] not in (b"P5", b"P6"):
        raise ValueError(f"{path}: not a binary PGM/PPM file")
    channels = 1 if data[:2] == b"P5" else 3
    with naming(path):
        tokens, pos = _read_tokens(data, 3, 2)
        width, height, maxval = (int(t) for t in tokens)
    if width < 0 or height < 0:
        raise ValueError(f"{path}: negative image size {width}x{height}")
    if width == 0 or height == 0:
        raise ValueError(f"{path}: empty image size {width}x{height}")
    if maxval <= 0 or maxval > 255:
        raise ValueError(f"{path}: unsupported maxval {maxval} (8-bit only)")
    pos += 1  # single whitespace byte after maxval
    need = width * height * channels
    if len(data) - pos < need:
        raise ValueError(f"{path}: truncated pixel data")
    raw = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos)
    img = raw.astype(np.float64) / maxval
    if channels == 1:
        return img.reshape(height, width)
    return img.reshape(height, width, 3)


def write_pnm(path: str | os.PathLike, img: np.ndarray) -> None:
    """Write an array with values in [0, 1] as binary PGM (2-D) or PPM (h,w,3)."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 3 and img.shape[2] == 1:
        img = img[:, :, 0]
    if img.ndim == 2:
        magic = b"P5"
    elif img.ndim == 3 and img.shape[2] == 3:
        magic = b"P6"
    else:
        raise ValueError(f"cannot encode shape {img.shape} as PGM/PPM")
    quant = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    height, width = quant.shape[:2]
    write_file(path, [magic + b"\n%d %d\n255\n" % (width, height), quant.tobytes()])
