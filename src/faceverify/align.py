"""Landmark-based face alignment.

Seven landmarks per face (left-eye outer, left-eye inner, right-eye
inner, right-eye outer, nose tip, left mouth corner, right mouth
corner) are registered onto a canonical 100x100 frame with a
4-parameter similarity transform (uniform scale, rotation,
translation -- no reflection), then the image is resampled into the
frame with bilinear interpolation.

Coordinate convention: points are (x, y) with x the column and y the
row; pixel centers sit at integer coordinates.  A transform maps
source-image coordinates to canonical coordinates, so translating all
source landmarks by delta shifts the estimate's translation by -delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from faceverify.storage import naming, open_text

__all__ = [
    "LandmarkSet",
    "SimilarityTransform",
    "CanonicalFrame",
    "estimate_similarity",
    "warp_image",
    "warp_to_canonical",
    "read_landmark_file",
]

NUM_LANDMARKS = 7

# Default canonical layout: eye centers (32, 40) / (68, 40), i.e. 36 px
# interocular distance in a 100 px frame; eye corners 7 px to either
# side of each center.
DEFAULT_CANONICAL_POINTS = np.array(
    [
        [25.0, 40.0],  # left-eye outer
        [39.0, 40.0],  # left-eye inner
        [61.0, 40.0],  # right-eye inner
        [75.0, 40.0],  # right-eye outer
        [50.0, 60.0],  # nose tip
        [36.0, 78.0],  # left mouth corner
        [64.0, 78.0],  # right mouth corner
    ]
)


@dataclass(frozen=True)
class LandmarkSet:
    """Seven (x, y) landmark positions in source-image pixels."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.shape != (NUM_LANDMARKS, 2):
            raise ValueError(f"expected {NUM_LANDMARKS} (x, y) points, got shape {pts.shape}")
        object.__setattr__(self, "points", pts)

    def validate(self) -> None:
        """Reject point sets too degenerate to determine an alignment.

        A 4-parameter similarity is determined by any two distinct
        points, so the fatal case is (near-)coincident landmarks; merely
        collinear eye corners are geometrically normal (level eyes).
        """
        centered = self.points - self.points.mean(axis=0)
        spread = float(np.sqrt((centered**2).sum()))
        if spread <= 1e-9 * (1.0 + float(np.abs(self.points).max())):
            raise ValueError("degenerate landmarks: points are (nearly) coincident")


@dataclass(frozen=True)
class SimilarityTransform:
    """Planar map p -> [[a, -b], [b, a]] p + (tx, ty)."""

    a: float
    b: float
    tx: float
    ty: float

    @property
    def scale(self) -> float:
        return math.hypot(self.a, self.b)

    @property
    def rotation(self) -> float:
        """Rotation angle in radians."""
        return math.atan2(self.b, self.a)

    @classmethod
    def from_params(cls, scale: float, rotation: float, tx: float, ty: float) -> "SimilarityTransform":
        return cls(scale * math.cos(rotation), scale * math.sin(rotation), tx, ty)

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        x, y = pts[..., 0], pts[..., 1]
        return np.stack([self.a * x - self.b * y + self.tx, self.b * x + self.a * y + self.ty], axis=-1)

    def inverse(self) -> "SimilarityTransform":
        s2 = self.a * self.a + self.b * self.b
        if s2 == 0.0:
            raise ValueError("transform with zero scale is not invertible")
        ia, ib = self.a / s2, -self.b / s2
        return SimilarityTransform(ia, ib, -(ia * self.tx - ib * self.ty), -(ib * self.tx + ia * self.ty))


@dataclass(frozen=True)
class CanonicalFrame:
    """Target frame geometry: size in pixels plus landmark layout."""

    width: int = 100
    height: int = 100
    landmarks: np.ndarray = field(default_factory=lambda: DEFAULT_CANONICAL_POINTS.copy())

    def __post_init__(self):
        pts = np.asarray(self.landmarks, dtype=np.float64)
        if pts.shape != (NUM_LANDMARKS, 2):
            raise ValueError(f"canonical layout needs {NUM_LANDMARKS} points, got {pts.shape}")
        object.__setattr__(self, "landmarks", pts)


def estimate_similarity(src: np.ndarray, dst: np.ndarray) -> SimilarityTransform:
    """Least-squares similarity transform taking src points onto dst points.

    Solves the normal equations for (a, b, tx, ty) in closed form over
    the centered coordinates; this is the global minimizer of
    sum_k ||T(src_k) - dst_k||^2 within the reflection-free family.
    """
    s = np.asarray(src, dtype=np.float64)
    d = np.asarray(dst, dtype=np.float64)
    if s.shape != d.shape or s.ndim != 2 or s.shape[1] != 2:
        raise ValueError(f"point sets must share shape (n, 2), got {s.shape} and {d.shape}")
    sc = s - s.mean(axis=0)
    dc = d - d.mean(axis=0)
    denom = float(np.sum(sc * sc))
    if denom <= 1e-12 * (1.0 + float(np.sum(d * d))):
        raise ValueError("degenerate source landmarks: points are (nearly) coincident")
    a = float(np.sum(sc * dc)) / denom
    b = float(np.sum(sc[:, 0] * dc[:, 1] - sc[:, 1] * dc[:, 0])) / denom
    mx, my = s.mean(axis=0)
    ux, uy = d.mean(axis=0)
    return SimilarityTransform(a, b, ux - (a * mx - b * my), uy - (b * mx + a * my))


def _bilinear_sample(img: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sample img at real coordinates, zero-filled outside the bounds."""
    h, w = img.shape[:2]
    planes = img if img.ndim == 3 else img[:, :, None]
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    fx = xs - x0
    fy = ys - y0

    out = np.zeros(xs.shape + (planes.shape[2],), dtype=np.float64)
    for dy in (0, 1):
        for dx in (0, 1):
            xi = x0 + dx
            yi = y0 + dy
            weight = (fx if dx else 1.0 - fx) * (fy if dy else 1.0 - fy)
            inside = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
            xi_c = np.clip(xi, 0, w - 1)
            yi_c = np.clip(yi, 0, h - 1)
            vals = planes[yi_c, xi_c, :] * inside[..., None]
            out += weight[..., None] * vals
    return out if img.ndim == 3 else out[..., 0]


def warp_image(img: np.ndarray, transform: SimilarityTransform, out_height: int, out_width: int) -> np.ndarray:
    """Resample img so that out(p) = img(T^-1(p)), zero outside bounds."""
    inv = transform.inverse()
    oy, ox = np.mgrid[0:out_height, 0:out_width]
    src = inv.apply(np.stack([ox, oy], axis=-1).astype(np.float64))
    return _bilinear_sample(np.asarray(img, dtype=np.float64), src[..., 0], src[..., 1])


def warp_to_canonical(img: np.ndarray, transform: SimilarityTransform, frame: CanonicalFrame | None = None) -> np.ndarray:
    """Warp a source image into the canonical frame."""
    frame = frame or CanonicalFrame()
    return warp_image(img, transform, frame.height, frame.width)


def read_landmark_file(path) -> list[tuple[str, LandmarkSet]]:
    """Parse a landmark file: one 'media_path,x0,y0,...,x6,y6' record per line."""
    records: list[tuple[str, LandmarkSet]] = []
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 1 + 2 * NUM_LANDMARKS:
                raise ValueError(f"{path}:{line_no}: expected media path plus {2 * NUM_LANDMARKS} numbers")
            with naming(f"{path}:{line_no}"):
                coords = np.array([float(v) for v in parts[1:]], dtype=np.float64).reshape(NUM_LANDMARKS, 2)
            if not np.isfinite(coords).all():
                raise ValueError(f"{path}:{line_no}: a coordinate is NaN or inf")
            records.append((parts[0], LandmarkSet(coords)))
    return records

