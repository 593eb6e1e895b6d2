"""On-disk containers.

Three little-endian binary formats, each opened by a four-byte magic:

  JVNT  network checkpoint: magic, version u32, length-prefixed text
        spec, then all parameters as float64 in layer order
        (conv: weights then bias; prelu: slopes; dense: weights then
        bias), each array flattened row-major.
  JVFE  feature matrix: magic, dim u32, count u64, count*dim float32;
        a text sidecar at <path>.ids maps row -> media id, one per line.
  JVJB  joint Bayes model: magic, dim u32, M (dim^2), B (dim^2), b,
        all float64.
"""

from __future__ import annotations

import struct
import typing
from dataclasses import replace
from pathlib import Path

import numpy as np

from faceverify.linalg import check_finite_rows
from faceverify.metric import JointBayesModel
from faceverify.micronet.network import LAYER_KINDS, LayerSpec, Network, NetworkSpec

__all__ = [
    "write_checkpoint",
    "read_checkpoint",
    "write_features",
    "read_features",
    "write_metric_model",
    "read_metric_model",
]

CHECKPOINT_MAGIC = b"JVNT"
CHECKPOINT_VERSION = 1
FEATURE_MAGIC = b"JVFE"
METRIC_MAGIC = b"JVJB"

_FIELD_TYPES = typing.get_type_hints(LayerSpec)


def _read_exact(fh, size: int, path, what: str) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(f"{path}: truncated {what}")
    return data


def _expect_end(fh, path, what: str) -> None:
    if fh.read(1):
        raise ValueError(f"{path}: trailing bytes after {what}")


def _spec_to_text(net: Network) -> str:
    lines = [
        "input=" + ",".join(str(v) for v in net.spec.input_shape),
        f"num_classes={net.spec.num_classes}",
        f"input_mean={net.input_mean!r}",
    ]
    for spec in net.spec.layers:
        parts = [f"layer={spec.kind}"]
        if spec.name:
            parts.append(f"name={spec.name}")
        for f in LAYER_KINDS[spec.kind].fields:
            parts.append(f"{f}={getattr(spec, f)!r}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _layer_from_text(line: str) -> LayerSpec:
    pairs = [part.split("=", 1) for part in line.split(" ")]
    fields = dict(pairs)
    if len(fields) != len(pairs):
        raise ValueError(f"repeated key in {line!r}")
    spec = LayerSpec(fields.pop("layer"), name=fields.pop("name", ""))
    expected = LAYER_KINDS[spec.kind].fields
    if sorted(fields) != sorted(expected):
        raise ValueError(f"layer {spec.kind} takes fields {', '.join(expected) or '(none)'}, got {line!r}")
    return replace(spec, **{f: _FIELD_TYPES[f](raw) for f, raw in fields.items()})


def _spec_from_text(text: str) -> tuple[NetworkSpec, float]:
    input_shape = None
    num_classes = None
    input_mean = 0.0
    layers: list[LayerSpec] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("input="):
            input_shape = tuple(int(v) for v in line.split("=", 1)[1].split(","))
        elif line.startswith("num_classes="):
            num_classes = int(line.split("=", 1)[1])
        elif line.startswith("input_mean="):
            input_mean = float(line.split("=", 1)[1])
        elif line.startswith("layer="):
            layers.append(_layer_from_text(line))
        else:
            raise ValueError(f"unrecognized checkpoint spec line: {line!r}")
    if input_shape is None or num_classes is None or not layers:
        raise ValueError("incomplete checkpoint spec text")
    return NetworkSpec(tuple(layers), input_shape, num_classes), input_mean


def write_checkpoint(path, net: Network) -> None:
    spec_bytes = _spec_to_text(net).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(spec_bytes)))
        fh.write(spec_bytes)
        for _, _, value, _, _ in net.param_items():
            fh.write(np.ascontiguousarray(value, dtype="<f8").tobytes())


def read_checkpoint(path) -> Network:
    with open(path, "rb") as fh:
        if fh.read(4) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a network checkpoint")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, path, "header"))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        (spec_len,) = struct.unpack("<I", _read_exact(fh, 4, path, "header"))
        spec_bytes = _read_exact(fh, spec_len, path, "spec")
        try:
            spec, input_mean = _spec_from_text(spec_bytes.decode("utf-8"))
            net = Network(spec)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        net.input_mean = input_mean
        for _, _, value, _, _ in net.param_items():
            raw = _read_exact(fh, value.size * 8, path, "parameter data")
            value[...] = np.frombuffer(raw, dtype="<f8").reshape(value.shape)
        _expect_end(fh, path, "parameters")
    return net


def _ids_path(path) -> Path:
    return Path(str(path) + ".ids")


def write_features(path, features: np.ndarray, media_ids: list[str]) -> None:
    features = np.asarray(features)
    if features.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got shape {features.shape}")
    if features.shape[0] != len(media_ids):
        raise ValueError("row count does not match id count")
    count, dim = features.shape
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<I", dim))
        fh.write(struct.pack("<Q", count))
        fh.write(np.ascontiguousarray(features, dtype="<f4").tobytes())
    with open(_ids_path(path), "w", encoding="utf-8") as fh:
        for m in media_ids:
            fh.write(m + "\n")


def read_features(path) -> tuple[np.ndarray, list[str]]:
    """Returns (float64 matrix, media ids); values are float32 on disk."""
    with open(path, "rb") as fh:
        if fh.read(4) != FEATURE_MAGIC:
            raise ValueError(f"{path}: not a feature file")
        dim, count = struct.unpack("<IQ", _read_exact(fh, 12, path, "header"))
        raw = _read_exact(fh, count * dim * 4, path, "feature data")
        _expect_end(fh, path, "feature data")
        feats = np.frombuffer(raw, dtype="<f4").reshape(count, dim).astype(np.float64)
    check_finite_rows(feats, f"{path}:")
    with open(_ids_path(path), "r", encoding="utf-8") as fh:
        media_ids = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
    if len(media_ids) != count:
        raise ValueError(f"{path}: sidecar lists {len(media_ids)} ids for {count} rows")
    return feats, media_ids


def write_metric_model(path, model: JointBayesModel) -> None:
    d = model.dim
    with open(path, "wb") as fh:
        fh.write(METRIC_MAGIC)
        fh.write(struct.pack("<I", d))
        fh.write(np.ascontiguousarray(model.M, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.B, dtype="<f8").tobytes())
        fh.write(struct.pack("<d", model.b))


def read_metric_model(path) -> JointBayesModel:
    with open(path, "rb") as fh:
        if fh.read(4) != METRIC_MAGIC:
            raise ValueError(f"{path}: not a joint Bayes model file")
        (d,) = struct.unpack("<I", _read_exact(fh, 4, path, "header"))
        values = np.frombuffer(_read_exact(fh, (2 * d * d + 1) * 8, path, "model data"), dtype="<f8")
        _expect_end(fh, path, "model data")
    m, b_mat = values[: 2 * d * d].reshape(2, d, d).copy()
    return JointBayesModel(m, b_mat, float(values[-1]))
