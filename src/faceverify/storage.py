"""On-disk containers, and `write_file`, through which every artifact
the program writes reaches disk atomically.

Three little-endian binary formats, each opened by a four-byte magic:

  JVNT  network checkpoint: magic, version u32, length-prefixed text
        spec, then all parameters as float64 in layer order
        (conv: weights then bias; prelu: slopes; dense: weights then
        bias), each array flattened row-major.  The reader keeps in
        memory only the layers up to the feature layer.  It checks the
        bytes of every later layer (the classifier) as it reads past
        them, and that layer reads them again on its first use; if the
        file has changed in between, that use fails naming the file.
  JVFE  feature matrix: magic, dim u32, count u64, count*dim float32;
        a text sidecar at <path>.ids maps row -> media id, one per line.
        The sidecar is replaced first and the matrix last, so once a new
        matrix is visible its ids are too; between the two renames a
        reader can see new ids beside the old matrix.
  JVJB  joint Bayes model: magic, dim u32, M (dim^2), B (dim^2), b,
        all float64.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import struct
import sys
import zlib
from pathlib import Path

import numpy as np

from faceverify.linalg import check_finite_rows
from faceverify.metric import JointBayesModel
from faceverify.micronet.layers import Layer
from faceverify.micronet.network import LAYER_KINDS, Network

__all__ = [
    "open_text",
    "write_file",
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

# Bytes per read while the reader checks a layer past the feature layer.
_CHUNK = 1 << 20


def write_file(path, chunks) -> None:
    """Write the byte chunks to a new temp file in path's directory, then
    os.replace it over path.  On any exception, also one raised while
    the chunks are made, the temp file is deleted and path is left as
    it was.  The file gets mode 0o666 & ~umask, as open() gives a new
    file; a replaced file's mode is not kept.  No fsync: this guards
    against a crashed or killed process, not against power loss."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@contextlib.contextmanager
def open_text(path, newline=None):
    """Open path for reading as UTF-8 text.  Bytes that are not UTF-8,
    met anywhere while the block reads, fail as ValueError naming path."""
    with open(path, "r", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text") from exc


def _check_left(fh, size: int, path, what: str) -> None:
    """A size past the end of the file fails before any read, so a
    header that claims too much data allocates nothing."""
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError(f"{path}: truncated {what}")


def _read_exact(fh, size: int, path, what: str) -> bytes:
    _check_left(fh, size, path, what)
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(f"{path}: truncated {what}")
    return data


def _read_f8_into(fh, value: np.ndarray, path, what: str) -> None:
    """Fill a C-contiguous float64 array with value.size little-endian
    float64s read straight into its memory, with no bytes copy."""
    view = memoryview(value).cast("B")
    _check_left(fh, view.nbytes, path, what)
    if fh.readinto(view) != view.nbytes:
        raise ValueError(f"{path}: truncated {what}")
    if sys.byteorder == "big":
        value.byteswap(inplace=True)


def _check_finite(value: np.ndarray, path, layer: str, param: str) -> None:
    if not np.isfinite(value).all():
        raise ValueError(f"{path}: {layer} {param} holds NaN or inf")


def _expect_end(fh, path, what: str) -> None:
    if fh.read(1):
        raise ValueError(f"{path}: trailing bytes after {what}")


def _spec_to_text(net: Network) -> str:
    lines = [
        "input=" + ",".join(str(v) for v in net.input_shape),
        f"num_classes={net.num_classes}",
        f"input_mean={net.input_mean!r}",
    ]
    for layer in net.layers:
        parts = [f"layer={layer.kind}"]
        if layer.name:
            parts.append(f"name={layer.name}")
        parts += [f"{f}={getattr(layer, f)!r}" for f in layer.fields]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _layer_from_text(line: str) -> tuple[str, Layer]:
    pairs = [part.split("=", 1) for part in line.split(" ")]
    fields = dict(pairs)
    if len(fields) != len(pairs):
        raise ValueError(f"repeated key in {line!r}")
    kind, name = fields.pop("layer"), fields.pop("name", "")
    cls = LAYER_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown layer kind {kind!r}")
    if sorted(fields) != sorted(cls.fields):
        raise ValueError(f"layer {kind} takes fields {', '.join(cls.fields) or '(none)'}, got {line!r}")
    try:
        return name, cls(**{f: cls.fields[f](raw) for f, raw in fields.items()})
    except ValueError as exc:
        raise ValueError(f"layer {name or kind}: {exc}") from exc


def _net_from_text(text: str) -> Network:
    header: dict[str, str] = {}
    layers: list[tuple[str, Layer]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if eq and key == "layer":
            layers.append(_layer_from_text(line))
        elif eq and key in ("input", "num_classes", "input_mean"):
            if key in header:
                raise ValueError(f"repeated {key}= line: {line!r}")
            header[key] = value
        else:
            raise ValueError(f"unrecognized checkpoint spec line: {line!r}")
    if "input" not in header or "num_classes" not in header or not layers:
        raise ValueError("incomplete checkpoint spec text")
    input_mean = float(header.get("input_mean", 0.0))
    if not np.isfinite(input_mean):
        raise ValueError(f"input_mean {input_mean} is NaN or inf")
    net = Network(layers, tuple(int(v) for v in header["input"].split(",")), int(header["num_classes"]))
    net.input_mean = input_mean
    return net


def write_checkpoint(path, net: Network) -> None:
    spec_bytes = _spec_to_text(net).encode("utf-8")
    header = CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(spec_bytes)) + spec_bytes
    params = (np.ascontiguousarray(value, dtype="<f8").tobytes() for _, _, value, _, _ in net.param_items())
    write_file(path, itertools.chain([header], params))


def read_checkpoint(path) -> Network:
    """The network a checkpoint holds, with every parameter checked
    finite and the file's length checked exact.

    Parameters up to the feature layer are read into the net.  Those of
    each later layer are read past in _CHUNK-byte pieces and checked,
    and only their offset and crc32 are kept: `Network.features` never
    runs those layers, and the stock classifier is most of the file.
    The layer reads its bytes from path again on first use, through
    `Layer.load_params_with`, and that read fails naming the file if
    the file is not the one that was checked."""
    with open(path, "rb") as fh:
        if fh.read(4) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a network checkpoint")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, path, "header"))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        (spec_len,) = struct.unpack("<I", _read_exact(fh, 4, path, "header"))
        spec_bytes = _read_exact(fh, spec_len, path, "spec")
        try:
            net = _net_from_text(spec_bytes.decode("utf-8"))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        # a layer too large for the file fails here, before any allocation
        sizes = [math.prod(shape) for layer in net.layers for shape in layer.param_shapes()]
        _check_left(fh, 8 * sum(sizes), path, "parameter data")
        for index, layer in enumerate(net.layers):
            if index <= net.feature_index:
                for name, value, _, _ in layer.param_items():
                    _read_f8_into(fh, value, path, "parameter data")
                    _check_finite(value, path, layer.name, name)
            elif layer.params:
                layer.load_params_with(_read_past(fh, path, layer))
        _expect_end(fh, path, "parameters")
    return net


def _read_past(fh, path, layer: Layer):
    """Check a layer's parameter bytes at fh's position in pieces, keep
    none of them, and return the loader that reads them from path again
    (checking the file's size, every value and the crc32 of the bytes)."""
    offset, size, crc = fh.tell(), os.fstat(fh.fileno()).st_size, 0
    names, shapes = list(layer.params), layer.param_shapes()
    piece = memoryview(bytearray(_CHUNK))
    for name, shape in zip(names, shapes):
        left = 8 * math.prod(shape)
        while left:
            view = piece[: min(left, _CHUNK)]
            if fh.readinto(view) != len(view):
                raise ValueError(f"{path}: truncated parameter data")
            _check_finite(np.frombuffer(view, dtype="<f8"), path, layer.name, name)
            crc = zlib.crc32(view, crc)
            left -= len(view)
    where = os.path.abspath(path)  # the same file whatever the working directory is by then

    def load() -> list[np.ndarray]:
        changed = f"{path}: changed since it was read, so {layer.name} cannot load its parameters"
        values = [np.empty(shape) for shape in shapes]
        got = 0
        with open(where, "rb") as fh:
            if os.fstat(fh.fileno()).st_size != size:
                raise ValueError(changed)
            fh.seek(offset)
            for name, value in zip(names, values):
                _read_f8_into(fh, value, path, "parameter data")
                _check_finite(value, path, layer.name, name)
                got = zlib.crc32(np.ascontiguousarray(value, dtype="<f8"), got)
        if got != crc:
            raise ValueError(changed)
        return values

    return load


def _ids_path(path) -> Path:
    return Path(str(path) + ".ids")


def write_features(path, features: np.ndarray, media_ids: list[str]) -> None:
    features = np.asarray(features)
    if features.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got shape {features.shape}")
    if features.shape[0] != len(media_ids):
        raise ValueError("row count does not match id count")
    for row, m in enumerate(media_ids):
        if not m or "\n" in m or "\r" in m:
            raise ValueError(f"{path}: media id {m!r} of row {row} is empty or holds a line break")
    write_file(_ids_path(path), ["".join(m + "\n" for m in media_ids).encode("utf-8")])
    header = FEATURE_MAGIC + struct.pack("<IQ", features.shape[1], features.shape[0])
    write_file(path, [header, np.ascontiguousarray(features, dtype="<f4").tobytes()])


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
    with open_text(_ids_path(path)) as fh:
        media_ids = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
    if len(media_ids) != count:
        raise ValueError(f"{path}: sidecar lists {len(media_ids)} ids for {count} rows")
    return feats, media_ids


def write_metric_model(path, model: JointBayesModel) -> None:
    values = [np.ascontiguousarray(v, dtype="<f8").tobytes() for v in (model.M, model.B, [model.b])]
    write_file(path, [METRIC_MAGIC + struct.pack("<I", model.dim), *values])


def read_metric_model(path) -> JointBayesModel:
    with open(path, "rb") as fh:
        if fh.read(4) != METRIC_MAGIC:
            raise ValueError(f"{path}: not a joint Bayes model file")
        (d,) = struct.unpack("<I", _read_exact(fh, 4, path, "header"))
        values = np.frombuffer(_read_exact(fh, (2 * d * d + 1) * 8, path, "model data"), dtype="<f8")
        _expect_end(fh, path, "model data")
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: model data holds NaN or inf")
    m, b_mat = values[: 2 * d * d].reshape(2, d, d).copy()
    return JointBayesModel(m, b_mat, float(values[-1]))
