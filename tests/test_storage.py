import ast
import os
import re
import struct
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from conftest import net_outline, replace_spec_text
from faceverify.linalg import make_rng
from faceverify.metric import init_model
from faceverify.micronet import build_face_net
from faceverify.storage import (
    read_checkpoint,
    read_features,
    read_metric_model,
    write_checkpoint,
    write_features,
    write_file,
    write_metric_model,
)

GOLDEN = Path(__file__).parent / "golden"

# The stock net, and the width/4 toy net that the training tests use on 32x32 images.
GOLDEN_NETS = {
    "stock": {},
    "toy": dict(num_classes=10, input_size=32, width_divisor=4, dtype=np.float32),
}


def layers_by_name(net) -> dict:
    return {layer.name: layer for layer in net.layers}


def spec_text(path) -> str:
    """The text spec of a checkpoint, read from its header."""
    data = Path(path).read_bytes()
    (spec_len,) = struct.unpack_from("<I", data, 8)
    return data[12 : 12 + spec_len].decode("utf-8")


class TestCheckpoint:
    def test_roundtrip_preserves_everything(self, tmp_path):
        net = build_face_net(num_classes=6, input_size=16, width_divisor=8)
        net.initialize(make_rng(0), 0.1)
        net.input_mean = 0.4375
        path = tmp_path / "model.jvnt"
        write_checkpoint(path, net)
        back = read_checkpoint(path)

        assert net_outline(back) == net_outline(net)
        assert back.input_mean == net.input_mean
        for (l1, n1, v1, _, _), (l2, n2, v2, _, _) in zip(net.param_items(), back.param_items()):
            npt.assert_array_equal(v1, v2)

    def test_records_the_current_field_values_of_each_layer(self, tmp_path):
        # a field set after construction is the value the layer computes
        # with, so it is the value the checkpoint must record
        net = build_face_net(num_classes=4, input_size=16, width_divisor=8)
        layer = layers_by_name(net)
        layer["dropout"].rate = 0.1
        layer["norm1"].alpha = 0.002
        layer["norm2"].k = 1.5
        path = tmp_path / "model.jvnt"
        write_checkpoint(path, net)
        assert "name=dropout rate=0.1" in spec_text(path)
        back = read_checkpoint(path)
        assert net_outline(back) == net_outline(net)
        for before, after in zip(net.layers, back.layers, strict=True):
            assert {f: getattr(after, f) for f in after.fields} == {f: getattr(before, f) for f in before.fields}

    def test_roundtrip_forward_identical(self, tmp_path):
        net = build_face_net(num_classes=4, input_size=16, width_divisor=8)
        net.initialize(make_rng(1), 0.1)
        path = tmp_path / "model.jvnt"
        write_checkpoint(path, net)
        back = read_checkpoint(path)
        x = make_rng(2).random((2, 16, 16, 1))
        npt.assert_array_equal(net.features(x), back.features(x))

    def test_fresh_read_gradients_are_zero(self, tmp_path):
        net = build_face_net(num_classes=4, input_size=16, width_divisor=8)
        net.initialize(make_rng(4), 0.1)
        path = tmp_path / "model.jvnt"
        write_checkpoint(path, net)
        items = list(read_checkpoint(path).param_items())
        assert len(items) == 31  # weights and bias of ten convs and fc6, nine PReLU slopes
        for _, name, value, grad, _ in items:
            assert grad.shape == value.shape and grad.dtype == np.float64, name
            assert not grad.any(), name

    def test_float32_net_serializes_as_float64(self, tmp_path):
        net = build_face_net(num_classes=4, input_size=16, width_divisor=8, dtype=np.float32)
        net.initialize(make_rng(3), 0.1)
        path = tmp_path / "model.jvnt"
        write_checkpoint(path, net)
        back = read_checkpoint(path)
        for (_, _, v1, _, _), (_, _, v2, _, _) in zip(net.param_items(), back.param_items()):
            npt.assert_allclose(v1, v2, atol=0)  # exact: f32 embeds in f64

    @pytest.mark.parametrize("name", sorted(GOLDEN_NETS))
    def test_spec_text_matches_golden(self, tmp_path, name):
        net = build_face_net(**GOLDEN_NETS[name])
        net.input_mean = 0.4375
        path = tmp_path / "model.jvnt"
        write_checkpoint(path, net)
        assert spec_text(path) == (GOLDEN / f"checkpoint_spec_{name}.txt").read_text(encoding="utf-8")
        assert net_outline(read_checkpoint(path)) == net_outline(net)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("layer=maxpool2x2s2 name=pool1", "layer=maxpool2x2s2 name=pool1 rate=0.5"),  # field of another kind
            ("name=conv11 in_channels=1 out_channels=8", "name=conv11 in=1 out=8"),  # no key aliases
            ("name=conv11 in_channels=1", "name=conv11 in_channels=1 in_channels=1"),  # repeated key
            ("name=fc6 in_channels=80", "name=fc6 widths=80"),  # unknown key
            ("name=norm1 size=5 alpha=0.0001", "name=norm1 alpha=0.0001"),  # missing field
            ("layer=dropout", "layer=dropblock"),  # unknown kind
            ("in_channels=1 out_channels=8", "in_channels=3000000 out_channels=3000000"),  # too large to allocate
            ("input_mean=0.0", "input_mean=nan"),
            ("input_mean=0.0", "input_mean=-inf"),
            # a repeated header line would silently override the first
            ("input=32,32,1", "input=32,32,1\ninput=6,6,1"),
            ("num_classes=10", "num_classes=10\nnum_classes=10"),
            ("input_mean=0.0", "input_mean=0.0\ninput_mean=0.5"),
            # each of these LRN fields loaded before, and extract wrote NaN
            # features or failed naming no file
            ("name=norm1 size=5", "name=norm1 size=-1"),
            ("name=norm1 size=5", "name=norm1 size=0"),
            ("alpha=0.0001", "alpha=nan"),
            ("alpha=0.0001", "alpha=-1e9"),
            ("alpha=0.0001", "alpha=inf"),
            ("beta=0.75", "beta=inf"),
            ("beta=0.75", "beta=nan"),
            ("k=1.0", "k=-1.0"),
            ("k=1.0", "k=0.0"),
            ("k=1.0", "k=inf"),
        ],
    )
    def test_bad_spec_line_names_file(self, tmp_path, old, new):
        net = build_face_net(**GOLDEN_NETS["toy"])
        path = tmp_path / "model.jvnt"
        write_checkpoint(path, net)
        replace_spec_text(path, old, new)
        with pytest.raises(ValueError, match="model.jvnt"):
            read_checkpoint(path)

    @pytest.mark.parametrize("layer, param, value", [
        *(pytest.param("conv12", "weights", v, id=str(v)) for v in (np.nan, np.inf, -np.inf)),
        # fc6 sits past the feature layer: its bytes are checked, not kept
        *(pytest.param("fc6", p, v, id=f"fc6-{p}-{v}") for p in ("weights", "bias") for v in (np.nan, np.inf, -np.inf)),
    ])
    def test_non_finite_parameter_names_file_and_layer(self, tmp_path, layer, param, value):
        net = build_face_net(num_classes=4, input_size=16, width_divisor=8)
        getattr(layers_by_name(net)[layer], param).flat[3] = value
        path = tmp_path / "model.jvnt"
        write_checkpoint(path, net)
        with pytest.raises(ValueError, match=f"model.jvnt: {layer} {param} holds NaN or inf"):
            read_checkpoint(path)

    def test_magic_enforced(self, tmp_path):
        path = tmp_path / "junk.jvnt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="checkpoint"):
            read_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        net = build_face_net(num_classes=4, input_size=16, width_divisor=8)
        path = tmp_path / "model.jvnt"
        write_checkpoint(path, net)
        data = path.read_bytes()
        path.write_bytes(data[:-16])  # inside fc6's bias
        with pytest.raises(ValueError, match="truncated"):
            read_checkpoint(path)

    @pytest.mark.parametrize("cut", [4 * 8 + 8 * 20, 4 * 8 + 40 * 4 + 8], ids=["fc6-weights", "conv52"])
    def test_truncation_elsewhere_names_the_file(self, tmp_path, cut):
        net = build_face_net(num_classes=4, input_size=16, width_divisor=8)
        path = tmp_path / "model.jvnt"
        write_checkpoint(path, net)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ValueError, match="model.jvnt: truncated parameter data"):
            read_checkpoint(path)

    def test_trailing_bytes_after_the_classifier_rejected(self, tmp_path):
        net = build_face_net(num_classes=4, input_size=16, width_divisor=8)
        path = tmp_path / "model.jvnt"
        write_checkpoint(path, net)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ValueError, match="model.jvnt: trailing bytes after parameters"):
            read_checkpoint(path)

    def test_layer_too_large_for_the_file_fails_before_allocating(self, tmp_path):
        # the channels chain, so only the file's size can reject it
        net = build_face_net(num_classes=4, input_size=16, width_divisor=8)
        path = tmp_path / "model.jvnt"
        write_checkpoint(path, net)
        replace_spec_text(path, "input=16,16,1", "input=16,16,3000000")
        replace_spec_text(path, "name=conv11 in_channels=1", "name=conv11 in_channels=3000000")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="model.jvnt: truncated parameter data"):
                read_checkpoint(path)
            assert tracemalloc.get_traced_memory()[1] < 2e6
        finally:
            tracemalloc.stop()

    def test_fc6_in_channels_that_pool5_does_not_give_names_file_and_layer(self, tmp_path):
        net = build_face_net(num_classes=4, input_size=16, width_divisor=8)
        path = tmp_path / "model.jvnt"
        write_checkpoint(path, net)
        replace_spec_text(path, "name=fc6 in_channels=40", "name=fc6 in_channels=2")
        with pytest.raises(ValueError, match="model.jvnt: layer fc6 takes 2 channels, but 40 reach it"):
            read_checkpoint(path)

    @pytest.mark.parametrize("layer", ["norm1", "norm2"])
    def test_bad_layer_field_names_file_and_layer(self, tmp_path, layer):
        net = build_face_net(num_classes=4, input_size=16, width_divisor=8)
        path = tmp_path / "model.jvnt"
        write_checkpoint(path, net)
        replace_spec_text(path, f"name={layer} size=5 alpha=0.0001", f"name={layer} size=5 alpha=-1.0")
        with pytest.raises(ValueError, match=f"model.jvnt: layer {layer}: lrn alpha must be a finite number >= 0"):
            read_checkpoint(path)


class TestDeferredClassifier:
    """read_checkpoint checks fc6's bytes but keeps none of them; fc6
    reads them again from the file on its first use."""

    @pytest.fixture
    def saved(self, tmp_path):
        net = build_face_net(num_classes=6, input_size=16, width_divisor=8)
        net.initialize(make_rng(5), 0.1)
        path = tmp_path / "model.jvnt"
        write_checkpoint(path, net)
        return net, path

    def test_read_holds_no_classifier_array(self, tmp_path):
        # fc6 of 40 x 20000 is 6.4 MB, and twice that with its gradient
        net = build_face_net(num_classes=20000, width_divisor=8)
        path = tmp_path / "big.jvnt"
        write_checkpoint(path, net)
        tracemalloc.start()
        try:
            read_checkpoint(path)
            assert tracemalloc.get_traced_memory()[1] < 2e6
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("first_use", ["attribute", "param_items", "forward", "write_checkpoint", "initialize"])
    def test_every_read_path_loads_the_saved_values(self, saved, tmp_path, first_use):
        net, path = saved
        back = read_checkpoint(path)
        fc6 = layers_by_name(back)["fc6"]
        want = layers_by_name(net)["fc6"]
        x = make_rng(6).random((2, 16, 16, 1))
        if first_use == "attribute":
            fc6.bias
        elif first_use == "param_items":
            assert [value.tobytes() for layer, _, value, _, _ in back.param_items() if layer is fc6] == [
                want.weights.tobytes(), want.bias.tobytes()]
        elif first_use == "forward":
            assert back.forward(x)[-1].tobytes() == net.forward(x)[-1].tobytes()
        elif first_use == "write_checkpoint":
            write_checkpoint(tmp_path / "again.jvnt", back)
            assert (tmp_path / "again.jvnt").read_bytes() == path.read_bytes()
        else:  # loaded first, so a later use cannot put the saved values back
            back.initialize(make_rng(7), 0.1)
            fresh = build_face_net(num_classes=6, input_size=16, width_divisor=8)
            fresh.initialize(make_rng(7), 0.1)
            want = layers_by_name(fresh)["fc6"]
        assert fc6.weights.tobytes() == want.weights.tobytes() and fc6.bias.tobytes() == want.bias.tobytes()
        assert fc6.grad_weights.shape == fc6.weights.shape and not fc6.grad_weights.any()

    @pytest.mark.parametrize("change", ["replaced", "truncated", "rewritten-in-place", "extended", "nan-in-place"])
    def test_file_changed_before_first_use_fails_naming_it(self, saved, change):
        net, path = saved
        back = read_checkpoint(path)
        data = bytearray(path.read_bytes())
        if change == "replaced":
            other = build_face_net(num_classes=6, input_size=16, width_divisor=8)
            other.initialize(make_rng(8), 0.1)
            write_checkpoint(path, other)
        elif change == "truncated":
            path.write_bytes(data[:-8])
        elif change == "extended":
            path.write_bytes(data + bytes(8))
        else:  # the same inode and size: one bit of fc6's weights flipped, or a NaN bias
            if change == "rewritten-in-place":
                data[-60] ^= 1
            else:
                data[-8:] = np.float64(np.nan).tobytes()
            with open(path, "r+b") as fh:
                fh.write(data)
        fc6 = layers_by_name(back)["fc6"]
        for _ in range(2):  # a failed load is tried again, never replaced by zeros
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
                fc6.weights
        with pytest.raises(ValueError, match=re.escape(str(path))):
            list(back.param_items())
        x = make_rng(6).random((1, 16, 16, 1))
        assert back.features(x).tobytes() == net.features(x).tobytes()  # the layers up to pool5 are in memory

    def test_two_threads_first_use_gets_the_same_arrays(self, saved):
        net, path = saved
        for _ in range(20):
            fc6 = layers_by_name(read_checkpoint(path))["fc6"]
            start = threading.Barrier(2)

            def first_use():
                start.wait()
                return fc6.weights, fc6.bias

            with ThreadPoolExecutor(2) as pool:
                (w1, b1), (w2, b2) = pool.map(lambda _: first_use(), range(2))
            assert w1 is w2 and b1 is b2
            assert w1.tobytes() == layers_by_name(net)["fc6"].weights.tobytes()


class TestFeatures:
    def test_roundtrip(self, tmp_path):
        rng = make_rng(4)
        feats = rng.standard_normal((5, 8)).astype(np.float32)
        ids = [f"media/{k}.pgm" for k in range(5)]
        path = tmp_path / "f.jvfe"
        write_features(path, feats, ids)
        back, back_ids = read_features(path)
        assert back.dtype == np.float64
        npt.assert_array_equal(back, feats.astype(np.float64))
        assert back_ids == ids

    def test_float64_input_narrowed_to_f32_on_disk(self, tmp_path):
        feats = np.array([[1 / 3, 2 / 3]])
        path = tmp_path / "f.jvfe"
        write_features(path, feats, ["a"])
        back, _ = read_features(path)
        npt.assert_array_equal(back, feats.astype(np.float32).astype(np.float64))

    def test_id_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_features(tmp_path / "f.jvfe", np.zeros((2, 3)), ["only-one"])

    def test_sidecar_mismatch_detected(self, tmp_path):
        path = tmp_path / "f.jvfe"
        write_features(path, np.zeros((2, 3)), ["a", "b"])
        (tmp_path / "f.jvfe.ids").write_text("a\n")
        with pytest.raises(ValueError, match="sidecar"):
            read_features(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "f.jvfe"
        write_features(path, np.zeros((2, 3)), ["a", "b"])
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(ValueError, match="f.jvfe: trailing bytes"):
            read_features(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = tmp_path / "f.jvfe"
        feats = np.ones((3, 2))
        feats[1, 0] = value
        write_features(path, feats, ["a", "b", "c"])
        with pytest.raises(ValueError, match="f.jvfe: row 1 holds NaN or inf"):
            read_features(path)

    @pytest.mark.parametrize("ids, row", [(["", "b"], 0), (["a\nq", "b"], 0), (["a", "b\r"], 1), (["a", "b", ""], 2)])
    def test_bad_media_id_rejected_before_any_write(self, tmp_path, ids, row):
        path = tmp_path / "f.jvfe"
        write_features(path, np.zeros((len(ids), 2)), [f"old{k}" for k in range(len(ids))])
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ValueError, match=f"f.jvfe: media id .* of row {row} is empty or holds a line break"):
            write_features(path, np.ones((len(ids), 2)), ids)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_sidecar_replaced_before_matrix(self, tmp_path, monkeypatch):
        replaced = []
        real_replace = os.replace

        def record(src, dst):
            replaced.append(Path(dst).name)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", record)
        write_features(tmp_path / "f.jvfe", np.zeros((2, 3)), ["a", "b"])
        assert replaced == ["f.jvfe.ids", "f.jvfe"]

    def test_magic_enforced(self, tmp_path):
        path = tmp_path / "bad.jvfe"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError, match="feature"):
            read_features(path)


@pytest.mark.parametrize("name, header, read, what", [
    ("f.jvfe", b"JVFE" + struct.pack("<IQ", 2**31, 2**40), read_features, "feature data"),
    ("f.jvfe", b"JVFE" + struct.pack("<IQ", 4, 2**40), read_features, "feature data"),
    ("m.jvjb", b"JVJB" + struct.pack("<I", 2**31), read_metric_model, "model data"),
    ("n.jvnt", b"JVNT" + struct.pack("<II", 1, 2**32 - 1), read_checkpoint, "spec"),
], ids=["features-2^31-dim", "features-2^40-rows", "metric-2^31-dim", "checkpoint-4GiB-spec"])
def test_header_claiming_more_than_the_file_holds(tmp_path, name, header, read, what):
    # 2^40 rows would ask for terabytes: the claim is checked against
    # the file's size before anything is read or allocated
    path = tmp_path / name
    path.write_bytes(header + bytes(64))
    with pytest.raises(ValueError) as info:
        read(path)
    assert str(info.value) == f"{path}: truncated {what}"


class TestMetricModel:
    def test_roundtrip_exact(self, tmp_path):
        model = init_model(6, make_rng(5))
        model.b = -0.125
        path = tmp_path / "m.jvjb"
        write_metric_model(path, model)
        back = read_metric_model(path)
        npt.assert_array_equal(back.M, model.M)
        npt.assert_array_equal(back.B, model.B)
        assert back.b == model.b

    @pytest.mark.parametrize("field", ["M", "B", "b"])
    def test_non_finite_value_names_file(self, tmp_path, field):
        model = init_model(3, make_rng(5))
        if field == "b":
            model.b = np.nan
        else:
            getattr(model, field)[2, 1] = np.inf
        path = tmp_path / "m.jvjb"
        write_metric_model(path, model)
        with pytest.raises(ValueError, match="m.jvjb: model data holds NaN or inf"):
            read_metric_model(path)

    def test_magic_enforced(self, tmp_path):
        path = tmp_path / "bad.jvjb"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError, match="model"):
            read_metric_model(path)

    @pytest.mark.parametrize("cut", [1, 8, 100])
    def test_truncation_names_file(self, tmp_path, cut):
        path = tmp_path / "m.jvjb"
        write_metric_model(path, init_model(4, make_rng(6)))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ValueError, match="m.jvjb: truncated"):
            read_metric_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.jvjb"
        write_metric_model(path, init_model(4, make_rng(6)))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="m.jvjb: trailing bytes"):
            read_metric_model(path)

    def test_byte_identical_rewrite(self, tmp_path):
        model = init_model(4, make_rng(6))
        p1, p2 = tmp_path / "a.jvjb", tmp_path / "b.jvjb"
        write_metric_model(p1, model)
        write_metric_model(p2, model)
        assert p1.read_bytes() == p2.read_bytes()


class TestWriteFile:
    def test_writes_chunks_in_order(self, tmp_path):
        path = tmp_path / "out.bin"
        write_file(path, [b"ab", b"", memoryview(b"cd")])
        assert path.read_bytes() == b"abcd"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_failure_midway_keeps_old_target(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old contents")

        def chunks():
            yield b"new "
            raise RuntimeError("chunk failed")

        with pytest.raises(RuntimeError, match="chunk failed"):
            write_file(path, chunks())
        assert path.read_bytes() == b"old contents"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_missing_directory_names_the_target(self, tmp_path):
        with pytest.raises(FileNotFoundError, match=r"nodir/\.out\.bin\.[0-9a-f]+\.tmp"):
            write_file(tmp_path / "nodir" / "out.bin", [b"x"])

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077, 0o002], ids=oct)
    def test_new_file_mode_follows_umask(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            write_file(tmp_path / "out.bin", [b"x"])
        finally:
            os.umask(old)
        assert (tmp_path / "out.bin").stat().st_mode & 0o777 == 0o666 & ~umask


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "faceverify"


def _file_writes(path: Path) -> list[str]:
    """'line: call' for every call in the file that opens a file to write
    (an open() whose mode has w, a or x, or is not a literal) or writes
    a whole file (Path.write_text, Path.write_bytes, ndarray.tofile)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else ""
        if name in ("write_text", "write_bytes", "tofile"):
            found.append(f"{node.lineno}: {name}")
        elif name in ("open", "fdopen"):
            # the mode is the second argument of open(), io.open() and
            # os.fdopen(), the first of Path.open()
            on_path = isinstance(func, ast.Attribute) and ast.unparse(func.value) not in ("io", "os")
            modes = node.args[0 if on_path else 1 :][:1] + [k.value for k in node.keywords if k.arg == "mode"]
            if any(not (isinstance(m, ast.Constant) and not set("wax") & set(str(m.value))) for m in modes):
                found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_only_storage_writes_files():
    """Every artifact reaches disk through storage.write_file, so only
    the storage module opens a file for writing."""
    writes = {str(path.relative_to(PACKAGE)): _file_writes(path) for path in sorted(PACKAGE.rglob("*.py"))}
    assert {name: found for name, found in writes.items() if found} == {"storage.py": writes["storage.py"]}
    assert writes["storage.py"]  # the scan does see write_file's own open()
