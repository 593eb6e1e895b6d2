"""Byte identity of the program's artifacts.

Fixed runs write their files under fixed relative paths (so that
`config.resolved.ini` does not name a temp directory), and the SHA-256
of every file they write must equal golden/artifact_digests.json:

- `report` with the default config and with the benchmark's two report
  configs (perfbench.inputs.write_report_config);
- a few iterations of toy `train-cnn --float32 --width-divisor 4`;
- `align` + `extract` of a few faces through a stock-shape float64 net
  with seeded random weights;
- features of a few 32x32 images through a float32 width/4 net with
  seeded random weights (the CLI reads every checkpoint as float64, so
  this run pins the float32 eval path through the API).

Float sums depend on the order of their terms, so a change that
reorders one changes some file here.  The digests may also depend on
the CPU kernel that OpenBLAS picks; a mismatch names the numpy and
OpenBLAS versions beside the ones the golden was written with.

To rewrite the golden after a deliberate change of outputs:
    PYTHONPATH=src:. python tests/test_artifact_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import make_blob_images
from faceverify import pnm, storage
from faceverify.cli import main
from faceverify.micronet import build_face_net, extract_features
from perfbench import inputs as bench_inputs

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "artifact_digests.json"
FACES = ("face000.pgm", "face004.pgm", "face009.pgm")


def _cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(list(argv))
    assert rc == 0, argv


def run_report_default() -> Path:
    _cli("report", "--out-dir", "out")
    return Path("out")


def _run_report_bench(workload: str) -> Path:
    bench_inputs.write_report_config(Path("config.ini"), workload, 0)
    _cli("report", "--config", "config.ini", "--out-dir", "out")
    return Path("out")


def run_train_cnn() -> Path:
    images, labels = make_blob_images(n=64, seed=5)
    Path("images").mkdir()
    rows = []
    for k, (img, label) in enumerate(zip(images, labels)):
        pnm.write_pnm(Path("images") / f"b{k:02d}.pgm", img[:, :, 0])
        rows.append(f"b{k:02d}.pgm,c{label}\n")
    Path("labels.csv").write_text("".join(rows), encoding="utf-8")
    Path("out").mkdir()
    _cli("train-cnn", "--manifest", "labels.csv", "--images-root", "images", "--out", "out/toy.jvnt",
         "--float32", "--width-divisor", "4", "--batch-size", "16", "--iters", "3", "--lr", "0.1", "--hflip",
         "--seed", "2")
    return Path("out")


def run_align_extract() -> Path:
    bench_inputs.write_faces(Path("."), seed=3)
    Path("list.txt").write_text("".join(f"{name}\n" for name in FACES), encoding="utf-8")
    Path("out").mkdir()
    bench_inputs.write_random_checkpoint(Path("out/stock.jvnt"), build_face_net(num_classes=10), seed=7)
    _cli("align", "--landmarks", "landmarks.csv", "--images", "raw", "--out", "out/aligned")
    _cli("extract", "--model", "out/stock.jvnt", "--images", "out/aligned", "--list", "list.txt",
         "--out", "out/features.jvfe")
    return Path("out")


def run_extract_float32() -> Path:
    net = build_face_net(num_classes=10, input_size=32, width_divisor=4, dtype=np.float32)
    bench_inputs.write_random_checkpoint(Path("toy.jvnt"), net, seed=11)
    images, _ = make_blob_images(n=6, seed=12)
    Path("out").mkdir()
    storage.write_features(Path("out/features.jvfe"), extract_features(net, images), [f"b{k}" for k in range(6)])
    return Path("out")


RUNS = {
    "report-default": run_report_default,
    "report-verify_d320": lambda: _run_report_bench("verify_d320"),
    "report-verify_hard_d32": lambda: _run_report_bench("verify_hard_d32"),
    "train-cnn": run_train_cnn,
    "align-extract": run_align_extract,
    "extract-float32": run_extract_float32,
}


def digests(out: Path) -> dict[str, str]:
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def versions() -> dict[str, str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        openblas = "unknown"
    return {"blas": openblas, "numpy": np.__version__}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_artifacts_match_golden(name, tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    got = digests(RUNS[name]())
    want = golden["digests"][name]
    differ = sorted(f for f in set(got) | set(want) if got.get(f) != want.get(f))
    assert not differ, (
        f"{name}: {len(differ)} of {len(want)} files differ from the golden: {', '.join(differ)}. "
        f"Golden written with {golden['versions']}; this run has {versions()}."
    )


if __name__ == "__main__":
    import tempfile

    record = {"versions": versions(), "digests": {}}
    for name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            record["digests"][name] = digests(RUNS[name]())
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
