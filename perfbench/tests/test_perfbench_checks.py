"""The benchmark's output checks pass on the program's real outputs and
reject deliberately corrupted ones; the oracles match hand counts; the
tracer reports every per-layer metric BENCHMARK.json lists."""

from __future__ import annotations

import json
import math
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for p in (str(ROOT / "src"), str(ROOT)):
    if p not in sys.path:
        sys.path.insert(0, p)

from faceverify import cli, storage  # noqa: E402
from faceverify.linalg import make_rng  # noqa: E402
from faceverify.micronet import build_face_net  # noqa: E402
from faceverify.micronet.layers import PReLU  # noqa: E402
from perfbench import checks, inputs, job, tracing  # noqa: E402
from perfbench.checks import CheckFailed  # noqa: E402


# -- verify_* ----------------------------------------------------------------


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("verify") / "report"
    assert cli.main(["report", "--out-dir", str(out), "--seed", "3", "--splits", "2"]) == 0
    return out


def test_verify_checks_pass_on_real_output(report_dir):
    checks.check_verify(report_dir.parent)


def test_corrupted_score_rejected(report_dir, tmp_path):
    run = Path(shutil.copytree(report_dir, tmp_path / "report"))
    path = run / "split01" / "scores.csv"
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[3] = repr(float(cells[3]) + 1e-3)
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed, match="b - d"):
        checks.check_scores(run / "split01")


def _edit_report(run: Path, section: str, column: int, delta: float) -> None:
    path = run / "report.txt"
    lines = path.read_text().splitlines()
    row = lines.index(section) + 2  # header row, then split 0
    cells = lines[row].split(",")
    cells[column] = f"{float(cells[column]) + delta:.6f}"
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("section,column", [("[verification]", 1), ("[verification]", 2), ("[identification]", 1)])
def test_corrupted_report_figure_rejected(report_dir, tmp_path, section, column):
    run = Path(shutil.copytree(report_dir, tmp_path / "report"))
    _edit_report(run, section, column, -0.01)
    with pytest.raises(CheckFailed, match="recount"):
        checks.check_report(run)


def test_asymmetric_metric_rejected(report_dir, tmp_path):
    m, b, _ = checks.read_jvjb(report_dir / "split00" / "metric.jvjb")
    checks.check_symmetric(m, b)
    bad = m.copy()
    bad[0, 1] += 1e-6 * np.abs(m).max()
    with pytest.raises(CheckFailed, match="M is not symmetric"):
        checks.check_symmetric(bad, b)
    bad = b.copy()
    bad[1, 0] -= 1e-6 * np.abs(b).max()
    with pytest.raises(CheckFailed, match="B is not symmetric"):
        checks.check_symmetric(m, bad)


def test_truncated_metric_and_ragged_scores_rejected(report_dir, tmp_path):
    jvjb = tmp_path / "metric.jvjb"
    jvjb.write_bytes((report_dir / "split00" / "metric.jvjb").read_bytes()[:-3])
    with pytest.raises(CheckFailed, match="size"):
        checks.read_jvjb(jvjb)
    scores = tmp_path / "scores.csv"
    lines = (report_dir / "split00" / "scores.csv").read_text().splitlines()
    scores.write_text("\n".join([lines[0], lines[1] + ",0.5", *lines[2:]]) + "\n")
    with pytest.raises(CheckFailed, match="ragged"):
        checks.read_scores(scores)


def test_tar_oracle_by_hand():
    scores = [0.9, 0.8, 0.8, 0.1, 0.05]
    positive = [True, True, False, False, True]
    # thresholds 0.9: (far 0, tar 1/3); 0.8: (1/2, 2/3); 0.1: (1, 2/3); 0.05: (1, 1)
    assert checks.tar_at_far(scores, positive, 0.4) == pytest.approx(1 / 3)
    assert checks.tar_at_far(scores, positive, 0.5) == pytest.approx(2 / 3)
    assert checks.tar_at_far(scores, positive, 1.0) == 1.0
    assert checks.tar_at_far([0.1, 0.9], [True, False], 0.5) == 0.0


def test_rank_oracle_ties_count_against_the_match():
    sim = np.array([[0.5, 0.2], [0.5, 0.9], [0.1, 0.9]])
    gallery = ["a", "b", "c"]
    # probe a ties with b: rank 2; probe c ties with b: rank 2
    assert checks.rank_accuracy(sim, gallery, ["a", "c"], 1) == 0.0
    assert checks.rank_accuracy(sim, gallery, ["a", "c"], 2) == 1.0


# -- enroll_stock --------------------------------------------------------------


@pytest.fixture(scope="module")
def enrolled(tmp_path_factory):
    base = tmp_path_factory.mktemp("enroll")
    ckpt = base / "small.jvnt"
    inputs.write_random_checkpoint(ckpt, build_face_net(num_classes=3, width_divisor=8), seed=5)
    in_dir = base / "inputs"
    in_dir.mkdir()
    inputs.write_faces(in_dir, seed=4)
    out = base / "out"
    out.mkdir()
    job.setup_enroll(in_dir, out, 4, checkpoint=ckpt)()
    return in_dir, out, ckpt


def test_enroll_checks_pass_on_real_output(enrolled):
    in_dir, out, ckpt = enrolled
    checks.check_enroll(in_dir, out, ckpt)


def _rewrite_features(out: Path, edit) -> None:
    path = out / "features.jvfe"
    data = bytearray(path.read_bytes())
    dim, count = struct.unpack_from("<IQ", data, 4)
    feats = np.frombuffer(bytes(data[16:]), dtype="<f4").reshape(count, dim).astype(np.float64)
    edit(feats)
    data[16:] = feats.astype("<f4").tobytes()
    path.write_bytes(bytes(data))


def test_non_unit_feature_rejected(enrolled, tmp_path):
    in_dir, out, ckpt = enrolled
    bad = Path(shutil.copytree(out, tmp_path / "out"))

    def scale(f):
        f[3] *= 1.01

    _rewrite_features(bad, scale)
    with pytest.raises(CheckFailed, match="norms"):
        checks.check_features(in_dir, bad, ckpt)


def test_feature_off_direct_forward_rejected(enrolled, tmp_path):
    in_dir, out, ckpt = enrolled
    bad = Path(shutil.copytree(out, tmp_path / "out"))

    def nudge(f):
        f[1, 0] += 1e-3
        f[1] /= np.linalg.norm(f[1])

    _rewrite_features(bad, nudge)
    with pytest.raises(CheckFailed, match="direct forward"):
        checks.check_features(in_dir, bad, ckpt)


def test_misaligned_crop_rejected(enrolled, tmp_path):
    in_dir, out, _ = enrolled
    bad = Path(shutil.copytree(out, tmp_path / "out"))
    name = sorted((bad / "aligned").iterdir())[2]
    crop = checks.read_pgm(name)
    inputs.write_pgm(name, np.roll(crop, 1, axis=1))
    with pytest.raises(CheckFailed, match="canonical face"):
        checks.check_aligned(in_dir, bad)


# -- train_toy --------------------------------------------------------------------


GOOD_LOSSES = [2.3001, 2.2957, 2.2926, 2.2935, 2.2880, 2.2886]


def test_loss_checks():
    checks.check_losses(GOOD_LOSSES)
    with pytest.raises(CheckFailed, match="ln 10"):
        checks.check_losses([2.40, *GOOD_LOSSES[1:]])
    with pytest.raises(CheckFailed, match="non-finite"):
        checks.check_losses([*GOOD_LOSSES[:-1], math.nan])
    with pytest.raises(CheckFailed, match="losses for"):
        checks.check_losses(GOOD_LOSSES[:-1])


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    base = tmp_path_factory.mktemp("toy")
    in_dir = base / "inputs"
    in_dir.mkdir()
    inputs.write_blobs(in_dir, seed=6)
    ckpt = base / "toy.jvnt"
    net = build_face_net(num_classes=10, input_size=inputs.TOY_SIZE, width_divisor=8)
    inputs.write_random_checkpoint(ckpt, net, seed=6)
    return in_dir, ckpt


def test_loss_check_passes_on_training_and_rejects_an_untrained_net(toy, tmp_path):
    in_dir, _ = toy
    out = tmp_path / "out"
    out.mkdir()
    job.setup_train(in_dir, out, 6)()
    checks.check_loss_fell(in_dir, out / "toy.jvnt", 6)
    net = storage.read_checkpoint(out / "toy.jvnt")
    net.initialize(make_rng(6), inputs.TOY_INIT_STD)
    storage.write_checkpoint(tmp_path / "untrained.jvnt", net)
    with pytest.raises(CheckFailed, match="did not fall"):
        checks.check_loss_fell(in_dir, tmp_path / "untrained.jvnt", 6)


def test_gradient_check_passes_and_catches_a_wrong_backward(toy, monkeypatch):
    in_dir, ckpt = toy
    checks.check_gradients(ckpt, seed=6)
    right = PReLU.backward
    monkeypatch.setattr(PReLU, "backward", lambda self, g: right(self, g) * 1.01)
    with pytest.raises(CheckFailed, match="gradient check"):
        checks.check_gradients(ckpt, seed=6)


# -- tracer and harness ---------------------------------------------------------


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


def test_traced_job_reports_spans(tmp_path):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    (in_dir / "config.ini").write_text(
        "[pipeline]\nseed = 1\nsplits = 1\n[source]\nsynth_subjects = 20\nsynth_dim = 8\n[metric]\nepochs = 3\n"
    )
    spans = tmp_path / "spans.json"
    subprocess.run(
        [sys.executable, "-m", "perfbench.job", "--workload", "verify_d320", "--inputs", str(in_dir),
         "--out", str(tmp_path / "out"), "--seed", "1", "--result", str(tmp_path / "r.json"), "--spans", str(spans)],
        cwd=ROOT, check=True, timeout=120,
        env={"PYTHONPATH": f"{ROOT / 'src'}:{ROOT}", "OPENBLAS_NUM_THREADS": "1", "PATH": ""},
    )
    m = tracing.reduce_spans(json.loads(spans.read_text()))
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {spec["name"] for spec in listed} <= set(m)
    # 13 of 20 subjects train; 10 positive pairs each, every one followed
    # by a negative, for 3 epochs
    assert m["metric.pair_steps"] == 3 * 2 * 13 * 10
    assert m["metric.train_metric_s"] > m["metric.pair_sampler_s"] > 0
    assert m["evaluation.roc_points"] > 2
    assert 0 < m["pipeline.self_s"] < m["traced.wall_s"]
    assert m["micronet.conv11.fwd_ms"] == 0.0


def test_every_layer_gets_forward_and_backward_spans(tmp_path):
    spans = tmp_path / "spans.json"
    code = """
import sys
import numpy as np
from perfbench.tracing import Tracer
tracer = Tracer()
tracer.install()
from faceverify.micronet import build_face_net
net = build_face_net(num_classes=3, input_size=16, width_divisor=16)
net.initialize(np.random.default_rng(0), 0.1)
y = np.array([0, 2])
net.loss(np.random.default_rng(1).random((2, 16, 16, 1)), y, train=True, rng=np.random.default_rng(2))
net.backward(y)
tracer.dump(sys.argv[1], import_s=0.0, wall_s=1.0)
"""
    subprocess.run(
        [sys.executable, "-c", code, str(spans)], cwd=ROOT, check=True, timeout=120,
        env={"PYTHONPATH": f"{ROOT / 'src'}:{ROOT}", "OPENBLAS_NUM_THREADS": "1", "PATH": ""},
    )
    m = tracing.reduce_spans(json.loads(spans.read_text()))
    for layer in (*tracing.LAYERS, "pool5", "classifier"):
        assert m[f"micronet.{layer}.fwd_ms"] > 0, layer
        assert m[f"micronet.{layer}.bwd_ms"] > 0, layer


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_d320", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
