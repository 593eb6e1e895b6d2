import re
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from conftest import replace_spec_text, write_landmark_file
from faceverify import pnm
from faceverify.align import CanonicalFrame, LandmarkSet, SimilarityTransform
from faceverify.cli import main
from faceverify.linalg import make_rng
from faceverify.metric import MetricTrainConfig, SyntheticEmbeddingModel, init_model
from faceverify.micronet import TrainConfig, build_face_net, extract_features
from faceverify.pipeline import PipelineConfig, load_config, run_pipeline, write_config
from faceverify.storage import read_checkpoint, read_features, write_checkpoint, write_features, write_metric_model
from faceverify.templates import read_score_matrix, write_score_matrix

GOLDEN = Path(__file__).parent / "golden"


def synth_face_image(transform, size=160, rng=None):
    """Render a crude 'face': bright blobs at the transformed landmark spots."""
    frame = CanonicalFrame()
    pts = transform.apply(frame.landmarks)
    yy, xx = np.mgrid[0:size, 0:size]
    img = np.zeros((size, size))
    for x, y in pts:
        img += np.exp(-((yy - y) ** 2 + (xx - x) ** 2) / (2 * 2.0**2))
    if rng is not None:
        img += rng.normal(0, 0.01, img.shape)
    return np.clip(img, 0, 1)


@pytest.fixture
def face_dir(tmp_path):
    """Three images with landmark records, one image without."""
    rng = make_rng(0)
    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    records = []
    frame = CanonicalFrame()
    for k in range(3):
        t = SimilarityTransform.from_params(
            1.0 + 0.2 * k, 0.1 * k, 20.0 + 5 * k, 25.0 - 3 * k
        )
        img = synth_face_image(t, rng=rng)
        pnm.write_pnm(img_dir / f"face{k}.pgm", img)
        records.append((f"face{k}.pgm", LandmarkSet(t.apply(frame.landmarks))))
    pnm.write_pnm(img_dir / "orphan.pgm", np.zeros((40, 40)))
    lm_path = tmp_path / "landmarks.csv"
    write_landmark_file(lm_path, records)
    return img_dir, lm_path


class TestAlignCommand:
    def test_aligns_all_covered_images(self, face_dir, tmp_path, capsys):
        img_dir, lm_path = face_dir
        out_dir = tmp_path / "aligned"
        rc = main(["align", "--landmarks", str(lm_path), "--images", str(img_dir), "--out", str(out_dir)])
        assert rc == 0
        outputs = sorted(p.name for p in out_dir.glob("*.pgm"))
        assert outputs == ["face0.pgm", "face1.pgm", "face2.pgm"]
        # orphan.pgm lacked a landmark record: warned, not fatal
        assert "1 warnings" in capsys.readouterr().out
        failures = (out_dir / "align_failures.txt").read_text()
        assert "orphan.pgm,no landmark record" in failures

    def test_aligned_faces_land_on_canonical_spots(self, face_dir, tmp_path):
        img_dir, lm_path = face_dir
        out_dir = tmp_path / "aligned"
        main(["align", "--landmarks", str(lm_path), "--images", str(img_dir), "--out", str(out_dir)])
        frame = CanonicalFrame()
        for name in ("face0.pgm", "face2.pgm"):
            img = pnm.read_pnm(out_dir / name)
            assert img.shape == (100, 100)
            # each canonical landmark pixel should be bright after alignment
            for x, y in frame.landmarks:
                assert img[int(round(y)), int(round(x))] > 0.3, (name, x, y)

    def test_empty_image_warns_and_the_rest_align(self, face_dir, tmp_path, capsys):
        img_dir, lm_path = face_dir
        (img_dir / "empty.pgm").write_bytes(b"P5\n0 0\n255\n")
        lm_path.write_text(lm_path.read_text() + "empty.pgm," + ",".join(["7.0,9.0"] * 7) + "\n")
        out_dir = tmp_path / "aligned"
        rc = main(["align", "--landmarks", str(lm_path), "--images", str(img_dir), "--out", str(out_dir)])
        assert rc == 0
        assert "wrote 3 images, 2 warnings" in capsys.readouterr().out
        assert sorted(p.name for p in out_dir.glob("*.pgm")) == ["face0.pgm", "face1.pgm", "face2.pgm"]
        failures = (out_dir / "align_failures.txt").read_text().splitlines()
        assert failures[0] == f"empty.pgm,{img_dir / 'empty.pgm'}: empty image size 0x0"

    def test_degenerate_landmarks_warn_and_continue(self, tmp_path):
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        pnm.write_pnm(img_dir / "bad.pgm", np.ones((30, 30)) * 0.5)
        lm_path = tmp_path / "landmarks.csv"
        lm_path.write_text("bad.pgm," + ",".join(["7.0,9.0"] * 7) + "\n")
        out_dir = tmp_path / "aligned"
        rc = main(["align", "--landmarks", str(lm_path), "--images", str(img_dir), "--out", str(out_dir)])
        assert rc == 0
        assert not list(out_dir.glob("*.pgm"))
        assert "bad.pgm" in (out_dir / "align_failures.txt").read_text()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_landmark_names_line_before_writing(self, face_dir, tmp_path, capsys, bad):
        img_dir, lm_path = face_dir
        lines = lm_path.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + "," + bad
        lm_path.write_text("\n".join(lines) + "\n")
        out_dir = tmp_path / "aligned"
        rc = main(["align", "--landmarks", str(lm_path), "--images", str(img_dir), "--out", str(out_dir)])
        assert rc == 1
        assert capsys.readouterr().err == f"align: error: {lm_path}:2: a coordinate is NaN or inf\n"
        assert not out_dir.exists()


class TestSynthCommand:
    def test_writes_features_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "data"
        rc = main([
            "synth", "--out-dir", str(out), "--subjects", "10", "--samples", "5",
            "--dim", "8", "--seed", "3",
        ])
        assert rc == 0
        feats, ids = read_features(out / "features.jvfe")
        assert feats.shape == (50, 8)
        assert len(set(ids)) == 50
        manifest = (out / "media.csv").read_text().strip().splitlines()
        assert len(manifest) == 51  # header + one row per medium
        subjects = {line.split(",")[1] for line in manifest[1:]}
        assert len(subjects) == 10

    def test_deterministic(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["synth", "--out-dir", str(out), "--subjects", "4", "--samples", "3",
                  "--dim", "6", "--seed", "9"])
            outs.append((out / "features.jvfe").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("flag, field, value", [
        ("--subjects", "num_subjects", "0"), ("--samples", "samples_per_subject", "0"),
        ("--dim", "dim", "0"), ("--dim", "dim", "-3"),
    ])
    def test_size_below_one_fails_before_writing(self, tmp_path, capsys, flag, field, value):
        # the model names its field; synth names the flag the user typed
        with pytest.raises(ValueError, match=f"^{field} must be >= 1, got {value}$"):
            SyntheticEmbeddingModel(**{**dict(dim=2, num_subjects=2, samples_per_subject=2), field: int(value)})
        out = tmp_path / "data"
        assert main(["synth", "--out-dir", str(out), flag, value]) == 1
        assert capsys.readouterr().err == f"synth: error: {flag} must be >= 1, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--s-mu=-1"], "--s-mu must be a finite number >= 0, got -1.0"),
        (["--s-eps", "nan"], "--s-eps must be a finite number >= 0, got nan"),
        (["--s-mu", "0", "--s-eps", "0"], "--s-mu and --s-eps are both zero, so every sample would be zero"),
    ], ids=["s-mu-negative", "s-eps-nan", "both-zero"])
    def test_bad_scale_names_the_flag_before_writing(self, tmp_path, capsys, flags, message):
        out = tmp_path / "data"
        assert main(["synth", "--out-dir", str(out), *flags]) == 1
        assert capsys.readouterr().err == f"synth: error: {message}\n"
        assert not out.exists()

    def test_negative_seed_names_the_flag_before_writing(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["synth", "--out-dir", str(out), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "synth: error: --seed must be >= 0, got -1\n"
        assert not out.exists()


class TestStageCommands:
    @pytest.fixture
    def synth_run(self, tmp_path):
        out = tmp_path / "run"
        main(["report", "--out-dir", str(out), "--seed", "5", "--splits", "1",
              "--scorer", "cosine"])
        return out

    def test_pool_score_evaluate_fuse(self, synth_run, tmp_path, capsys):
        run = synth_run
        split = run / "split00"
        # pool the gallery templates again from the raw features
        pooled = tmp_path / "gallery_repooled.jvfe"
        rc = main([
            "pool", "--features", str(run / "features.jvfe"),
            "--manifest", str(split / "manifest.csv"), "--role", "gallery",
            "--out", str(pooled),
        ])
        assert rc == 0
        ours, ids = read_features(pooled)
        theirs, ids2 = read_features(split / "gallery.jvfe")
        assert ids == ids2
        npt.assert_array_equal(ours, theirs)

        # score cosine and compare to the pipeline's matrix
        out_scores = tmp_path / "scores.csv"
        rc = main([
            "score", "--gallery", str(split / "gallery.jvfe"),
            "--probe", str(split / "probe.jvfe"), "--scorer", "cosine",
            "--out", str(out_scores),
        ])
        assert rc == 0
        ours, g, p = read_score_matrix(out_scores)
        theirs, g2, p2 = read_score_matrix(split / "scores.csv")
        assert (g, p) == (g2, p2)
        npt.assert_allclose(ours, theirs, atol=1e-6)  # f32 feature round trip

        # evaluate the matrix
        out_dir = tmp_path / "eval"
        rc = main([
            "evaluate", "--scores", str(out_scores),
            "--manifest", str(split / "manifest.csv"), "--out-dir", str(out_dir),
        ])
        assert rc == 0
        summary = (out_dir / "summary.csv").read_text()
        assert "tar@far=0.01" in summary and "rank-1" in summary

        # fuse the matrix with itself: scores double
        fused_path = tmp_path / "fused.csv"
        rc = main(["fuse", "--a", str(out_scores), "--b", str(out_scores), "--out", str(fused_path)])
        assert rc == 0
        fused, _, _ = read_score_matrix(fused_path)
        npt.assert_allclose(fused, 2 * ours, atol=1e-12)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_fuse_and_evaluate_reject_a_non_finite_score(self, synth_run, tmp_path, capsys, bad):
        split = synth_run / "split00"
        lines = (split / "scores.csv").read_text().splitlines(keepends=True)
        cells = lines[2].split(",")
        cells[3] = bad
        lines[2] = ",".join(cells)
        scores = tmp_path / "scores.csv"
        scores.write_text("".join(lines))
        message = f"{scores}:3: score must be finite, got {float(bad)}\n"
        rc = main(["fuse", "--a", str(split / "scores.csv"), "--b", str(scores), "--out", str(tmp_path / "fused.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"fuse: error: {message}"
        assert not (tmp_path / "fused.csv").exists()
        rc = main([
            "evaluate", "--scores", str(scores),
            "--manifest", str(split / "manifest.csv"), "--out-dir", str(tmp_path / "eval"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"evaluate: error: {message}"
        assert not (tmp_path / "eval").exists()

    def test_fuse_names_both_files_on_template_id_mismatch(self, synth_run, tmp_path, capsys):
        a = synth_run / "split00" / "scores.csv"
        b = tmp_path / "renamed.csv"
        b.write_text(a.read_text().replace("gallery_id,", "gallery_id,renamed_", 1))
        rc = main(["fuse", "--a", str(a), "--b", str(b), "--out", str(tmp_path / "fused.csv")])
        assert rc == 2
        assert capsys.readouterr().err == f"fuse: template id mismatch between {a} and {b}\n"
        assert not (tmp_path / "fused.csv").exists()

    def test_evaluate_matches_pipeline_split(self, synth_run, tmp_path):
        split = synth_run / "split00"
        out_dir = tmp_path / "eval"
        rc = main([
            "evaluate", "--scores", str(split / "scores.csv"),
            "--manifest", str(split / "manifest.csv"), "--out-dir", str(out_dir),
        ])
        assert rc == 0
        for name in ("roc.csv", "cmc.csv"):
            assert (out_dir / name).read_bytes() == (split / name).read_bytes()
        summary = dict(line.split(",") for line in (out_dir / "summary.csv").read_text().splitlines())
        report = {}
        header = None
        for line in (synth_run / "report.txt").read_text().splitlines():
            if line.startswith("split,"):
                header = line.split(",")[1:]
            elif header and line.startswith("0,"):
                report.update(zip(header, line.split(",")[1:]))
        assert summary == report

    def test_evaluate_names_manifest_and_missing_id(self, synth_run, tmp_path, capsys):
        split = synth_run / "split00"
        manifest = tmp_path / "manifest.csv"
        lines = (split / "manifest.csv").read_text().splitlines(keepends=True)
        manifest.write_text("".join(line for line in lines if ",gallery," not in line))
        rc = main([
            "evaluate", "--scores", str(split / "scores.csv"),
            "--manifest", str(manifest), "--out-dir", str(tmp_path / "eval"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"evaluate: error: {manifest}: lacks template 'g_s")

    @pytest.mark.parametrize("flag, value, message", [
        ("--fars", "0.01,,x", "could not convert string to float: ''"),
        ("--fars", "0.01,x", "could not convert string to float: 'x'"),
        ("--ranks", "1,5.5", "invalid literal for int() with base 10: '5.5'"),
        ("--ranks", "1,", "invalid literal for int() with base 10: ''"),
        ("--ranks", "0,-1", "rank must be at least 1, got 0"),
        ("--fars", "0.01,2", "far must be in (0, 1], got 2.0"),
        ("--fars", "0", "far must be in (0, 1], got 0.0"),
    ])
    def test_evaluate_names_bad_flag_item(self, synth_run, tmp_path, capsys, flag, value, message):
        split = synth_run / "split00"
        rc = main([
            "evaluate", "--scores", str(split / "scores.csv"), "--manifest", str(split / "manifest.csv"),
            "--out-dir", str(tmp_path / "eval"), flag, value,
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"evaluate: error: {flag}: {message}\n"
        assert not (tmp_path / "eval").exists()

    def test_evaluate_and_pool_reject_a_template_spanning_subjects(self, synth_run, tmp_path, capsys):
        split = synth_run / "split00"
        manifest = tmp_path / "manifest.csv"
        text = (split / "manifest.csv").read_text()
        row = next(line for line in text.splitlines() if ",gallery," in line)
        template, subject, media = row.split(",")[:3]
        manifest.write_text(text + f"{template},zz,{media},gallery,0\n")
        conflict = f"template {template} spans subjects {subject} and zz\n"
        rc = main([
            "evaluate", "--scores", str(split / "scores.csv"),
            "--manifest", str(manifest), "--out-dir", str(tmp_path / "eval"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"evaluate: error: {manifest}: {conflict}"
        assert not (tmp_path / "eval").exists()
        features = synth_run / "features.jvfe"
        rc = main([
            "pool", "--features", str(features), "--manifest", str(manifest),
            "--role", "gallery", "--out", str(tmp_path / "pooled.jvfe"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"pool: error: {manifest} with {features}: {conflict}"

    @pytest.mark.parametrize("command", ["evaluate", "pool"])
    def test_evaluate_and_pool_reject_a_medium_in_gallery_and_probe(self, synth_run, tmp_path, capsys, command):
        # a probe medium enrolled in its subject's gallery template would inflate TAR
        split = synth_run / "split00"
        manifest = tmp_path / "manifest.csv"
        text = (split / "manifest.csv").read_text()
        subject, media = next(line for line in text.splitlines() if ",probe," in line).split(",")[1:3]
        manifest.write_text(text + f"g_{subject},{subject},{media},gallery,0\n")
        out = tmp_path / "out"
        if command == "evaluate":
            argv = ["evaluate", "--scores", str(split / "scores.csv"), "--manifest", str(manifest),
                    "--out-dir", str(out)]
        else:
            argv = ["pool", "--features", str(synth_run / "features.jvfe"), "--manifest", str(manifest),
                    "--role", "gallery", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"{command}: error: {manifest}: split 0: gallery and probe share media (e.g. {media!r})\n"
        )
        assert sorted(tmp_path.iterdir()) == [manifest, synth_run]  # nothing written

    def test_pool_names_manifest_and_missing_role(self, synth_run, tmp_path, capsys):
        manifest = synth_run / "split00" / "manifest.csv"
        features = synth_run / "features.jvfe"
        rc = main([
            "pool", "--features", str(features), "--manifest", str(manifest),
            "--role", "nosuch", "--out", str(tmp_path / "pooled.jvfe"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"pool: error: {manifest} with {features}: no manifest rows with role 'nosuch'")

    def test_pool_names_both_files_for_a_media_without_features(self, synth_run, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        features = synth_run / "features.jvfe"
        text = (synth_run / "split00" / "manifest.csv").read_text()
        manifest.write_text(text + "g_new,s9999,nosuch,gallery,0\n")
        rc = main([
            "pool", "--features", str(features), "--manifest", str(manifest),
            "--role", "gallery", "--out", str(tmp_path / "pooled.jvfe"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"pool: error: {manifest} with {features}: no feature row for media 'nosuch'\n"
        )
        assert not (tmp_path / "pooled.jvfe").exists()

    def test_train_metric_names_manifest_and_missing_id(self, synth_run, tmp_path, capsys):
        features = synth_run / "features.jvfe"
        manifest = tmp_path / "media.csv"
        lines = (synth_run / "media.csv").read_text().splitlines(keepends=True)
        manifest.write_text("".join(lines[:5]))  # header and the first four media
        rc = main([
            "train-metric", "--features", str(features), "--manifest", str(manifest),
            "--out", str(tmp_path / "metric.jvjb"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"train-metric: error: {manifest}: lacks media 's0000/m04' named in {features}\n"

    def test_train_metric_command(self, synth_run, tmp_path):
        run = synth_run
        model_path = tmp_path / "metric.jvjb"
        rc = main([
            "train-metric", "--features", str(run / "features.jvfe"),
            "--manifest", str(run / "media.csv"), "--out", str(model_path),
            "--gamma", "5.0", "--gamma-b", "0.5", "--epochs", "5", "--seed", "2",
        ])
        assert rc == 0
        from faceverify.storage import read_metric_model

        model = read_metric_model(model_path)
        assert model.dim == 16
        npt.assert_allclose(model.M, model.M.T, atol=1e-12)

    @pytest.mark.parametrize("epochs", ["0", "-3"])
    def test_train_metric_epochs_below_one_fails_before_writing(self, synth_run, tmp_path, capsys, epochs):
        out = tmp_path / "metric.jvjb"
        rc = main([
            "train-metric", "--features", str(synth_run / "features.jvfe"),
            "--manifest", str(synth_run / "media.csv"), "--out", str(out), "--epochs", epochs,
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"train-metric: error: --epochs must be >= 1, got {epochs}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--gamma", "nan"), ("--gamma-b", "inf"), ("--gamma", "-1")])
    def test_train_metric_bad_rate_fails_before_writing(self, synth_run, tmp_path, capsys, flag, value):
        out = tmp_path / "metric.jvjb"
        rc = main([
            "train-metric", "--features", str(synth_run / "features.jvfe"),
            "--manifest", str(synth_run / "media.csv"), "--out", str(out), flag, value,
        ])
        assert rc == 1
        message = f"{flag} must be a finite number >= 0, got {float(value)}"
        assert capsys.readouterr().err == f"train-metric: error: {message}\n"
        assert not out.exists()

    def test_train_metric_negative_seed_names_the_flag_before_writing(self, synth_run, tmp_path, capsys):
        out = tmp_path / "metric.jvjb"
        rc = main([
            "train-metric", "--features", str(synth_run / "features.jvfe"),
            "--manifest", str(synth_run / "media.csv"), "--out", str(out), "--seed", "-1",
        ])
        assert rc == 1
        assert capsys.readouterr().err == "train-metric: error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("scorer, probe_dim, model_dim, dims", [
        ("cosine", 5, None, "gallery 8, probe 5"),
        ("jointbayes", 8, 5, "gallery 8, probe 8, model 5"),
    ], ids=["cosine", "jointbayes"])
    def test_score_names_files_and_dims_that_differ(self, tmp_path, capsys, scorer, probe_dim, model_dim, dims):
        rng = make_rng(6)
        gallery, probe, model = tmp_path / "g.jvfe", tmp_path / "p.jvfe", tmp_path / "m.jvjb"
        write_features(gallery, rng.standard_normal((3, 8)), ["g0", "g1", "g2"])
        write_features(probe, rng.standard_normal((2, probe_dim)), ["p0", "p1"])
        argv = ["score", "--gallery", str(gallery), "--probe", str(probe), "--scorer", scorer,
                "--out", str(tmp_path / "scores.csv")]
        files = f"{gallery}, {probe}"
        if model_dim:
            write_metric_model(model, init_model(model_dim, rng))
            argv += ["--model", str(model)]
            files += f", {model}"
        assert main(argv) == 1
        assert capsys.readouterr().err == f"score: error: {files}: dimensions differ: {dims}\n"
        assert not (tmp_path / "scores.csv").exists()

    def test_score_rejects_a_non_finite_model_before_writing(self, tmp_path, capsys):
        rng = make_rng(7)
        gallery, probe, model_path = tmp_path / "g.jvfe", tmp_path / "p.jvfe", tmp_path / "m.jvjb"
        write_features(gallery, rng.standard_normal((3, 4)), ["g0", "g1", "g2"])
        write_features(probe, rng.standard_normal((2, 4)), ["p0", "p1"])
        model = init_model(4, rng)
        model.M[0, 0] = np.nan
        write_metric_model(model_path, model)
        out = tmp_path / "scores.csv"
        rc = main(["score", "--gallery", str(gallery), "--probe", str(probe), "--scorer", "jointbayes",
                   "--model", str(model_path), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"score: error: {model_path}: model data holds NaN or inf\n"
        assert not out.exists()

    def test_score_rejects_scores_that_overflow_before_writing(self, tmp_path, capsys):
        rng = make_rng(7)
        gallery, probe, model_path = tmp_path / "g.jvfe", tmp_path / "p.jvfe", tmp_path / "m.jvjb"
        write_features(gallery, rng.standard_normal((3, 4)), ["g0", "g1", "g2"])
        write_features(probe, rng.standard_normal((2, 4)), ["p0", "p1"])
        model = init_model(4, rng)
        model.M[...] = 1e308  # finite, so the reader takes it
        write_metric_model(model_path, model)
        out = tmp_path / "scores.csv"
        with np.errstate(all="ignore"):
            rc = main(["score", "--gallery", str(gallery), "--probe", str(probe), "--scorer", "jointbayes",
                       "--model", str(model_path), "--out", str(out)])
        assert rc == 1
        files = f"{gallery}, {probe}, {model_path}"
        assert capsys.readouterr().err == f"score: error: {files}: score matrix row 0 holds NaN or inf\n"
        assert not out.exists()

    def test_fuse_rejects_a_sum_that_overflows_before_writing(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            write_score_matrix(path, np.array([[1e308]]), ["g0"], ["p0"])
        out = tmp_path / "fused.csv"
        with np.errstate(all="ignore"):
            assert main(["fuse", "--a", str(a), "--b", str(b), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"fuse: error: {a} + {b}: fused score matrix row 0 holds NaN or inf\n"
        assert not out.exists()

    def test_cosine_score_reads_no_model_file(self, synth_run, tmp_path):
        split = synth_run / "split00"
        unreadable = tmp_path / "m.jvjb"
        unreadable.write_bytes(b"not a model")
        out = tmp_path / "scores.csv"
        rc = main(["score", "--gallery", str(split / "gallery.jvfe"), "--probe", str(split / "probe.jvfe"),
                   "--scorer", "cosine", "--model", str(unreadable), "--out", str(out)])
        assert rc == 0
        plain = tmp_path / "plain.csv"
        main(["score", "--gallery", str(split / "gallery.jvfe"), "--probe", str(split / "probe.jvfe"),
              "--scorer", "cosine", "--out", str(plain)])
        assert out.read_bytes() == plain.read_bytes()

    def test_jointbayes_score_requires_model(self, synth_run, tmp_path):
        run = synth_run
        split = run / "split00"
        rc = main([
            "score", "--gallery", str(split / "gallery.jvfe"),
            "--probe", str(split / "probe.jvfe"), "--scorer", "jointbayes",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2


class TestTrainExtractCommands:
    def test_tiny_train_and_extract(self, tmp_path, capsys):
        rng = make_rng(11)
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        lines = []
        for k in range(24):
            label = k % 2
            img = np.zeros((16, 16))
            img[4:12, 4:12] = 0.9 if label else 0.2
            img += rng.normal(0, 0.02, img.shape)
            name = f"img{k:02d}.pgm"
            pnm.write_pnm(img_dir / name, np.clip(img, 0, 1))
            lines.append(f"{name},class{label}")
        manifest = tmp_path / "train.csv"
        manifest.write_text("\n".join(lines) + "\n")

        model_path = tmp_path / "net.jvnt"
        rc = main([
            "train-cnn", "--manifest", str(manifest), "--images-root", str(img_dir),
            "--out", str(model_path), "--width-divisor", "16", "--batch-size", "8",
            "--iters", "10", "--seed", "1",
        ])
        assert rc == 0
        assert model_path.exists()

        feats_path = tmp_path / "feats.jvfe"
        rc = main([
            "extract", "--model", str(model_path), "--images", str(img_dir),
            "--out", str(feats_path),
        ])
        assert rc == 0
        feats, ids = read_features(feats_path)
        assert feats.shape[0] == 24
        npt.assert_allclose(np.linalg.norm(feats, axis=1), 1.0, atol=1e-5)


    @pytest.mark.parametrize("value, message", [("0", "must be at least 1, got 0"),
                                                ("-3", "must be at least 1, got -3"),
                                                ("8.5", "not a whole number: '8.5'")])
    def test_batch_size_below_one_names_the_flag(self, tmp_path, capsys, value, message):
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        pnm.write_pnm(img_dir / "a.pgm", np.zeros((8, 8)))
        out = tmp_path / "out.bin"
        manifest = tmp_path / "train.csv"
        manifest.write_text("a.pgm,c0\n")
        argv = ["train-cnn", "--manifest", str(manifest), "--images-root", str(img_dir), "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--batch-size", value])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"train-cnn: error: argument --batch-size: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_iters_below_one_names_the_flag(self, tmp_path, capsys, value):
        # a run of no iterations would write an untrained checkpoint
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        pnm.write_pnm(img_dir / "a.pgm", np.zeros((8, 8)))
        manifest = tmp_path / "train.csv"
        manifest.write_text("a.pgm,c0\na.pgm,c1\n")
        out = tmp_path / "out.jvnt"
        with pytest.raises(SystemExit) as exc:
            main(["train-cnn", "--manifest", str(manifest), "--images-root", str(img_dir), "--out", str(out),
                  "--width-divisor", "16", "--iters", value])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"train-cnn: error: argument --iters: must be at least 1, got {value}\n")
        assert sorted(tmp_path.iterdir()) == sorted([img_dir, manifest])  # nothing written

    def test_negative_seed_names_the_flag_before_training(self, tmp_path, capsys):
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        pnm.write_pnm(img_dir / "a.pgm", np.zeros((8, 8)))
        manifest = tmp_path / "train.csv"
        manifest.write_text("a.pgm,c0\na.pgm,c1\n")
        out = tmp_path / "out.jvnt"
        assert main(["train-cnn", "--manifest", str(manifest), "--images-root", str(img_dir), "--out", str(out),
                     "--width-divisor", "16", "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "train-cnn: error: --seed must be >= 0, got -1\n"
        assert sorted(tmp_path.iterdir()) == sorted([img_dir, manifest])  # nothing written

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    def test_bad_learning_rate_fails_before_training(self, tmp_path, capsys, value):
        # nan diverged at iteration 1, inf warned and diverged, -1 trained uphill and wrote a checkpoint
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        pnm.write_pnm(img_dir / "a.pgm", np.zeros((8, 8)))
        manifest = tmp_path / "train.csv"
        manifest.write_text("a.pgm,c0\na.pgm,c1\n")
        out = tmp_path / "out.jvnt"
        rc = main(["train-cnn", "--manifest", str(manifest), "--images-root", str(img_dir), "--out", str(out),
                   "--width-divisor", "16", "--iters", "2", "--batch-size", "2", f"--lr={value}"])
        assert rc == 1
        message = f"--lr must be a finite number >= 0, got {float(value)}"
        assert capsys.readouterr().err == f"train-cnn: error: {message}\n"
        assert sorted(tmp_path.iterdir()) == sorted([img_dir, manifest])  # nothing written

    def test_non_square_images_fail_before_training_unless_cropped(self, tmp_path, capsys):
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        for name in ("a.pgm", "b.pgm"):
            pnm.write_pnm(img_dir / name, np.full((8, 12), 0.5))
        manifest = tmp_path / "train.csv"
        manifest.write_text("a.pgm,c0\nb.pgm,c1\n")
        out = tmp_path / "out.jvnt"
        argv = ["train-cnn", "--manifest", str(manifest), "--images-root", str(img_dir), "--out", str(out),
                "--width-divisor", "16", "--iters", "1", "--batch-size", "2"]
        assert main(argv) == 1
        message = f"{manifest}: images are 8x12, not square; crop them with --random-crop"
        assert capsys.readouterr().err == f"train-cnn: error: {message}\n"
        assert not out.exists()
        assert main(argv + ["--random-crop", "--crop-size", "8"]) == 0
        assert read_checkpoint(out).input_shape == (8, 8, 1)

    @pytest.mark.parametrize("flag", ["--width-divisor", "--crop-size"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_net_size_below_one_names_the_flag(self, tmp_path, capsys, flag, value):
        # --width-divisor 0 divided by zero, -1 built one-channel convs
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        pnm.write_pnm(img_dir / "a.pgm", np.zeros((8, 8)))
        manifest = tmp_path / "train.csv"
        manifest.write_text("a.pgm,c0\na.pgm,c1\n")
        out = tmp_path / "out.jvnt"
        with pytest.raises(SystemExit) as exc:
            main(["train-cnn", "--manifest", str(manifest), "--images-root", str(img_dir), "--out", str(out),
                  "--iters", "1", flag, value])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"train-cnn: error: argument {flag}: must be at least 1, got {value}\n")
        assert sorted(tmp_path.iterdir()) == sorted([img_dir, manifest])  # nothing written

    @pytest.fixture
    def net8(self, tmp_path):
        """A checkpoint of a net that takes 8x8 gray inputs."""
        net = build_face_net(num_classes=2, input_size=8, width_divisor=16)
        net.initialize(make_rng(3), 0.1)
        path = tmp_path / "net8.jvnt"
        write_checkpoint(path, net)
        return path

    @pytest.mark.parametrize("defect, message", [
        ("nan-weight", "conv11 weights holds NaN or inf"),
        ("nan-fc6-weight", "fc6 weights holds NaN or inf"),  # fc6 is checked though extract never runs it
        ("inf-fc6-bias", "fc6 bias holds NaN or inf"),
        ("truncated-in-fc6", "truncated parameter data"),
        ("trailing-bytes", "trailing bytes after parameters"),
        ("oversized-layer", "layer conv11 takes 3000000 channels, but 1 reach it"),
        ("channels-do-not-chain", "layer prelu11 takes 3 channels, but 2 reach it"),
        ("zero-input", "input shape (0, 0, 1) has a size below 1"),  # extracted NaN features before
        ("two-input-sizes", "input shape (8, 8) is not (h, w, c)"),
        ("four-input-sizes", "input shape (8, 8, 1, 1) is not (h, w, c)"),
        ("nan-lrn-alpha", "layer norm1: lrn alpha must be a finite number >= 0, got nan"),  # extracted NaN features before
        ("nan-lrn2-alpha", "layer norm2: lrn alpha must be a finite number >= 0, got nan"),
    ])
    def test_extract_names_a_bad_checkpoint_before_writing(self, net8, tmp_path, capsys, defect, message):
        if defect in ("nan-weight", "nan-fc6-weight", "inf-fc6-bias"):
            net = read_checkpoint(net8)
            layer, param, value = {"nan-weight": (0, "weights", np.nan), "nan-fc6-weight": (-2, "weights", np.nan),
                                   "inf-fc6-bias": (-2, "bias", np.inf)}[defect]
            getattr(net.layers[layer], param).flat[1] = value
            write_checkpoint(net8, net)
        elif defect in ("truncated-in-fc6", "trailing-bytes"):
            data = net8.read_bytes()
            net8.write_bytes(data[:-24] if defect == "truncated-in-fc6" else data + bytes(8))
        elif defect == "oversized-layer":
            replace_spec_text(net8, "name=conv11 in_channels=1 out_channels=2",
                              "name=conv11 in_channels=3000000 out_channels=3000000")
        elif defect == "channels-do-not-chain":
            replace_spec_text(net8, "name=prelu11 in_channels=2", "name=prelu11 in_channels=3")
        elif defect in ("nan-lrn-alpha", "nan-lrn2-alpha"):
            name = "norm1" if defect == "nan-lrn-alpha" else "norm2"
            replace_spec_text(net8, f"name={name} size=5 alpha=0.0001", f"name={name} size=5 alpha=nan")
        else:
            shape = {"zero-input": "0,0,1", "two-input-sizes": "8,8", "four-input-sizes": "8,8,1,1"}[defect]
            replace_spec_text(net8, "input=8,8,1", f"input={shape}")
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        pnm.write_pnm(img_dir / "a.pgm", np.zeros((8, 8)))
        out = tmp_path / "f.jvfe"
        rc = main(["extract", "--model", str(net8), "--images", str(img_dir), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"extract: error: {net8}: {message}")
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_extract_rejects_features_that_overflow_before_writing(self, net8, tmp_path, capsys):
        net = read_checkpoint(net8)
        for _, name, value, _, _ in net.param_items():
            if name == "weights":
                value[...] = 1e200  # finite, so the checkpoint reader takes it
        write_checkpoint(net8, net)
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        pnm.write_pnm(img_dir / "a.pgm", make_rng(4).random((8, 8)))
        out = tmp_path / "f.jvfe"
        rc = main(["extract", "--model", str(net8), "--images", str(img_dir), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"extract: error: {net8}: pooled feature row 0 holds NaN or inf\n"
        assert not out.exists()

    @pytest.mark.parametrize("h, w", [(10, 8), (12, 10), (9, 12), (8, 8)])
    def test_extract_center_crops_each_axis(self, net8, tmp_path, h, w):
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        pnm.write_pnm(img_dir / "a.pgm", make_rng(4).random((h, w)))
        rc = main(["extract", "--model", str(net8), "--images", str(img_dir), "--out", str(tmp_path / "f.jvfe")])
        assert rc == 0
        oy, ox = (h - 8) // 2, (w - 8) // 2
        crop = pnm.read_pnm(img_dir / "a.pgm")[oy : oy + 8, ox : ox + 8]
        expected = extract_features(read_checkpoint(net8), crop[None, :, :, None])
        npt.assert_array_equal(read_features(tmp_path / "f.jvfe")[0], expected.astype(np.float32))

    @pytest.mark.parametrize("h, w", [(6, 8), (8, 7)])
    def test_extract_rejects_image_smaller_than_net_input(self, net8, tmp_path, capsys, h, w):
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        pnm.write_pnm(img_dir / "small.pgm", np.zeros((h, w)))
        rc = main(["extract", "--model", str(net8), "--images", str(img_dir), "--out", str(tmp_path / "f.jvfe")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"extract: error: {img_dir / 'small.pgm'}: {h}x{w} image is smaller than the 8x8 net input\n"

    @pytest.mark.parametrize("command", ["extract", "train-cnn"])
    def test_images_of_different_shapes_name_the_odd_one(self, net8, tmp_path, capsys, command):
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        pnm.write_pnm(img_dir / "a.pgm", np.zeros((8, 8)))
        pnm.write_pnm(img_dir / "b.pgm", np.zeros((10, 10)))
        if command == "extract":
            argv = ["extract", "--model", str(net8), "--images", str(img_dir), "--out", str(tmp_path / "f.jvfe")]
        else:
            manifest = tmp_path / "train.csv"
            manifest.write_text("a.pgm,c0\nb.pgm,c1\n")
            argv = ["train-cnn", "--manifest", str(manifest), "--images-root", str(img_dir),
                    "--out", str(tmp_path / "net.jvnt")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"{command}: error: {img_dir / 'b.pgm'}: shape (10, 10, 1) differs from (8, 8, 1) of {img_dir / 'a.pgm'}\n"

    @pytest.mark.parametrize("command", ["extract", "extract-list", "train-cnn"])
    def test_no_images_names_the_directory_or_list(self, net8, tmp_path, capsys, command):
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        (img_dir / "notes.txt").write_text("not an image\n")
        listing = tmp_path / "list.txt"
        listing.write_text("\n")
        if command == "extract":
            source = img_dir
            argv = ["extract", "--model", str(net8), "--images", str(img_dir), "--out", str(tmp_path / "f.jvfe")]
        elif command == "extract-list":
            source = listing
            argv = ["extract", "--model", str(net8), "--images", str(img_dir), "--list", str(listing),
                    "--out", str(tmp_path / "f.jvfe")]
        else:
            source = listing
            argv = ["train-cnn", "--manifest", str(listing), "--images-root", str(img_dir),
                    "--out", str(tmp_path / "net.jvnt")]
        assert main(argv) == 1
        command = command.split("-list")[0]
        assert capsys.readouterr().err == f"{command}: error: {source}: no .pgm or .ppm images\n"


def test_label_manifest_without_comma_names_line(tmp_path, capsys):
    manifest = tmp_path / "train.csv"
    manifest.write_text("img00.pgm,class0\nimg01.pgm class1\n")
    rc = main([
        "train-cnn", "--manifest", str(manifest), "--images-root", str(tmp_path),
        "--out", str(tmp_path / "net.jvnt"),
    ])
    assert rc == 1
    assert f"{manifest}:2: expected media_path,label" in capsys.readouterr().err


@pytest.mark.parametrize(
    "reader", ["landmarks", "label-manifest", "extract-list", "template-manifest", "score-matrix", "ids", "config"]
)
def test_text_input_that_is_not_utf8_names_the_file(tmp_path, capsys, reader):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"ok\n\xff\n")
    out = tmp_path / "out"
    checkpoint, scores, features = tmp_path / "net.jvnt", tmp_path / "scores.csv", tmp_path / "f.jvfe"
    write_checkpoint(checkpoint, build_face_net(num_classes=2, input_size=8, width_divisor=16))
    scores.write_text("gallery_id,p\ng,0.5\n")
    write_features(features, np.ones((1, 2)), ["m"])
    argv = {
        "landmarks": ["align", "--landmarks", str(bad), "--images", str(tmp_path), "--out", str(out)],
        "label-manifest": ["train-cnn", "--manifest", str(bad), "--images-root", str(tmp_path), "--out", str(out)],
        "extract-list": ["extract", "--model", str(checkpoint), "--images", str(tmp_path), "--list", str(bad),
                         "--out", str(out)],
        "template-manifest": ["evaluate", "--scores", str(scores), "--manifest", str(bad), "--out-dir", str(out)],
        "score-matrix": ["evaluate", "--scores", str(bad), "--manifest", str(bad), "--out-dir", str(out)],
        "ids": ["pool", "--features", str(features), "--manifest", str(bad), "--out", str(out)],
        "config": ["report", "--config", str(bad), "--out-dir", str(out)],
    }[reader]
    if reader == "ids":
        bad = Path(f"{features}.ids")
        bad.write_bytes(b"\xff\n")
    assert main(argv) == 1
    assert capsys.readouterr().err == f"{argv[0]}: error: {bad}: not UTF-8 text\n"
    assert not out.exists()


class TestReportCommand:
    def test_report_matches_golden(self, tmp_path):
        out = tmp_path / "demo"
        rc = main(["report", "--out-dir", str(out), "--seed", "0", "--splits", "2"])
        assert rc == 0
        produced = (out / "report.txt").read_text()
        golden = (GOLDEN / "report_demo.txt").read_text()
        assert produced == golden

    def test_diverged_metric_fails_before_it_is_written(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[pipeline]\nsplits = 1\n[metric]\ngamma = 1e308\n")
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert main(["report", "--config", str(cfg_path), "--out-dir", str(out)]) == 1
        message = "metric training diverged: M, B or b holds NaN or inf after epoch 1"
        assert capsys.readouterr().err == f"report: error: {message}\n"
        assert [p.name for p in (out / "split00").iterdir()] == ["manifest.csv"]  # no metric, no scores

    def test_log_level_info_shows_the_split_lines_on_stderr_only(self, tmp_path, capsys):
        out = tmp_path / "run"
        runs = {}
        for flags in ([], ["-v", "info"], []):  # the last run checks that the logger goes quiet again
            assert main([*flags, "report", "--out-dir", str(out), "--seed", "1", "--splits", "1"]) == 0
            files = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
            runs[len(runs)] = (capsys.readouterr(), files)
            out.rename(tmp_path / f"run{len(runs)}")
        (quiet, quiet_files), (loud, loud_files), (after, after_files) = runs.values()
        assert quiet.err == after.err == ""
        assert "faceverify: INFO: split 0 done: {" in loud.err
        assert "faceverify: INFO: split 0: metric violations" in loud.err
        assert quiet.out == loud.out == after.out and quiet.out
        assert quiet_files == loud_files == after_files and len(quiet_files) == 14

    def test_split_lines_come_in_split_order(self, tmp_path, capsys):
        assert main(["-v", "info", "report", "--out-dir", str(tmp_path / "run"), "--seed", "1", "--splits", "2"]) == 0
        lines = capsys.readouterr().err.splitlines()
        heads = [re.match(r"faceverify: INFO: (split \d+(?:: metric violations | done: ))", line)[1] for line in lines]
        assert heads == ["split 0: metric violations ", "split 0 done: ", "split 1: metric violations ", "split 1 done: "]

    def test_log_level_rejects_an_unknown_level(self, capsys):
        with pytest.raises(SystemExit):
            main(["--log-level", "loud", "report"])
        assert "invalid choice: 'loud'" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        blobs = {}
        for name in ("r1", "r2"):
            out = tmp_path / name
            main(["report", "--out-dir", str(out), "--seed", "4", "--splits", "2"])
            blobs[name] = {
                p.relative_to(out): p.read_bytes()
                for p in out.rglob("*")
                if p.is_file() and p.name != "config.resolved.ini"
            }
        assert blobs["r1"] == blobs["r2"]

    def test_cosine_and_jointbayes_both_complete(self, tmp_path):
        for scorer in ("cosine", "jointbayes"):
            out = tmp_path / scorer
            rc = main(["report", "--out-dir", str(out), "--seed", "1", "--splits", "2",
                       "--scorer", scorer])
            assert rc == 0
            text = (out / "report.txt").read_text()
            assert f"scorer={scorer}" in text
            assert "[identification]" in text

    def test_config_file_roundtrip(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(
            "[pipeline]\nseed = 3\nsplits = 2\nscorer = cosine\n"
            f"out_dir = {tmp_path / 'out'}\n"
            "[source]\nsynth_subjects = 12\nsynth_dim = 8\n"
            "[metric]\ngamma = 5.0\nepochs = 4\n"
        )
        rc = main(["report", "--config", str(cfg_path)])
        assert rc == 0
        echoed = (tmp_path / "out" / "config.resolved.ini").read_text()
        assert "synth_subjects = 12" in echoed
        assert "gamma = 5.0" in echoed

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[metric]\ngama = 5\n", "unknown key 'gama' in [metric]"),
            ("[metrc]\nepochs = 3\n", "unknown section [metrc]"),
            ("[DEFAULT]\nseed = 3\n", "unknown section [DEFAULT]"),
            ("[metric]\nsymmetrize_b = maybe\n", "[metric] symmetrize_b: Not a boolean: maybe"),
            ("[pipeline]\nsplits = two\n", "[pipeline] splits: invalid literal for int()"),
            ("[protocol]\nfars = 0.01,,0.1\n", "[protocol] fars: could not convert string to float: ''"),
            ("[protocol]\nranks = 0\n", "rank must be at least 1, got 0"),
            ("[protocol]\nfars = 2\n", "far must be in (0, 1], got 2.0"),
            ("[metric]\nepochs = 0\n", "epochs must be >= 1, got 0"),
            ("[source]\nsynth_subjects = 0\n", "synth_subjects must be >= 1, got 0"),
            ("[source]\nsynth_samples = 0\n", "synth_samples must be >= 1, got 0"),
            ("[source]\nsynth_dim = 0\n", "synth_dim must be >= 1, got 0"),
            ("[source]\nsynth_s_mu = -1\n", "synth_s_mu must be a finite number >= 0, got -1.0"),
            ("[source]\nsynth_s_mu = nan\n", "synth_s_mu must be a finite number >= 0, got nan"),
            ("[source]\nsynth_s_eps = inf\n", "synth_s_eps must be a finite number >= 0, got inf"),
            ("[source]\nsynth_s_mu = 0\nsynth_s_eps = 0\n", "synth_s_mu and synth_s_eps are both zero"),
            ("[metric]\nneg_to_pos_ratio = 0\n", "neg_to_pos_ratio must be >= 1, got 0"),
            ("[metric]\ngamma = nan\n", "gamma must be a finite number >= 0, got nan"),
            ("[metric]\ngamma_b = inf\n", "gamma_b must be a finite number >= 0, got inf"),
        ],
        ids=["unknown-key", "unknown-section", "default-section", "bad-bool", "bad-int",
             "empty-far", "rank-0", "far-2", "epochs-0", "subjects-0", "samples-0", "dim-0", "s-mu-negative",
             "s-mu-nan", "s-eps-inf", "s-mu-s-eps-zero", "ratio-0", "gamma-nan", "gamma-b-inf"],
    )
    def test_config_rejects_unknown_names_and_bad_values(self, tmp_path, capsys, text, message):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(text)
        rc = main(["report", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"report: error: {cfg_path}: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("fars", (0.01, 2.0), "far must be in (0, 1], got 2.0"),
        ("ranks", (1, 0), "rank must be at least 1, got 0"),
    ])
    def test_pipeline_rejects_bad_operating_points_before_writing(self, tmp_path, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            run_pipeline(PipelineConfig(out_dir=str(tmp_path / "out"), splits=1, **{field: value}))
        assert not (tmp_path / "out").exists()

    def test_replace_checks_the_new_values(self):
        with pytest.raises(ValueError, match="^need at least one split$"):
            replace(PipelineConfig(), splits=0)

    def test_repeated_far_or_rank_is_reported_once(self, tmp_path):
        reports = []
        for name, protocol in (("once", "fars = 0.1\nranks = 1\n"), ("twice", "fars = 0.1,0.1\nranks = 1,1\n")):
            cfg_path = tmp_path / f"{name}.ini"
            cfg_path.write_text(f"[pipeline]\nseed = 0\nsplits = 3\nout_dir = {tmp_path / name}\n[protocol]\n{protocol}")
            assert main(["report", "--config", str(cfg_path)]) == 0
            reports.append((tmp_path / name / "report.txt").read_text())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("cls", [PipelineConfig, MetricTrainConfig, TrainConfig])
    def test_negative_seed_is_rejected_naming_seed(self, cls):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            cls(seed=-1)

    def test_negative_seed_names_the_flag_or_key_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["report", "--out-dir", str(out), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "report: error: --seed must be >= 0, got -1\n"
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[pipeline]\nseed = -1\n")
        assert main(["report", "--config", str(cfg_path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"report: error: {cfg_path}: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("cfg, field", [
        (PipelineConfig(), "splits"),
        (MetricTrainConfig(), "epochs"),
        (TrainConfig(), "batch_size"),
        (SyntheticEmbeddingModel(dim=2, num_subjects=3, samples_per_subject=2), "dim"),
    ])
    def test_settings_are_frozen_once_checked(self, cfg, field):
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, field, 0)

    def test_config_resolved_reads_back_equal(self, tmp_path):
        cfg = PipelineConfig(
            out_dir=str(tmp_path / "x"), seed=7, scorer="cosine", synth_s_eps=0.5,
            fars=(0.001, 0.5, 0.0012345678), ranks=(2, 3), epochs=9, symmetrize_b=False,
        )
        write_config(cfg, tmp_path / "cfg.ini")
        assert load_config(tmp_path / "cfg.ini") == cfg
        for raw, value in (("off", False), ("0", False), ("no", False), ("on", True), ("yes", True), ("1", True)):
            (tmp_path / "b.ini").write_text(f"[metric]\nsymmetrize_b = {raw}\n")
            assert load_config(tmp_path / "b.ini").symmetrize_b is value

    def test_config_with_no_fars_or_ranks_reads_back_equal(self, tmp_path):
        cfg = PipelineConfig(fars=(), ranks=())
        write_config(cfg, tmp_path / "cfg.ini")
        assert "fars = \n" in (tmp_path / "cfg.ini").read_text()
        assert load_config(tmp_path / "cfg.ini") == cfg

    def test_percent_in_values_is_literal(self, tmp_path):
        out = tmp_path / "run%x"
        assert main(["report", "--out-dir", str(out), "--seed", "1", "--splits", "1"]) == 0
        assert (out / "report.txt").exists()
        resolved = load_config(out / "config.resolved.ini")
        assert resolved == PipelineConfig(out_dir=str(out), seed=1, splits=1)
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[pipeline]\nout_dir = r%(seed)s\nseed = 2\n")
        assert load_config(cfg_path).out_dir == "r%(seed)s"

    def test_prebuilt_features_reproduce_the_synthetic_run(self, tmp_path):
        synth = tmp_path / "synth"
        assert main(["report", "--out-dir", str(synth), "--seed", "3", "--splits", "2"]) == 0
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(
            f"[source]\nfeatures_path = {synth / 'features.jvfe'}\nmanifest_path = {synth / 'media.csv'}\n"
        )
        prebuilt = tmp_path / "prebuilt"
        assert main(["report", "--config", str(cfg_path), "--out-dir", str(prebuilt),
                     "--seed", "3", "--splits", "2"]) == 0
        produced = sorted(
            p.relative_to(prebuilt) for p in prebuilt.rglob("*")
            if p.is_file() and p.name != "config.resolved.ini"
        )
        assert len(produced) == 19  # report.txt and nine files per split
        for rel in produced:
            assert (prebuilt / rel).read_bytes() == (synth / rel).read_bytes(), rel

    def test_prebuilt_features_name_the_media_the_manifest_lacks(self, tmp_path, capsys):
        synth = tmp_path / "synth"
        assert main(["synth", "--out-dir", str(synth), "--seed", "3"]) == 0
        features, manifest = synth / "features.jvfe", tmp_path / "short.csv"
        lines = (synth / "media.csv").read_text().splitlines(keepends=True)
        manifest.write_text("".join(lines[:5]))  # header and the first four media
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(f"[source]\nfeatures_path = {features}\nmanifest_path = {manifest}\n")
        capsys.readouterr()
        rc = main(["report", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == f"report: error: {manifest}: lacks media 's0000/m04' named in {features}\n"

    def test_prebuilt_features_that_repeat_a_media_id_are_rejected(self, tmp_path, capsys):
        synth = tmp_path / "synth"
        assert main(["synth", "--out-dir", str(synth), "--seed", "3"]) == 0
        features = synth / "features.jvfe"
        ids = Path(f"{features}.ids")
        ids.write_text(ids.read_text().replace("s0000/m01\n", "s0000/m00\n", 1))
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(f"[source]\nfeatures_path = {features}\nmanifest_path = {synth / 'media.csv'}\n")
        capsys.readouterr()
        assert main(["report", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"report: error: {features}: media id 's0000/m00' labels both row 0 and row 1\n"

    def test_bad_config_path_fails_cleanly(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(
            "[pipeline]\nout_dir = /tmp/x\n[source]\nfeatures_path = /nonexistent.jvfe\n"
            "manifest_path = /nonexistent.csv\n"
        )
        rc = main(["report", "--config", str(cfg_path)])
        assert rc == 1
        assert "error" in capsys.readouterr().err
