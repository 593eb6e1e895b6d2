import numpy as np
import numpy.testing as npt
import pytest

from faceverify.evaluation import roc
from faceverify.linalg import l2_normalize, make_rng
from faceverify.metric import init_model
from faceverify.templates import (
    MANIFEST_HEADER,
    ManifestRow,
    build_templates,
    fuse_scores,
    pool_template,
    read_manifest,
    read_score_matrix,
    score_templates,
    write_manifest,
    write_score_matrix,
)


class TestPoolTemplate:
    def test_single_feature_identity(self):
        x = l2_normalize(make_rng(0).standard_normal(8))
        npt.assert_allclose(pool_template([x]), x, atol=1e-15)

    def test_duplicates_pool_to_same_vector(self):
        x = l2_normalize(make_rng(1).standard_normal(8))
        npt.assert_allclose(pool_template([x, x]), x, atol=1e-15)

    def test_orthonormal_pair(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        npt.assert_allclose(pool_template([e1, e2]), np.array([1.0, 1.0]) / np.sqrt(2))

    def test_permutation_invariant(self):
        rng = make_rng(2)
        feats = [l2_normalize(rng.standard_normal(6)) for _ in range(5)]
        npt.assert_allclose(pool_template(feats), pool_template(feats[::-1]), atol=1e-15)

    def test_unit_norm_output(self):
        rng = make_rng(3)
        feats = [l2_normalize(rng.standard_normal(6)) for _ in range(4)]
        assert np.linalg.norm(pool_template(feats)) == pytest.approx(1.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pool_template([])

    def test_antipodal_cancellation_rejected(self):
        x = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="zero norm"):
            pool_template([x, -x])


def make_pooled(rng, count, d=8):
    """count unit-norm template descriptors, stacked."""
    return l2_normalize(rng.standard_normal((count, d)))


class TestScoreTemplates:
    def test_matrix_shape_matches_protocol_scale(self):
        rng = make_rng(4)
        scores = score_templates(make_pooled(rng, 167), make_pooled(rng, 1806), scorer="cosine")
        assert scores.shape == (167, 1806)

    def test_probe_equal_to_gallery_template_maximizes_column(self):
        gallery = make_pooled(make_rng(5), 10)
        scores = score_templates(gallery, gallery[3:4].copy(), scorer="cosine")
        assert scores[:, 0].argmax() == 3

    def test_cosine_entries_bounded(self):
        rng = make_rng(6)
        scores = score_templates(make_pooled(rng, 5), make_pooled(rng, 7), scorer="cosine")
        assert np.all(scores <= 1.0 + 1e-12) and np.all(scores >= -1.0 - 1e-12)

    def test_jointbayes_requires_model(self):
        gallery = make_pooled(make_rng(7), 1)
        with pytest.raises(ValueError):
            score_templates(gallery, gallery, scorer="jointbayes")

    @pytest.mark.parametrize("role", ["gallery", "probe"])
    @pytest.mark.parametrize("scorer", ["cosine", "jointbayes"])
    def test_non_finite_row_rejected(self, role, scorer):
        feats = {"gallery": make_pooled(make_rng(15), 3), "probe": make_pooled(make_rng(16), 4)}
        feats[role][2, 5] = np.nan
        with pytest.raises(ValueError, match=f"{role} row 2 holds NaN or inf"):
            score_templates(feats["gallery"], feats["probe"], scorer=scorer, model=init_model(8, make_rng(9)))

    @pytest.mark.parametrize("scorer, g, p, m, message", [
        ("cosine", 8, 5, None, "dimensions differ: gallery 8, probe 5"),
        ("jointbayes", 8, 5, 8, "dimensions differ: gallery 8, probe 5, model 8"),
        ("jointbayes", 8, 8, 5, "dimensions differ: gallery 8, probe 8, model 5"),
    ], ids=["cosine", "jointbayes-probe", "jointbayes-model"])
    def test_dimension_mismatch_names_all_dims(self, scorer, g, p, m, message):
        rng = make_rng(17)
        model = None if m is None else init_model(m, rng)
        with pytest.raises(ValueError, match=f"^{message}$"):
            score_templates(make_pooled(rng, 3, g), make_pooled(rng, 4, p), scorer=scorer, model=model)

    def test_jointbayes_scores(self):
        gallery = make_pooled(make_rng(8), 3)
        model = init_model(8, make_rng(9))
        scores = score_templates(gallery, gallery, scorer="jointbayes", model=model)
        # diagonal dominated by b - (-2 x'Bx); just check symmetry here
        npt.assert_allclose(scores, scores.T, atol=1e-10)


class TestFuse:
    def test_zero_fusion_identity(self):
        s = make_rng(10).standard_normal((4, 6))
        npt.assert_array_equal(fuse_scores(s, np.zeros_like(s)), s)

    def test_self_fusion_doubles(self):
        s = make_rng(11).standard_normal((3, 3))
        npt.assert_array_equal(fuse_scores(s, s), 2 * s)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fuse_scores(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_correlated_fusion_preserves_roc(self):
        # fusing a scorer with a positively scaled copy cannot change the ROC
        rng = make_rng(12)
        scores = rng.standard_normal(100)
        labels = np.where(rng.random(100) < 0.4, 1, -1)
        fused = fuse_scores(scores[None, :], (2.0 * scores)[None, :]).ravel()
        base = roc(scores, labels)
        after = roc(fused, labels)
        npt.assert_allclose(base.far, after.far, atol=1e-15)
        npt.assert_allclose(base.tar, after.tar, atol=1e-15)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        rows = [
            ManifestRow("t1", "s1", "a.pgm", "gallery", "0"),
            ManifestRow("t2", "s2", "b.pgm", "probe", "0"),
        ]
        path = tmp_path / "m.csv"
        write_manifest(path, rows)
        assert read_manifest(path) == rows

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match=r"bad\.csv:1: expected header"):
            read_manifest(path)
        # a malformed row is named by its line, blank lines included
        path.write_text(",".join(MANIFEST_HEADER) + "\nt1,s1,a.pgm,gallery,0\n\nt2,s2,b.pgm\n")
        with pytest.raises(ValueError, match=r"bad\.csv:4: malformed row \['t2', 's2', 'b.pgm'\]"):
            read_manifest(path)

    def test_build_templates_groups_and_pools(self):
        rng = make_rng(13)
        feats = np.stack([l2_normalize(rng.standard_normal(4)) for _ in range(4)])
        media = ["m0", "m1", "m2", "m3"]
        rows = [
            ManifestRow("t1", "s1", "m0", "gallery", "0"),
            ManifestRow("t1", "s1", "m2", "gallery", "0"),
            ManifestRow("t2", "s2", "m1", "gallery", "0"),
            ManifestRow("t3", "s1", "m3", "probe", "0"),
        ]
        ids, subjects, gallery = build_templates(rows, feats, media, role="gallery")
        assert ids == ["t1", "t2"] and subjects == ["s1", "s2"]
        npt.assert_allclose(gallery, np.stack([pool_template(feats[[0, 2]]), pool_template(feats[[1]])]))
        ids, subjects, probe = build_templates(rows, feats, media, role="probe")
        assert ids == ["t3"] and subjects == ["s1"]
        npt.assert_array_equal(probe, [pool_template(feats[[3]])])

    def test_build_templates_rejects_subject_conflict(self):
        rng = make_rng(14)
        feats = np.stack([l2_normalize(rng.standard_normal(4)) for _ in range(2)])
        rows = [
            ManifestRow("t1", "s1", "m0", "gallery", "0"),
            ManifestRow("t1", "s2", "m1", "gallery", "0"),
        ]
        with pytest.raises(ValueError, match="spans subjects"):
            build_templates(rows, feats, ["m0", "m1"], role="gallery")

    @pytest.mark.parametrize("role, split", [("nosuch", None), ("gallery", "7")])
    def test_build_templates_no_matching_rows(self, role, split):
        rows = [ManifestRow("t1", "s1", "m0", "gallery", "0")]
        with pytest.raises(ValueError, match=f"no manifest rows with role {role!r} and split {split!r}"):
            build_templates(rows, np.ones((1, 4)) / 2, ["m0"], role=role, split=split)

    def test_build_templates_missing_media(self):
        rows = [ManifestRow("t1", "s1", "nope", "gallery", "0")]
        with pytest.raises(ValueError, match="no feature row for media 'nope'"):
            build_templates(rows, np.zeros((1, 4)), ["m0"], role="gallery")


class TestManifestInvariants:
    def test_disjoint_check_accepts_valid_split(self):
        from faceverify.templates import check_split_disjoint

        check_split_disjoint(
            [
                ManifestRow("g1", "s1", "a", "gallery", "0"),
                ManifestRow("p1", "s1", "b", "probe", "0"),
                ManifestRow("m", "s1", "a", "train", "0"),  # train rows exempt
            ]
        )

    def test_shared_media_rejected(self):
        from faceverify.templates import check_split_disjoint

        with pytest.raises(ValueError, match="share media"):
            check_split_disjoint(
                [
                    ManifestRow("g1", "s1", "a", "gallery", "0"),
                    ManifestRow("p1", "s1", "a", "probe", "0"),
                ]
            )

    def test_template_id_role_conflict_rejected(self):
        from faceverify.templates import check_split_disjoint

        with pytest.raises(ValueError, match="two roles"):
            check_split_disjoint(
                [
                    ManifestRow("t", "s1", "a", "gallery", "0"),
                    ManifestRow("t", "s1", "b", "probe", "0"),
                ]
            )


class TestScoreMatrixIO:
    def test_roundtrip_exact(self, tmp_path):
        rng = make_rng(15)
        scores = rng.standard_normal((3, 4))
        path = tmp_path / "scores.csv"
        write_score_matrix(path, scores, ["g0", "g1", "g2"], ["p0", "p1", "p2", "p3"])
        back, gids, pids = read_score_matrix(path)
        npt.assert_array_equal(back, scores)  # %.17g round-trips float64
        assert gids == ["g0", "g1", "g2"]
        assert pids == ["p0", "p1", "p2", "p3"]

    def test_ids_are_quoted_as_csv_and_read_back(self, tmp_path):
        # a comma, a double quote, a leading space, a non-ASCII letter
        # and an empty id, each on both axes
        gallery_ids = ["g,1", 'g"2', " g3", "g\u00e94", ""]
        probe_ids = ["", "p,1", 'p"2', " p3", "p\u00f8"]
        scores = np.array([
            [0.1, -2.5, 1e-300, 3.0, -0.0],
            [1 / 3, 2 / 3, -1e17, 5e-324, 7.25],
            [0.5, 0.25, 0.125, -1.0, 2.0],
            [1.0, 2.0, 3.0, 4.0, 5.0],
            [-0.1, 0.2, -0.3, 0.4, -0.5],
        ])
        path = tmp_path / "scores.csv"
        write_score_matrix(path, scores, gallery_ids, probe_ids)
        assert path.read_bytes() == (
            b'gallery_id,,"p,1","p""2", p3,p\xc3\xb8\r\n'
            b'"g,1",0.10000000000000001,-2.5,1e-300,3,-0\r\n'
            b'"g""2",0.33333333333333331,0.66666666666666663,-1e+17,4.9406564584124654e-324,7.25\r\n'
            b" g3,0.5,0.25,0.125,-1,2\r\n"
            b"g\xc3\xa94,1,2,3,4,5\r\n"
            b",-0.10000000000000001,0.20000000000000001,-0.29999999999999999,0.40000000000000002,-0.5\r\n"
        )
        back, gids, pids = read_score_matrix(path)
        npt.assert_array_equal(back, scores)
        assert np.signbit(back[0, 4])
        assert (gids, pids) == (gallery_ids, probe_ids)

    @pytest.mark.parametrize("bad_row", ["g1,0.5", "g1,0.5,0.25,0.1", "g1,0.5,high"])
    def test_bad_row_names_file_and_line(self, tmp_path, bad_row):
        path = tmp_path / "scores.csv"
        path.write_text(f"gallery_id,p0,p1\ng0,0.5,0.25\n{bad_row}\n")
        with pytest.raises(ValueError, match=r"scores.csv:3: "):
            read_score_matrix(path)
