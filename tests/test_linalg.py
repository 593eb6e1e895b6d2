import numpy as np
import numpy.testing as npt
import pytest

from faceverify.linalg import derive_seed, l2_normalize, make_rng


class TestL2Normalize:
    def test_three_four_five(self):
        npt.assert_allclose(l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_idempotent_to_one_ulp(self):
        rng = make_rng(5)
        for _ in range(20):
            x = rng.standard_normal(8) * rng.uniform(0.01, 100)
            once = l2_normalize(x)
            twice = l2_normalize(once)
            assert np.all(np.abs(twice - once) <= np.spacing(np.abs(once)))

    def test_unit_vector_unchanged(self):
        e = np.zeros(4)
        e[2] = 1.0
        npt.assert_array_equal(l2_normalize(e), e)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            l2_normalize(np.zeros(3))

    def test_rowwise(self):
        rng = make_rng(6)
        x = rng.standard_normal((10, 4))
        norms = np.linalg.norm(l2_normalize(x), axis=1)
        npt.assert_allclose(norms, 1.0, atol=1e-12)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(0, 1) == derive_seed(0, 1)
    assert derive_seed(0, 1) != derive_seed(0, 2)
    assert derive_seed(1, 1) != derive_seed(0, 1)
