import numpy as np
import pytest
from oracles import triple_loop_gram

from adaptok import InvalidInputError, as_token_matrix
from adaptok.tensor_core import (
    DEFAULT_EPSILON,
    _clamped_descending_eigvalsh,
    _gram,
    _normalize_rows_raw,
)


class TestGramMatrix:
    def test_identity(self):
        np.testing.assert_array_equal(_gram(np.eye(2)), np.eye(2))

    def test_rank1_duplicate_rows(self):
        E = np.array([[1.0, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(_gram(E), [[2.0, 0.0], [0.0, 0.0]])

    def test_matches_triple_loop(self, rng):
        for shape in [(6, 3), (72, 64)]:
            E = rng.standard_normal(shape)
            np.testing.assert_allclose(_gram(E), triple_loop_gram(E, "EtE"), atol=1e-10)

    def test_smaller_side_is_chosen(self, rng):
        tall = rng.standard_normal((6, 3))
        wide = rng.standard_normal((3, 6))
        assert _gram(tall).shape == (3, 3)
        assert _gram(wide).shape == (3, 3)
        np.testing.assert_allclose(_gram(wide), triple_loop_gram(wide, "EEt"), atol=1e-10)
        wide = rng.standard_normal((64, 72))
        np.testing.assert_allclose(_gram(wide), triple_loop_gram(wide, "EEt"), atol=1e-10)

    def test_output_is_exactly_symmetric(self, rng):
        G = _gram(rng.standard_normal((8, 5)))
        np.testing.assert_array_equal(G, G.T)

    @pytest.mark.parametrize("shape", [(72, 64), (576, 1024), (2880, 1024)])
    def test_exactly_symmetric_at_bench_shapes(self, rng, shape):
        # no symmetrization pass: numpy's E.T @ E and E @ E.T go through the
        # BLAS symmetric rank-k update, which mirrors one triangle
        for E in (rng.standard_normal(shape), rng.standard_normal(shape[::-1])):
            G = _gram(E)
            assert G.shape == (min(shape),) * 2
            np.testing.assert_array_equal(G, G.T)
            cols = rng.choice(G.shape[0], size=3, replace=False)
            side = E.T if E.shape[1] <= E.shape[0] else E
            np.testing.assert_allclose(
                G[:, cols], side @ side.T[:, cols], rtol=1e-12, atol=1e-9
            )

    def test_trace_equals_squared_frobenius(self, rng):
        E = rng.standard_normal((7, 4))
        np.testing.assert_allclose(np.trace(_gram(E)), (E**2).sum(), rtol=1e-8)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            as_token_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(InvalidInputError):
            as_token_matrix(np.array([[np.inf, 0.0]]))

    def test_rejects_bad_shapes(self):
        with pytest.raises(InvalidInputError):
            as_token_matrix(np.zeros(3))
        with pytest.raises(InvalidInputError):
            as_token_matrix(np.zeros((0, 3)))


class TestSymEigenvalues:
    def test_diagonal(self):
        np.testing.assert_allclose(_clamped_descending_eigvalsh(np.diag([4.0, 1.0])), [4.0, 1.0])

    def test_rank_deficient(self):
        lam = _clamped_descending_eigvalsh(np.array([[2.0, 0.0], [0.0, 0.0]]))
        np.testing.assert_allclose(lam, [2.0, 0.0])

    def test_trace_and_det_identities(self, rng):
        B = rng.standard_normal((5, 5))
        G = B.T @ B  # random symmetric PSD
        lam = _clamped_descending_eigvalsh(G)
        np.testing.assert_allclose(lam.sum(), np.trace(G), rtol=1e-8)
        np.testing.assert_allclose(lam.prod(), np.linalg.det(G), rtol=1e-8)

    def test_sorted_descending_and_clamped(self, rng):
        B = rng.standard_normal((6, 2))
        lam = _clamped_descending_eigvalsh(B @ B.T)  # rank 2, four ~zero eigenvalues
        assert np.all(np.diff(lam) <= 0)
        assert np.all(lam >= 0)

    def test_accepts_tiny_asymmetry(self, rng):
        # only the lower triangle is read, so an upper-triangle perturbation
        # leaves the spectrum unchanged
        B = rng.standard_normal((4, 4))
        G = B.T @ B
        expected = _clamped_descending_eigvalsh(G)
        G[0, 1] += 1e-9 * np.abs(G).max()
        np.testing.assert_array_equal(_clamped_descending_eigvalsh(G), expected)


class TestL2NormalizeRows:
    def test_three_four_five(self):
        out = _normalize_rows_raw(np.array([[3.0, 4.0]]), np.arange(1))
        np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-9)

    def test_zero_row_stays_zero(self):
        out = _normalize_rows_raw(np.array([[0.0, 0.0], [1.0, 0.0]]), np.arange(2))
        np.testing.assert_array_equal(out[0], [0.0, 0.0])

    def test_norms_near_one(self, rng):
        E = rng.standard_normal((50, 8)) * rng.uniform(1e-3, 10.0, size=(50, 1))
        norms = np.linalg.norm(_normalize_rows_raw(E, np.arange(50)), axis=1)
        assert np.all(norms >= 1 - 1e-6) and np.all(norms <= 1.0)

    def test_subset_is_divided_copy_and_leaves_e_unwritten(self, rng):
        E = rng.standard_normal((20, 6)) * rng.uniform(1e-3, 10.0, size=(20, 1))
        E_before = E.copy()
        idx = np.array([1, 4, 5, 11, 19])
        out = _normalize_rows_raw(E, idx)
        norms = np.linalg.norm(E[idx], axis=1, keepdims=True)
        expected = E[idx] / (norms + DEFAULT_EPSILON)
        np.testing.assert_array_equal(out.view(np.int64), expected.view(np.int64))
        np.testing.assert_array_equal(E.view(np.int64), E_before.view(np.int64))


class TestSpectrumInvariants:
    def test_both_gram_sides_share_top_spectrum(self, rng):
        for n, d in [(6, 3), (3, 6), (5, 5), (12, 4)]:
            E = rng.standard_normal((n, d))
            small = np.sort(np.linalg.eigvalsh(E.T @ E))[::-1]
            big = np.sort(np.linalg.eigvalsh(E @ E.T))[::-1]
            r = min(n, d)
            np.testing.assert_allclose(small[:r], big[:r], rtol=1e-8, atol=1e-10)

    def test_row_permutation_invariance(self, rng):
        E = rng.standard_normal((8, 5))
        perm = rng.permutation(8)
        a = _clamped_descending_eigvalsh(_gram(E))
        b = _clamped_descending_eigvalsh(_gram(E[perm]))
        np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-10)
