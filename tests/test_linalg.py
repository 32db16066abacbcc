import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_psd_singular, rand_spd
from precis import condition_number, invert_spd, sample_covariance, sym_eigen
from precis.errors import InsufficientDataError, NotPSDError, SingularMatrixError, SymmetryError
from precis.linalg import check_symmetric


class TestSampleCovariance:
    def test_identical_rows_give_zero(self):
        window = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        assert np.array_equal(sample_covariance(window), np.zeros((3, 3)))

    def test_hand_computed_two_by_two(self):
        window = np.array([[1.0, 1.0], [-1.0, -1.0]])
        assert np.allclose(sample_covariance(window), [[2.0, 2.0], [2.0, 2.0]])

    def test_matches_elementwise_oracle(self, rng):
        window = rng.normal(size=(10, 4))
        n, p = window.shape
        means = window.mean(axis=0)
        oracle = np.zeros((p, p))
        for i in range(p):
            for j in range(p):
                acc = 0.0
                for t in range(n):
                    acc += (window[t, i] - means[i]) * (window[t, j] - means[j])
                oracle[i, j] = acc / (n - 1)
        assert np.allclose(sample_covariance(window), oracle, atol=1e-12)

    def test_single_row_rejected(self):
        with pytest.raises(InsufficientDataError):
            sample_covariance(np.array([[1.0, 2.0]]))

    def test_vector_rejected(self):
        with pytest.raises(InsufficientDataError, match="n x p block"):
            sample_covariance(np.ones(5))


class TestSymEigen:
    def test_identity(self):
        decomp = sym_eigen(np.eye(3))
        assert np.allclose(decomp.eigenvalues, [1.0, 1.0, 1.0])

    def test_diagonal_sorted_ascending(self):
        decomp = sym_eigen(np.diag([5.0, 2.0]))
        assert np.allclose(decomp.eigenvalues, [2.0, 5.0])
        # axis-aligned eigenvectors up to sign
        assert np.allclose(np.abs(decomp.eigenvectors), np.eye(2)[:, ::-1])

    def test_reconstruction_and_orthonormality(self, rng):
        a = rand_spd(6, rng, cond=40.0)
        decomp = sym_eigen(a)
        u = decomp.eigenvectors
        assert np.linalg.norm((u * decomp.eigenvalues) @ u.T - a) <= 1e-8 * np.linalg.norm(a)
        assert np.linalg.norm(u.T @ u - np.eye(6)) <= 1e-8

    def test_rejects_asymmetric(self):
        with pytest.raises(SymmetryError):
            sym_eigen(np.array([[1.0, 2.0], [0.5, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(SymmetryError, match="square"):
            check_symmetric(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        # nan, not inf: inf - inf in the symmetry check warns, and a warning fails the test
        with pytest.raises(SymmetryError, match="non-finite"):
            sym_eigen(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_eigenvalue_sum_equals_trace(self, seed):
        gen = np.random.default_rng(seed)
        a = rand_spd(5, gen, cond=1 + 100 * gen.random())
        decomp = sym_eigen(a)
        trace = np.trace(a)
        assert abs(decomp.eigenvalues.sum() - trace) <= 1e-8 * abs(trace)


class TestConditionNumber:
    def test_identity_is_one(self):
        assert condition_number(np.eye(4)) == 1.0

    def test_diagonal(self):
        assert np.isclose(condition_number(np.diag([1.0, 1000.0])), 1000.0)

    def test_singular_reports_infinity(self, rng):
        assert condition_number(rand_psd_singular(5, 2, rng)) == np.inf

    def test_indefinite_rejected(self):
        with pytest.raises(NotPSDError):
            condition_number(np.diag([1.0, -1.0]))


class TestInvertSpd:
    def test_diagonal(self):
        assert np.allclose(invert_spd(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_residual_small(self, rng):
        a = rand_spd(8, rng, cond=25.0)
        residual = np.linalg.norm(a @ invert_spd(a) - np.eye(8))
        assert residual <= 1e-6 * 8

    def test_wide_window_covariance_is_singular(self, rng):
        window = rng.normal(size=(120, 132))
        with pytest.raises(SingularMatrixError):
            invert_spd(sample_covariance(window))

    def test_double_inverse_roundtrip(self, rng):
        a = rand_spd(7, rng, cond=60.0)
        back = invert_spd(invert_spd(a))
        assert np.linalg.norm(back - a) <= 1e-6 * np.linalg.norm(a)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_condition_number_shared_with_inverse(self, seed):
        gen = np.random.default_rng(seed)
        a = rand_spd(4 + int(6 * gen.random()), gen, cond=1 + 500 * gen.random())
        ca = condition_number(a)
        ci = condition_number(invert_spd(a))
        assert abs(ca - ci) <= 1e-6 * ca
