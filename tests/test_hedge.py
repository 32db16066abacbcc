import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import synth_returns
from precis import (
    invert_spd,
    lasso_hedge,
    ols_hedge,
    precision_from_hedges,
    sample_covariance,
    soft_threshold,
)
from precis.errors import DegenerateMatrixError, MulticollinearityError

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def orthonormal_design(n, k, rng):
    """n x k columns that are orthonormal and orthogonal to the ones vector,
    so centering and unit-norm scaling leave them untouched."""
    raw = rng.normal(size=(n, k + 1))
    raw[:, 0] = 1.0
    q, _ = np.linalg.qr(raw)
    return q[:, 1 : k + 1]


class TestSoftThreshold:
    def test_definition(self):
        assert soft_threshold(0.5, 0.2) == pytest.approx(0.3)

    def test_below_threshold_is_zero(self):
        assert soft_threshold(-0.1, 0.2) == 0.0

    def test_identity_at_zero_gamma(self):
        for x in (-3.2, 0.0, 7.5):
            assert soft_threshold(x, 0.0) == x

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.5)

    @given(b=finite_floats, gamma=st.floats(min_value=0, max_value=1e6, allow_nan=False))
    def test_odd_in_b(self, b, gamma):
        assert soft_threshold(-b, gamma) == -soft_threshold(b, gamma)

    @given(a=finite_floats, b=finite_floats, gamma=st.floats(min_value=0, max_value=1e6))
    def test_nonexpansive(self, a, b, gamma):
        slack = 1e-9 * max(1.0, abs(a), abs(b))  # subtraction roundoff at the boundary
        assert abs(soft_threshold(a, gamma) - soft_threshold(b, gamma)) <= abs(a - b) + slack


class TestOlsHedge:
    def test_matches_normal_equations_oracle(self, rng):
        window = synth_returns(40, 5, rng)
        for i in range(5):
            reg = ols_hedge(window, i)
            y = window[:, i]
            x = np.delete(window, i, axis=1)
            design = np.column_stack([np.ones(40), x])
            oracle = np.linalg.inv(design.T @ design) @ design.T @ y
            assert np.allclose(reg.intercept, oracle[0], atol=1e-9)
            assert np.allclose(reg.betas, oracle[1:], atol=1e-9)

    def test_perfect_hedge_flagged_degenerate(self, rng):
        r2 = rng.normal(size=30)
        window = np.column_stack([2.0 * r2, r2])
        reg = ols_hedge(window, 0)
        assert reg.betas[0] == pytest.approx(2.0)
        assert reg.unhedgeable_variance == pytest.approx(0.0, abs=1e-20)
        assert reg.degenerate

    def test_independent_columns_give_small_betas(self, rng):
        window = rng.normal(size=(2000, 4)) * np.array([1.0, 2.0, 0.5, 3.0])
        reg = ols_hedge(window, 0)
        x = np.column_stack([np.ones(2000), np.delete(window, 0, axis=1)])
        cov_beta = reg.unhedgeable_variance * np.linalg.inv(x.T @ x)
        stderr = np.sqrt(np.diag(cov_beta))[1:]
        assert np.all(np.abs(reg.betas) < 3.5 * stderr)

    def test_rank_deficient_design_names_columns(self, rng):
        base = rng.normal(size=30)
        window = np.column_stack([rng.normal(size=30), base, base, rng.normal(size=30)])
        with pytest.raises(MulticollinearityError) as err:
            ols_hedge(window, 0)
        # the later twin is named, as `precis diagnose` prints it
        assert str(err.value).endswith("dependent columns [2]")

    def test_wide_design_names_every_column_past_the_rank(self):
        window = synth_returns(10, 12, np.random.default_rng(1))  # p > n
        for i in range(12):
            design = np.column_stack([np.ones(10), np.delete(window, i, axis=1)])
            rank = np.linalg.matrix_rank(design)
            assert rank == 10  # k + 1 = 12 columns on 10 rows
            others = [j for j in range(12) if j != i]
            with pytest.raises(MulticollinearityError) as err:
                ols_hedge(window, i)
            # k + 1 - rank names, and they are the trailing asset columns
            assert str(err.value).endswith(f"dependent columns {others[rank - 1:]}")

    def test_unbiased_variance_denominator(self, rng):
        window = synth_returns(25, 3, rng)
        reg = ols_hedge(window, 1)
        assert reg.unhedgeable_variance == pytest.approx(reg.rss / (25 - 3))


class TestPrecisionFromHedges:
    def test_stevens_identity_exact(self, rng):
        for p in (3, 5, 8):
            window = synth_returns(40, p, rng)
            regs = [ols_hedge(window, i) for i in range(p)]
            assembled = precision_from_hedges(regs)
            direct = invert_spd(sample_covariance(window))
            rel = np.linalg.norm(assembled - direct) / np.linalg.norm(direct)
            assert rel <= 1e-6

    def test_population_two_by_two(self):
        gen = np.random.default_rng(42)
        sigma = np.array([[2.0, 1.0], [1.0, 2.0]])
        chol = np.linalg.cholesky(sigma)
        window = gen.normal(size=(100_000, 2)) @ chol.T
        regs = [ols_hedge(window, i) for i in range(2)]
        assembled = precision_from_hedges(regs)
        target = np.array([[2 / 3, -1 / 3], [-1 / 3, 2 / 3]])
        assert np.linalg.norm(assembled - target) / np.linalg.norm(target) <= 0.02

    def test_diagonal_population_gives_near_diagonal(self):
        gen = np.random.default_rng(7)
        n = 5000
        window = gen.normal(size=(n, 3)) * np.array([1.0, 2.0, 0.5])
        regs = [ols_hedge(window, i) for i in range(3)]
        assembled = precision_from_hedges(regs)
        for reg in regs:
            i = reg.target_index
            x = np.column_stack([np.ones(n), np.delete(window, i, axis=1)])
            stderr = np.sqrt(np.diag(reg.unhedgeable_variance * np.linalg.inv(x.T @ x)))[1:]
            others = [j for j in range(3) if j != i]
            v = reg.rss / (n - 1)
            assert np.all(np.abs(assembled[i, others]) < 3.5 * stderr / v)

    def test_perfect_hedge_rejected(self, rng):
        r2 = rng.normal(size=30)
        window = np.column_stack([2.0 * r2, r2])
        regs = [ols_hedge(window, i) for i in range(2)]
        assert all(reg.degenerate for reg in regs)
        with pytest.raises(DegenerateMatrixError):
            precision_from_hedges(regs)

    def test_requires_one_regression_per_asset(self, rng):
        window = synth_returns(30, 3, rng)
        regs = [ols_hedge(window, 0), ols_hedge(window, 0), ols_hedge(window, 2)]
        with pytest.raises(DegenerateMatrixError):
            precision_from_hedges(regs)


class TestLassoHedge:
    def test_gamma_zero_matches_ols(self, rng):
        window = synth_returns(50, 5, rng)
        ols = ols_hedge(window, 2)
        lasso = lasso_hedge(window, 2, gamma=0.0, tol=1e-10)
        assert np.allclose(lasso.betas, ols.betas, atol=1e-5)
        assert lasso.intercept == pytest.approx(ols.intercept, abs=1e-5)

    def test_total_shrinkage_threshold(self, rng):
        window = synth_returns(50, 4, rng)
        y = window[:, 0] - window[:, 0].mean()
        x = window[:, 1:] - window[:, 1:].mean(axis=0)
        x = x / np.linalg.norm(x, axis=0)
        gamma = float(np.abs(x.T @ y).max())
        lasso = lasso_hedge(window, 0, gamma=gamma * 1.0001)
        assert np.all(lasso.betas == 0.0)

    def test_orthonormal_design_closed_form(self, rng):
        x = orthonormal_design(40, 4, rng)
        y = x @ np.array([1.5, -0.8, 0.3, 0.0]) + 0.1 * rng.normal(size=40)
        window = np.column_stack([y, x])
        ols = ols_hedge(window, 0)
        for gamma in (0.0, 0.2, 0.7, 5.0):
            lasso = lasso_hedge(window, 0, gamma=gamma, tol=1e-13)
            expected = soft_threshold(ols.betas, gamma)
            assert np.abs(lasso.betas - expected).max() <= 1e-10

    def test_zero_count_nondecreasing_in_gamma(self, rng):
        window = synth_returns(60, 6, rng)
        counts = []
        for gamma in (0.0, 1.0, 5.0, 20.0, 100.0, 1000.0):
            lasso = lasso_hedge(window, 0, gamma=gamma)
            counts.append(int(np.sum(lasso.betas == 0.0)))
        assert counts == sorted(counts)

    def test_negative_gamma_rejected(self, rng):
        with pytest.raises(ValueError):
            lasso_hedge(synth_returns(30, 3, rng), 0, gamma=-1.0)
