import numpy as np
import pytest

from conftest import rand_psd_singular, rand_spd, synth_returns
from precis import (
    PenaltySpec,
    SolverOptions,
    condition_number,
    invert_spd,
    ledoit_wolf,
    ledoit_wolf_intensity,
    pca_precision,
    penalized_qml,
    sample_covariance,
    sample_precision,
    tune_rho,
)
from precis.errors import (
    DegenerateMatrixError,
    InsufficientDataError,
    SingularMatrixError,
    TuningError,
)

TIGHT = SolverOptions(tol=1e-9)


def offdiag(m):
    return m[~np.eye(m.shape[0], dtype=bool)]


class TestPenaltySpec:
    def test_weight_mapping(self):
        assert PenaltySpec("l1", 1.0).weights == (1.0, 0.0)
        assert PenaltySpec("l2", 1.0).weights == (0.0, 1.0)
        assert PenaltySpec("elastic", 1.0, alpha=0.25).weights == (0.75, 0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            PenaltySpec("ridge", 1.0)
        with pytest.raises(ValueError):
            PenaltySpec("l1", -0.1)
        with pytest.raises(ValueError):
            PenaltySpec("elastic", 1.0, alpha=1.5)


class TestSamplePrecision:
    def test_identity(self):
        est = sample_precision(np.eye(3))
        assert np.allclose(est.psi, np.eye(3))
        assert est.estimator_kind == "sample"

    def test_diagonal(self):
        est = sample_precision(np.diag([2.0, 5.0]))
        assert np.allclose(est.psi, np.diag([0.5, 0.2]))

    def test_wide_window_raises(self, rng):
        s = sample_covariance(rng.normal(size=(120, 132)))
        with pytest.raises(SingularMatrixError):
            sample_precision(s)


class TestLedoitWolf:
    def test_full_shrinkage_hits_identity_target(self, rng):
        s = rand_spd(5, rng)
        sigma2 = np.diag(s).mean()
        est = ledoit_wolf(s, alpha=1.0)
        assert np.allclose(est.psi, np.eye(5) / sigma2)

    def test_zero_shrinkage_is_sample_inverse(self, rng):
        s = rand_spd(5, rng)
        est = ledoit_wolf(s, alpha=0.0)
        assert np.allclose(est.psi, sample_precision(s).psi)

    def test_eigenvalues_follow_affine_map(self, rng):
        s = rand_spd(8, rng, cond=80.0)
        lam = np.linalg.eigvalsh(s)
        sigma2 = np.diag(s).mean()
        for alpha in (0.1, 0.5, 0.9):
            est = ledoit_wolf(s, alpha=alpha)
            shrunk_lam = np.sort(1.0 / np.linalg.eigvalsh(est.psi))
            assert np.allclose(shrunk_lam, np.sort((1 - alpha) * lam + alpha * sigma2), atol=1e-8)

    def test_condition_number_never_worse(self, rng):
        for seed in range(5):
            gen = np.random.default_rng(seed)
            s = rand_spd(6, gen, cond=1 + 400 * gen.random())
            for alpha in (0.1, 0.5, 0.9):
                est = ledoit_wolf(s, alpha=alpha)
                assert condition_number(invert_spd(est.psi)) <= condition_number(s) * (1 + 1e-10)

    def test_analytic_intensity_needs_window(self, rng):
        with pytest.raises(ValueError):
            ledoit_wolf(rand_spd(4, rng))

    def test_analytic_intensity_in_unit_interval(self, rng):
        window = synth_returns(60, 8, rng)
        alpha = ledoit_wolf_intensity(window)
        assert 0.0 < alpha < 1.0
        est = ledoit_wolf(sample_covariance(window), window=window)
        assert est.lw_intensity == pytest.approx(alpha)

    def test_singular_covariance_still_invertible(self, rng):
        window = rng.normal(size=(10, 20))
        s = sample_covariance(window)
        est = ledoit_wolf(s, alpha=0.3)
        assert np.all(np.isfinite(est.psi))
        assert np.linalg.eigvalsh(est.psi)[0] > 0

    def test_zero_diagonal_rejected(self):
        with pytest.raises(DegenerateMatrixError):
            ledoit_wolf(np.zeros((3, 3)), alpha=0.5)


class TestPcaPrecision:
    def test_dominant_component_selected(self):
        # 4-row window with exact covariance diag(4, 0.01)
        a = np.sqrt(3.0)
        b = np.sqrt(3.0 * 0.01 / 4.0)
        window = np.column_stack([[a, -a, a, -a], [b, b, -b, -b]])
        assert np.allclose(sample_covariance(window), np.diag([4.0, 0.01]))
        est = pca_precision(window, threshold=0.99)
        assert est.k == 1
        assert est.explained_fraction >= 0.99
        assert np.allclose(est.reduced_precision, [[0.25]])

    def test_equal_shares_force_all_components(self):
        # exact covariance (4/3) * I_3 from orthogonal sign patterns
        window = np.column_stack(
            [[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]]
        )
        est = pca_precision(window, threshold=0.99)
        assert est.k == 3

    def test_factor_data_reduces_dimension(self, rng):
        # three strong factors plus small idiosyncratic noise: the tail of the
        # spectrum carries well under 1% per component
        p = 17
        loadings = rng.normal(size=(p, 3))
        factors = rng.normal(size=(120, 3))
        window = factors @ loadings.T + np.sqrt(0.05) * rng.normal(size=(120, p))
        est = pca_precision(window, threshold=0.99)
        assert est.explained_fraction >= 0.99
        assert est.k < p
        assert np.allclose(est.components.T @ est.components, np.eye(est.k), atol=1e-10)

    def test_zero_variance_rejected(self):
        window = np.ones((4, 3))
        with pytest.raises(DegenerateMatrixError):
            pca_precision(window)


class TestPenalizedQml:
    def test_rho_zero_equals_sample_inverse_all_kinds(self, rng):
        s = rand_spd(6, rng, cond=30.0)
        ref = sample_precision(s).psi
        for kind in ("l1", "l2", "elastic"):
            est = penalized_qml(s, 120, PenaltySpec(kind, 0.0), TIGHT)
            assert est.converged
            assert np.linalg.norm(est.psi - ref) / np.linalg.norm(ref) <= 1e-5

    def test_rho_zero_singular_raises(self, rng):
        s = sample_covariance(rng.normal(size=(5, 8)))
        with pytest.raises(SingularMatrixError):
            penalized_qml(s, 5, PenaltySpec("l1", 0.0))

    def test_zero_diagonal_rejected(self):
        with pytest.raises(DegenerateMatrixError):
            penalized_qml(np.zeros((3, 3)), 10, PenaltySpec("l1", 1.0))

    def test_large_l2_rho_drives_diagonal_limit(self, rng):
        s = sample_covariance(synth_returns(60, 5, rng))
        rho = 1e7
        est = penalized_qml(s, 60, PenaltySpec("l2", rho), TIGHT)
        assert est.converged
        # per-diagonal stationarity of the decoupled problem: psi_ii = 1/s_ii
        assert np.allclose(np.diag(est.psi), 1.0 / np.diag(s), rtol=1e-3)
        # off-diagonals vanish like (w - s)_ij / (2 rho_eff)
        rho_eff = 2.0 * rho / 60
        assert np.abs(offdiag(est.psi)).max() <= 1.5 * np.abs(offdiag(s)).max() / (2 * rho_eff)

    def test_elastic_alpha_limits_match_pure_kinds(self, rng):
        s = sample_covariance(synth_returns(80, 6, rng))
        t = 80
        l1 = penalized_qml(s, t, PenaltySpec("l1", 0.5), TIGHT)
        el0 = penalized_qml(s, t, PenaltySpec("elastic", 0.5, alpha=0.0), TIGHT)
        assert np.linalg.norm(l1.psi - el0.psi) / np.linalg.norm(l1.psi) <= 1e-5
        l2 = penalized_qml(s, t, PenaltySpec("l2", 0.5), TIGHT)
        el1 = penalized_qml(s, t, PenaltySpec("elastic", 0.5, alpha=1.0), TIGHT)
        assert np.linalg.norm(l2.psi - el1.psi) / np.linalg.norm(l2.psi) <= 1e-5

    @pytest.mark.parametrize("kind,rho", [("l1", 0.8), ("l2", 0.4), ("elastic", 1.2)])
    def test_kkt_conditions_from_explicit_inverse(self, rng, kind, rho):
        # stationarity of (T/2)(logdet - tr(S psi)) - rho P(psi), checked from
        # inv(psi) without going through the solver's own residual
        t = 80
        s = sample_covariance(synth_returns(t, 6, rng))
        penalty = PenaltySpec(kind, rho)
        est = penalized_qml(s, t, penalty, TIGHT)
        assert est.converged
        l1w, l2w = penalty.weights
        grad = (t / 2.0) * (np.linalg.inv(est.psi) - s)
        bound = 10 * TIGHT.tol * (t / 2.0) * max(1.0, np.abs(s).max())  # solver tol, 10x slack
        assert np.abs(np.diag(grad)).max() <= bound
        off = ~np.eye(6, dtype=bool)
        smooth = grad[off] - 2.0 * rho * l2w * est.psi[off]
        active = np.abs(est.psi[off]) > 1e-12
        assert np.abs(smooth[active] - rho * l1w * np.sign(est.psi[off][active])).max() <= bound
        if np.any(~active):
            assert np.abs(smooth[~active]).max() <= rho * l1w + bound

    @pytest.mark.parametrize("kind,rho", [("l1", 0.7), ("l2", 0.7), ("elastic", 0.7)])
    def test_no_perturbation_improves_objective(self, rng, kind, rho):
        t = 90
        s = sample_covariance(synth_returns(t, 8, rng))
        penalty = PenaltySpec(kind, rho)
        est = penalized_qml(s, t, penalty, TIGHT)
        assert est.converged

        def objective(psi):
            sign, logdet = np.linalg.slogdet(psi)
            assert sign > 0
            return (t / 2.0) * (logdet - np.sum(s * psi)) - penalty.value(psi)

        best = objective(est.psi)
        assert est.objective_value == pytest.approx(best, rel=1e-12)
        for _ in range(20):
            e = rng.normal(size=(8, 8))
            e = (e + e.T) / np.linalg.norm(e + e.T)
            for eps in (1e-2, 1e-4):
                assert objective(est.psi + eps * np.abs(est.psi).max() * e) <= best

    def test_l2_offdiagonal_energy_monotone_in_rho(self, rng):
        s = sample_covariance(synth_returns(120, 10, rng, rho_common=0.5))
        energies = []
        for rho in (0.1, 0.5, 1.0, 2.0, 3.0):
            est = penalized_qml(s, 120, PenaltySpec("l2", rho))
            energies.append(float((offdiag(est.psi) ** 2).sum()))
        assert all(a >= b - 1e-12 for a, b in zip(energies, energies[1:]))

    def test_l1_zero_count_monotone_in_rho(self, rng):
        s = sample_covariance(synth_returns(120, 10, rng, rho_common=0.5))
        counts = []
        for rho in (0.1, 0.5, 1.0, 2.0, 3.0):
            est = penalized_qml(s, 120, PenaltySpec("l1", rho))
            counts.append(int(np.sum(np.abs(offdiag(est.psi)) < 1e-8)))
        assert counts == sorted(counts)

    def test_permutation_equivariance(self, rng):
        s = sample_covariance(synth_returns(80, 6, rng))
        perm = rng.permutation(6)
        for kind in ("l1", "l2"):
            est = penalized_qml(s, 80, PenaltySpec(kind, 0.6), TIGHT)
            permuted = penalized_qml(s[np.ix_(perm, perm)], 80, PenaltySpec(kind, 0.6), TIGHT)
            assert np.linalg.norm(permuted.psi - est.psi[np.ix_(perm, perm)]) <= 1e-5 * np.linalg.norm(est.psi)

    def test_singular_windows_yield_positive_definite(self, rng):
        window = rng.normal(size=(20, 30))
        s = sample_covariance(window)
        for kind in ("l1", "l2", "elastic"):
            est = penalized_qml(s, 20, PenaltySpec(kind, 1.0), SolverOptions(tol=1e-5))
            assert np.all(np.isfinite(est.psi))
            assert np.linalg.eigvalsh(est.psi)[0] > 0

    def test_budget_exhaustion_is_loud_not_fatal(self, rng):
        s = sample_covariance(synth_returns(60, 8, rng))
        est = penalized_qml(s, 60, PenaltySpec("l2", 0.5), SolverOptions(max_iter=2))
        assert not est.converged
        assert est.iterations == 2
        assert np.all(np.isfinite(est.psi))

    @pytest.mark.parametrize("kind", ["l1", "l2", "elastic"])
    def test_outlier_asset_window_converges(self, kind):
        # one return of 1900 gives one asset a variance near 3e4 against
        # about 16 for the rest; a solver working at the raw scale stalls here
        returns = synth_returns(120, 8, np.random.default_rng(0))
        returns[60, 3] += 1900.0
        s = sample_covariance(returns)
        variances = np.diag(s)
        assert 2.5e4 < variances[3] < 3.5e4
        assert np.all(np.delete(variances, 3) < 30.0)
        for rho in (0.5, 2.0):
            est = penalized_qml(s, 120, PenaltySpec(kind, rho))
            assert est.converged, (kind, rho, est.residual)
            assert est.residual <= SolverOptions().tol

    @pytest.mark.parametrize("kind", ["l2", "elastic"])
    def test_more_assets_than_observations_converges(self, kind):
        s = sample_covariance(synth_returns(36, 40, np.random.default_rng(11)))
        assert np.linalg.matrix_rank(s) < 40
        est = penalized_qml(s, 36, PenaltySpec(kind, 0.5), SolverOptions(max_iter=2000))
        assert est.converged
        assert np.linalg.eigvalsh(est.psi)[0] > 0

    def test_capped_solve_returns_positive_definite(self):
        # early iterates on a singular window can be indefinite; a solve cut
        # short must still hand back a usable precision
        s = sample_covariance(synth_returns(36, 40, np.random.default_rng(0)))
        for kind in ("l1", "elastic"):
            for max_iter in range(1, 11):
                est = penalized_qml(s, 36, PenaltySpec(kind, 0.54), SolverOptions(max_iter=max_iter))
                assert not est.converged
                assert np.linalg.eigvalsh(est.psi)[0] > 0, (kind, max_iter)

    def test_objective_value_uses_written_scale(self, rng):
        # doubling T doubles the likelihood part of the reported objective
        s = rand_spd(4, rng)
        e1 = penalized_qml(s, 50, PenaltySpec("l1", 0.0), TIGHT)
        e2 = penalized_qml(s, 100, PenaltySpec("l1", 0.0), TIGHT)
        assert e2.objective_value == pytest.approx(2.0 * e1.objective_value, rel=1e-6)


class TestTuneRho:
    def test_singleton_grid(self, rng):
        block = synth_returns(48, 5, rng)
        rho_star, curve = tune_rho(block, "l1", [0.8])
        assert rho_star == 0.8
        assert len(curve) == 1

    def test_sparse_precision_data_prefers_positive_rho(self):
        gen = np.random.default_rng(3)
        p = 15
        psi_true = np.eye(p) * 2.0
        for i in range(p - 1):
            psi_true[i, i + 1] = psi_true[i + 1, i] = 0.7
        sigma = np.linalg.inv(psi_true)
        chol = np.linalg.cholesky(sigma)
        block = gen.normal(size=(60, p)) @ chol.T
        rho_star, curve = tune_rho(block, "l1", [0.0, 0.25, 0.5, 1.0, 2.0])
        scores = dict(curve)
        assert rho_star > 0.0
        assert scores[rho_star] >= scores[0.0]

    def test_ties_break_toward_smaller_rho(self, rng):
        # scoring is deterministic, so exact ties only arise from duplicates;
        # verify the argmax rule directly on a two-point plateau
        block = synth_returns(48, 4, rng)
        rho_star, curve = tune_rho(block, "l2", [0.3, 0.31])
        scores = [s for _, s in curve]
        if scores[0] == scores[1]:
            assert rho_star == 0.3
        else:
            assert rho_star == (0.3 if scores[0] > scores[1] else 0.31)

    def test_short_block_rejected(self, rng):
        with pytest.raises(InsufficientDataError):
            tune_rho(synth_returns(20, 4, rng), "l1", [0.5])

    def test_unsorted_grid_rejected(self, rng):
        with pytest.raises(TuningError):
            tune_rho(synth_returns(48, 4, rng), "l1", [1.0, 0.5])

    def test_nonconverged_points_scored_minus_inf(self, rng):
        block = synth_returns(48, 6, rng)
        starved = SolverOptions(max_iter=1, tol=1e-14)
        with pytest.raises(TuningError):
            tune_rho(block, "l2", [0.5, 1.0], opts=starved)

    def test_curve_covers_grid(self, rng):
        block = synth_returns(48, 4, rng)
        grid = [0.0, 0.5, 1.0, 1.5]
        _, curve = tune_rho(block, "l2", grid)
        assert [rho for rho, _ in curve] == grid
