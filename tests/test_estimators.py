import numpy as np
import pytest

from conftest import rand_psd_singular, rand_spd, synth_returns
from precis import estimators
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
    sym_eigen,
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
        for rho in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="rho"):
                PenaltySpec("l1", rho)


class TestSolverOptions:
    def test_validation(self):
        for tol in (0.0, -1e-6, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tol"):
                SolverOptions(tol=tol)
        for max_iter in (0, 1.5, 10.0):
            with pytest.raises(ValueError, match="max_iter"):
                SolverOptions(max_iter=max_iter)
        assert SolverOptions(max_iter=np.int64(5)).max_iter == 5


class TestSamplePrecision:
    def test_identity(self):
        est = sample_precision(sym_eigen(np.eye(3)))
        assert np.allclose(est.psi, np.eye(3))

    def test_diagonal(self):
        est = sample_precision(sym_eigen(np.diag([2.0, 5.0])))
        assert np.allclose(est.psi, np.diag([0.5, 0.2]))

    def test_wide_window_raises(self, rng):
        s = sample_covariance(rng.normal(size=(120, 132)))
        with pytest.raises(SingularMatrixError):
            sample_precision(sym_eigen(s))


class TestLedoitWolf:
    def test_full_shrinkage_hits_identity_target(self, rng):
        s = rand_spd(5, rng)
        sigma2 = np.diag(s).mean()
        est = ledoit_wolf(sym_eigen(s), alpha=1.0)
        assert np.allclose(est.psi, np.eye(5) / sigma2)

    def test_zero_shrinkage_is_sample_inverse(self, rng):
        s = rand_spd(5, rng)
        est = ledoit_wolf(sym_eigen(s), alpha=0.0)
        assert np.allclose(est.psi, sample_precision(sym_eigen(s)).psi)

    def test_eigenvalues_follow_affine_map(self, rng):
        s = rand_spd(8, rng, cond=80.0)
        lam = np.linalg.eigvalsh(s)
        sigma2 = np.diag(s).mean()
        for alpha in (0.1, 0.5, 0.9):
            est = ledoit_wolf(sym_eigen(s), alpha=alpha)
            shrunk_lam = np.sort(1.0 / np.linalg.eigvalsh(est.psi))
            assert np.allclose(shrunk_lam, np.sort((1 - alpha) * lam + alpha * sigma2), atol=1e-8)

    def test_condition_number_never_worse(self, rng):
        for seed in range(5):
            gen = np.random.default_rng(seed)
            s = rand_spd(6, gen, cond=1 + 400 * gen.random())
            for alpha in (0.1, 0.5, 0.9):
                est = ledoit_wolf(sym_eigen(s), alpha=alpha)
                assert condition_number(invert_spd(est.psi)) <= condition_number(s) * (1 + 1e-10)

    def test_analytic_intensity_in_unit_interval(self, rng):
        window = synth_returns(60, 8, rng)
        alpha = ledoit_wolf_intensity(window, sample_covariance(window))
        assert 0.0 < alpha < 1.0

    def test_singular_covariance_still_invertible(self, rng):
        window = rng.normal(size=(10, 20))
        s = sample_covariance(window)
        est = ledoit_wolf(sym_eigen(s), alpha=0.3)
        assert np.all(np.isfinite(est.psi))
        assert np.linalg.eigvalsh(est.psi)[0] > 0

    def test_zero_diagonal_rejected(self):
        with pytest.raises(DegenerateMatrixError):
            ledoit_wolf(sym_eigen(np.zeros((3, 3))), alpha=0.5)

    @pytest.mark.parametrize("n,p,scaled", [(60, 8, False), (20, 30, False), (60, 8, True)])
    def test_closed_form_intensity_matches_outer_product_sum(self, rng, n, p, scaled):
        # oracle: the deviation of each observation's outer product from S_n,
        # summed explicitly as in the original derivation
        x = synth_returns(n, p, rng)
        if scaled:
            x[:, 3] *= 100.0
        xc = x - x.mean(axis=0)
        s_n = xc.T @ xc / n
        b2 = sum(np.sum((np.outer(row, row) - s_n) ** 2) for row in xc) / n**2
        d2 = np.sum((s_n - np.trace(s_n) / p * np.eye(p)) ** 2)
        assert b2 < d2  # the intensity is not clipped, so the comparison has teeth
        alpha = ledoit_wolf_intensity(x, sample_covariance(x))
        assert alpha == pytest.approx(b2 / d2, rel=1e-12, abs=0.0)

    def test_spectrum_input_matches_matrix_input(self, rng):
        # oracle: the shrunk covariance built and inverted as a dense matrix
        window = synth_returns(40, 6, rng)
        s = sample_covariance(window)
        alpha = ledoit_wolf_intensity(window, s)
        from_spectrum = ledoit_wolf(sym_eigen(s), alpha)
        shrunk = (1 - alpha) * s + alpha * np.diag(s).mean() * np.eye(6)
        from_matrix = np.linalg.inv(shrunk)
        assert np.allclose(from_spectrum.psi, from_matrix, rtol=1e-12, atol=0.0)
        assert condition_number(from_spectrum.spectrum) == pytest.approx(
            np.linalg.cond(shrunk), rel=1e-10
        )


class TestPcaPrecision:
    @staticmethod
    def kept(est):
        """Number of retained components: the nonzero eigenvalues of est.spectrum."""
        return int(np.count_nonzero(est.spectrum.eigenvalues))

    def test_dominant_component_selected(self):
        est = pca_precision(sym_eigen(np.diag([4.0, 0.01])), threshold=0.99)
        assert self.kept(est) == 1
        assert np.allclose(est.psi, np.diag([0.25, 0.0]))
        spectrum = est.spectrum
        assert np.allclose(
            (spectrum.eigenvectors * spectrum.eigenvalues) @ spectrum.eigenvectors.T, np.diag([4.0, 0.0])
        )
        assert condition_number(est.spectrum) == np.inf

    def test_equal_shares_force_all_components(self):
        s = np.eye(3) * (4.0 / 3.0)
        est = pca_precision(sym_eigen(s), threshold=0.99)
        assert self.kept(est) == 3
        assert np.allclose(est.psi, np.eye(3) * 0.75)

    def test_factor_data_reduces_dimension(self, rng):
        # three strong factors plus small idiosyncratic noise: the tail of the
        # spectrum carries well under 1% per component
        p = 17
        loadings = rng.normal(size=(p, 3))
        factors = rng.normal(size=(120, 3))
        s = sample_covariance(factors @ loadings.T + np.sqrt(0.05) * rng.normal(size=(120, p)))
        est = pca_precision(sym_eigen(s), threshold=0.99)
        k = self.kept(est)
        assert k < p
        lam = np.sort(np.linalg.eigvalsh(s))[::-1]
        assert lam[:k].sum() >= 0.99 * lam.sum() > lam[: k - 1].sum()  # the fewest that reach it
        # psi is the pseudo-inverse of the rank-k covariance its spectrum holds
        low_rank = (est.spectrum.eigenvectors * est.spectrum.eigenvalues) @ est.spectrum.eigenvectors.T
        assert np.linalg.matrix_rank(est.psi) == k
        assert np.allclose(est.psi, np.linalg.pinv(low_rank, rcond=1e-10), atol=1e-10)

    def test_spectrum_input_matches_matrix_input(self, rng):
        # oracle: V_k diag(1/lambda_k) V_k' from numpy's eigh of S, largest first
        s = sample_covariance(synth_returns(60, 9, rng))
        lam, vecs = np.linalg.eigh(s)
        lam, vecs = lam[::-1], vecs[:, ::-1]
        for threshold in (0.5, 0.9, 1.0):
            k = int(np.argmax(np.cumsum(lam) >= threshold * lam.sum())) + 1
            from_matrix = (vecs[:, :k] / lam[:k]) @ vecs[:, :k].T
            from_spectrum = pca_precision(sym_eigen(s), threshold)
            assert np.abs(from_spectrum.psi - from_matrix).max() <= 1e-12 * np.abs(from_matrix).max()
            kept = np.concatenate([np.zeros(9 - k), lam[:k][::-1]])  # ascending, dropped as 0
            assert np.allclose(from_spectrum.spectrum.eigenvalues, kept, rtol=1e-12, atol=0.0)

    def test_full_threshold_is_the_sample_precision(self, rng):
        s = sample_covariance(synth_returns(60, 9, rng))
        est = pca_precision(sym_eigen(s), threshold=1.0)
        assert self.kept(est) == 9
        ref = sample_precision(sym_eigen(s)).psi
        assert np.abs(est.psi - ref).max() <= 1e-12 * np.abs(ref).max()
        assert condition_number(est.spectrum) == condition_number(s)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateMatrixError):
            pca_precision(sym_eigen(np.zeros((3, 3))))


class TestPenalizedQml:
    @pytest.fixture(autouse=True)
    def converged_admm_reports_its_residual(self, monkeypatch):
        """Every converged ADMM solve in this class reports the stopping
        residual of the psi it returns, recomputed, and that passes tol."""
        solve = estimators._solve_admm

        def checked(s, lam1, lam2, tol, *args):
            result = solve(s, lam1, lam2, tol, *args)
            if result.converged:
                assert result.residual <= tol
                assert result.residual == estimators._stopping_residual(result.psi, s, lam1, lam2, tol)
            return result

        monkeypatch.setattr(estimators, "_solve_admm", checked)

    def test_rho_zero_equals_sample_inverse_all_kinds(self, rng):
        s = rand_spd(6, rng, cond=30.0)
        ref = sample_precision(sym_eigen(s)).psi
        for kind in ("l1", "l2", "elastic"):
            est = penalized_qml(s, 120, PenaltySpec(kind, 0.0), TIGHT)
            assert est.converged
            assert np.linalg.norm(est.psi - ref) / np.linalg.norm(ref) <= 1e-5

    def test_rho_zero_singular_raises(self, rng):
        s = sample_covariance(rng.normal(size=(5, 8)))
        with pytest.raises(SingularMatrixError):
            penalized_qml(s, 5, PenaltySpec("l1", 0.0))

    @pytest.mark.parametrize("kind", ["l1", "l2", "elastic"])
    def test_rho_zero_is_exact_inverse_without_iterations(self, rng, kind):
        s = sample_covariance(synth_returns(60, 7, rng))
        est = penalized_qml(s, 60, PenaltySpec(kind, 0.0))
        ref = np.linalg.inv(s)
        assert np.abs(est.psi - ref).max() <= 1e-10 * np.abs(ref).max()
        assert est.iterations == 0
        assert est.converged and est.residual <= SolverOptions().tol
        singular = sample_covariance(rng.normal(size=(5, 8)))
        with pytest.raises(SingularMatrixError):
            penalized_qml(singular, 5, PenaltySpec(kind, 0.0))

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
        d = np.sqrt(np.diag(s))
        bound = 10 * TIGHT.tol * (t / 2.0) * np.outer(d, d)  # solver tol per entry, 10x slack
        assert np.all(np.abs(np.diag(grad)) <= np.diag(bound))
        off = ~np.eye(6, dtype=bool)
        smooth = grad[off] - 2.0 * rho * l2w * est.psi[off]
        active = np.abs(est.psi[off]) > 1e-12
        sign = np.sign(est.psi[off][active])
        assert np.all(np.abs(smooth[active] - rho * l1w * sign) <= bound[off][active])
        assert np.all(np.abs(smooth[~active]) <= rho * l1w + bound[off][~active])

    @pytest.mark.parametrize("kind,rho", [("l1", 0.7), ("l2", 0.7), ("elastic", 0.7)])
    def test_no_perturbation_improves_objective(self, rng, kind, rho):
        t = 90
        s = sample_covariance(synth_returns(t, 8, rng))
        penalty = PenaltySpec(kind, rho)
        est = penalized_qml(s, t, penalty, TIGHT)
        assert est.converged
        l1w, l2w = penalty.weights

        def objective(psi):
            # the written objective: (T/2)(logdet - trace(S psi)) - rho P(psi)
            sign, logdet = np.linalg.slogdet(psi)
            assert sign > 0
            off = offdiag(psi)
            penalty_value = rho * (l1w * np.abs(off).sum() + l2w * (off**2).sum())
            return (t / 2.0) * (logdet - np.sum(s * psi)) - penalty_value

        best = objective(est.psi)
        for _ in range(20):
            e = rng.normal(size=(8, 8))
            e = (e + e.T) / np.linalg.norm(e + e.T)
            for eps in (1e-2, 1e-4):
                assert objective(est.psi + eps * np.abs(est.psi).max() * e) <= best

    def test_l2_offdiagonal_energy_monotone_in_rho(self, rng):
        cases = [
            (sample_covariance(synth_returns(120, 10, rng, rho_common=0.5)), (0.1, 0.5, 1.0, 2.0, 3.0)),
            # criterion 8's ladder on a synthetic block shaped like 17ind.csv's first window
            (
                sample_covariance(synth_returns(510, 17, np.random.default_rng(0))[:120]),
                [round(0.1 * k, 1) for k in range(1, 31)],
            ),
        ]
        for s, ladder in cases:
            energies = []
            for rho in ladder:
                est = penalized_qml(s, 120, PenaltySpec("l2", rho))
                energies.append(float((offdiag(est.psi) ** 2).sum()))
            assert all(a >= b - 1e-12 for a, b in zip(energies, energies[1:])), energies

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
        est = penalized_qml(s, 60, PenaltySpec("l2", 0.5), SolverOptions(max_iter=1))
        assert not est.converged
        assert est.iterations == 1
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
            penalty = PenaltySpec(kind, rho)
            est = penalized_qml(s, 120, penalty)
            assert est.converged, (kind, rho, est.residual)
            assert est.residual <= SolverOptions().tol
            lam1, lam2 = (2.0 * rho / 120 * share for share in penalty.weights)
            ref = estimators._solve_admm(s, lam1, lam2, 1e-12, 10_000)
            assert ref.converged
            error = np.abs(est.psi - ref.psi).max() / np.abs(ref.psi).max()
            assert error <= 2e-6, (kind, rho, error)

    @pytest.mark.parametrize("kind,power", [("l1", 2), ("l2", 4)])
    @pytest.mark.parametrize("rho", [0.5, 3.0])
    def test_stopping_rule_ignores_the_units_of_returns(self, kind, power, rho):
        # returns times c give S c^2 and psi / c^2 at rho c^2 (l1) or c^4 (l2);
        # c = 2^-7 keeps every scaling exact in binary
        c = 2.0**-7
        s = sample_covariance(synth_returns(120, 49, np.random.default_rng(0)))
        est = penalized_qml(s, 120, PenaltySpec(kind, rho))
        scaled = penalized_qml(s * c**2, 120, PenaltySpec(kind, rho * c**power))
        assert est.converged and scaled.converged
        assert scaled.iterations == est.iterations
        assert np.abs(scaled.psi * c**2 - est.psi).max() <= 1e-12 * np.abs(est.psi).max()

    @pytest.mark.parametrize("kind", ["l2", "elastic"])
    def test_more_assets_than_observations_converges(self, kind):
        s = sample_covariance(synth_returns(36, 40, np.random.default_rng(11)))
        assert np.linalg.matrix_rank(s) < 40
        est = penalized_qml(s, 36, PenaltySpec(kind, 0.5), SolverOptions(max_iter=2000))
        assert est.converged
        assert np.linalg.eigvalsh(est.psi)[0] > 0

    def test_singular_window_ridge_iteration_guard(self):
        # p = 40 > T = 36
        s = sample_covariance(synth_returns(36, 40, np.random.default_rng(0)))
        est = penalized_qml(s, 36, PenaltySpec("l2", 0.5))
        assert est.converged and est.iterations <= 10, est.iterations

    def test_wide_fit_block_small_rho_iteration_guard(self):
        # the 90-row tuning fit block at p = 100
        s = sample_covariance(synth_returns(510, 100, np.random.default_rng(0))[:90])
        est = penalized_qml(s, 90, PenaltySpec("l2", 0.1))
        assert est.converged and est.iterations <= 10, est.iterations

    def test_wide_glasso_window_converges(self):
        # p = 132 > T = 36: residual balancing changed the step on about every
        # other iteration and the solve stopped at the cap with residual >= 5e-4
        s = sample_covariance(synth_returns(36, 132, np.random.default_rng(7)))
        est = penalized_qml(s, 36, PenaltySpec("l1", 1.0))
        assert est.converged and est.residual <= SolverOptions().tol, (est.iterations, est.residual)

    @pytest.mark.parametrize("kind", ["l1", "elastic"])
    def test_capped_solve_reports_the_residual_of_its_psi(self, kind):
        # the residual is skipped on most early iterations, never on the last
        s = sample_covariance(synth_returns(120, 17, np.random.default_rng(0)))
        penalty = PenaltySpec(kind, 3.0)
        opts = SolverOptions(max_iter=7)
        est = penalized_qml(s, 120, penalty, opts)
        assert not est.converged and est.iterations == 7
        lam1, lam2 = (2.0 * 3.0 / 120 * share for share in penalty.weights)
        assert est.residual == estimators._stopping_residual(est.psi, s, lam1, lam2, opts.tol)
        assert opts.tol < est.residual < np.inf

    def test_capped_solve_returns_positive_definite(self):
        # early iterates on a singular window can be indefinite; a solve cut
        # short must still hand back a usable precision
        s = sample_covariance(synth_returns(36, 40, np.random.default_rng(0)))
        for kind in ("l1", "elastic"):
            for max_iter in range(1, 26):  # past the first extrapolated iterations
                est = penalized_qml(s, 36, PenaltySpec(kind, 0.54), SolverOptions(max_iter=max_iter))
                assert not est.converged
                assert np.linalg.eigvalsh(est.psi)[0] > 0, (kind, max_iter)


def residual_reference(psi, inverse, s, lam1, lam2):
    """Entry by entry: the gradient's distance from the penalty subdifferential,
    divided by sqrt(s_ii s_jj)."""
    p = psi.shape[0]
    worst = 0.0
    for i in range(p):
        for j in range(p):
            g = inverse[i, j] - s[i, j]
            if i == j:
                dist = abs(g)
            elif psi[i, j] != 0.0:
                dist = abs(g - 2.0 * lam2 * psi[i, j] - lam1 * np.sign(psi[i, j]))
            else:  # distance from lam1 * [-1, 1]
                dist = max(abs(g) - lam1, 0.0)
            worst = max(worst, dist / np.sqrt(s[i, i] * s[j, j]))  # correlation scale
    return worst


class TestOptimalityResidual:
    @pytest.mark.parametrize("lam1, lam2", [(0.05, 0.0), (0.0, 0.05), (0.03, 0.02)],
                             ids=["l1", "l2", "elastic"])
    def test_matches_entrywise_reference(self, rng, lam1, lam2):
        for p in (2, 7, 23):
            psi = rand_spd(p, rng, cond=5.0)
            zeros = np.triu(rng.random((p, p)) < 0.4, k=1)
            psi[zeros | zeros.T] = 0.0
            psi += (abs(np.linalg.eigvalsh(psi)[0]) + 0.5) * np.eye(p)  # PD with exact zeros
            inverse = np.linalg.inv(psi)
            noise = rng.normal(scale=0.05, size=(p, p))
            np.fill_diagonal(noise, 0.0)  # a zero diagonal gradient: off-diagonals set the max
            s = inverse + noise + noise.T  # gradients near the penalty's scale
            ref = residual_reference(psi, inverse, s, lam1, lam2)
            got = estimators._optimality_residual(psi, inverse, s, lam1, lam2)
            assert got == pytest.approx(ref, rel=1e-12)

    def test_indefinite_psi_never_converges(self, rng):
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        # one large negative eigenvalue: psi^-1 keeps a positive diagonal, as S must
        psi = (q * np.array([-10.0, 0.5, 1.0, 2.0, 3.0, 4.0])) @ q.T
        psi = 0.5 * (psi + psi.T)
        s = np.linalg.inv(psi)  # the inverse-based distance is zero at lam = 0
        assert estimators._optimality_residual(psi, np.linalg.inv(psi), s, 0.0, 0.0) <= 1e-12
        assert estimators._stopping_residual(psi, s, 0.0, 0.0, 1e-6) == np.inf

    def test_singular_psi_has_infinite_residual(self):
        psi = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert estimators._stopping_residual(psi, np.eye(2), 0.0, 0.0, 1e-6) == np.inf


def scaled_asset_window():
    """p = 132, T = 120, with one asset's returns scaled 100x (variance 1e4x)."""
    returns = synth_returns(120, 132, np.random.default_rng(0))
    returns[:, 5] *= 100.0
    return sample_covariance(returns)


class TestRidgeFixedPoint:
    """l2 runs the diagonal fixed point alone; ADMM is only its oracle."""

    @pytest.mark.parametrize(
        "window,t,rho",
        [
            (lambda: sample_covariance(synth_returns(36, 40, np.random.default_rng(0))), 36, 0.5),
            (lambda: sample_covariance(synth_returns(120, 132, np.random.default_rng(0))), 120, 3.0),
            (lambda: sample_covariance(synth_returns(510, 100, np.random.default_rng(0))[:90]), 90, 0.1),
            (scaled_asset_window, 120, 0.1),
        ],
        ids=["p40-T36", "p132-T120", "p100-fit90", "p132-one-asset-x100"],
    )
    def test_matches_tight_admm(self, window, t, rho):
        s = window()
        lam2 = 2.0 * rho / t
        ref = estimators._solve_admm(s, 0.0, lam2, 1e-11, 10_000)
        assert ref.converged
        est = penalized_qml(s, t, PenaltySpec("l2", rho))
        assert est.converged and est.iterations <= 10, est.iterations
        assert np.abs(est.psi - ref.psi).max() <= 1e-4 * np.abs(ref.psi).max()

    @pytest.mark.parametrize(
        "window,t,rho",
        [
            (lambda: sample_covariance(synth_returns(36, 40, np.random.default_rng(0))), 36, 0.5),
            (scaled_asset_window, 120, 0.1),
        ],
        ids=["p40-T36", "p132-one-asset-x100"],
    )
    def test_spectral_inverse_matches_numpy(self, monkeypatch, window, t, rho):
        pairs = []
        residual = estimators._optimality_residual

        def spy(psi, inverse, *args):
            pairs.append((psi, inverse))
            return residual(psi, inverse, *args)

        monkeypatch.setattr(estimators, "_optimality_residual", spy)
        est = penalized_qml(window(), t, PenaltySpec("l2", rho))
        assert est.converged and est.iterations == len(pairs)  # one residual per step
        for psi, inverse in pairs:
            ref = np.linalg.inv(psi)
            assert np.abs(inverse - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_slow_contraction_converges(self):
        # percent-scale returns at rho 3000: the plain fixed point contracts slowly
        s = sample_covariance(synth_returns(120, 49, np.random.default_rng(0)))
        est = penalized_qml(s, 120, PenaltySpec("l2", 3000.0))
        assert est.converged and est.residual <= SolverOptions().tol
        for max_iter in range(1, 16):  # capped before, at and after the converged step
            capped = penalized_qml(s, 120, PenaltySpec("l2", 3000.0), SolverOptions(max_iter=max_iter))
            assert np.linalg.eigvalsh(capped.psi)[0] > 0, max_iter
            if max_iter < est.iterations:
                assert not capped.converged and capped.iterations == max_iter
            else:
                assert capped.converged and capped.iterations == est.iterations

    @pytest.mark.parametrize(
        "window,rho",
        [
            (lambda: sample_covariance(synth_returns(120, 49, np.random.default_rng(0))), 3000.0),
            (lambda: sample_covariance(synth_returns(120, 49, np.random.default_rng(0))) / 2.0**14, 0.01),
            (scaled_asset_window, 3000.0),
        ],
        ids=["percent-rho3000", "x2^-7-rho0.01", "one-asset-x100-rho3000"],
    )
    @pytest.mark.parametrize("kind", ["l2", "elastic"])
    def test_never_runs_admm(self, monkeypatch, window, rho, kind):
        def admm(*args):
            raise AssertionError("a problem with no l1 weight ran ADMM")

        monkeypatch.setattr(estimators, "_solve_admm", admm)
        est = penalized_qml(window(), 120, PenaltySpec(kind, rho, alpha=1.0))
        assert est.converged and est.residual <= SolverOptions().tol

    def test_reports_the_spectrum_of_psi_inverse(self):
        s = sample_covariance(synth_returns(36, 40, np.random.default_rng(0)))
        est = penalized_qml(s, 36, PenaltySpec("l2", 0.5))
        lam, vecs = est.spectrum.eigenvalues, est.spectrum.eigenvectors
        assert np.all(np.diff(lam) >= 0)  # ascending, as from sym_eigen
        inverse = np.linalg.inv(est.psi)
        assert np.abs((vecs * lam) @ vecs.T - inverse).max() <= 1e-10 * np.abs(inverse).max()
        assert condition_number(est.spectrum) == pytest.approx(condition_number(est.psi), rel=1e-10)
        assert penalized_qml(s, 36, PenaltySpec("l1", 0.5)).spectrum is None  # ADMM gives psi alone

    def test_decimal_returns_converge_in_few_steps(self):
        s = sample_covariance(synth_returns(120, 49, np.random.default_rng(0))) / 1e4
        est = penalized_qml(s, 120, PenaltySpec("l2", 0.1))
        assert est.converged and est.iterations <= 5, est.iterations


class TestAnderson:
    def test_affine_contraction_reaches_its_fixed_point(self, rng):
        # x -> A x + b in R^3 with spectral radius 0.9: a plain iteration
        # needs about 250 maps to reach 1e-12
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        a = q @ np.diag([0.9, -0.5, 0.2]) @ q.T
        b = rng.normal(size=3)
        fixed = np.linalg.solve(np.eye(3) - a, b)
        aa, x = estimators._Anderson(), np.zeros(3)
        for maps in range(1, 7):
            x = aa.step(a @ x + b, x)
            if np.abs(x - fixed).max() <= 1e-12:
                break
        assert np.abs(x - fixed).max() <= 1e-12, maps


class TestTuneRho:
    def test_singleton_grid(self, rng):
        block = synth_returns(48, 5, rng)
        [(rho_star, curve)] = tune_rho(block, [("l1", 0.5)], [0.8])
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
        [(rho_star, curve)] = tune_rho(block, [("l1", 0.5)], [0.0, 0.25, 0.5, 1.0, 2.0])
        scores = dict(curve)
        assert rho_star > 0.0
        assert scores[rho_star] >= scores[0.0]

    def test_ties_break_toward_smaller_rho(self, rng):
        # scoring is deterministic, so exact ties only arise from duplicates;
        # verify the argmax rule directly on a two-point plateau
        block = synth_returns(48, 4, rng)
        [(rho_star, curve)] = tune_rho(block, [("l2", 0.5)], [0.3, 0.31])
        scores = [s for _, s in curve]
        if scores[0] == scores[1]:
            assert rho_star == 0.3
        else:
            assert rho_star == (0.3 if scores[0] > scores[1] else 0.31)

    def test_short_block_rejected(self, rng):
        with pytest.raises(InsufficientDataError):
            tune_rho(synth_returns(20, 4, rng), [("l1", 0.5)], [0.5])

    def test_unsorted_grid_rejected(self, rng):
        with pytest.raises(TuningError):
            tune_rho(synth_returns(48, 4, rng), [("l1", 0.5)], [1.0, 0.5])

    def test_nonconverged_points_scored_minus_inf(self, rng):
        block = synth_returns(48, 6, rng)
        starved = SolverOptions(max_iter=1, tol=1e-14)
        [(rho_star, curve)] = tune_rho(block, [("l2", 0.5)], [0.5, 1.0], opts=starved)
        assert rho_star is None
        assert curve == [(0.5, -np.inf), (1.0, -np.inf)]

    def test_curve_covers_grid(self, rng):
        block = synth_returns(48, 4, rng)
        grid = [0.0, 0.5, 1.0, 1.5]
        [(_, curve)] = tune_rho(block, [("l2", 0.5)], grid)
        assert [rho for rho, _ in curve] == grid

    def test_warm_started_path_matches_cold_solves(self):
        # a p = 17, T = 120 block on the paper's 31-point grid: each ADMM solve
        # down the path starts from its neighbour's state
        block = synth_returns(120, 17, np.random.default_rng(0))
        grid = [round(0.1 * k, 10) for k in range(31)]
        n_fit = int(np.ceil(estimators.TUNE_FIT_SHARE * 120))
        s_fit, s_hold = sample_covariance(block[:n_fit]), sample_covariance(block[n_fit:])
        tuned = tune_rho(block, [("l1", 0.5), ("elastic", 0.5)], grid)
        for (rho_star, curve), kind in zip(tuned, ("l1", "elastic")):
            assert [rho for rho, _ in curve] == grid
            cold = []
            for rho, warm in curve:
                est = penalized_qml(s_fit, n_fit, PenaltySpec(kind, rho))
                assert est.converged
                cold.append(estimators.predictive_loglik(est.psi, s_hold))
                assert warm == pytest.approx(cold[-1], rel=1e-6, abs=0.0), (kind, rho)
            assert rho_star == grid[int(np.argmax(cold))]

    def test_point_after_an_unconverged_one_starts_cold(self, monkeypatch):
        solves = []

        def spy(s, t, penalty, opts=None, *, start=None):
            estimate = penalized_qml(s, t, penalty, opts, start=start)
            solves.append((start, estimate))
            return estimate

        monkeypatch.setattr(estimators, "penalized_qml", spy)
        block = synth_returns(120, 17, np.random.default_rng(0))
        # 15 iterations converge some points of this path and cap others
        tune_rho(block, [("l1", 0.5)], [0.25, 0.5, 1.0, 2.0, 3.0], SolverOptions(max_iter=15))
        assert solves[0][0] is None
        for (_, before), (start, _) in zip(solves, solves[1:]):
            assert start is (before.state if before.converged else None)
        converged = [estimate.converged for _, estimate in solves]
        assert any(converged[:-1]) and not all(converged[:-1])  # both kinds of handover occur

    def test_each_distinct_problem_solved_once(self, rng, monkeypatch):
        # rho = 0 is one unpenalized problem for every kind, and an elastic
        # alpha of 0 or 1 poses the l1 or l2 problem
        calls = []

        def counted(s, t, penalty, opts=None, *, start=None):
            calls.append((penalty.kind, penalty.rho))
            return penalized_qml(s, t, penalty, opts, start=start)

        monkeypatch.setattr(estimators, "penalized_qml", counted)
        block = synth_returns(48, 4, rng)
        tune_rho(block, [("l1", 0.5), ("l2", 0.5), ("elastic", 0.5)], [0.0, 0.5, 1.0])
        assert len(calls) == 7  # each penalty's grid walks down from the largest rho
        assert calls[2] == ("l1", 0.0) and [rho for _, rho in calls].count(0.0) == 1
        calls.clear()
        tune_rho(block, [("l1", 0.5), ("l2", 0.5), ("elastic", 0.0), ("elastic", 1.0)], [0.0, 0.5])
        assert calls == [("l1", 0.5), ("l1", 0.0), ("l2", 0.5)]

    def test_joint_curves_equal_curves_tuned_alone(self, rng):
        block = synth_returns(48, 5, rng)
        grid = [0.0, 0.25, 1.0, 3.0]
        penalties = [("l1", 0.5), ("l2", 0.5), ("elastic", 0.3), ("elastic", 0.0), ("elastic", 1.0)]
        joint = tune_rho(block, penalties, grid)
        assert joint == [tune_rho(block, [penalty], grid)[0] for penalty in penalties]
        assert all(np.isfinite(score) for _, curve in joint for _, score in curve)

    def test_singular_fit_block_warns_once_for_every_kind(self, rng, caplog):
        block = synth_returns(24, 20, rng)  # 18 fitting rows for 20 assets: S_fit is singular
        with caplog.at_level("WARNING", logger="precis.estimators"):
            tuned = tune_rho(block, [("l1", 0.5), ("l2", 0.5), ("elastic", 0.5)], [0.0, 1.0])
        failed = [r.getMessage() for r in caplog.records if "rho=0 failed" in r.getMessage()]
        assert len(failed) == 1, failed
        assert all(curve[0] == (0.0, -np.inf) and rho_star == 1.0 for rho_star, curve in tuned)

    def test_unconverged_point_warns_once(self, caplog):
        block = synth_returns(120, 17, np.random.default_rng(0))
        capped = SolverOptions(max_iter=3)  # caps ADMM at rho 1 and 3; Ridge and the inverse pass
        with caplog.at_level("WARNING", logger="precis.estimators"):
            tuned = tune_rho(block, [("l1", 0.5), ("l2", 0.5), ("elastic", 0.5)], [0.0, 1.0, 3.0], capped)
        messages = [r.getMessage() for r in caplog.records]
        unconverged = [
            f"({kind}, rho={rho:.4g}) not converged"
            for (_, curve), kind in zip(tuned, ("l1", "l2", "elastic"))
            for rho, score in curve
            if score == -np.inf
        ]
        assert len(unconverged) == 4 and len(messages) == 4, messages
        assert all(sum(point in m for m in messages) == 1 for point in unconverged), messages
