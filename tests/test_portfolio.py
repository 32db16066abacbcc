import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_psd_singular, rand_spd, synth_returns
from precis import (
    EigenDecomposition,
    equal_weights,
    invert_spd,
    ledoit_wolf,
    ledoit_wolf_intensity,
    mvp_weights,
    no_short_mvp,
    pca_precision,
    sample_covariance,
    sample_precision,
    sym_eigen,
)
from precis.errors import (
    DegenerateMatrixError,
    NonconvergenceError,
    NotPSDError,
    PrecisError,
    SingularMatrixError,
)


class TestMvpWeights:
    def test_identity_gives_equal_split(self):
        wv = mvp_weights(np.eye(4))
        assert np.allclose(wv.weights, 0.25)

    def test_diagonal_row_sums(self):
        wv = mvp_weights(np.diag([1.0, 3.0]))
        assert np.allclose(wv.weights, [0.25, 0.75])

    def test_minimizes_over_unit_sum_perturbations(self, rng):
        psi = rand_spd(5, rng, cond=20.0)
        sigma = invert_spd(psi)
        w = mvp_weights(psi).weights
        base = w @ sigma @ w
        noise = rng.normal(size=(100_000, 5))
        probes = w + (noise - noise.mean(axis=1, keepdims=True))  # still unit sum
        values = np.einsum("ij,jk,ik->i", probes, sigma, probes)
        assert base <= values.min() + 1e-12

    def test_zero_normalizer_rejected(self):
        psi = np.array([[1.0, -1.0], [-1.0, 1.0]])  # e' psi e == 0
        with pytest.raises(DegenerateMatrixError):
            mvp_weights(psi)

    @given(seed=st.integers(0, 10_000), scale=st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, seed, scale):
        gen = np.random.default_rng(seed)
        psi = rand_spd(4, gen)
        assert np.allclose(
            mvp_weights(psi).weights, mvp_weights(scale * psi).weights, atol=1e-12
        )


def _gap(a, b):
    """Largest weight difference relative to the largest weight of b."""
    return np.abs(a.weights - b.weights).max() / np.abs(b.weights).max()


def _outcome(build):
    """build()'s weights, or its error as (type, message)."""
    try:
        return build()
    except PrecisError as exc:
        return type(exc), str(exc)


class TestSpectralMvpWeights:
    """mvp_weights from a covariance spectrum against the dense precision it determines."""

    def test_random_spd_spectra(self, rng):
        for _ in range(40):
            p = int(rng.integers(2, 40))
            decomp = sym_eigen(rand_spd(p, rng, cond=10 ** rng.uniform(0, 3)))
            assert _gap(mvp_weights(decomp), mvp_weights(invert_spd(decomp))) <= 1e-12

    def test_ledoit_wolf_spectra(self, rng):
        for n, p in ((60, 8), (30, 40), (120, 100)):
            window = synth_returns(n, p, rng)
            s = sample_covariance(window)
            alpha = ledoit_wolf_intensity(window, s)
            # oracle: the shrunk covariance built and inverted as a dense matrix
            dense = invert_spd((1 - alpha) * s + alpha * np.diag(s).mean() * np.eye(p))
            spectrum = ledoit_wolf(sym_eigen(s), alpha).spectrum
            assert _gap(mvp_weights(spectrum), mvp_weights(dense)) <= 1e-12

    def test_rank_k_pca_spectra(self, rng):
        s = sample_covariance(synth_returns(60, 12, rng))
        lam, vecs = np.linalg.eigh(s)
        for threshold in (0.3, 0.6, 0.9, 0.99, 1.0):
            est = pca_precision(sym_eigen(s), threshold)
            k = int(np.count_nonzero(est.spectrum.eigenvalues))
            # oracle: V_k diag(1/lambda_k) V_k' from numpy's eigh, largest k
            dense = (vecs[:, -k:] / lam[-k:]) @ vecs[:, -k:].T
            assert _gap(mvp_weights(est.spectrum), mvp_weights(dense)) <= 1e-12

    @pytest.mark.parametrize("case", ["singular", "negative", "zero_normalizer"])
    def test_failures_match_the_dense_path(self, rng, case):
        if case == "singular":  # p = 12 > T = 8
            decomp = sym_eigen(sample_covariance(rng.normal(size=(8, 12))))
            builders = (sample_precision, lambda d: ledoit_wolf(d, 0.0))
        elif case == "negative":
            lam = np.linspace(-1.0, 4.0, 5)
            decomp = EigenDecomposition(lam, np.linalg.qr(rng.normal(size=(5, 5)))[0])
            builders = (sample_precision, lambda d: ledoit_wolf(d, 0.0))
        else:  # all variance off e: PCA keeps no component with any weight on it
            basis = np.linalg.qr(np.column_stack([np.ones(4), rng.normal(size=(4, 3))]))[0]
            decomp = EigenDecomposition(np.array([1e-6, 1.0, 2.0, 3.0]), basis)
            builders = (pca_precision,)
        expected = {
            "singular": SingularMatrixError,
            "negative": NotPSDError,
            "zero_normalizer": DegenerateMatrixError,
        }[case]
        for build in builders:
            dense = _outcome(lambda: mvp_weights(build(decomp).psi))
            spectral = _outcome(lambda: mvp_weights(build(decomp).spectrum))
            assert dense == spectral
            assert dense[0] is expected
        if case != "zero_normalizer":  # the estimators raise what invert_spd raises
            assert _outcome(lambda: invert_spd(decomp)) == dense

    def test_zero_normalizer_on_a_spectrum(self):
        # the covariance spectrum that psi = [[1, -1], [-1, 1]] pseudo-inverts
        vecs = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        with pytest.raises(DegenerateMatrixError, match="numerically zero"):
            mvp_weights(EigenDecomposition(np.array([0.0, 0.5]), vecs))


class TestEqualWeights:
    def test_seventeen_assets(self):
        wv = equal_weights(17)
        assert np.allclose(wv.weights, 1.0 / 17)

    def test_single_asset(self):
        assert equal_weights(1).weights.tolist() == [1.0]

    def test_sum_to_one_large(self):
        assert equal_weights(10_000).weights.sum() == pytest.approx(1.0, abs=1e-10)

    def test_zero_assets_rejected(self):
        with pytest.raises(DegenerateMatrixError):
            equal_weights(0)


class TestNoShortMvp:
    def test_two_asset_closed_form(self):
        wv, cert = no_short_mvp(np.diag([1.0, 4.0]))
        assert np.allclose(wv.weights, [0.8, 0.2])
        assert cert.residual <= 1e-7

    def test_inactive_constraints_match_unconstrained(self, rng):
        # diagonal covariance keeps every unconstrained MVP weight positive
        s = np.diag(1.0 + 4.0 * rng.random(6))
        wv, cert = no_short_mvp(s)
        unconstrained = mvp_weights(invert_spd(s)).weights
        assert np.abs(wv.weights - unconstrained).max() <= 1e-6
        assert cert.residual <= 1e-7

    def test_forced_zero_matches_simplex_grid(self):
        # covariance above the second asset's own variance makes its
        # unconstrained MVP weight negative, so the QP pins it at zero
        s = np.array(
            [
                [1.0, 1.5, 0.0],
                [1.5, 4.0, 0.0],
                [0.0, 0.0, 1.5],
            ]
        )
        wv, cert = no_short_mvp(s)
        assert cert.residual <= 1e-7
        assert np.any(wv.weights == 0.0)
        # dense simplex grid at 1e-3 resolution
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        w1, w2 = np.meshgrid(grid, grid, indexing="ij")
        keep = w1 + w2 <= 1.0 + 1e-12
        w1, w2 = w1[keep], w2[keep]
        w3 = 1.0 - w1 - w2
        probes = np.column_stack([w1, w2, w3])
        values = np.einsum("ij,jk,ik->i", probes, s, probes)
        ours = wv.weights @ s @ wv.weights
        assert ours <= values.min() + 1e-9

    def test_kkt_certificate_on_random_instances(self, rng):
        for k in range(10):
            p = 3 + k
            s = rand_spd(p, rng, cond=5 + 20 * k)
            wv, cert = no_short_mvp(s)
            grad = 2.0 * s @ wv.weights
            on = wv.weights > 0
            assert np.abs(grad[on] - cert.multiplier).max() <= 1e-7
            if np.any(~on):
                assert np.all(grad[~on] >= cert.multiplier - 1e-7)

    def test_singular_covariance_rejected_by_default(self, rng):
        s = rand_psd_singular(6, 3, rng)
        with pytest.raises(SingularMatrixError):
            no_short_mvp(s)

    def test_exhausted_budget_raises(self, rng):
        s = rand_spd(5, rng)
        with pytest.raises(NonconvergenceError):
            no_short_mvp(s, max_iter=0)

    def test_single_asset(self):
        wv, _ = no_short_mvp(np.array([[2.0]]))
        assert wv.weights.tolist() == [1.0]


def _kkt_ok(s, wv, cert):
    grad = 2.0 * s @ wv.weights
    on = wv.weights > 0
    return np.abs(grad[on] - cert.multiplier).max() <= 1e-7 and np.all(
        grad[~on] >= cert.multiplier - 1e-7
    )


class TestWarmStartedNoShortMvp:
    """A feasible start changes the active-set path, never the optimum."""

    def _check(self, s, start):
        cold = no_short_mvp(s)[0]
        warm, warm_cert = no_short_mvp(s, start=start)
        assert np.abs(warm.weights - cold.weights).max() <= 1e-12
        assert warm_cert.residual <= 1e-7 and _kkt_ok(s, warm, warm_cert)
        return warm_cert

    def test_adjacent_window_start(self, rng):
        returns = synth_returns(80, 25, rng)
        prev = None
        for t in range(60, 80):
            s = sample_covariance(returns[t - 60 : t])
            if prev is not None:
                warm_cert = self._check(s, prev)
                assert warm_cert.iterations <= no_short_mvp(s, start=np.full(25, 1 / 25))[1].iterations
            prev = no_short_mvp(s)[0].weights

    def test_random_supports(self, rng):
        s = sample_covariance(synth_returns(60, 15, rng))
        for _ in range(30):
            support = rng.random(15) < rng.uniform(0.1, 0.9)
            support[rng.integers(15)] = True
            start = np.where(support, rng.random(15), 0.0)
            self._check(s, start / start.sum())

    def test_start_missing_held_assets(self, rng):
        s = sample_covariance(synth_returns(60, 15, rng))
        optimum = no_short_mvp(s)[0].weights
        held, unheld = np.flatnonzero(optimum > 0), np.flatnonzero(optimum == 0)
        assert held.size >= 2 and unheld.size >= 1
        start = np.zeros(15)
        start[unheld] = 1.0 / unheld.size  # every asset the optimum holds starts pinned
        self._check(s, start)
        start = np.zeros(15)
        start[held[0]] = 1.0  # a single held asset
        self._check(s, start)

    def test_full_support_start(self, rng):
        s = sample_covariance(synth_returns(60, 15, rng))
        start = 0.5 + rng.random(15)
        self._check(s, start / start.sum())

    def test_spectrum_stands_in_for_singularity_check(self, rng):
        s = sample_covariance(synth_returns(40, 6, rng))
        with_spectrum, _ = no_short_mvp(s, spectrum=sym_eigen(s))
        assert np.array_equal(with_spectrum.weights, no_short_mvp(s)[0].weights)
        singular = rand_psd_singular(6, 3, rng)
        with pytest.raises(SingularMatrixError):
            no_short_mvp(singular, spectrum=sym_eigen(singular))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_every_constructor_returns_unit_sum(seed):
    gen = np.random.default_rng(seed)
    p = int(2 + 6 * gen.random())
    psi = rand_spd(p, gen, cond=1 + 100 * gen.random())
    for wv in (
        mvp_weights(psi),
        equal_weights(p),
        no_short_mvp(invert_spd(psi))[0],
    ):
        assert abs(wv.weights.sum() - 1.0) <= 1e-10
        assert np.all(np.isfinite(wv.weights))
