from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_panel, synth_returns
from precis import (
    RollingConfig,
    StrategySpec,
    WeightVector,
    build_report,
    condition_number,
    condition_stats,
    equal_weights,
    invert_spd,
    ledoit_wolf_intensity,
    mvp_weights,
    no_short_mvp,
    oos_sharpe,
    oos_variance,
    pca_precision,
    run_rolling,
    sample_covariance,
    sample_precision,
    sparsity,
    turnover,
    weight_distribution,
)
import precis
from precis import backtest, estimators, linalg, portfolio
from precis.backtest import StrategyRun, WindowRecord
from precis.errors import (
    ConfigError,
    InsufficientDataError,
    PrecisError,
    UndefinedMetricError,
)


def fake_run(weight_rows, oos=None, conds=None, zeros=None, start_id=0, gaps=()):
    """Assemble a StrategyRun by hand for metric unit tests."""
    spec = StrategySpec("X", "equal")
    records = []
    wid = start_id
    for k, row in enumerate(weight_rows):
        while wid in gaps:
            wid += 1
        records.append(
            WindowRecord(
                window_id=wid,
                weights=WeightVector(np.asarray(row, dtype=float)),
                oos_return=0.0 if oos is None else float(oos[k]),
                cond=np.nan if conds is None else conds[k],
                zero_fraction=np.nan if zeros is None else zeros[k],
            )
        )
        wid += 1
    return StrategyRun(spec=spec, n_windows=len(records), records=records)


class TestRunRolling:
    def test_minimal_panel_gives_one_window(self, rng):
        panel = make_panel(synth_returns(25, 3, rng))
        config = RollingConfig(strategies=(StrategySpec("EW-MVP", "equal"),), window_length=24)
        runs = run_rolling(panel, config)
        run = runs["EW-MVP"]
        assert run.n_windows == 1
        assert run.n_success == 1
        assert [rec.window_id for rec in run.records] == [24]

    def test_equal_weight_returns_are_month_means(self, rng):
        returns = synth_returns(30, 4, rng)
        panel = make_panel(returns)
        config = RollingConfig(strategies=(StrategySpec("EW-MVP", "equal"),), window_length=24)
        run = run_rolling(panel, config)["EW-MVP"]
        for rec in run.records:
            assert rec.oos_return == pytest.approx(returns[rec.window_id].mean())

    def test_window_accounting_with_failures(self, rng):
        # 6 assets but only a 4-month window: every sample covariance is
        # singular, so the sample strategy fails on every window
        returns = synth_returns(10, 6, rng)
        panel = make_panel(returns)
        config = RollingConfig(
            strategies=(StrategySpec("S-MVP", "sample"), StrategySpec("EW-MVP", "equal")),
            window_length=4,
        )
        runs = run_rolling(panel, config)
        sample = runs["S-MVP"]
        assert not sample.available
        assert sample.n_success + len(sample.failures) == 10 - 4
        assert len(sample.failures) == 6
        equal = runs["EW-MVP"]
        assert equal.n_success == 6

    def test_mc_mvp_variance_near_theory(self):
        # plug-in MVP out-of-sample variance exceeds the population MVP
        # variance by roughly (T-2)/(T-p-2) for iid Gaussian returns
        sigma = np.array(
            [
                [1.0, 0.3, 0.1, 0.0],
                [0.3, 1.5, 0.2, 0.1],
                [0.1, 0.2, 0.8, 0.15],
                [0.0, 0.1, 0.15, 1.2],
            ]
        )
        chol = np.linalg.cholesky(sigma)
        t_len, extra, p = 120, 20, 4
        pooled = []
        config = RollingConfig(strategies=(StrategySpec("S-MVP", "sample"),), window_length=t_len)
        for seed in range(50):
            gen = np.random.default_rng(seed)
            returns = gen.normal(size=(t_len + extra, p)) @ chol.T
            run = run_rolling(make_panel(returns), config)["S-MVP"]
            pooled.extend(run.oos_returns.tolist())
        pooled = np.asarray(pooled)
        sigma2_mvp = 1.0 / np.sum(invert_spd(sigma))
        expected = sigma2_mvp * (t_len - 2) / (t_len - p - 2)
        assert abs(pooled.var(ddof=1) - expected) <= 0.15 * expected

    def test_tuned_rho_recorded_and_curve_exposed(self, rng):
        panel = make_panel(synth_returns(40, 4, rng))
        config = RollingConfig(
            strategies=(StrategySpec("Glasso-MVP", "qml_l1", rho=None),),
            window_length=30,
            tuning_grid=(0.0, 0.5, 1.0),
        )
        run = run_rolling(panel, config)["Glasso-MVP"]
        assert run.tuned_rho in (0.0, 0.5, 1.0)
        assert [r for r, _ in run.tuning_curve] == [0.0, 0.5, 1.0]

    def test_duplicate_strategy_names_rejected(self):
        with pytest.raises(ConfigError):
            RollingConfig(
                strategies=(StrategySpec("A", "equal"), StrategySpec("A", "sample")),
                window_length=12,
            )

    @pytest.mark.parametrize(
        "build",
        [
            lambda: StrategySpec("S-MVP", "sample", rho=0.4),
            lambda: StrategySpec("EW-MVP", "equal", rho=0.0),
            lambda: StrategySpec("Ridge-MVP", "qml_l2", rho=0.4, alpha=0.3),
            lambda: RollingConfig(strategies=(), window_length=30.0),
            lambda: RollingConfig(strategies=(), window_length="30"),
            lambda: RollingConfig(strategies=(), window_length=True),
        ],
        ids=[
            "rho-on-sample",
            "rho-on-equal",
            "alpha-on-ridge",
            "window-a-float",
            "window-text",
            "window-a-boolean",
        ],
    )
    def test_unread_parameter_or_non_integer_window_rejected(self, build):
        with pytest.raises(ConfigError):
            build()

    def test_numpy_integer_window_accepted(self):
        config = RollingConfig(strategies=(), window_length=np.int64(30))
        assert config.window_length == 30

    def test_panel_shorter_than_window_rejected(self, rng):
        panel = make_panel(synth_returns(10, 3, rng))
        config = RollingConfig(strategies=(StrategySpec("EW", "equal"),), window_length=12)
        with pytest.raises(InsufficientDataError):
            run_rolling(panel, config)

    def test_no_lookahead_in_evaluation_month(self, rng):
        returns = synth_returns(40, 4, rng)
        config = RollingConfig(
            strategies=(
                StrategySpec("S-MVP", "sample"),
                StrategySpec("EW-MVP", "equal"),
                StrategySpec("LW-MVP", "ledoit_wolf"),
                StrategySpec("Glasso-MVP", "qml_l1", rho=None),
            ),
            window_length=30,
            tuning_grid=(0.0, 0.3),
        )
        baseline = run_rolling(make_panel(returns), config)
        target = 32  # a window id strictly inside the OOS span
        bumped = returns.copy()
        bumped[target] += 1000.0
        perturbed = run_rolling(make_panel(bumped), config)
        for name in baseline:
            w_base = next(r for r in baseline[name].records if r.window_id == target)
            w_pert = next(r for r in perturbed[name].records if r.window_id == target)
            assert np.array_equal(w_base.weights.weights, w_pert.weights.weights)

    def test_pca_with_every_component_matches_sample_mvp(self, rng):
        # with k = p the PCA precision is the inverse sample covariance, so
        # the budget constraint on the assets gives exactly the S-MVP weights
        panel = make_panel(synth_returns(40, 5, rng))
        config = RollingConfig(
            strategies=(StrategySpec("S-MVP", "sample"), StrategySpec("PCA-MVP", "pca")),
            window_length=30,
        )
        runs = run_rolling(panel, config)
        assert runs["PCA-MVP"].n_success == runs["S-MVP"].n_success == 10
        # a finite condition number: the 0.99 share kept every component
        assert np.all(np.isfinite([rec.cond for rec in runs["PCA-MVP"].records]))
        for pca, sample in zip(runs["PCA-MVP"].records, runs["S-MVP"].records):
            gap = np.abs(pca.weights.weights - sample.weights.weights).max()
            assert gap <= 1e-12

    def test_determinism_bitwise(self, rng):
        returns = synth_returns(38, 4, rng)
        config = RollingConfig(
            strategies=(StrategySpec("Ridge-MVP", "qml_l2", rho=0.4),
                        StrategySpec("JM-MVP", "no_short")),
            window_length=30,
        )
        first = run_rolling(make_panel(returns), config)
        second = run_rolling(make_panel(returns), config)
        for name in first:
            for a, b in zip(first[name].records, second[name].records):
                assert np.array_equal(a.weights.weights, b.weights.weights)
                assert a.oos_return == b.oos_return


NON_PENALIZED = (
    StrategySpec("S-MVP", "sample"),
    StrategySpec("EW-MVP", "equal"),
    StrategySpec("LW-MVP", "ledoit_wolf"),
    StrategySpec("PCA-MVP", "pca"),
    StrategySpec("JM-MVP", "no_short"),
)
PCA_SHARE = 0.99  # the variance share pca_precision keeps by default


def _rebuilt_record(spec, rows):
    """One strategy on one window from the public estimators and a fresh S.

    Returns (weights, cond) or the failure message the backtest should record.
    """
    s = sample_covariance(rows)
    try:
        if spec.kind == "equal":
            return equal_weights(rows.shape[1]).weights, np.nan
        if spec.kind == "no_short":
            return no_short_mvp(s)[0].weights, np.nan
        if spec.kind == "pca":
            # psi pseudo-inverts the rank-k covariance: S's condition number
            # when every component is kept, infinite otherwise
            lam = np.linalg.eigvalsh(s)[::-1]
            k = int(np.argmax(np.cumsum(lam) >= PCA_SHARE * lam.sum())) + 1
            cond = condition_number(s) if k == len(lam) else np.inf
            return mvp_weights(pca_precision(s, PCA_SHARE).psi).weights, cond
        if spec.kind == "sample":
            psi = sample_precision(s).psi
        else:  # Ledoit-Wolf, shrunk as a dense matrix
            alpha = ledoit_wolf_intensity(rows)
            psi = invert_spd((1 - alpha) * s + alpha * np.diag(s).mean() * np.eye(s.shape[0]))
        return mvp_weights(psi).weights, condition_number(psi)
    except PrecisError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestSharedWindowWork:
    """One covariance and one spectrum per window, shared by every strategy."""

    def test_one_covariance_and_one_spectrum_per_window(self, rng, monkeypatch):
        calls = {"sample_covariance": 0, "sym_eigen": 0}
        for name in calls:
            original = getattr(linalg, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in (precis, linalg, estimators, portfolio, backtest):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        panel = make_panel(synth_returns(40, 6, rng))
        runs = run_rolling(panel, RollingConfig(strategies=NON_PENALIZED, window_length=30))
        assert all(run.n_success == 10 for run in runs.values())
        assert calls == {"sample_covariance": 10, "sym_eigen": 10}

    def test_matches_strategies_rebuilt_one_at_a_time(self, rng):
        plain = synth_returns(45, 8, rng)
        # a ninth column that nearly repeats the first: the 0.99 share drops a component
        collinear = np.column_stack([plain, plain[:, 0] + 0.5 * rng.normal(size=45)])
        t_len = 30
        for returns, pca_keeps_all in ((plain, True), (collinear, False)):
            runs = run_rolling(
                make_panel(returns), RollingConfig(strategies=NON_PENALIZED, window_length=t_len)
            )
            for spec in NON_PENALIZED:
                run = runs[spec.name]
                assert [rec.window_id for rec in run.records] == list(range(t_len, 45))
                assert not run.failures
                for rec in run.records:
                    t = rec.window_id
                    weights, cond = _rebuilt_record(spec, returns[t - t_len : t])
                    oos = float(weights @ returns[t])
                    gap = np.abs(rec.weights.weights - weights).max()
                    assert gap <= 1e-10 * np.abs(weights).max()
                    assert rec.oos_return == pytest.approx(oos, rel=1e-10, abs=0.0)
                    if np.isnan(cond):
                        assert np.isnan(rec.cond)
                    else:
                        assert rec.cond == pytest.approx(cond, rel=1e-10, abs=0.0)
            # both PCA cases occur: every component kept, and some dropped
            pca_conds = [rec.cond for rec in runs["PCA-MVP"].records]
            assert np.all(np.isfinite(pca_conds) if pca_keeps_all else np.isinf(pca_conds))

    def test_wide_windows_fail_as_when_rebuilt(self, rng):
        # p = 12 > T = 8: S is singular on every window
        returns = synth_returns(14, 12, rng)
        runs = run_rolling(
            make_panel(returns), RollingConfig(strategies=NON_PENALIZED, window_length=8)
        )
        for spec in NON_PENALIZED:
            expected = [
                (t, outcome)
                for t in range(8, 14)
                if isinstance(outcome := _rebuilt_record(spec, returns[t - 8 : t]), str)
            ]
            assert runs[spec.name].failures == expected
        for name in ("S-MVP", "JM-MVP"):
            failures = runs[name].failures
            assert len(failures) == 6
            assert all(message.startswith("SingularMatrixError: ") for _, message in failures)


class TestMetrics:
    def test_variance_trivials(self):
        assert oos_variance(fake_run([[1.0]] * 3, oos=[2.0, 2.0, 2.0])) == 0.0
        assert oos_variance(fake_run([[1.0]] * 2, oos=[1.0, -1.0])) == pytest.approx(2.0)
        with pytest.raises(InsufficientDataError):
            oos_variance(fake_run([[1.0]], oos=[1.0]))

    def test_sharpe_trivials(self):
        run = fake_run([[1.0]] * 2, oos=[2.0, 0.0])
        assert oos_sharpe(run) == pytest.approx(1.0 / np.sqrt(2.0))
        constant = fake_run([[1.0]] * 3, oos=[1.0, 1.0, 1.0])
        with pytest.raises(UndefinedMetricError):
            oos_sharpe(constant)

    def test_turnover_drift_positive_for_equal_weights(self, rng):
        returns = synth_returns(30, 4, rng)
        panel = make_panel(returns)
        config = RollingConfig(strategies=(StrategySpec("EW-MVP", "equal"),), window_length=24)
        run = run_rolling(panel, config)["EW-MVP"]
        assert turnover(run, panel) > 0.0

    def test_turnover_drift_hand_oracle(self):
        returns = np.array([[10.0, 0.0], [0.0, 0.0], [5.0, -5.0]])
        panel = SimpleNamespace(returns=returns)
        w = [[0.5, 0.5], [0.6, 0.4]]
        run = fake_run(w, oos=[5.0, 0.0], start_id=0)
        # drifted holdings after month 0: 0.5*(1.10)/1.05, 0.5*(1.00)/1.05
        held = np.array([0.5 * 1.10, 0.5 * 1.00]) / 1.05
        expected = np.abs(np.array([0.6, 0.4]) - held).sum()
        assert turnover(run, panel) == pytest.approx(expected)

    def test_turnover_single_asset_zero(self):
        panel = SimpleNamespace(returns=np.array([[3.0], [1.0], [-2.0]]))
        run = fake_run([[1.0]] * 3, oos=[3.0, 1.0, -2.0])
        assert turnover(run, panel) == pytest.approx(0.0, abs=1e-15)

    def test_turnover_skips_gapped_pairs(self, rng):
        panel = make_panel(synth_returns(30, 2, rng))
        run = fake_run([[0.5, 0.5], [0.4, 0.6], [0.3, 0.7]], oos=[0.0, 0.0, 0.0], gaps={1})
        # ids are 0, 2, 3: only the (2, 3) pair counts; window 2's oos is 0,
        # so its holdings drift by row 2's returns alone
        held = np.array([0.4, 0.6]) * (1.0 + panel.returns[2] / 100.0)
        expected = np.abs(np.array([0.3, 0.7]) - held).sum()
        assert turnover(run, panel) == pytest.approx(expected)

    def test_weight_distribution_equal_weights(self):
        run = fake_run([[0.25] * 4] * 3)
        summary = weight_distribution(run)
        assert summary["weight_min"] == summary["weight_p5"] == 0.25
        assert summary["weight_p95"] == summary["weight_max"] == 0.25
        assert summary["weight_neg_fraction"] == 0.0

    def test_weight_distribution_hand_oracle(self):
        rows = [[-0.2, 0.5, 0.7], [0.1, 0.2, 0.7], [-0.1, 0.4, 0.7]]
        summary = weight_distribution(fake_run(rows))
        mins = [min(r) for r in rows]
        maxs = [max(r) for r in rows]
        p5s = [np.percentile(r, 5) for r in rows]
        assert summary["weight_min"] == pytest.approx(np.mean(mins))
        assert summary["weight_max"] == pytest.approx(np.mean(maxs))
        assert summary["weight_p5"] == pytest.approx(np.mean(p5s))
        assert summary["weight_neg_fraction"] == pytest.approx(np.mean([1 / 3, 0.0, 1 / 3]))

    def test_sparsity_trivials(self):
        diagonal = fake_run([[1.0]] * 2, zeros=[1.0, 1.0])
        assert sparsity(diagonal) == 1.0
        dense = fake_run([[1.0]] * 2, zeros=[0.0, 0.0])
        assert sparsity(dense) == 0.0
        with pytest.raises(UndefinedMetricError):
            sparsity(fake_run([[1.0]] * 2))

    def test_condition_stats_identity_estimates(self):
        run = fake_run([[1.0]] * 3, conds=[1.0, 1.0, 1.0])
        stats = condition_stats(run)
        assert stats["cond_mean"] == 1.0
        assert stats["cond_std"] == 0.0
        assert stats["cond_infinite"] == 0

    def test_condition_stats_excludes_infinities(self):
        run = fake_run([[1.0]] * 4, conds=[10.0, np.inf, 30.0, np.inf])
        stats = condition_stats(run)
        assert stats["cond_mean"] == pytest.approx(20.0)
        assert stats["cond_std"] == pytest.approx(np.std([10.0, 30.0], ddof=1))  # the 2 finite ones
        assert stats["cond_infinite"] == 2

    def test_shrinkage_and_turnover_ordering(self, rng):
        # synthetic stand-in for the vintage-contingent table checks: with
        # real estimation noise, shrinkage beats the sample plug-in on OOS
        # variance, and monthly-rebalanced equal weights trade the least
        returns = synth_returns(140, 10, rng, rho_common=0.4)
        panel = make_panel(returns)
        config = RollingConfig(
            strategies=(
                StrategySpec("S-MVP", "sample"),
                StrategySpec("EW-MVP", "equal"),
                StrategySpec("LW-MVP", "ledoit_wolf"),
                StrategySpec("JM-MVP", "no_short"),
                StrategySpec("Glasso-MVP", "qml_l1", rho=0.5),
            ),
            window_length=40,
        )
        runs = run_rolling(panel, config)
        assert oos_variance(runs["LW-MVP"]) < oos_variance(runs["S-MVP"])
        ew_turnover = turnover(runs["EW-MVP"], panel)
        for name in runs:
            if name != "EW-MVP":
                assert ew_turnover < turnover(runs[name], panel), name

    def test_shrunk_condition_numbers_dominate_sample(self, rng):
        panel = make_panel(synth_returns(40, 5, rng, rho_common=0.5))
        config = RollingConfig(
            strategies=(StrategySpec("S-MVP", "sample"), StrategySpec("LW-MVP", "ledoit_wolf")),
            window_length=30,
        )
        runs = run_rolling(panel, config)
        sample_stats = condition_stats(runs["S-MVP"])
        lw_stats = condition_stats(runs["LW-MVP"])
        assert lw_stats["cond_mean"] <= sample_stats["cond_mean"]


class TestReport:
    def test_unavailable_strategy_marked(self, rng):
        returns = synth_returns(10, 6, rng)
        panel = make_panel(returns)
        config = RollingConfig(
            strategies=(StrategySpec("S-MVP", "sample"), StrategySpec("EW-MVP", "equal")),
            window_length=4,
        )
        runs = run_rolling(panel, config)
        report = build_report(runs, panel, config, dataset="toy")
        by_name = {s.name: s for s in report.strategies}
        assert not by_name["S-MVP"].available
        assert by_name["S-MVP"].oos_variance is None
        assert by_name["S-MVP"].n_failed == 6
        assert by_name["EW-MVP"].available
        assert by_name["EW-MVP"].turnover is not None

    def test_report_carries_protocol_fields(self, rng):
        panel = make_panel(synth_returns(28, 3, rng))
        config = RollingConfig(strategies=(StrategySpec("EW-MVP", "equal"),), window_length=24)
        report = build_report(run_rolling(panel, config), panel, config, dataset="toy")
        assert report.n == 28 and report.p == 3 and report.window_length == 24
        assert report.strategies[0].n_windows == 4
