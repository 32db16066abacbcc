"""Rolling-window out-of-sample evaluation.

For each month t from the window length T through the end of the panel, an
estimator is fit on the T preceding rows and the resulting weights are held
for month t, giving n - T out-of-sample returns per strategy. Estimator
failures (e.g. a singular sample covariance when assets outnumber
observations) exclude that window from that strategy's metrics and are
recorded as first-class report content rather than aborting the run.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConfigError,
    DegenerateMatrixError,
    InsufficientDataError,
    PrecisError,
    TuningError,
    UndefinedMetricError,
)
from .estimators import (
    PcaEstimate,
    PenaltySpec,
    PrecisionEstimate,
    SolverOptions,
    ledoit_wolf,
    pca_precision,
    penalized_qml,
    sample_precision,
    tune_rho,
)
from .linalg import condition_number, sample_covariance
from .panel import ReturnsPanel
from .portfolio import WeightVector, equal_weights, mvp_weights, no_short_mvp

logger = logging.getLogger(__name__)

SPARSITY_ZERO_TOL = 1e-8

STRATEGY_KINDS = (
    "sample",
    "equal",
    "ledoit_wolf",
    "pca",
    "no_short",
    "qml_l1",
    "qml_l2",
    "qml_elastic",
)

# Conventional labels for the strategies, matching the published tables.
PAPER_LABELS = {
    "S-MVP": "sample",
    "EW-MVP": "equal",
    "LW-MVP": "ledoit_wolf",
    "PCA-MVP": "pca",
    "JM-MVP": "no_short",
    "Glasso-MVP": "qml_l1",
    "Ridge-MVP": "qml_l2",
    "EN-MVP": "qml_elastic",
}

DEFAULT_RHO_GRID = tuple(round(0.1 * k, 1) for k in range(31))  # 0.0 .. 3.0 step 0.1


@dataclass(frozen=True)
class StrategySpec:
    """One portfolio strategy: estimator kind plus its parameters.

    rho=None on a penalized kind means "tune on the first estimation
    window". lw_alpha=None lets the Ledoit-Wolf intensity be set
    analytically per window.
    """

    name: str
    kind: str
    rho: float | None = None
    alpha: float = 0.5
    lw_alpha: float | None = None
    pca_threshold: float = 0.99

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"unknown strategy kind {self.kind!r}")
        if self.rho is not None and self.rho < 0:
            raise ConfigError(f"rho must be nonnegative, got {self.rho}")

    @property
    def penalized(self) -> bool:
        return self.kind.startswith("qml_")

    @property
    def penalty_kind(self) -> str:
        if not self.penalized:
            raise ConfigError(f"strategy kind {self.kind!r} has no penalty")
        return self.kind.removeprefix("qml_")


@dataclass(frozen=True)
class RollingConfig:
    """Rolling-window protocol parameters."""

    strategies: tuple[StrategySpec, ...]
    window_length: int = 120
    tuning_grid: tuple[float, ...] = DEFAULT_RHO_GRID
    tune_split: float = 0.75
    keep_estimates: bool = False
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if self.window_length < 2:
            raise ConfigError(f"window length must be at least 2, got {self.window_length}")
        if not self.strategies:
            raise ConfigError("at least one strategy is required")
        names = [s.name for s in self.strategies]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate strategy names in {names}")
        object.__setattr__(self, "strategies", tuple(self.strategies))
        object.__setattr__(self, "tuning_grid", tuple(float(g) for g in self.tuning_grid))

    @property
    def rho_by_strategy(self) -> dict[str, float | None]:
        return {s.name: s.rho for s in self.strategies if s.penalized}


@dataclass(frozen=True)
class WindowRecord:
    """Outcome of one successful window: weights, realized return, diagnostics."""

    window_id: int
    weights: WeightVector
    oos_return: float
    cond: float = np.nan
    zero_fraction: float = np.nan
    converged: bool | None = None
    extra: dict = field(default_factory=dict)


@dataclass
class StrategyRun:
    """All windows of one strategy over one panel."""

    spec: StrategySpec
    n_windows: int
    records: list[WindowRecord] = field(default_factory=list)
    failures: list[tuple[int, str]] = field(default_factory=list)
    estimates: list[PrecisionEstimate] | None = None
    tuned_rho: float | None = None
    tuning_curve: list[tuple[float, float]] | None = None

    @property
    def weights(self) -> list[WeightVector]:
        return [rec.weights for rec in self.records]

    @property
    def oos_returns(self) -> np.ndarray:
        return np.asarray([rec.oos_return for rec in self.records])

    @property
    def window_ids(self) -> list[int]:
        return [rec.window_id for rec in self.records]

    @property
    def n_success(self) -> int:
        return len(self.records)

    @property
    def available(self) -> bool:
        return self.n_success > 0


def _window_weights(
    spec: StrategySpec,
    window: np.ndarray,
    rho: float | None,
    window_id: int,
    solver: SolverOptions,
) -> tuple[WeightVector, WindowRecord, PrecisionEstimate | None]:
    """Weights plus diagnostics for one estimation window. Raises on failure."""
    p = window.shape[1]
    cond = np.nan
    zero_fraction = np.nan
    converged: bool | None = None
    extra: dict = {}
    estimate: PrecisionEstimate | None = None

    if spec.kind == "equal":
        wv = replace(equal_weights(p), strategy=spec.name, window_id=window_id)
    elif spec.kind == "pca":
        pca: PcaEstimate = pca_precision(window, threshold=spec.pca_threshold)
        reduced = mvp_weights(pca.reduced_precision).weights
        raw = pca.components @ reduced
        prenorm = float(raw.sum())
        if abs(prenorm) < 1e-12:
            raise DegenerateMatrixError("PCA back-projected weights sum to zero")
        wv = WeightVector(weights=raw / prenorm, strategy=spec.name, window_id=window_id)
        extra = {"k": pca.k, "explained": pca.explained_fraction, "prenorm_sum": prenorm}
    elif spec.kind == "no_short":
        s = sample_covariance(window)
        raw_wv, cert = no_short_mvp(s, window_id=window_id)
        wv = replace(raw_wv, strategy=spec.name)
        extra = {"kkt_residual": cert.residual}
    else:
        s = sample_covariance(window)
        if spec.kind == "sample":
            estimate = sample_precision(s)
        elif spec.kind == "ledoit_wolf":
            estimate = ledoit_wolf(s, alpha=spec.lw_alpha, window=window)
        else:
            penalty = PenaltySpec(kind=spec.penalty_kind, rho=float(rho), alpha=spec.alpha)
            estimate = penalized_qml(s, window.shape[0], penalty, solver)
            converged = estimate.converged
            off = estimate.psi[~np.eye(p, dtype=bool)]
            zero_fraction = float(np.mean(np.abs(off) < SPARSITY_ZERO_TOL))
        cond = condition_number(estimate.psi)
        wv = mvp_weights(estimate.psi, strategy=spec.name, window_id=window_id)

    record = WindowRecord(
        window_id=window_id,
        weights=wv,
        oos_return=np.nan,  # filled by the caller
        cond=cond,
        zero_fraction=zero_fraction,
        converged=converged,
        extra=extra,
    )
    return wv, record, estimate


def run_rolling(panel: ReturnsPanel, config: RollingConfig) -> dict[str, StrategyRun]:
    """Evaluate every configured strategy over the panel's rolling windows.

    Window t (t = T .. n-1) estimates on rows [t-T, t) and realizes the
    weighted return of row t, so no estimate ever sees its evaluation month.
    Penalized strategies with rho=None are tuned once on the first T rows
    (the first estimation window) and the tuned value is held fixed for
    every window.
    """
    if not panel.is_sanitized:
        raise InsufficientDataError("panel has missing cells; forward_fill first")
    t_len = config.window_length
    n = panel.n
    if n <= t_len:
        raise InsufficientDataError(f"panel has {n} rows; need more than window length {t_len}")
    n_windows = n - t_len

    runs: dict[str, StrategyRun] = {}
    for spec in config.strategies:
        run = StrategyRun(spec=spec, n_windows=n_windows)
        if config.keep_estimates:
            run.estimates = []
        rho = spec.rho
        if spec.penalized and rho is None:
            try:
                rho, curve = tune_rho(
                    panel.returns[:t_len],
                    spec.penalty_kind,
                    config.tuning_grid,
                    split=config.tune_split,
                    alpha=spec.alpha,
                    opts=config.solver,
                )
            except TuningError as exc:
                # no usable rho: every window of this strategy fails
                run.failures.extend((t, f"TuningError: {exc}") for t in range(t_len, n))
                run.tuning_curve = exc.curve or None
                logger.warning("strategy %s: tuning failed (%s); marked unavailable", spec.name, exc)
                runs[spec.name] = run
                continue
            run.tuned_rho = rho
            run.tuning_curve = curve
        for t in range(t_len, n):
            window = panel.returns[t - t_len : t]
            try:
                wv, record, estimate = _window_weights(spec, window, rho, t, config.solver)
            except PrecisError as exc:
                run.failures.append((t, f"{type(exc).__name__}: {exc}"))
                continue
            oos = float(wv.weights @ panel.returns[t])
            run.records.append(replace(record, oos_return=oos))
            if config.keep_estimates and estimate is not None:
                run.estimates.append(estimate)
        if not run.available:
            logger.warning("strategy %s failed on every window; marked unavailable", spec.name)
        runs[spec.name] = run
    return runs


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def oos_mean(run: StrategyRun) -> float:
    if run.n_success < 1:
        raise InsufficientDataError("no successful windows")
    return float(run.oos_returns.mean())


def oos_variance(run: StrategyRun) -> float:
    """Sample variance (m - 1 denominator) of the out-of-sample returns."""
    if run.n_success < 2:
        raise InsufficientDataError(f"need at least 2 OOS returns, got {run.n_success}")
    return float(run.oos_returns.var(ddof=1))


def oos_sharpe(run: StrategyRun) -> float:
    """OOS mean over OOS standard deviation, with the risk-free rate at zero."""
    var = oos_variance(run)
    if var <= 0:
        raise UndefinedMetricError("zero out-of-sample variance; Sharpe undefined")
    return oos_mean(run) / float(np.sqrt(var))


def turnover(run: StrategyRun, panel: ReturnsPanel, convention: str = "drift") -> float:
    """Average absolute weight change between consecutive rebalances.

    "literal" compares this month's target weights against last month's
    target weights. "drift" (default) compares against last month's
    holdings after they drifted with realized returns,
    w_i (1 + r_i/100) / (1 + R/100); this is what makes a monthly-rebalanced
    equal-weight portfolio show small positive turnover. Only pairs of
    adjacent successful windows are counted; pairs interrupted by a failed
    window are skipped.
    """
    if convention not in ("drift", "literal"):
        raise ValueError(f"unknown turnover convention {convention!r}")
    if run.n_success < 2:
        raise InsufficientDataError("need at least 2 weight vectors for turnover")
    total = 0.0
    pairs = 0
    for prev, nxt in zip(run.records, run.records[1:]):
        if nxt.window_id != prev.window_id + 1:
            continue
        w_prev = prev.weights.weights
        w_next = nxt.weights.weights
        if convention == "literal":
            held = w_prev
        else:
            growth = 1.0 + panel.returns[prev.window_id] / 100.0
            denom = 1.0 + prev.oos_return / 100.0
            if abs(denom) < 1e-9:
                continue  # portfolio wiped out; drifted holdings undefined
            held = w_prev * growth / denom
        total += float(np.abs(w_next - held).sum())
        pairs += 1
    if pairs == 0:
        raise InsufficientDataError("no adjacent window pairs available for turnover")
    return total / pairs


@dataclass(frozen=True)
class WeightSummary:
    minimum: float
    p5: float
    p95: float
    maximum: float
    neg_fraction: float


def weight_distribution(run: StrategyRun) -> WeightSummary:
    """Per-window min / 5% / 95% / max / negative share, averaged over windows."""
    if run.n_success < 1:
        raise InsufficientDataError("no successful windows")
    stack = np.vstack([rec.weights.weights for rec in run.records])
    return WeightSummary(
        minimum=float(stack.min(axis=1).mean()),
        p5=float(np.percentile(stack, 5, axis=1).mean()),
        p95=float(np.percentile(stack, 95, axis=1).mean()),
        maximum=float(stack.max(axis=1).mean()),
        neg_fraction=float((stack < 0).mean(axis=1).mean()),
    )


def sparsity(run: StrategyRun) -> float:
    """Average fraction of off-diagonal precision entries at zero (|x| < 1e-8)."""
    vals = np.asarray([rec.zero_fraction for rec in run.records])
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        raise UndefinedMetricError(f"strategy {run.spec.name!r} records no precision sparsity")
    return float(vals.mean())


@dataclass(frozen=True)
class ConditionStats:
    mean: float
    std: float
    n_finite: int
    n_infinite: int


def condition_stats(run: StrategyRun) -> ConditionStats:
    """Mean / sample std of per-window condition numbers, infinities set aside."""
    vals = np.asarray([rec.cond for rec in run.records])
    vals = vals[~np.isnan(vals)]
    finite = vals[np.isfinite(vals)]
    n_inf = int(np.sum(np.isinf(vals)))
    if finite.size == 0:
        raise UndefinedMetricError(f"strategy {run.spec.name!r} records no condition numbers")
    std = float(finite.std(ddof=1)) if finite.size >= 2 else float("nan")
    return ConditionStats(
        mean=float(finite.mean()), std=std, n_finite=int(finite.size), n_infinite=n_inf
    )


# --------------------------------------------------------------------------
# Report assembly
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StrategyReport:
    """Flattened metrics for one strategy; None marks unavailable entries."""

    name: str
    kind: str
    available: bool
    n_windows: int
    n_success: int
    n_failed: int
    rho: float | None = None
    tuned: bool = False
    oos_mean: float | None = None
    oos_variance: float | None = None
    sharpe: float | None = None
    turnover: float | None = None
    turnover_convention: str | None = None
    cond_mean: float | None = None
    cond_std: float | None = None
    cond_infinite: int | None = None
    weight_min: float | None = None
    weight_p5: float | None = None
    weight_p95: float | None = None
    weight_max: float | None = None
    weight_neg_fraction: float | None = None
    sparsity: float | None = None
    n_converged: int | None = None
    failures: tuple[tuple[int, str], ...] = ()


@dataclass(frozen=True)
class BacktestReport:
    """Backtest outcome for one panel across all configured strategies."""

    dataset: str
    n: int
    p: int
    window_length: int
    turnover_convention: str
    strategies: tuple[StrategyReport, ...]


def build_report(
    runs: dict[str, StrategyRun],
    panel: ReturnsPanel,
    config: RollingConfig,
    dataset: str = "panel",
    turnover_convention: str = "drift",
) -> BacktestReport:
    """Reduce strategy runs to the per-strategy metric block of the report."""
    reports: list[StrategyReport] = []
    for spec in config.strategies:
        run = runs[spec.name]
        base = dict(
            name=spec.name,
            kind=spec.kind,
            available=run.available,
            n_windows=run.n_windows,
            n_success=run.n_success,
            n_failed=len(run.failures),
            rho=run.tuned_rho if run.tuned_rho is not None else spec.rho,
            tuned=run.tuned_rho is not None,
            failures=tuple(run.failures),
        )
        if run.available:
            base["oos_mean"] = oos_mean(run)
            if run.n_success >= 2:
                var = oos_variance(run)
                base["oos_variance"] = var
                if var > 0:
                    base["sharpe"] = oos_sharpe(run)
                try:
                    base["turnover"] = turnover(run, panel, turnover_convention)
                    base["turnover_convention"] = turnover_convention
                except InsufficientDataError:
                    pass
            summary = weight_distribution(run)
            base.update(
                weight_min=summary.minimum,
                weight_p5=summary.p5,
                weight_p95=summary.p95,
                weight_max=summary.maximum,
                weight_neg_fraction=summary.neg_fraction,
            )
            try:
                stats = condition_stats(run)
                base.update(
                    cond_mean=stats.mean, cond_std=stats.std, cond_infinite=stats.n_infinite
                )
            except UndefinedMetricError:
                pass
            try:
                base["sparsity"] = sparsity(run)
            except UndefinedMetricError:
                pass
            flags = [rec.converged for rec in run.records if rec.converged is not None]
            if flags:
                base["n_converged"] = int(sum(flags))
        reports.append(StrategyReport(**base))
    return BacktestReport(
        dataset=dataset,
        n=panel.n,
        p=panel.p,
        window_length=config.window_length,
        turnover_convention=turnover_convention,
        strategies=tuple(reports),
    )
