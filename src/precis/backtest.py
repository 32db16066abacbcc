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
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    ConfigError,
    InsufficientDataError,
    PrecisError,
    TuningError,
    UndefinedMetricError,
    failure,
)
from .estimators import (
    PenaltySpec,
    SolverOptions,
    ledoit_wolf,
    ledoit_wolf_intensity,
    pca_precision,
    penalized_qml,
    sample_precision,
    tune_rho,
)
from .linalg import EigenDecomposition, condition_number, sample_covariance, sym_eigen
from .panel import ReturnsPanel
from .portfolio import WeightVector, equal_weights, mvp_weights, no_short_mvp

logger = logging.getLogger(__name__)

SPARSITY_ZERO_TOL = 1e-8

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
STRATEGY_KINDS = tuple(PAPER_LABELS.values())
# The parameter keys each strategy kind reads, besides name and kind.
STRATEGY_PARAMS = {
    "qml_l1": ("rho",),
    "qml_l2": ("rho",),
    "qml_elastic": ("rho", "alpha"),
}

DEFAULT_GRID = (0.0, 3.0, 0.1)  # the paper's rho grid as (start, stop, step)
# Every grid point costs one penalized solve per tuned strategy (the paper's
# grid has 31), and the grid is expanded when a config loads, so a tiny step
# would otherwise overflow or build a tuple of astronomical length.
MAX_GRID_POINTS = 10_000


def grid_values(start: float, stop: float, step: float) -> tuple[float, ...]:
    """The rho values start, start + step, ... up to stop, inclusive."""
    if start < 0:
        raise ConfigError(f"grid start must be nonnegative, got {start}")
    if step <= 0:
        raise ConfigError(f"grid step must be positive, got {step}")
    if stop < start:
        raise ConfigError(f"grid stop {stop} below start {start}")
    span = (stop - start) / step + 1e-9
    if not span < MAX_GRID_POINTS:  # an infinite span fails here too
        raise ConfigError(
            f"grid step {step} gives more than {MAX_GRID_POINTS} points from {start} to {stop}"
        )
    values = tuple(round(start + k * step, 10) for k in range(int(math.floor(span)) + 1))
    if len(set(values)) < len(values):  # points are rounded to 10 decimals
        raise ConfigError(f"grid step {step} is below the 1e-10 resolution of grid points")
    return values


DEFAULT_RHO_GRID = grid_values(*DEFAULT_GRID)


@dataclass(frozen=True)
class StrategySpec:
    """One portfolio strategy: estimator kind plus its parameters.

    rho=None on a penalized kind means "tune on the first estimation window".
    """

    name: str
    kind: str
    rho: float | None = None
    alpha: float = 0.5

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"unknown strategy kind {self.kind!r}")
        if self.rho is not None and not 0 <= self.rho < math.inf:
            raise ConfigError(f"rho must be finite and nonnegative, got {self.rho}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        # rho or alpha set on a kind that does not read it would be reported without effect
        for param in fields(self)[2:]:
            value = getattr(self, param.name)
            if param.name not in STRATEGY_PARAMS.get(self.kind, ()) and value != param.default:
                raise ConfigError(f"strategy kind {self.kind!r} reads no {param.name}, got {value}")

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
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if not isinstance(self.window_length, numbers.Integral) or self.window_length < 2:
            raise ConfigError(f"window length must be an integer >= 2, got {self.window_length!r}")
        names = [s.name for s in self.strategies]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate strategy names in {names}")
        object.__setattr__(self, "strategies", tuple(self.strategies))
        object.__setattr__(self, "tuning_grid", tuple(float(g) for g in self.tuning_grid))


@dataclass(frozen=True)
class WindowRecord:
    """Outcome of one successful window: weights, realized return, diagnostics."""

    window_id: int
    weights: WeightVector
    oos_return: float
    cond: float = np.nan
    zero_fraction: float = np.nan
    converged: bool | None = None


@dataclass
class StrategyRun:
    """All windows of one strategy over one panel."""

    spec: StrategySpec
    n_windows: int
    records: list[WindowRecord] = field(default_factory=list)
    failures: list[tuple[int, str]] = field(default_factory=list)
    rho: float | None = None  # the rho every window is fit at: the spec's or the tuned one
    tuning_curve: list[tuple[float, float]] | None = None

    @property
    def oos_returns(self) -> np.ndarray:
        return np.asarray([rec.oos_return for rec in self.records])

    @property
    def n_success(self) -> int:
        return len(self.records)

    @property
    def available(self) -> bool:
        return self.n_success > 0


def _window_weights(
    run: StrategyRun,
    window: np.ndarray,
    s: np.ndarray,
    decomp: EigenDecomposition,
    window_id: int,
    realized: np.ndarray,
    solver: SolverOptions,
) -> WindowRecord:
    """Weights, realized return and diagnostics for one window. Raises on failure.

    s is the window's sample covariance, decomp its spectrum and realized
    the returns of the month the weights are held for.
    """
    spec = run.spec
    p = window.shape[1]
    cond = zero_fraction = np.nan
    converged: bool | None = None

    if spec.kind == "equal":
        wv = equal_weights(p)
    elif spec.kind == "no_short":  # warm from the latest weights, else no_short_mvp's cold start
        start = run.records[-1].weights.weights if run.records else None
        wv = no_short_mvp(s, start=start, spectrum=decomp)[0]
    else:
        if spec.kind == "sample":
            estimate = sample_precision(decomp)
        elif spec.kind == "ledoit_wolf":
            estimate = ledoit_wolf(decomp, ledoit_wolf_intensity(window, s))
        elif spec.kind == "pca":
            estimate = pca_precision(decomp)
        else:
            penalty = PenaltySpec(kind=spec.penalty_kind, rho=float(run.rho), alpha=spec.alpha)
            estimate = penalized_qml(s, window.shape[0], penalty, solver)
            converged = estimate.converged
            off = estimate.psi[~np.eye(p, dtype=bool)]
            zero_fraction = float(np.mean(np.abs(off) < SPARSITY_ZERO_TOL))
        source = estimate.psi if estimate.spectrum is None else estimate.spectrum
        cond, wv = condition_number(source), mvp_weights(source)

    return WindowRecord(
        window_id=window_id,
        weights=wv,
        oos_return=float(wv.weights @ realized),
        cond=cond,
        zero_fraction=zero_fraction,
        converged=converged,
    )


def tune_strategies(
    panel: ReturnsPanel, config: RollingConfig, specs: list[StrategySpec]
) -> list[tuple[float | None, list[tuple[float, float]] | None, str | None]]:
    """(rho, curve, failure) per penalized spec, tuned together on the panel's first window.

    An error from the grid search fails every spec with (None, None,
    "ErrorType: message"); a spec with no converged grid point keeps its
    curve with a TuningError failure. The panel must be longer than the
    window, with or without specs, so `precis tune` and `precis backtest`
    accept the same panels and agree on what counts as a failed strategy.
    """
    t_len = config.window_length
    if panel.n <= t_len:
        raise InsufficientDataError(f"panel has {panel.n} rows; need more than window length {t_len}")
    if not specs:
        return []
    penalties = [(spec.penalty_kind, spec.alpha) for spec in specs]
    try:
        tuned = tune_rho(panel.returns[:t_len], penalties, config.tuning_grid, config.solver)
    except PrecisError as exc:  # a bad block or grid fails every spec alike
        tuned, error = [(None, None)] * len(specs), failure(exc)
    else:
        error = failure(TuningError("every grid point failed to produce a converged estimate"))
    for spec, (rho, _) in zip(specs, tuned):
        if rho is None:
            logger.warning("strategy %s: tuning failed (%s)", spec.name, error)
    return [(rho, curve, None if rho is not None else error) for rho, curve in tuned]


def run_rolling(panel: ReturnsPanel, config: RollingConfig) -> dict[str, StrategyRun]:
    """Evaluate every configured strategy over the panel's rolling windows.

    Window t (t = T .. n-1) estimates on rows [t-T, t) and realizes the
    weighted return of row t, so no estimate ever sees its evaluation month.
    Penalized strategies with rho=None are tuned once by tune_strategies on
    the first T rows (the first estimation window) and the tuned value is
    held fixed for every window. When tuning fails, every window of that
    strategy records the tuning failure and the strategy is unavailable;
    the other strategies still run. Then one pass over the windows fits
    every strategy on each, sharing one sample covariance and one spectrum
    per window. The no-short QP starts from the strategy's latest weights, or
    else from its own cold start; its optimum does not depend on the start.
    """
    to_tune = [spec for spec in config.strategies if spec.penalized and spec.rho is None]
    tuned = dict(zip(to_tune, tune_strategies(panel, config, to_tune)))  # checks the panel too
    t_len = config.window_length
    n = panel.n
    n_windows = n - t_len

    runs: dict[str, StrategyRun] = {}
    live: list[StrategyRun] = []  # the runs to fit
    for spec in config.strategies:
        run = runs[spec.name] = StrategyRun(spec=spec, n_windows=n_windows, rho=spec.rho)
        if spec in tuned:
            run.rho, run.tuning_curve, error = tuned[spec]
            if error is not None:
                run.failures.extend((t, error) for t in range(t_len, n))
                continue
        live.append(run)
    for t in range(t_len, n) if live else ():
        window = panel.returns[t - t_len : t]
        s = sample_covariance(window)
        decomp = sym_eigen(s)
        realized = panel.returns[t]
        for run in live:
            try:
                record = _window_weights(run, window, s, decomp, t, realized, config.solver)
            except PrecisError as exc:
                run.failures.append((t, failure(exc)))
                continue
            run.records.append(record)
    for run in live:
        if not run.available:
            logger.warning("strategy %s failed on every window; marked unavailable", run.spec.name)
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


def turnover(run: StrategyRun, panel: ReturnsPanel) -> float:
    """Average absolute weight change between consecutive rebalances.

    This month's target weights are compared against last month's holdings
    after they drifted with realized returns, w_i (1 + r_i/100) / (1 + R/100);
    this is what makes a monthly-rebalanced equal-weight portfolio show
    small positive turnover. Only pairs of adjacent successful windows are
    counted; pairs interrupted by a failed window are skipped.
    """
    if run.n_success < 2:
        raise InsufficientDataError("need at least 2 weight vectors for turnover")
    total = 0.0
    pairs = 0
    for prev, nxt in zip(run.records, run.records[1:]):
        if nxt.window_id != prev.window_id + 1:
            continue
        growth = 1.0 + panel.returns[prev.window_id] / 100.0
        denom = 1.0 + prev.oos_return / 100.0
        if abs(denom) < 1e-9:
            continue  # portfolio wiped out; drifted holdings undefined
        held = prev.weights.weights * growth / denom
        total += float(np.abs(nxt.weights.weights - held).sum())
        pairs += 1
    if pairs == 0:
        raise InsufficientDataError("no adjacent window pairs available for turnover")
    return total / pairs


def _row_percentiles(stack: np.ndarray, q: float) -> np.ndarray:
    """Each row's q-th percentile, bit for bit np.percentile(stack, q, axis=1).

    numpy's "linear" rule on the sorted row: at h = (n - 1) q/100, with
    a, b the entries at floor(h) and the next one and t their fraction,
    a + (b - a) t, or b - (b - a)(1 - t) when t >= 0.5. np.percentile would
    call np.unique, which imports numpy.ma on its first use.
    """
    ordered = np.sort(stack, axis=1)
    n = ordered.shape[1]
    h = (n - 1) * (q / 100)
    lo = math.floor(h)
    t = h - lo
    a, b = ordered[:, lo], ordered[:, min(lo + 1, n - 1)]
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def weight_distribution(run: StrategyRun) -> dict[str, float]:
    """Per-window min / 5% / 95% / max / negative share, averaged over windows.

    Keyed by the StrategyReport fields they fill.
    """
    if run.n_success < 1:
        raise InsufficientDataError("no successful windows")
    stack = np.vstack([rec.weights.weights for rec in run.records])
    return {
        "weight_min": float(stack.min(axis=1).mean()),
        "weight_p5": float(_row_percentiles(stack, 5).mean()),
        "weight_p95": float(_row_percentiles(stack, 95).mean()),
        "weight_max": float(stack.max(axis=1).mean()),
        "weight_neg_fraction": float((stack < 0).mean(axis=1).mean()),
    }


def sparsity(run: StrategyRun) -> float:
    """Average fraction of off-diagonal precision entries at zero (|x| < 1e-8)."""
    vals = np.asarray([rec.zero_fraction for rec in run.records])
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        raise UndefinedMetricError(f"strategy {run.spec.name!r} records no precision sparsity")
    return float(vals.mean())


def condition_stats(run: StrategyRun) -> dict[str, float | int]:
    """Mean / sample std of per-window condition numbers, infinities set aside and counted.

    Keyed by the StrategyReport fields they fill.
    """
    vals = np.asarray([rec.cond for rec in run.records])
    vals = vals[~np.isnan(vals)]
    finite = vals[np.isfinite(vals)]
    if finite.size == 0:
        raise UndefinedMetricError(f"strategy {run.spec.name!r} records no condition numbers")
    std = float(finite.std(ddof=1)) if finite.size >= 2 else float("nan")
    return {
        "cond_mean": float(finite.mean()),
        "cond_std": std,
        "cond_infinite": int(np.sum(np.isinf(vals))),
    }


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
    strategies: tuple[StrategyReport, ...]


def _defined(metric, *args):
    """metric(*args), or None where the metric reports itself undefined for the run."""
    try:
        return metric(*args)
    except (InsufficientDataError, UndefinedMetricError):
        return None


def build_report(
    runs: dict[str, StrategyRun],
    panel: ReturnsPanel,
    config: RollingConfig,
    dataset: str,
) -> BacktestReport:
    """Reduce strategy runs to the per-strategy metric block of the report."""
    reports: list[StrategyReport] = []
    for spec in config.strategies:
        run = runs[spec.name]
        flags = [rec.converged for rec in run.records if rec.converged is not None]
        reports.append(
            StrategyReport(
                name=spec.name,
                kind=spec.kind,
                available=run.available,
                n_windows=run.n_windows,
                n_success=run.n_success,
                n_failed=len(run.failures),
                rho=run.rho,
                tuned=spec.rho is None and run.rho is not None,
                oos_mean=_defined(oos_mean, run),
                oos_variance=_defined(oos_variance, run),
                sharpe=_defined(oos_sharpe, run),
                turnover=_defined(turnover, run, panel),
                **(_defined(condition_stats, run) or {}),
                **(_defined(weight_distribution, run) or {}),
                sparsity=_defined(sparsity, run),
                n_converged=int(sum(flags)) if flags else None,
                failures=tuple(run.failures),
            )
        )
    return BacktestReport(
        dataset=dataset,
        n=panel.n,
        p=panel.p,
        window_length=config.window_length,
        strategies=tuple(reports),
    )
