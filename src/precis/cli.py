"""Batch front end: describe datasets, tune penalties, run backtests.

Runs are driven by a single YAML config file; command-line flags override
file values. All output files are written atomically (temp file + rename)
so an interrupted run never corrupts earlier reports. Estimator-level
failures are report content, not process failures: the exit code is
nonzero only for configuration and I/O problems.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .backtest import (
    PAPER_LABELS,
    BacktestReport,
    RollingConfig,
    StrategySpec,
    build_report,
    run_rolling,
)
from .errors import ConfigError, PrecisError, TuningError
from .estimators import SolverOptions, tune_rho
from .hedge import ols_hedge
from .panel import ReturnsPanel, describe, forward_fill, parse_panel

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DatasetConfig:
    name: str
    path: Path
    date_range: tuple[str | int | None, str | int | None] | None = None


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs: datasets, strategies, protocol knobs."""

    datasets: tuple[DatasetConfig, ...]
    strategies: tuple[StrategySpec, ...]
    window_length: int = 120
    grid: tuple[float, float, float] = (0.0, 3.0, 0.1)  # start, stop, step
    out_dir: Path = Path("out")
    turnover_convention: str = "drift"
    seed: int = 0
    solver: SolverOptions = SolverOptions()

    def __post_init__(self):
        if self.window_length < 2:
            raise ConfigError(f"window_length must be >= 2, got {self.window_length}")
        start, stop, step = self.grid
        if step <= 0:
            raise ConfigError(f"grid step must be positive, got {step}")
        if stop < start:
            raise ConfigError(f"grid stop {stop} below start {start}")
        if self.turnover_convention not in ("drift", "literal"):
            raise ConfigError(f"unknown turnover convention {self.turnover_convention!r}")
        for ds in self.datasets:
            if not ds.path.exists():
                raise ConfigError(f"dataset {ds.name!r}: no such file {ds.path}")

    def grid_values(self) -> tuple[float, ...]:
        start, stop, step = self.grid
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return tuple(round(start + k * step, 10) for k in range(count))

    def rolling(self) -> RollingConfig:
        return RollingConfig(
            strategies=self.strategies,
            window_length=self.window_length,
            tuning_grid=self.grid_values(),
            solver=self.solver,
        )


def _parse_strategy(entry) -> StrategySpec:
    if isinstance(entry, str):
        if entry not in PAPER_LABELS:
            raise ConfigError(f"unknown strategy label {entry!r}; known: {sorted(PAPER_LABELS)}")
        return StrategySpec(name=entry, kind=PAPER_LABELS[entry])
    if not isinstance(entry, dict):
        raise ConfigError(f"strategy entries must be labels or mappings, got {entry!r}")
    entry = dict(entry)
    name = entry.pop("name", None)
    kind = entry.pop("kind", None)
    if kind is None and name in PAPER_LABELS:
        kind = PAPER_LABELS[name]
    if name is None or kind is None:
        raise ConfigError(f"strategy needs both name and kind: {entry!r}")
    rho = entry.pop("rho", None)
    if isinstance(rho, str):
        if rho != "tune":
            raise ConfigError(f"rho must be a number or 'tune', got {rho!r}")
        rho = None
    spec = StrategySpec(
        name=name,
        kind=kind,
        rho=rho,
        alpha=float(entry.pop("alpha", 0.5)),
        lw_alpha=entry.pop("lw_alpha", None),
        pca_threshold=float(entry.pop("pca_threshold", 0.99)),
    )
    if entry:
        raise ConfigError(f"unknown strategy keys {sorted(entry)} for {name!r}")
    return spec


def load_config(path: Path, overrides: argparse.Namespace | None = None) -> RunConfig:
    """Read the YAML run config; apply CLI flag overrides on top."""
    try:
        raw = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping at the top level")

    datasets = []
    for ds in raw.get("datasets", []):
        if not isinstance(ds, dict) or "name" not in ds or "path" not in ds:
            raise ConfigError(f"each dataset needs name and path: {ds!r}")
        rng = ds.get("date_range")
        datasets.append(
            DatasetConfig(
                name=str(ds["name"]),
                path=(path.parent / ds["path"]).resolve()
                if not Path(ds["path"]).is_absolute()
                else Path(ds["path"]),
                date_range=tuple(rng) if rng else None,
            )
        )
    strategies = [_parse_strategy(s) for s in raw.get("strategies", [])]

    grid_raw = raw.get("grid", {})
    grid = (
        float(grid_raw.get("start", 0.0)),
        float(grid_raw.get("stop", 3.0)),
        float(grid_raw.get("step", 0.1)),
    )
    solver_raw = dict(raw.get("solver", {}))
    try:
        solver = SolverOptions(
            tol=float(solver_raw.pop("tol", 1e-6)),
            max_iter=int(solver_raw.pop("max_iter", 10000)),
        )
    except ValueError as exc:
        raise ConfigError(f"bad solver options: {exc}") from exc
    if solver_raw:
        raise ConfigError(f"unknown solver keys {sorted(solver_raw)}")
    out_raw = Path(raw.get("out", "out"))
    values = dict(
        datasets=tuple(datasets),
        strategies=tuple(strategies),
        window_length=int(raw.get("window_length", 120)),
        grid=grid,
        out_dir=out_raw if out_raw.is_absolute() else path.parent / out_raw,
        turnover_convention=str(raw.get("turnover", "drift")),
        seed=int(raw.get("seed", 0)),
        solver=solver,
    )

    if overrides is not None:
        if getattr(overrides, "out", None):
            values["out_dir"] = Path(overrides.out)
        if getattr(overrides, "window", None):
            values["window_length"] = overrides.window
        if getattr(overrides, "turnover", None):
            values["turnover_convention"] = overrides.turnover
        if getattr(overrides, "grid", None):
            parts = overrides.grid.split(":")
            if len(parts) != 3:
                raise ConfigError(f"--grid expects START:STOP:STEP, got {overrides.grid!r}")
            values["grid"] = tuple(float(x) for x in parts)
        if getattr(overrides, "strategies", None):
            wanted = [s.strip() for s in overrides.strategies.split(",") if s.strip()]
            by_name = {s.name: s for s in values["strategies"]}
            values["strategies"] = tuple(
                by_name[w] if w in by_name else _parse_strategy(w) for w in wanted
            )
    if not values["datasets"]:
        raise ConfigError("config lists no datasets")
    if not values["strategies"]:
        raise ConfigError("config lists no strategies")
    return RunConfig(**values)


# --------------------------------------------------------------------------
# Output helpers
# --------------------------------------------------------------------------

def atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def _jsonify(obj):
    """Dataclasses to dicts, tuples to lists, non-finite floats to null."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonify(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, Path):
        return str(obj)
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):  # numpy scalar
        return _jsonify(obj.item())
    return obj


def dump_json(payload) -> str:
    return json.dumps(_jsonify(payload), indent=2, sort_keys=True) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # covers numpy scalars, which subclass float
        if not math.isfinite(value):
            return "" if math.isnan(value) else ("inf" if value > 0 else "-inf")
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_csv_cell(v) for v in row) for row in rows]
    atomic_write(path, "\n".join(lines) + "\n")


def _load_panel(ds: DatasetConfig) -> ReturnsPanel:
    with open(ds.path, "rb") as fh:
        panel = parse_panel(fh, date_range=ds.date_range)
    return forward_fill(panel)


def _pool_map(fn, items):
    """Ordered map over datasets, parallel when PRECIS_THREADS allows it."""
    threads = int(os.environ.get("PRECIS_THREADS", "1") or "1")
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def _with_dataset_context(ds: DatasetConfig, exc: PrecisError):
    raise PrecisError(f"dataset {ds.name!r}: {type(exc).__name__}: {exc}") from exc


def cmd_describe(config: RunConfig) -> int:
    def one(ds: DatasetConfig):
        try:
            panel = _load_panel(ds)
            return ds, panel, describe(panel)
        except PrecisError as exc:
            _with_dataset_context(ds, exc)

    for ds, panel, stats in _pool_map(one, list(config.datasets)):
        base = config.out_dir / "describe"
        atomic_write(base / f"{ds.name}.json", stats.to_json() + "\n")
        rows = [
            [name, m, v, s]
            for name, (m, v, s) in zip(stats.assets, stats.per_asset)
        ]
        write_csv(base / f"{ds.name}.csv", ["asset", "mean", "variance", "sharpe"], rows)
        print(
            f"{ds.name}: p={stats.p} n={stats.n} p/n={stats.dim_ratio:.2f} "
            f"max_corr={stats.max_corr:.2f} mean_abs_corr={stats.mean_abs_corr:.2f} "
            f"missing={panel.n_missing}"
        )
    return 0


def cmd_tune(config: RunConfig) -> int:
    penalized = [s for s in config.strategies if s.penalized]
    if not penalized:
        raise ConfigError("no penalized strategies configured; nothing to tune")
    grid = config.grid_values()
    summary: dict[str, dict[str, float]] = {}

    def one(ds: DatasetConfig):
        try:
            panel = _load_panel(ds)
        except PrecisError as exc:
            _with_dataset_context(ds, exc)
        block = panel.returns[: config.window_length]
        results = []
        for spec in penalized:
            try:
                rho_star, curve = tune_rho(
                    block, spec.penalty_kind, grid, alpha=spec.alpha, opts=config.solver
                )
            except TuningError as exc:
                # an estimator-level failure: record it, keep the exit code 0
                logger.warning("dataset %s strategy %s: %s", ds.name, spec.name, exc)
                results.append((spec, None, exc.curve))
                continue
            results.append((spec, rho_star, curve))
        return ds, results

    for ds, results in _pool_map(one, list(config.datasets)):
        summary[ds.name] = {}
        for spec, rho_star, curve in results:
            summary[ds.name][spec.name] = rho_star
            if curve:
                write_csv(
                    config.out_dir / "curves" / f"{ds.name}_{spec.name}.csv",
                    ["rho", "score"],
                    [[rho, score] for rho, score in curve],
                )
            status = rho_star if rho_star is not None else "no converged grid point"
            print(f"{ds.name} {spec.name}: rho*={status}")
    atomic_write(config.out_dir / "tune.json", dump_json(summary))
    return 0


def _report_tables(out_dir: Path, reports: list[BacktestReport]) -> None:
    cond_rows, var_rows, sharpe_rows, to_rows, weight_rows, sparsity_rows = ([] for _ in range(6))
    for rep in reports:
        for s in rep.strategies:
            key = [rep.dataset, s.name]
            cond_rows.append(key + [s.cond_mean, s.cond_std, s.cond_infinite, s.n_success])
            var_rows.append(key + [s.oos_variance])
            sharpe_rows.append(key + [s.sharpe])
            to_rows.append(key + [s.turnover, s.turnover_convention])
            weight_rows.append(
                key
                + [s.weight_min, s.weight_p5, s.weight_p95, s.weight_max, s.weight_neg_fraction]
            )
            sparsity_rows.append(key + [s.sparsity])
    tables = out_dir / "tables"
    write_csv(
        tables / "condition_numbers.csv",
        ["dataset", "strategy", "cond_mean", "cond_std", "cond_infinite", "windows"],
        cond_rows,
    )
    write_csv(tables / "oos_variance.csv", ["dataset", "strategy", "oos_variance"], var_rows)
    write_csv(tables / "oos_sharpe.csv", ["dataset", "strategy", "sharpe"], sharpe_rows)
    write_csv(
        tables / "turnover.csv", ["dataset", "strategy", "turnover", "convention"], to_rows
    )
    write_csv(
        tables / "weight_distribution.csv",
        ["dataset", "strategy", "min", "p5", "p95", "max", "neg_fraction"],
        weight_rows,
    )
    write_csv(tables / "sparsity.csv", ["dataset", "strategy", "sparsity"], sparsity_rows)


def cmd_diagnose(config: RunConfig) -> int:
    """Per-asset hedge diagnostics: unhedgeable variance and largest |beta|.

    Estimator-level problems (e.g. more assets than observations) are
    reported per dataset without failing the run.
    """
    for ds in config.datasets:
        try:
            panel = _load_panel(ds)
            regressions = [ols_hedge(panel.returns, i) for i in range(panel.p)]
        except PrecisError as exc:
            print(f"{ds.name}: {type(exc).__name__}: {exc}")
            continue
        print(f"{ds.name} (n={panel.n}, p={panel.p})")
        for name, reg in zip(panel.assets, regressions):
            beta_max = float(np.abs(reg.betas).max()) if reg.betas.size else 0.0
            flag = " DEGENERATE" if reg.degenerate else ""
            print(f"  {name}: v={reg.unhedgeable_variance:.6g} max|beta|={beta_max:.6g}{flag}")
    return 0


def cmd_backtest(config: RunConfig) -> int:
    rolling = config.rolling()

    def one(ds: DatasetConfig):
        try:
            panel = _load_panel(ds)
            runs = run_rolling(panel, rolling)
        except PrecisError as exc:
            _with_dataset_context(ds, exc)
        report = build_report(
            runs,
            panel,
            rolling,
            dataset=ds.name,
            turnover_convention=config.turnover_convention,
        )
        curves = {
            name: run.tuning_curve for name, run in runs.items() if run.tuning_curve is not None
        }
        return ds, report, curves

    reports = []
    for ds, report, curves in _pool_map(one, list(config.datasets)):
        reports.append(report)
        for strategy_name, curve in curves.items():
            write_csv(
                config.out_dir / "curves" / f"{ds.name}_{strategy_name}.csv",
                ["rho", "score"],
                [[rho, score] for rho, score in curve],
            )
        for s in report.strategies:
            status = "ok" if s.available else "UNAVAILABLE"
            print(f"{ds.name} {s.name}: {s.n_success}/{s.n_windows} windows ({status})")

    payload = {
        "config": {
            "window_length": config.window_length,
            "turnover_convention": config.turnover_convention,
            "grid": list(config.grid),
            "seed": config.seed,
            "datasets": [ds.name for ds in config.datasets],
        },
        "reports": reports,
    }
    atomic_write(config.out_dir / "report.json", dump_json(payload))
    _report_tables(config.out_dir, reports)
    return 0


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="precis",
        description="Precision-matrix estimation and minimum-variance portfolio backtests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("describe", "descriptive statistics per dataset"),
        ("tune", "grid-search the penalty intensity per dataset"),
        ("backtest", "rolling-window out-of-sample evaluation"),
        ("diagnose", "per-asset hedge-regression diagnostics"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, type=Path, help="YAML run config")
        cmd.add_argument("--out", type=Path, help="output directory (overrides config)")
        cmd.add_argument("--window", type=int, help="estimation window length")
        cmd.add_argument("--turnover", choices=("drift", "literal"))
        cmd.add_argument("--grid", help="rho grid as START:STOP:STEP")
        cmd.add_argument("--strategies", help="comma-separated strategy names")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, overrides=args)
        if args.command == "describe":
            return cmd_describe(config)
        if args.command == "tune":
            return cmd_tune(config)
        if args.command == "diagnose":
            return cmd_diagnose(config)
        return cmd_backtest(config)
    except (PrecisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
