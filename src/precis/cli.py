"""Batch front end: describe datasets, tune penalties, run backtests.

Runs are driven by a single YAML config file, the one source of a run's
settings; only the output directory can also be given as --out. All
output files are written atomically (temp file + rename)
so an interrupted run never corrupts earlier reports. Estimator-level
failures are report content, not process failures: the exit code is
nonzero only for configuration and I/O problems.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .backtest import (
    DEFAULT_GRID,
    PAPER_LABELS,
    STRATEGY_KINDS,
    STRATEGY_PARAMS,
    BacktestReport,
    RollingConfig,
    StrategySpec,
    build_report,
    grid_values,
    run_rolling,
    tune_strategies,
)
from .errors import ConfigError, MulticollinearityError, ParseError, PrecisError, failure
from .estimators import SolverOptions
from .hedge import ols_hedge
from .panel import DESCRIBE_COLUMNS, ReturnsPanel, describe, month_stamp, parse_panel

TOP_LEVEL_KEYS = ("window_length", "out", "grid", "solver", "datasets", "strategies")
DATASET_KEYS = ("name", "path", "date_range")
GRID_KEYS = ("start", "stop", "step")
SOLVER_KEYS = ("max_iter",)
# The backtest's CSV tables: file stem, then (column, StrategyReport field)
# pairs; every row starts with the dataset and strategy names.
REPORT_TABLES = (
    ("condition_numbers", (("cond_mean", "cond_mean"), ("cond_std", "cond_std"),
                           ("cond_infinite", "cond_infinite"), ("windows", "n_success"))),
    ("oos_variance", (("oos_variance", "oos_variance"),)),
    ("oos_sharpe", (("sharpe", "sharpe"),)),
    ("turnover", (("turnover", "turnover"),)),
    ("weight_distribution", (("min", "weight_min"), ("p5", "weight_p5"), ("p95", "weight_p95"),
                             ("max", "weight_max"), ("neg_fraction", "weight_neg_fraction"))),
    ("sparsity", (("sparsity", "sparsity"),)),
)


@dataclass(frozen=True)
class DatasetConfig:
    name: str
    path: Path
    date_range: tuple[int | None, int | None] | None = None  # YYYYMM stamps


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs: datasets, the rolling protocol, the output directory."""

    datasets: tuple[DatasetConfig, ...]
    rolling: RollingConfig
    out_dir: Path

    def __post_init__(self):
        missing = [f"{ds.name!r} ({ds.path})" for ds in self.datasets if not ds.path.exists()]
        if missing:
            raise ConfigError("no such file for dataset " + ", ".join(missing))


def _parse_strategy(entry) -> StrategySpec:
    if isinstance(entry, str):
        if entry not in PAPER_LABELS:
            raise ConfigError(f"unknown strategy label {entry!r}; known: {sorted(PAPER_LABELS)}")
        return StrategySpec(name=entry, kind=PAPER_LABELS[entry])
    if not isinstance(entry, dict):
        raise ConfigError(f"strategy entries must be labels or mappings, got {entry!r}")
    name = _file_name(entry.get("name"), "strategy name")
    kind = entry.get("kind", PAPER_LABELS.get(name))
    if kind not in STRATEGY_KINDS:
        raise ConfigError(f"strategy {name!r} needs a kind from {list(STRATEGY_KINDS)}: {entry!r}")
    keys = STRATEGY_PARAMS.get(kind, ())
    # a key the kind does not read would be reported without any effect
    _reject_unknown_keys(entry, ("name", "kind") + keys, f"strategy {name!r}")
    params = {  # "rho: tune" leaves rho at its default, None, which tunes it
        key: _number(entry[key], f"strategy {name!r} {key}")
        for key in keys
        if key in entry and not (key == "rho" and entry[key] == "tune")
    }
    return StrategySpec(name=name, kind=kind, **params)


def _number(value, where: str, integer: bool = False) -> float | int:
    """A finite config value as a float, or as an int when integer; else a ConfigError.

    A YAML boolean (true, on, yes) is not a number, although float() takes it.
    """
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number) or (integer and not number.is_integer()):
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"{where} must be {kind}, got {value!r}")
    return int(number) if integer else number


def _reject_unknown_keys(entry: dict, known: tuple[str, ...], where: str) -> None:
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be a mapping, got {entry!r}")
    unknown = sorted(set(entry) - set(known))
    if unknown:
        raise ConfigError(f"unknown {where} keys {unknown}; known: {list(known)}")


def _typed(value, kind: type, where: str):
    if not isinstance(value, kind):
        raise ConfigError(f"{where} must be a {kind.__name__}, got {value!r}")
    return value


def _file_name(name, where: str) -> str:
    """A dataset or strategy name, which names output files: one path component."""
    if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ConfigError(f"{where} must be one file name, not {name!r}")
    return name


def _parse_dataset(entry, config_dir: Path) -> DatasetConfig:
    if not isinstance(entry, dict) or "name" not in entry or "path" not in entry:
        raise ConfigError(f"each dataset needs name and path: {entry!r}")
    name = _file_name(entry["name"], "dataset name")
    _reject_unknown_keys(entry, DATASET_KEYS, f"dataset {name!r}")
    rng = entry.get("date_range")
    if rng is not None and not (isinstance(rng, list) and len(rng) == 2):
        raise ConfigError(f"dataset {name!r} date_range must be a [start, end] pair, got {rng!r}")
    if rng is not None:
        try:
            rng = tuple(None if end is None else month_stamp(end) for end in rng)
        except ParseError as exc:
            raise ConfigError(f"dataset {name!r} date_range: {exc}") from None
    return DatasetConfig(
        name=name,
        path=(config_dir / _typed(entry["path"], str, f"dataset {name!r} path")).resolve(),
        date_range=rng,
    )


def load_config(path: Path, overrides: argparse.Namespace | None = None) -> RunConfig:
    """Read the YAML run config; overrides.out, when set, replaces its out.

    A setting the file leaves out takes the default of the dataclass that
    holds it. Unknown keys at the top level and in the dataset, grid and
    solver mappings are a ConfigError, so a misspelt or retired key fails
    loudly.
    """
    try:
        raw = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping at the top level")
    _reject_unknown_keys(raw, TOP_LEVEL_KEYS, "top-level")

    entries = _typed(raw.get("datasets", []), list, "datasets")
    datasets = tuple(_parse_dataset(ds, path.parent) for ds in entries)
    if not datasets:
        raise ConfigError("config lists no datasets")
    names = [ds.name for ds in datasets]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate dataset names in {names}")
    entries = _typed(raw.get("strategies", []), list, "strategies")
    strategies = tuple(_parse_strategy(s) for s in entries)

    grid_raw = raw.get("grid", {})
    _reject_unknown_keys(grid_raw, GRID_KEYS, "grid")
    grid = tuple(
        _number(grid_raw.get(key, default), f"grid {key}")
        for key, default in zip(GRID_KEYS, DEFAULT_GRID)
    )
    solver_raw = raw.get("solver", {})
    _reject_unknown_keys(solver_raw, SOLVER_KEYS, "solver")
    solver_args = {
        key: _number(value, f"solver {key}", integer=True) for key, value in solver_raw.items()
    }
    try:
        solver = SolverOptions(**solver_args)
    except ValueError as exc:
        raise ConfigError(f"bad solver options: {exc}") from exc
    window = {}
    if "window_length" in raw:
        window["window_length"] = _number(raw["window_length"], "window_length", integer=True)
    out_dir = path.parent / _typed(raw.get("out", "out"), str, "out")
    if overrides is not None and overrides.out is not None:
        out_dir = Path(overrides.out)
    return RunConfig(
        datasets=datasets,
        rolling=RollingConfig(
            strategies=strategies, tuning_grid=grid_values(*grid), solver=solver, **window
        ),
        out_dir=out_dir,
    )


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
        return {f.name: _jsonify(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
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
    """Quoted only where a cell needs it, as the panel parser's csv.reader reads it."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_csv_cell(v) for v in row] for row in rows)
    atomic_write(path, text.getvalue())


def _write_curve(out_dir: Path, dataset: str, strategy: str, curve) -> None:
    write_csv(
        out_dir / "curves" / f"{dataset}_{strategy}.csv",
        ["rho", "score"],
        [[rho, score] for rho, score in curve],
    )


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def _each_dataset(config: RunConfig, compute) -> list:
    """[(ds, compute(ds, panel))] over the datasets, all computed before any file is written.

    A PrecisError is raised again with the dataset's name in front, so one
    failing dataset stops the run before it writes or prints anything.
    """
    results = []
    for ds in config.datasets:
        try:
            with open(ds.path, "rb") as fh:
                panel = parse_panel(fh, date_range=ds.date_range)
            results.append((ds, compute(ds, panel)))
        except PrecisError as exc:
            raise PrecisError(f"dataset {ds.name!r}: {failure(exc)}") from exc
    return results


def cmd_describe(config: RunConfig) -> int:
    for ds, (panel, stats) in _each_dataset(config, lambda ds, panel: (panel, describe(panel))):
        base = config.out_dir / "describe"
        atomic_write(base / f"{ds.name}.json", dump_json(stats))
        rows = [[record[column] for column in DESCRIBE_COLUMNS] for record in stats.per_asset]
        write_csv(base / f"{ds.name}.csv", list(DESCRIBE_COLUMNS), rows)
        print(
            f"{ds.name}: p={stats.p} n={stats.n} p/n={stats.dim_ratio:.2f} "
            f"max_corr={stats.max_corr:.2f} mean_abs_corr={stats.mean_abs_corr:.2f} "
            f"missing={panel.n_missing}"
        )
    return 0


def cmd_tune(config: RunConfig) -> int:
    penalized = [s for s in config.rolling.strategies if s.penalized]
    if not penalized:
        raise ConfigError("no penalized strategies configured; nothing to tune")
    results = _each_dataset(
        config, lambda ds, panel: tune_strategies(panel, config.rolling, penalized)
    )
    summary: dict[str, dict[str, float | None]] = {}
    grid = config.rolling.tuning_grid
    for ds, tuned in results:
        summary[ds.name] = {}
        for spec, (rho_star, curve, error) in zip(penalized, tuned):
            # a failed tuning is report content: a null rho*, exit code 0
            summary[ds.name][spec.name] = rho_star
            if curve is not None:
                _write_curve(config.out_dir, ds.name, spec.name, curve)
            # no rho lies below 0, so a grid that starts at 0 has no lower endpoint to flag
            at_end = rho_star == grid[-1] or rho_star == grid[0] > 0
            endpoint = " (grid endpoint)" if at_end else ""
            status = f"rho*={rho_star}{endpoint}" if error is None else f"no rho* ({error})"
            print(f"{ds.name} {spec.name}: {status}")
    atomic_write(config.out_dir / "tune.json", dump_json(summary))
    return 0


def _report_tables(out_dir: Path, reports: list[BacktestReport]) -> None:
    for stem, columns in REPORT_TABLES:
        write_csv(
            out_dir / "tables" / f"{stem}.csv",
            ["dataset", "strategy"] + [column for column, _ in columns],
            [
                [rep.dataset, s.name] + [getattr(s, field) for _, field in columns]
                for rep in reports
                for s in rep.strategies
            ],
        )


def cmd_diagnose(config: RunConfig) -> int:
    """Per-asset hedge diagnostics: unhedgeable variance and largest |beta|.

    A rank-deficient design (e.g. more assets than observations) is
    reported per dataset without failing the run.
    """
    def diagnose(ds: DatasetConfig, panel: ReturnsPanel) -> list[str]:
        try:
            regressions = [ols_hedge(panel.returns, i) for i in range(panel.p)]
        except MulticollinearityError as exc:
            return [f"{ds.name}: {failure(exc)}"]
        lines = [f"{ds.name} (n={panel.n}, p={panel.p})"]
        for name, reg in zip(panel.assets, regressions):
            beta_max = float(np.abs(reg.betas).max()) if reg.betas.size else 0.0
            flag = " DEGENERATE" if reg.degenerate else ""
            lines.append(f"  {name}: v={reg.unhedgeable_variance:.6g} max|beta|={beta_max:.6g}{flag}")
        return lines

    for _, lines in _each_dataset(config, diagnose):
        print("\n".join(lines))
    return 0


def cmd_backtest(config: RunConfig) -> int:
    if not config.rolling.strategies:
        raise ConfigError("no strategies configured; nothing to backtest")

    def backtest(ds: DatasetConfig, panel: ReturnsPanel):
        runs = run_rolling(panel, config.rolling)
        report = build_report(runs, panel, config.rolling, dataset=ds.name)
        curves = {
            name: run.tuning_curve for name, run in runs.items() if run.tuning_curve is not None
        }
        return report, curves

    reports = []
    for ds, (report, curves) in _each_dataset(config, backtest):
        reports.append(report)
        for strategy_name, curve in curves.items():
            _write_curve(config.out_dir, ds.name, strategy_name, curve)
        for s in report.strategies:
            status = "ok" if s.available else "UNAVAILABLE"
            print(f"{ds.name} {s.name}: {s.n_success}/{s.n_windows} windows ({status})")

    payload = {
        "config": {
            "window_length": config.rolling.window_length,
            "grid": list(config.rolling.tuning_grid),
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

COMMANDS = {
    "describe": (cmd_describe, "descriptive statistics per dataset"),
    "tune": (cmd_tune, "grid-search the penalty intensity per dataset"),
    "backtest": (cmd_backtest, "rolling-window out-of-sample evaluation"),
    "diagnose": (cmd_diagnose, "per-asset hedge-regression diagnostics"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="precis",
        description="Precision-matrix estimation and minimum-variance portfolio backtests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, type=Path, help="YAML run config")
        cmd.add_argument("--out", type=Path, help="output directory (overrides config)")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][0](load_config(args.config, overrides=args))
    except (PrecisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
