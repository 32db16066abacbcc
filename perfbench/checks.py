"""Checks on the program's outputs, and the operation counts read from them.

An operation is one strategy-window of a backtest or one grid point of a
tuning curve. It fails when the report records a failure for it or its
tuning score is not finite; it converged when it gave an estimate whose
solver reported convergence (closed-form estimators always do).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from workloads import DATASET, Workload

REL_TOL = 1e-8
SINGULAR = "SingularMatrixError"


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Ops:
    attempted: int
    failed: int
    converged: int


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def strategy_names(config: Path) -> list[str]:
    entries = yaml.safe_load(config.read_text())["strategies"]
    return [e if isinstance(e, str) else e["name"] for e in entries]


def output_files(out_dir: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(out_dir)): path.read_bytes()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


def same_outputs(first: Path, other: Path) -> None:
    """Every output file of two invocations on the same inputs is byte-identical."""
    a, b = output_files(first), output_files(other)
    _require(sorted(a) == sorted(b), f"output file sets differ: {sorted(a)} vs {sorted(b)}")
    for name in a:
        _require(a[name] == b[name], f"{name} differs byte for byte between two runs")


def _mvp_oos_variance(returns: np.ndarray, window: int, weights_of) -> float:
    oos = []
    for t in range(window, returns.shape[0]):
        w = weights_of(returns[t - window : t])
        oos.append(float(w @ returns[t]))
    return float(np.var(oos, ddof=1))


def _sample_mvp(block: np.ndarray) -> np.ndarray:
    s = np.cov(block, rowvar=False)
    w = np.linalg.solve(s, np.ones(s.shape[0]))
    return w / w.sum()


def _equal(block: np.ndarray) -> np.ndarray:
    return np.full(block.shape[1], 1.0 / block.shape[1])


def _check_hedge_inverse(block: np.ndarray) -> None:
    """numpy's inverse of one window's S matches the hedge-regression assembly."""
    from precis.hedge import ols_hedge, precision_from_hedges

    inverse = np.linalg.inv(np.cov(block, rowvar=False))
    hedged = precision_from_hedges([ols_hedge(block, i) for i in range(block.shape[1])])
    gap = float(np.abs(hedged - inverse).max() / np.abs(inverse).max())
    _require(gap <= REL_TOL, f"hedge-regression precision differs from inv(S) by {gap:.3e}")


def check_backtest(workload: Workload, config: Path, out_dir: Path, returns: np.ndarray) -> Ops:
    report = json.loads((out_dir / "report.json").read_text())["reports"]
    _require(len(report) == 1 and report[0]["dataset"] == DATASET, "one report for the panel")
    by_name = {s["name"]: s for s in report[0]["strategies"]}
    names = strategy_names(config)
    _require(sorted(by_name) == sorted(names), f"report strategies {sorted(by_name)}")
    n_windows = workload.n - workload.window
    attempted = failed = converged = 0
    for name in names:
        s = by_name[name]
        _require(s["n_windows"] == n_windows, f"{name}: n_windows {s['n_windows']} != {n_windows}")
        _require(
            s["n_success"] + s["n_failed"] == s["n_windows"],
            f"{name}: n_success + n_failed != n_windows",
        )
        _require(len(s["failures"]) == s["n_failed"], f"{name}: failure list length")
        attempted += s["n_windows"]
        failed += s["n_failed"]
        converged += (s["n_converged"] or 0) if s["kind"].startswith("qml_") else s["n_success"]

    # The sample covariance has rank at most T - 1: with p >= T it is singular
    # on every window, and that is the only way S-MVP and JM-MVP may fail.
    singular = workload.p >= workload.window
    for name in ("S-MVP", "JM-MVP"):
        if name not in by_name:
            continue
        s = by_name[name]
        kinds = {message.split(":", 1)[0] for _, message in s["failures"]}
        _require(kinds <= {SINGULAR}, f"{name}: failures other than {SINGULAR}: {sorted(kinds)}")
        if singular:
            _require(s["n_failed"] == n_windows, f"{name}: a singular window did not fail")
    jm = by_name.get("JM-MVP")
    if jm and jm["weight_min"] is not None:
        _require(jm["weight_min"] >= 0.0, f"JM-MVP weight_min {jm['weight_min']} < 0")

    # Independent numpy recomputation of the closed-form strategies.
    expected = {"EW-MVP": _equal} if singular else {"EW-MVP": _equal, "S-MVP": _sample_mvp}
    for name, weights_of in expected.items():
        if name not in by_name:
            continue
        want = _mvp_oos_variance(returns, workload.window, weights_of)
        got = by_name[name]["oos_variance"]
        _require(
            got is not None and _rel_gap(got, want) <= REL_TOL,
            f"{name}: oos_variance {got} differs from numpy's {want}",
        )
    if not singular and "S-MVP" in by_name:
        _check_hedge_inverse(returns[: workload.window])
    return Ops(attempted, failed, converged)


def _read_curve(path: Path) -> list[tuple[float, float]]:
    lines = path.read_text().splitlines()
    _require(lines and lines[0] == "rho,score", f"{path.name}: bad header")
    curve = []
    for line in lines[1:]:
        rho, score = line.split(",")
        curve.append((float(rho), float(score) if score else math.nan))
    return curve


def check_tune(workload: Workload, config: Path, out_dir: Path) -> Ops:
    summary = json.loads((out_dir / "tune.json").read_text())
    _require(list(summary) == [DATASET], f"tune.json datasets {list(summary)}")
    names = strategy_names(config)
    _require(sorted(summary[DATASET]) == sorted(names), "tune.json strategies")
    grid = workload.grid_values()
    attempted = failed = 0
    for name in names:
        curve = _read_curve(out_dir / "curves" / f"{DATASET}_{name}.csv")
        rhos = [rho for rho, _ in curve]
        _require(
            len(rhos) == len(grid) and all(abs(a - b) <= 1e-12 for a, b in zip(rhos, grid)),
            f"{name}: tuning curve does not cover the grid {grid[0]}..{grid[-1]}",
        )
        scores = [score for _, score in curve]
        finite = [math.isfinite(score) for score in scores]
        attempted += len(curve)
        failed += finite.count(False)
        best = None
        if any(finite):
            top = max(score for score, ok in zip(scores, finite) if ok)
            best = rhos[scores.index(top)]  # the smallest rho on ties
        _require(summary[DATASET][name] == best, f"{name}: rho* is not the curve's argmax")
    return Ops(attempted, failed, attempted - failed)


def check_outputs(workload: Workload, config: Path, out_dir: Path, returns: np.ndarray) -> Ops:
    if workload.command == "tune":
        return check_tune(workload, config, out_dir)
    return check_backtest(workload, config, out_dir, returns)
