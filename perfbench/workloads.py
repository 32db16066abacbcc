"""Benchmark workloads and their seeded inputs.

Each workload is one `precis` CLI command on one synthetic panel. The
program under test receives only two files, written here: the panel as a
CSV and the YAML run config that points at it.

The panel follows the one-factor model of `tests/conftest.py::synth_returns`
(copied here so that edits to the test suite never shift the benchmark's
inputs), split into zero-mean shocks and a per-asset mean. The shocks are one
fixed draw per shape (SHOCK_SEED); the --seed draws each asset's mean. Every
estimator works on demeaned windows, so every seed poses the same
estimation problems and the same solver work, while the means, and with
them the out-of-sample returns, differ. Independent shock draws would not
do: at p = 17 the l1 solver needs 12 to 35 sweeps per solve across ten draws,
a 3x spread in `tune` time that no run length here averages out. The fixed
draw was not chosen for its cost: its 21 sweeps are near the median (19.5)
of those ten draws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DATASET = "synth"
FIRST_MONTH = 199001
SHOCK_SEED = 0
DRIFT, DRIFT_SPREAD = 0.6, 0.3  # per-asset means are uniform on DRIFT +- DRIFT_SPREAD


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "tune" or "backtest"
    p: int
    n: int
    window: int
    strategies: tuple[str, ...]  # YAML flow mappings or paper labels
    grid: tuple[float, float, float] = (0.0, 3.0, 0.1)  # start, stop, step
    max_iter: int | None = None

    def grid_values(self) -> list[float]:
        """The rho grid the config asks for, computed independently of precis."""
        start, stop, step = self.grid
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [round(start + k * step, 10) for k in range(count)]


NON_PENALIZED = ("S-MVP", "EW-MVP", "LW-MVP", "PCA-MVP", "JM-MVP")

# Why each workload exists, and what each cost on the initial commit, is in
# perfbench/README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        # 3 x 4 penalized solves on one fixed window: the solver layer only.
        # The grid spans the paper's 0..3 at step 1, not 0.1, so that one
        # process takes a few seconds and a run holds several of them.
        Workload(
            name="tune-p17",
            command="tune",
            p=17,
            n=510,
            window=120,
            grid=(0.0, 3.0, 1.0),
            strategies=(
                "{name: Glasso-MVP, kind: qml_l1, rho: tune}",
                "{name: Ridge-MVP, kind: qml_l2, rho: tune}",
                "{name: EN-MVP, kind: qml_elastic, rho: tune, alpha: 0.5}",
            ),
        ),
        # 40 windows x 5 closed-form / active-set strategies: no penalized solve.
        Workload(
            name="backtest-p100",
            command="backtest",
            p=100,
            n=160,
            window=120,
            strategies=NON_PENALIZED,
        ),
        # p = 40 > T = 36, as in demo/demo.yaml: singular S on every window.
        # Two windows and Ridge only (not EN, which runs the same proximal
        # solver), because each solve runs to its 2000-step cap.
        Workload(
            name="backtest-crowded",
            command="backtest",
            p=40,
            n=38,
            window=36,
            strategies=NON_PENALIZED + ("{name: Ridge-MVP, kind: qml_l2, rho: 0.5}",),
            max_iter=2000,
        ),
    )
}


def one_factor_shocks(n: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """Zero-mean one-factor monthly percent returns, loosely like industry portfolios."""
    rho_common, scale = 0.3, 4.0
    common = rng.normal(size=(n, 1))
    idio = rng.normal(size=(n, p))
    loadings = 0.7 + 0.6 * rng.random(p)
    return scale * (np.sqrt(rho_common) * common * loadings + np.sqrt(1.0 - rho_common) * idio)


def panel_returns(workload: Workload, seed: int) -> np.ndarray:
    shocks = one_factor_shocks(workload.n, workload.p, np.random.default_rng(SHOCK_SEED))
    means = DRIFT + DRIFT_SPREAD * (2.0 * np.random.default_rng(seed).random(workload.p) - 1.0)
    return shocks + means


def month_stamps(n: int, start: int = FIRST_MONTH) -> list[int]:
    year, month = divmod(start, 100)
    out = []
    for _ in range(n):
        out.append(year * 100 + month)
        month += 1
        if month > 12:
            year, month = year + 1, 1
    return out


def panel_csv(returns: np.ndarray) -> str:
    """The CSV layout `precis.panel.parse_panel` reads; repr() round-trips floats."""
    n, p = returns.shape
    lines = ["date," + ",".join(f"A{i:03d}" for i in range(p))]
    for stamp, row in zip(month_stamps(n), returns):
        lines.append(f"{stamp}," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def config_yaml(workload: Workload, seed: int) -> str:
    start, stop, step = workload.grid
    lines = [
        f"# perfbench workload {workload.name}, seed {seed}",
        f"window_length: {workload.window}",
        f"grid: {{start: {start}, stop: {stop}, step: {step}}}",
    ]
    if workload.max_iter is not None:
        lines.append(f"solver: {{max_iter: {workload.max_iter}}}")
    lines.append(f"datasets: [{{name: {DATASET}, path: {DATASET}.csv}}]")
    lines.append("strategies:")
    lines += [f"- {entry}" for entry in workload.strategies]
    return "\n".join(lines) + "\n"


def write_inputs(workload: Workload, seed: int, directory: Path) -> tuple[Path, np.ndarray]:
    """Write the seeded panel and config into directory; return (config, returns)."""
    returns = panel_returns(workload, seed)
    (directory / f"{DATASET}.csv").write_text(panel_csv(returns))
    config = directory / "config.yaml"
    config.write_text(config_yaml(workload, seed))
    return config, returns
