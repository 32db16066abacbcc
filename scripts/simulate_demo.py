#!/usr/bin/env python3
"""End-to-end demo on synthetic data: describe, tune, and backtest.

Creates two synthetic monthly-percent-return panels under DEMO_DIR (one
ordinary, one with more assets than the estimation window so the sample
estimator fails), then runs the full pipeline and leaves the reports in
DEMO_DIR/out. No real data required.
"""
import sys
from pathlib import Path

import numpy as np
import yaml

from precis.cli import main

DEMO_DIR = Path(__file__).resolve().parent.parent / "demo"


def month_stamps(n, start=199001):
    year, month = divmod(start, 100)
    out = []
    for _ in range(n):
        out.append(year * 100 + month)
        month += 1
        if month > 12:
            year, month = year + 1, 1
    return out


def synth_csv(n, p, seed, rho_common=0.35, scale=4.0, drift=0.6):
    rng = np.random.default_rng(seed)
    common = rng.normal(size=(n, 1))
    idio = rng.normal(size=(n, p))
    loadings = 0.7 + 0.6 * rng.random(p)
    data = scale * (np.sqrt(rho_common) * common * loadings + np.sqrt(1 - rho_common) * idio)
    data += drift
    lines = ["date," + ",".join(f"A{i:02d}" for i in range(p))]
    for stamp, row in zip(month_stamps(n), data):
        lines.append(f"{stamp}," + ",".join(f"{v:.4f}" for v in row))
    return "\n".join(lines) + "\n"


def run():
    DEMO_DIR.mkdir(exist_ok=True)
    (DEMO_DIR / "small.csv").write_text(synth_csv(200, 8, seed=1))
    (DEMO_DIR / "crowded.csv").write_text(synth_csv(70, 40, seed=2))
    config = {
        "window_length": 36,
        "turnover": "drift",
        "out": "out",
        "grid": {"start": 0.0, "stop": 2.0, "step": 0.25},
        "solver": {"max_iter": 2000},
        "datasets": [
            {"name": "small", "path": "small.csv"},
            {"name": "crowded", "path": "crowded.csv"},
        ],
        "strategies": [
            "S-MVP",
            "EW-MVP",
            "LW-MVP",
            "PCA-MVP",
            "JM-MVP",
            {"name": "Glasso-MVP", "kind": "qml_l1", "rho": "tune"},
            {"name": "Ridge-MVP", "kind": "qml_l2", "rho": "tune"},
            {"name": "EN-MVP", "kind": "qml_elastic", "rho": "tune", "alpha": 0.5},
        ],
    }
    config_path = DEMO_DIR / "demo.yaml"
    config_path.write_text(yaml.safe_dump(config, sort_keys=False))

    for command in ("describe", "tune", "backtest"):
        print(f"\n=== precis {command} ===")
        code = main([command, "--config", str(config_path)])
        if code != 0:
            return code
    print(f"\nreports written under {DEMO_DIR / 'out'}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
