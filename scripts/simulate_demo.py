#!/usr/bin/env python3
"""End-to-end demo on synthetic data: describe, tune, and backtest.

Creates two synthetic monthly-percent-return panels under DEMO_DIR (one
ordinary, one with more assets than the estimation window so the sample
estimator fails), then runs the full pipeline on the committed
DEMO_DIR/demo.yaml and leaves the reports in DEMO_DIR/out. No real data
required.
"""
import sys
from pathlib import Path

from precis.cli import main  # before numpy, so that precis sets its one-BLAS-thread default

import numpy as np
from synthetic import panel_csv, synth_returns

DEMO_DIR = Path(__file__).resolve().parent.parent / "demo"


def demo_panels():
    """The demo's two panels as CSV text, keyed by file name."""
    return {
        name: panel_csv(synth_returns(n, p, np.random.default_rng(seed), rho_common=0.35), decimals=4)
        for name, n, p, seed in (("small.csv", 200, 8, 1), ("crowded.csv", 70, 40, 2))
    }


def run():
    for name, text in demo_panels().items():
        (DEMO_DIR / name).write_text(text)
    config_path = DEMO_DIR / "demo.yaml"

    for command in ("describe", "tune", "backtest"):
        print(f"\n=== precis {command} ===")
        code = main([command, "--config", str(config_path)])
        if code != 0:
            return code
    print(f"\nreports written under {DEMO_DIR / 'out'}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
