#!/usr/bin/env python3
"""Run the full five-dataset evaluation from configs/paper.yaml.

Requires the pre-trimmed monthly return CSVs under data/ (see README).
Produces descriptive statistics, tuned penalty curves, and the complete
backtest report under out/paper. The backtest tunes rho itself and writes
the curves and each tuned rho into its report, so the script does not run
`precis tune` and writes no tune.json.
"""
import sys
from pathlib import Path

from precis.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "paper.yaml"
DATA = ROOT / "data"
FILES = ("17ind.csv", "30ind.csv", "49ind.csv", "100ff.csv", "132s.csv")


def run():
    missing = [name for name in FILES if not (DATA / name).exists()]
    if missing:
        print(
            "missing dataset files under data/: " + ", ".join(missing) + "\n"
            "Prepare pre-trimmed CSVs (header row, YYYYMM date column, one\n"
            "numeric column per asset) from the monthly value-weighted return\n"
            "tables; see README.md for details.",
            file=sys.stderr,
        )
        return 1
    for command in ("describe", "backtest"):
        print(f"\n=== precis {command} ===")
        code = main([command, "--config", str(CONFIG)])
        if code != 0:
            return code
    print(f"\nreports written under {ROOT / 'out' / 'paper'}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
