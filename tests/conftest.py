"""Shared fixtures and builders for the test suite; the synthetic draws live in
`scripts/synthetic.py`."""
from __future__ import annotations

import os
from pathlib import Path

from precis import ReturnsPanel, parse_panel  # before numpy: one BLAS thread

import numpy as np
import pytest

from synthetic import month_stamps, panel_csv, synth_returns, synth_truth  # re-exported to the tests

# Real Ken French CSVs are looked up here (pre-trimmed: header line, YYYYMM
# date column, one numeric column per asset). Tests that need them skip when
# the files are absent.
DATA_ENV = "PRECIS_DATA_DIR"
KF_FILES = {
    "17Ind": "17ind.csv",
    "30Ind": "30ind.csv",
    "49Ind": "49ind.csv",
    "100FF": "100ff.csv",
    "132S": "132s.csv",
}
KF_RANGE = ("1973-07", "2015-12")


def data_dir() -> Path:
    return Path(os.environ.get(DATA_ENV, Path(__file__).resolve().parent.parent / "data"))


def kf_path(name: str) -> Path | None:
    path = data_dir() / KF_FILES[name]
    return path if path.exists() else None


def kf_panel(name: str) -> ReturnsPanel:
    path = kf_path(name)
    if path is None:
        pytest.skip(
            f"Ken French dataset {name} not found under {data_dir()} "
            f"(set {DATA_ENV} to a directory of pre-trimmed CSVs)"
        )
    with open(path, "rb") as fh:
        return parse_panel(fh, date_range=KF_RANGE)


def rand_spd(p: int, rng: np.random.Generator, cond: float = 10.0) -> np.ndarray:
    """Random SPD matrix with the given spectral condition number."""
    q, _ = np.linalg.qr(rng.normal(size=(p, p)))
    lam = np.linspace(1.0, cond, p)
    return (q * lam) @ q.T


def rand_psd_singular(p: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    x = rng.normal(size=(rank, p))
    return x.T @ x / rank


def make_panel(returns: np.ndarray, start: int = 199001, assets=None) -> ReturnsPanel:
    returns = np.asarray(returns, dtype=float)
    n, p = returns.shape
    return ReturnsPanel(
        dates=month_stamps(n, start),
        assets=assets or [f"A{i:02d}" for i in range(p)],
        returns=returns,
        missing_mask=np.zeros((n, p), dtype=bool),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
