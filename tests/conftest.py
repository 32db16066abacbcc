"""Shared fixtures and synthetic-data builders for the test suite."""
from __future__ import annotations

import os
from pathlib import Path

from precis import ReturnsPanel, forward_fill, parse_panel  # before numpy: one BLAS thread

import numpy as np
import pytest

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
        return forward_fill(parse_panel(fh, date_range=KF_RANGE))


def rand_spd(p: int, rng: np.random.Generator, cond: float = 10.0) -> np.ndarray:
    """Random SPD matrix with the given spectral condition number."""
    q, _ = np.linalg.qr(rng.normal(size=(p, p)))
    lam = np.linspace(1.0, cond, p)
    return (q * lam) @ q.T


def rand_psd_singular(p: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    x = rng.normal(size=(rank, p))
    return x.T @ x / rank


def month_stamps(n: int, start: int = 199001) -> np.ndarray:
    year, month = divmod(start, 100)
    out = []
    for _ in range(n):
        out.append(year * 100 + month)
        month += 1
        if month > 12:
            year, month = year + 1, 1
    return np.asarray(out, dtype=np.int64)


def make_panel(returns: np.ndarray, start: int = 199001, assets=None) -> ReturnsPanel:
    returns = np.asarray(returns, dtype=float)
    n, p = returns.shape
    return ReturnsPanel(
        dates=month_stamps(n, start),
        assets=assets or [f"A{i:02d}" for i in range(p)],
        returns=returns,
        missing_mask=np.zeros((n, p), dtype=bool),
    )


def synth_returns(
    n: int,
    p: int,
    rng: np.random.Generator,
    rho_common: float = 0.3,
    scale: float = 4.0,
    drift: float = 0.6,
) -> np.ndarray:
    """One-factor monthly percent returns, loosely like industry portfolios."""
    common = rng.normal(size=(n, 1))
    idio = rng.normal(size=(n, p))
    loadings = 0.7 + 0.6 * rng.random(p)
    x = np.sqrt(rho_common) * common * loadings + np.sqrt(1.0 - rho_common) * idio
    return scale * x + drift


def panel_csv(returns: np.ndarray, start: int = 199001, assets=None) -> str:
    """Render a return matrix as the CSV layout the parser expects."""
    returns = np.asarray(returns, dtype=float)
    n, p = returns.shape
    names = assets or [f"A{i:02d}" for i in range(p)]
    lines = ["date," + ",".join(names)]
    for stamp, row in zip(month_stamps(n, start), returns):
        lines.append(f"{stamp}," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
