"""Synthetic one-factor monthly return panels with their true covariance.

The test suite and `scripts/simulate_demo.py` draw their data here. The module
imports numpy alone, so the demo runs without pytest.
"""
from __future__ import annotations

import numpy as np


def month_stamps(n: int, start: int = 199001) -> np.ndarray:
    """`n` consecutive YYYYMM stamps from `start`."""
    year, month = divmod(start, 100)
    out = []
    for _ in range(n):
        out.append(year * 100 + month)
        month += 1
        if month > 12:
            year, month = year + 1, 1
    return np.asarray(out, dtype=np.int64)


def synth_truth(
    n: int,
    p: int,
    rng: np.random.Generator,
    rho_common: float = 0.3,
    scale: float = 4.0,
    drift: float = 0.6,
    idio_scale: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One-factor monthly percent returns, loosely like industry portfolios,
    and the covariance they are drawn from.

    Row t is `drift + scale (sqrt(rho) f_t l + sqrt(1 - rho) idio_scale * e_t)`
    with `rho = rho_common`, `f_t` and `e_t` standard normal and loadings
    `l ~ U(0.7, 1.3)`, drawn from `rng` in that order. `idio_scale` (one
    positive scale per asset, all ones by default) does not touch the draw
    stream. Returns the (n, p) returns and
    `Sigma = scale^2 (rho l l' + (1 - rho) diag(idio_scale^2))`.
    """
    common = rng.normal(size=(n, 1))
    idio = rng.normal(size=(n, p))
    loadings = 0.7 + 0.6 * rng.random(p)
    idio_scale = np.ones(p) if idio_scale is None else np.asarray(idio_scale, dtype=float)
    x = np.sqrt(rho_common) * common * loadings + np.sqrt(1.0 - rho_common) * (idio * idio_scale)
    sigma = scale**2 * (
        rho_common * np.outer(loadings, loadings) + (1.0 - rho_common) * np.diag(idio_scale**2)
    )
    return scale * x + drift, sigma


def synth_returns(n: int, p: int, rng: np.random.Generator, **kwargs) -> np.ndarray:
    """The returns of `synth_truth`, without the covariance."""
    return synth_truth(n, p, rng, **kwargs)[0]


def panel_csv(returns: np.ndarray, start: int = 199001, assets=None, decimals: int | None = None) -> str:
    """Render a return matrix as the CSV layout the parser expects: each value
    as `repr` (which round-trips the float), or to `decimals` places."""
    returns = np.asarray(returns, dtype=float)
    n, p = returns.shape
    names = assets or [f"A{i:02d}" for i in range(p)]
    cell = repr if decimals is None else (lambda v: f"{v:.{decimals}f}")
    lines = ["date," + ",".join(names)]
    for stamp, row in zip(month_stamps(n, start), returns):
        lines.append(f"{stamp}," + ",".join(cell(float(v)) for v in row))
    return "\n".join(lines) + "\n"
