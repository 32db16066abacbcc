"""Hedge-regression view of the precision matrix.

Each row of the precision matrix encodes a regression of one asset on all
the others: the diagonal is the reciprocal of the residual ("unhedgeable")
variance and the off-diagonals are the negated regression coefficients
scaled by it. Assembling per-asset OLS fits therefore reproduces the inverse
sample covariance exactly, which makes this module the strongest independent
oracle for the penalized estimators. The per-row Lasso variant is kept for
diagnostics only: row-by-row shrinkage does not preserve symmetry or
positive definiteness, so it is never a production estimator path.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateColumnError,
    DegenerateMatrixError,
    MulticollinearityError,
    NonconvergenceError,
)
from .linalg import symmetrize

logger = logging.getLogger(__name__)

# A fit counts as degenerate (perfect hedge) when the residual sum of squares
# falls below this fraction of the target's total sum of squares.
DEGENERATE_RSS_RTOL = 1e-12


@dataclass(frozen=True)
class HedgeRegression:
    """One asset regressed on the other p-1, with residual-variance bookkeeping.

    unhedgeable_variance uses the unbiased RSS / (n - p) convention for
    reporting; rss and nobs are kept so the matrix assembly can rescale to
    the covariance-matched RSS / (n - 1) convention.
    """

    target_index: int
    betas: np.ndarray          # length p-1, ordered by the non-target columns
    intercept: float
    unhedgeable_variance: float
    rss: float
    nobs: int
    degenerate: bool


def _split_design(window: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    window = np.asarray(window, dtype=float)
    n, p = window.shape
    if not 0 <= i < p:
        raise IndexError(f"asset index {i} out of range for p={p}")
    y = window[:, i]
    x = np.delete(window, i, axis=1)
    return y, x


def _regression(
    i: int, y: np.ndarray, resid: np.ndarray, betas: np.ndarray, intercept: float, dof: int
) -> HedgeRegression:
    """The fit of asset i with returns y: residual sums and the perfect-hedge flag."""
    rss = float(resid @ resid)
    tss = float(np.sum((y - y.mean()) ** 2))
    return HedgeRegression(
        target_index=i,
        betas=betas,
        intercept=float(intercept),
        unhedgeable_variance=rss / dof,
        rss=rss,
        nobs=len(y),
        degenerate=rss <= DEGENERATE_RSS_RTOL * max(tss, 1e-300),
    )


def ols_hedge(window: np.ndarray, i: int) -> HedgeRegression:
    """OLS hedge regression of asset i on the other columns plus an intercept.

    Solves the normal equations via least squares; a rank-deficient design
    raises, naming the offending columns (original panel indices).
    """
    y, x = _split_design(window, i)
    n, k = x.shape
    design = np.column_stack([np.ones(n), x])
    # lstsq's rank counts singular values above eps * max(n, k + 1) * s_max
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < k + 1:
        # |R_jj| is column j's distance from the span of the columns before
        # it; columns past the n-th have no diagonal entry and distance 0.
        # The k + 1 - rank asset columns closest to that span are named: the
        # later of two equal columns, and every column past the n-th when p > n.
        distance = np.zeros(k + 1)
        r = np.linalg.qr(design, mode="r")
        distance[: len(r)] = np.abs(np.diagonal(r))
        dependent = np.sort(np.argsort(distance[1:], kind="stable")[: k + 1 - rank])
        others = [j for j in range(window.shape[1]) if j != i]
        names = [others[j] for j in dependent]
        raise MulticollinearityError(
            f"design for asset {i} is rank deficient; dependent columns {names}"
        )
    dof = n - window.shape[1]
    if dof <= 0:
        raise MulticollinearityError(
            f"need more observations than assets for OLS hedges (n={n}, p={window.shape[1]})"
        )
    return _regression(i, y, y - design @ coef, coef[1:], coef[0], dof)


def precision_from_hedges(regressions: list[HedgeRegression]) -> np.ndarray:
    """Assemble a precision matrix from one hedge regression per asset.

    The residual variances are taken as RSS / (n - 1), not the reported
    RSS / (n - p), which makes the assembled matrix equal the inverse of
    the n-1 sample covariance exactly (up to float roundoff). The raw
    assembly is only symmetric in exact arithmetic, so the output is
    symmetrized and the observed asymmetry is logged rather than hidden.
    """
    p = len(regressions)
    if p < 2:
        raise DegenerateMatrixError("need at least two regressions")
    if sorted(r.target_index for r in regressions) != list(range(p)):
        raise DegenerateMatrixError("need exactly one regression per asset")

    psi = np.zeros((p, p))
    for reg in regressions:
        i = reg.target_index
        v = reg.rss / (reg.nobs - 1)
        if v <= 0 or reg.degenerate:
            raise DegenerateMatrixError(
                f"asset {i} is perfectly hedged (residual variance {v:.3e}); "
                "its precision row is unbounded"
            )
        psi[i, i] = 1.0 / v
        others = [j for j in range(p) if j != i]
        psi[i, others] = -reg.betas / v
    asymmetry = float(np.abs(psi - psi.T).max())
    scale = float(np.abs(psi).max())
    if scale > 0 and asymmetry > 1e-6 * scale:
        logger.info("hedge assembly asymmetry %.3e (scale %.3e)", asymmetry, scale)
    return symmetrize(psi)


def soft_threshold(b, gamma):
    """sign(b) * max(|b| - gamma, 0); gamma must be nonnegative. Vectorized."""
    if np.any(np.asarray(gamma) < 0):
        raise ValueError("gamma must be nonnegative")
    return np.sign(b) * np.maximum(np.abs(b) - gamma, 0.0)


def lasso_hedge(
    window: np.ndarray,
    i: int,
    gamma: float,
    tol: float = 1e-6,
    max_iter: int = 10000,
) -> HedgeRegression:
    """L1-penalized hedge regression via cyclic coordinate descent.

    The intercept is absorbed by centering and left unpenalized; regressors
    are scaled to unit norm before the sweep so the soft threshold is
    exactly gamma (on an orthonormal design the solution is the
    soft-thresholded OLS coefficient). Iteration stops once the duality gap
    certifies the objective is within tol * max(1, objective) of optimal.
    Returned betas are on the original regressor scale.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    y, x = _split_design(window, i)
    n, k = x.shape
    y_c = y - y.mean()
    x_means = x.mean(axis=0)
    x_c = x - x_means
    norms = np.linalg.norm(x_c, axis=0)
    if np.any(norms <= 0):
        others = [j for j in range(window.shape[1]) if j != i]
        raise DegenerateColumnError(
            f"constant regressor column {others[int(np.argmin(norms))]} cannot be standardized"
        )
    x_s = x_c / norms

    gram = x_s.T @ x_s
    xty = x_s.T @ y_c
    betas = np.zeros(k)
    u = np.zeros(k)  # gram @ betas, maintained incrementally

    converged = False
    for _ in range(max_iter):
        for j in range(k):
            partial = xty[j] - (u[j] - betas[j])  # gram diagonal is 1
            new = soft_threshold(partial, gamma)
            delta = new - betas[j]
            if delta != 0.0:
                u += gram[:, j] * delta
                betas[j] = new
        resid = y_c - x_s @ betas
        primal = 0.5 * float(resid @ resid) + gamma * float(np.abs(betas).sum())
        if gamma > 0:
            corr = float(np.abs(x_s.T @ resid).max())
            scale = min(1.0, gamma / corr) if corr > 0 else 1.0
            dual_point = resid * scale
            dual = 0.5 * float(y_c @ y_c) - 0.5 * float((y_c - dual_point) @ (y_c - dual_point))
            gap = primal - dual
        else:
            gap = float(np.abs(x_s.T @ resid).max())
        if gap <= tol * max(1.0, abs(primal)):
            converged = True
            break
    if not converged:
        raise NonconvergenceError(
            f"lasso hedge for asset {i} did not converge in {max_iter} sweeps"
        )

    betas_orig = betas / norms
    intercept = y.mean() - betas_orig @ x_means
    resid = y - (x @ betas_orig + intercept)
    return _regression(i, y, resid, betas_orig, intercept, max(n - window.shape[1], 1))
