"""Precision-matrix estimators.

Four families: the plain sample inverse, Ledoit-Wolf shrinkage toward a
scaled identity, a PCA truncation, and penalized quasi-maximum-likelihood
with l1 / l2 / elastic-net penalties on the off-diagonal entries.

The penalized problem maximizes, over symmetric positive definite psi,

    (T/2) log det(psi) - (T/2) trace(S psi) - rho * P(psi)

with P summing |psi_ij| (l1), psi_ij^2 (l2), or the (1-alpha)/alpha blend
(elastic) over i != j; the diagonal is never penalized. Internally the
objective is divided by T/2 (effective penalty weight 2 rho / T), which
leaves the maximizer unchanged while keeping rho on the scale used for
grid tuning. One solver covers all three penalties: graphical-lasso ADMM
with an elementwise elastic-net prox, run on the correlation matrix so that
its conditioning does not depend on the scale of individual assets. It
stops on the first-order optimality residual: the largest entrywise
distance between the smooth-part gradient and the penalty subdifferential,
measured on the T/2-normalized objective.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import (
    DegenerateMatrixError,
    InsufficientDataError,
    SingularMatrixError,
    TuningError,
)
from .linalg import (
    check_symmetric,
    invert_spd,
    sample_covariance,
    sym_eigen,
    symmetrize,
)

logger = logging.getLogger(__name__)

PENALTY_KINDS = ("l1", "l2", "elastic")

# ADMM penalty schedule in correlation units: the start value, the ratio of
# primal to dual residual norms that triggers a change, and the factor applied.
ADMM_RHO0 = 1.0
ADMM_BALANCE = 2.0
ADMM_RHO_STEP = 4.0


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty kind plus intensity rho and, for elastic, the l2-weight share alpha."""

    kind: str
    rho: float
    alpha: float = 0.5

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise ValueError(f"kind must be one of {PENALTY_KINDS}, got {self.kind!r}")
        if self.rho < 0:
            raise ValueError(f"rho must be nonnegative, got {self.rho}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")

    @property
    def weights(self) -> tuple[float, float]:
        """(l1 share, l2 share): l1 -> (1, 0), l2 -> (0, 1), elastic -> (1-alpha, alpha)."""
        if self.kind == "l1":
            return 1.0, 0.0
        if self.kind == "l2":
            return 0.0, 1.0
        return 1.0 - self.alpha, self.alpha

    def value(self, psi: np.ndarray) -> float:
        """rho * P(psi) over the off-diagonal entries (both triangles counted)."""
        off = psi[~np.eye(psi.shape[0], dtype=bool)]
        l1w, l2w = self.weights
        return self.rho * (l1w * float(np.abs(off).sum()) + l2w * float((off**2).sum()))


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the penalized QML solver.

    tol bounds the first-order optimality residual on the T/2-normalized
    objective, measured relative to max(1, max|S_ij|) so the same setting
    is meaningful for unit-scale matrices and percent-unit return data.
    max_iter counts ADMM iterations.
    """

    tol: float = 1e-6
    max_iter: int = 10000

    def __post_init__(self):
        if self.tol <= 0 or self.max_iter < 1:
            raise ValueError("tol must be positive and max_iter at least 1")


@dataclass(frozen=True)
class PrecisionEstimate:
    """An estimated precision matrix plus solver provenance."""

    psi: np.ndarray
    estimator_kind: str
    penalty: PenaltySpec | None = None
    objective_value: float = math.nan
    iterations: int = 0
    converged: bool = True
    residual: float = 0.0
    lw_intensity: float | None = None


@dataclass(frozen=True)
class PcaEstimate:
    """Reduced-dimension precision from the dominant principal components.

    components holds the retained eigenvectors as p x k columns (descending
    eigenvalue order); reduced_precision is the k x k diagonal of inverse
    eigenvalues.
    """

    k: int
    components: np.ndarray
    reduced_precision: np.ndarray
    explained_fraction: float
    eigenvalues: np.ndarray  # the k retained eigenvalues, descending


def sample_precision(s: np.ndarray) -> PrecisionEstimate:
    """Directly invert the sample covariance; fails on singular windows."""
    s = check_symmetric(s)
    return PrecisionEstimate(psi=invert_spd(s), estimator_kind="sample")


def ledoit_wolf_intensity(window: np.ndarray) -> float:
    """Analytic shrinkage intensity toward the scaled identity.

    Ratio of the averaged squared deviation of per-observation outer
    products around the sample covariance to the squared distance between
    the sample covariance and the target, clipped to [0, 1]. Uses the 1/n
    covariance convention internally, as in the original derivation.
    """
    x = np.asarray(window, dtype=float)
    n, p = x.shape
    if n < 2:
        raise InsufficientDataError("need at least 2 observations")
    xc = x - x.mean(axis=0)
    s_n = xc.T @ xc / n
    mu = float(np.trace(s_n)) / p
    d2 = float(np.sum((s_n - mu * np.eye(p)) ** 2))
    if d2 <= 0:
        return 0.0
    b2 = 0.0
    for t in range(n):
        outer = np.outer(xc[t], xc[t])
        b2 += float(np.sum((outer - s_n) ** 2))
    b2 /= n * n
    return min(b2 / d2, 1.0)


def ledoit_wolf(
    s: np.ndarray, alpha: float | None = None, *, window: np.ndarray | None = None
) -> PrecisionEstimate:
    """Precision from the shrunk covariance (1 - alpha) S + alpha sigma2bar I.

    sigma2bar is the mean of the diagonal of S. When alpha is omitted it is
    set from the analytic optimal-intensity estimator, which needs the raw
    return window; pass it via the window keyword.
    """
    s = check_symmetric(s)
    sigma2bar = float(np.mean(np.diag(s)))
    if sigma2bar <= 0:
        raise DegenerateMatrixError("average variance is zero; nothing to shrink toward")
    if alpha is None:
        if window is None:
            raise ValueError("either a fixed alpha or the raw window is required")
        alpha = ledoit_wolf_intensity(window)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"shrinkage intensity must lie in [0, 1], got {alpha}")
    shrunk = (1.0 - alpha) * s + alpha * sigma2bar * np.eye(s.shape[0])
    return PrecisionEstimate(
        psi=invert_spd(shrunk), estimator_kind="ledoit_wolf", lw_intensity=float(alpha)
    )


def pca_precision(window: np.ndarray, threshold: float = 0.99) -> PcaEstimate:
    """Keep the fewest leading principal components explaining >= threshold.

    Eigenvalues are taken in descending order from the window's sample
    covariance; the reduced precision is the diagonal of their inverses.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    decomp = sym_eigen(sample_covariance(window))
    lam = decomp.eigenvalues[::-1]
    vecs = decomp.eigenvectors[:, ::-1]
    positive = np.maximum(lam, 0.0)
    total = float(positive.sum())
    if total <= 0:
        raise DegenerateMatrixError("window has zero total variance")
    shares = np.cumsum(positive) / total
    k = int(np.searchsorted(shares, threshold - 1e-15) + 1)
    k = min(k, len(lam))
    retained = lam[:k]
    if retained[-1] <= 0:
        raise DegenerateMatrixError("threshold reaches into the null spectrum")
    return PcaEstimate(
        k=k,
        components=vecs[:, :k].copy(),
        reduced_precision=np.diag(1.0 / retained),
        explained_fraction=float(shares[k - 1]),
        eigenvalues=retained.copy(),
    )


# --------------------------------------------------------------------------
# Penalized QML
# --------------------------------------------------------------------------

def _qml_objective(psi: np.ndarray, s: np.ndarray, lam1: float, lam2: float) -> float:
    """Normalized objective logdet - trace - penalty; -inf when not PD."""
    sign, logdet = np.linalg.slogdet(psi)
    if sign <= 0:
        return -np.inf
    off = psi[~np.eye(psi.shape[0], dtype=bool)]
    return (
        logdet
        - float(np.sum(s * psi))
        - lam1 * float(np.abs(off).sum())
        - lam2 * float((off**2).sum())
    )


def _optimality_residual(
    psi: np.ndarray, w: np.ndarray, s: np.ndarray, lam1: float, lam2: float
) -> float:
    """Max entrywise distance of the gradient from the penalty subdifferential.

    w must be the inverse of psi. Diagonal entries are unpenalized, so their
    residual is just |w_ii - s_ii|; off-diagonals subtract the l2 gradient
    and measure distance to lam1 * [-1, 1] at zeros.
    """
    grad = w - s
    off_grad = grad - 2.0 * lam2 * psi
    dist = np.where(
        psi != 0.0,
        np.abs(off_grad - lam1 * np.sign(psi)),
        np.maximum(np.abs(off_grad) - lam1, 0.0),
    )
    np.fill_diagonal(dist, np.abs(np.diagonal(grad)))
    return float(dist.max())


def _chol_inverse(psi: np.ndarray) -> np.ndarray | None:
    """Inverse of psi from its Cholesky factor; None when psi is not positive definite."""
    chol, info = lapack.dpotrf(psi, lower=True)
    if info != 0:
        return None
    # L^-1 by triangular inversion: dpotri runs many times slower under multithreaded OpenBLAS
    half, info = lapack.dtrtri(chol, lower=True)
    if info != 0:
        return None
    return symmetrize(half.T @ half)


def _solve_admm(
    s: np.ndarray, lam1: float, lam2: float, tol: float, max_iter: int
) -> tuple[np.ndarray, int, bool, float]:
    """Graphical-lasso ADMM (Boyd et al. 2011, sec. 6.5) on the correlation matrix.

    With d = sqrt(diag S), psi = Z / (d d') turns the problem into one on
    R = S / (d d') with off-diagonal penalties lam1 / (d_i d_j) and
    lam2 / (d_i d_j)^2, the same maximizer but conditioned independently of
    asset scale. Each iteration solves the log-det block in closed form from
    one eigendecomposition, applies the elementwise elastic-net prox to the
    off-diagonals, and updates the scaled dual U. The ADMM penalty follows
    residual balancing (sec. 3.4.1). The stopping test is the optimality
    residual of psi itself, at the original scale; an iterate whose
    Cholesky factorization fails is not converged.
    """
    p = s.shape[0]
    d = np.sqrt(np.diag(s))
    dd = np.outer(d, d)
    r = symmetrize(s / dd)
    off = ~np.eye(p, dtype=bool)
    kappa1 = np.where(off, lam1 / dd, 0.0)
    kappa2 = np.where(off, 2.0 * lam2 / dd**2, 0.0)
    z = np.eye(p)
    u = np.zeros((p, p))
    rho = ADMM_RHO0
    for it in range(1, max_iter + 1):
        e, q = np.linalg.eigh(rho * (z - u) - r)
        theta = symmetrize((q * ((e + np.sqrt(e * e + 4.0 * rho)) / (2.0 * rho))) @ q.T)
        v = theta + u
        z_prev = z
        z = np.sign(v) * np.maximum(np.abs(v) - kappa1 / rho, 0.0) / (1.0 + kappa2 / rho)
        u = v - z
        psi = z / dd
        w = _chol_inverse(psi)
        residual = np.inf if w is None else _optimality_residual(psi, w, s, lam1, lam2)
        if residual <= tol:
            return psi, it, True, residual
        primal = np.linalg.norm(theta - z)
        dual = rho * np.linalg.norm(z - z_prev)
        if primal > ADMM_BALANCE * dual:
            rho *= ADMM_RHO_STEP
            u /= ADMM_RHO_STEP
        elif dual > ADMM_BALANCE * primal:
            rho /= ADMM_RHO_STEP
            u *= ADMM_RHO_STEP
    if w is None:
        psi = theta / dd  # positive definite by construction
    return psi, max_iter, False, residual


def penalized_qml(
    s: np.ndarray, t: int, penalty: PenaltySpec, opts: SolverOptions | None = None
) -> PrecisionEstimate:
    """Maximize the penalized Gaussian quasi-likelihood over PD precisions.

    s is the sample covariance of a window of t observations. With rho = 0
    the problem is unconstrained and requires a nonsingular s (the optimum
    is its plain inverse); any rho > 0 yields a finite positive definite
    maximizer even when s is singular, provided its diagonal is positive.
    A solve that exhausts its iteration budget returns the last iterate
    with converged=False rather than raising.
    """
    s = check_symmetric(s)
    opts = opts or SolverOptions()
    t = int(t)
    if t < 2:
        raise InsufficientDataError(f"sample count must be at least 2, got {t}")
    if np.any(np.diag(s) <= 0):
        raise DegenerateMatrixError("sample covariance has a non-positive diagonal entry")
    rho_eff = 2.0 * penalty.rho / t
    l1_share, l2_share = penalty.weights
    lam1 = rho_eff * l1_share
    lam2 = rho_eff * l2_share
    if penalty.rho == 0.0:
        # force the singularity check the unpenalized problem requires
        invert_spd(s)

    scale = max(1.0, float(np.abs(s).max()))
    psi, iterations, converged, residual = _solve_admm(
        s, lam1, lam2, opts.tol * scale, opts.max_iter
    )
    residual /= scale

    scale = t / 2.0
    objective = scale * _qml_objective(psi, s, lam1, lam2)
    if not converged:
        logger.warning(
            "penalized_qml (%s, rho=%.4g) stopped after %d iterations, residual %.3e",
            penalty.kind,
            penalty.rho,
            iterations,
            residual,
        )
    return PrecisionEstimate(
        psi=psi,
        estimator_kind=f"qml_{penalty.kind}",
        penalty=penalty,
        objective_value=objective,
        iterations=iterations,
        converged=converged,
        residual=residual,
    )


def predictive_loglik(psi: np.ndarray, s_holdout: np.ndarray) -> float:
    """Unpenalized Gaussian score logdet(psi) - trace(S_holdout psi)."""
    sign, logdet = np.linalg.slogdet(psi)
    if sign <= 0:
        return -np.inf
    return logdet - float(np.sum(s_holdout * psi))


def tune_rho(
    in_sample: np.ndarray,
    kind: str,
    grid,
    split: float = 0.75,
    alpha: float = 0.5,
    opts: SolverOptions | None = None,
) -> tuple[float, list[tuple[float, float]]]:
    """Grid-search rho by held-out predictive likelihood.

    Fits on the first ceil(split * n) rows of the in-sample block and scores
    each fitted precision by logdet - trace(S_holdout psi) on the rest (pure
    in-sample likelihood is maximized at rho = 0, so a holdout is forced).
    Grid points whose solver fails to converge score -inf. Ties break toward
    the smaller rho. Returns (rho_star, [(rho, score), ...]).
    """
    block = np.asarray(in_sample, dtype=float)
    if block.ndim != 2 or block.shape[0] < 24:
        raise InsufficientDataError("tuning needs an in-sample block of at least 24 rows")
    grid = [float(g) for g in grid]
    if not grid:
        raise TuningError("empty rho grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise TuningError("rho grid must be strictly ascending")
    if not 0.0 < split < 1.0:
        raise ValueError(f"split must lie in (0, 1), got {split}")
    n = block.shape[0]
    n_fit = math.ceil(split * n)
    if n - n_fit < 2 or n_fit < 2:
        raise InsufficientDataError(f"split {split} leaves too few rows on one side of {n}")
    s_fit = sample_covariance(block[:n_fit])
    s_hold = sample_covariance(block[n_fit:])

    curve: list[tuple[float, float]] = []
    for rho in grid:
        try:
            estimate = penalized_qml(s_fit, n_fit, PenaltySpec(kind=kind, rho=rho, alpha=alpha), opts)
        except (SingularMatrixError, DegenerateMatrixError) as exc:
            logger.warning("tuning point rho=%.4g failed: %s", rho, exc)
            curve.append((rho, -np.inf))
            continue
        if not estimate.converged:
            logger.warning("tuning point rho=%.4g did not converge; scored -inf", rho)
            curve.append((rho, -np.inf))
            continue
        curve.append((rho, predictive_loglik(estimate.psi, s_hold)))
    scores = np.asarray([score for _, score in curve])
    if not np.any(np.isfinite(scores)):
        raise TuningError("every grid point failed to produce a converged estimate", curve=curve)
    rho_star = curve[int(np.argmax(scores))][0]  # argmax takes the first (smallest rho) on ties
    return rho_star, curve
