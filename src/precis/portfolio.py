"""Portfolio weight construction from precision / covariance estimates.

All constructors return unit-sum weight vectors; the no-short-sale variant
also returns its KKT certificate so callers can verify optimality instead
of trusting the solver.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMatrixError, NonconvergenceError, SingularMatrixError
from .linalg import EigenDecomposition, check_symmetric, condition_number

WEIGHT_SUM_TOL = 1e-10


@dataclass(frozen=True)
class WeightVector:
    """Finite portfolio weights that sum to one."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if not np.all(np.isfinite(w)):
            raise DegenerateMatrixError("non-finite weights")
        if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise DegenerateMatrixError(f"weights sum to {w.sum():.12f}, not 1")


@dataclass(frozen=True)
class KktCertificate:
    """Evidence of QP optimality: the equality multiplier and the residual

    max(|gradient - multiplier| on the support, positive part of
    multiplier - gradient off it).
    """

    multiplier: float
    residual: float
    iterations: int


def mvp_weights(psi: np.ndarray) -> WeightVector:
    """Global minimum-variance weights psi e / (e' psi e)."""
    psi = check_symmetric(psi)
    row_sums = psi.sum(axis=1)
    denom = float(row_sums.sum())
    if abs(denom) < 1e-12 * max(float(np.linalg.norm(psi)), 1e-300):
        raise DegenerateMatrixError("e' psi e is numerically zero; MVP undefined")
    w = row_sums / denom
    return WeightVector(weights=w / w.sum())


def equal_weights(p: int) -> WeightVector:
    """1/p in every asset."""
    if p < 1:
        raise DegenerateMatrixError("cannot build equal weights over zero assets")
    return WeightVector(weights=np.full(p, 1.0 / p))


def no_short_mvp(
    s: np.ndarray, max_iter: int = 1000, *, start: np.ndarray | None = None,
    spectrum: EigenDecomposition | None = None,
) -> tuple[WeightVector, KktCertificate]:
    """Minimize w' S w over the simplex (unit sum, nonnegative weights).

    Primal active set: start from equal weights (or from start, nonnegative
    and unit-sum, its support free), repeatedly solve the equality-
    constrained subproblem on the free assets (that restricted MVP), take a
    ratio-test step when the candidate leaves the simplex, and release the
    lowest-index pinned asset whose multiplier is negative. Pivoting is
    deterministic (lowest index) so runs are reproducible. The optimum is
    unique (S is positive definite): start changes only the path to it.

    A singular S (judged from spectrum, its EigenDecomposition, when given)
    raises SingularMatrixError up front, matching the convention of
    reporting no portfolio for windows with more assets than observations.
    Returns the weights and their KKT certificate.
    """
    s = check_symmetric(s)
    p = s.shape[0]
    if not np.isfinite(condition_number(s if spectrum is None else spectrum)):
        raise SingularMatrixError("covariance is singular; no-short MVP not constructed")

    w = np.full(p, 1.0 / p) if start is None else np.array(start, dtype=float)
    free = w > 0.0
    ones_cache = np.ones(p)

    def eqp(idx: np.ndarray) -> np.ndarray:
        rhs = ones_cache[: idx.size]
        sub = s[np.ix_(idx, idx)]
        try:
            y = np.linalg.solve(sub, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"free-set covariance block is singular: {exc}") from exc
        total = float(y.sum())
        if not np.all(np.isfinite(y)) or total <= 0:
            raise SingularMatrixError("free-set subproblem is numerically singular")
        return y / total

    iterations = 0
    for iterations in range(1, max_iter + 1):
        idx = np.flatnonzero(free)
        cand = eqp(idx)
        if cand.min() >= -1e-12:
            w = np.zeros(p)
            w[idx] = np.clip(cand, 0.0, None)
            w /= w.sum()
            grad = 2.0 * (s @ w)
            lam = float(grad[idx].mean())
            release_tol = 1e-10 * max(1.0, float(np.abs(grad).max()))
            pinned = np.flatnonzero(~free)
            violated = pinned[grad[pinned] < lam - release_tol]
            if violated.size == 0:
                res_free = float(np.abs(grad[idx] - lam).max())
                res_pinned = (
                    float(np.maximum(lam - grad[pinned], 0.0).max()) if pinned.size else 0.0
                )
                cert = KktCertificate(
                    multiplier=lam, residual=max(res_free, res_pinned), iterations=iterations
                )
                return WeightVector(weights=w), cert
            free[int(violated.min())] = True
        else:
            direction = np.zeros(p)
            direction[idx] = cand - w[idx]
            shrinking = idx[direction[idx] < -1e-16]
            ratios = w[shrinking] / -direction[shrinking]
            alpha = float(ratios.min())
            blockers = shrinking[ratios <= alpha * (1.0 + 1e-12)]
            block = int(blockers.min())
            w = np.clip(w + alpha * direction, 0.0, None)
            w[block] = 0.0
            w /= w.sum()
            free[block] = False
    raise NonconvergenceError(f"active-set QP did not converge in {max_iter} iterations")
