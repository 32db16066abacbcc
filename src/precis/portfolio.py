"""Portfolio weight construction from precision / covariance estimates.

All constructors return unit-sum weight vectors; the no-short-sale variant
also returns its KKT certificate so callers can verify optimality instead
of trusting the solver.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMatrixError, NonconvergenceError, SingularMatrixError
from .linalg import EigenDecomposition, check_spd, check_symmetric, sym_eigen

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


def mvp_weights(psi: np.ndarray | EigenDecomposition) -> WeightVector:
    """Global minimum-variance weights psi e / (e' psi e); e' psi e ~ 0 raises.

    psi is the precision or the EigenDecomposition U diag(lambda) U' of the
    covariance it inverts: then psi e = U (U'e / lambda) in O(p^2), with exact
    zero eigenvalues (PCA's dropped components) left out, a pseudo-inverse.
    """
    if isinstance(psi, EigenDecomposition):
        u, inverse = psi.eigenvectors, psi.inverse_eigenvalues
        row_sums, norm = u @ (inverse * u.sum(axis=0)), np.linalg.norm(inverse)
    else:
        psi = check_symmetric(psi)
        row_sums, norm = psi.sum(axis=1), np.linalg.norm(psi)
    denom = float(row_sums.sum())
    if abs(denom) < 1e-12 * max(float(norm), 1e-300):
        raise DegenerateMatrixError("e' psi e is numerically zero; MVP undefined")
    w = row_sums / denom
    return WeightVector(weights=w / w.sum())


def equal_weights(p: int) -> WeightVector:
    """1/p in every asset."""
    if p < 1:
        raise DegenerateMatrixError("cannot build equal weights over zero assets")
    return WeightVector(weights=np.full(p, 1 / p))


def no_short_mvp(
    s: np.ndarray, max_iter: int = 1000, *, start: np.ndarray | None = None,
    spectrum: EigenDecomposition | None = None,
) -> tuple[WeightVector, KktCertificate]:
    """Minimize w' S w over the simplex (unit sum, nonnegative weights).

    Primal active set from start (nonnegative and unit-sum, its support
    free), else from the MVP clipped at zero and renormalized: repeatedly
    solve the equality-constrained subproblem on the free assets, take a
    ratio-test step when the candidate leaves the simplex, and release the
    lowest-index pinned asset whose multiplier is negative. Pivoting is
    deterministic (lowest index) so runs are reproducible. The optimum is
    unique (S is positive definite): start changes only the path to it.

    spectrum, S's EigenDecomposition, is computed when not given; check_spd
    rejects a singular one up front, as windows with more assets than
    observations report no portfolio. Returns the weights and KKT certificate.
    """
    s = check_symmetric(s)
    p = s.shape[0]
    spectrum = check_spd(sym_eigen(s) if spectrum is None else spectrum)

    if start is None:
        start = np.clip(mvp_weights(spectrum).weights, 0.0, None)
        start /= start.sum()
    w = np.array(start, dtype=float)
    free = w > 0.0

    def eqp(idx: np.ndarray) -> np.ndarray:
        try:
            y = np.linalg.solve(s[np.ix_(idx, idx)], np.ones(idx.size))
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
                res_pinned = float(np.maximum(lam - grad[pinned], 0.0).max(initial=0.0))
                return WeightVector(weights=w), KktCertificate(
                    multiplier=lam, residual=max(res_free, res_pinned), iterations=iterations
                )
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
