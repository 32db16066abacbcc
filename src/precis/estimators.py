"""Precision-matrix estimators.

Four families: the plain sample inverse, Ledoit-Wolf shrinkage toward a
scaled identity, a PCA truncation, and penalized quasi-maximum-likelihood
with l1 / l2 / elastic-net penalties on the off-diagonal entries. The first
three take the EigenDecomposition of the window's sample covariance (and
Ledoit-Wolf an intensity) and return the spectrum that psi inverts.

The penalized problem maximizes, over symmetric positive definite psi,

    (T/2) log det(psi) - (T/2) trace(S psi) - rho * P(psi)

with P summing |psi_ij| (l1), psi_ij^2 (l2), or the (1-alpha)/alpha blend
(elastic) over i != j; the diagonal is never penalized. Internally the
objective is divided by T/2 (effective penalty weight 2 rho / T), which
leaves the maximizer unchanged while keeping rho on the scale used for
grid tuning. l1 and elastic run graphical-lasso ADMM with an elementwise
elastic-net prox, on the correlation matrix so that its conditioning does
not depend on the scale of individual assets, iterated as Douglas-Rachford
splitting on the one state v = Theta + U and Anderson-accelerated there (see
_solve_admm); tune_rho starts each solve down a rho path from the previous
one's state. Every solve stops on one rule: the first-order optimality
residual is at most tol. That residual is the largest entrywise distance
between the smooth-part gradient psi^-1 - S and the penalty subdifferential
on the T/2-normalized objective, each entry divided by sqrt(S_ii S_jj): the
residual of the same problem on the correlation scale, so it does not
depend on the units of the returns. ADMM takes psi^-1 from np.linalg.inv,
computes the residual sparsely until it nears tol (see _solve_admm), and
tests positive definiteness (a Cholesky factorization) only where the answer
decides the outcome; the l2 fixed point below takes it from its own
eigendecomposition, so this module needs numpy alone.

l2 (and elastic with alpha = 1) reduces exactly to a fixed point in the
unpenalized diagonal D (see _solve_ridge): for fixed D the optimum is one
eigendecomposition of S - 2 lam2 Diag(D) with each eigenvalue a mapped to
the positive root of 2 lam2 phi^2 + a phi - 1 = 0, taken in a form free of
cancellation. The map D -> diag(psi(D)) is Anderson-accelerated like ADMM
(_Anderson), and a step stops on the same residual rule.
"""
from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateMatrixError,
    InsufficientDataError,
    SingularMatrixError,
    TuningError,
)
from .linalg import (
    EigenDecomposition,
    check_spd,
    check_symmetric,
    invert_spd,
    sample_covariance,
    symmetrize,
)

logger = logging.getLogger(__name__)

PENALTY_KINDS = ("l1", "l2", "elastic")

# ADMM penalty schedule in correlation units: the start value, the ratio of
# primal to dual residual norms that triggers a change, and the factor applied.
ADMM_RHO0 = 1.0
ADMM_BALANCE = 5.0
ADMM_RHO_STEP = 4.0
# ADMM computes its stopping residual on every this-many iterations until one
# comes within 10 tol, and on every iteration after that.
ADMM_CHECK_EVERY = 4
# Anderson acceleration of ADMM and of the l2 fixed point: the number of
# residual differences each extrapolation fits.
ADMM_AA_MEMORY = 5
# Share of the tuning block that fits each grid point; the rest scores it.
TUNE_FIT_SHARE = 0.75


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty kind plus intensity rho and, for elastic, the l2-weight share alpha."""

    kind: str
    rho: float
    alpha: float = 0.5

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise ValueError(f"kind must be one of {PENALTY_KINDS}, got {self.kind!r}")
        if not 0 <= self.rho < math.inf:
            raise ValueError(f"rho must be finite and nonnegative, got {self.rho}")
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


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the penalized QML solver.

    tol bounds the first-order optimality residual of the T/2-normalized
    objective on the correlation scale (entry ij divided by sqrt(S_ii S_jj)),
    so one setting means the same for any units of the returns and any
    spread of asset variances. max_iter bounds the iterations of one solve:
    ADMM iterations for l1 and elastic, fixed-point steps for l2. ADMM tests
    tol on some iterations only, so its count can depend on max_iter by up to 3.
    """

    tol: float = 1e-6
    max_iter: int = 10000

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer of at least 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class PrecisionEstimate:
    """An estimated precision matrix psi plus solver provenance.

    Each penalized solve builds its own: psi as matrix, and Ridge the
    spectrum of psi^-1, ADMM its final state. The spectral estimators return
    spectrum alone, and psi, its (pseudo-)inverse, is formed on first read;
    mvp_weights and condition_number take spectrum.
    """

    matrix: np.ndarray | None = None  # psi as the penalized solver returned it
    iterations: int = 0  # ADMM iterations, which can vary by up to 3 with max_iter, or l2 steps
    converged: bool = True
    residual: float = 0.0  # optimality residual on the correlation scale
    spectrum: EigenDecomposition | None = None  # of the covariance estimate psi inverts
    state: tuple[np.ndarray, float] | None = None  # ADMM's final (v, step): a start on the same S

    @cached_property
    def psi(self) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix
        u = self.spectrum.eigenvectors
        return symmetrize((u * self.spectrum.inverse_eigenvalues) @ u.T)


def sample_precision(decomp: EigenDecomposition) -> PrecisionEstimate:
    """S^-1 as S's spectrum, checked now by check_spd: singular windows fail."""
    return PrecisionEstimate(spectrum=check_spd(decomp))


def ledoit_wolf_intensity(window: np.ndarray, s: np.ndarray) -> float:
    """Analytic shrinkage intensity toward the scaled identity.

    Ratio of the averaged squared deviation of per-observation outer
    products around the sample covariance to the squared distance between
    the sample covariance and the target, clipped to [0, 1]. Uses the 1/n
    covariance convention internally, as in the original derivation. The
    deviations sum in closed form: sum_t ||x_t x_t' - S_n||_F^2 =
    sum_t ||x_t||^4 - n ||S_n||_F^2, since sum_t x_t' S_n x_t = n ||S_n||_F^2.
    s is sample_covariance(window), which needs n >= 2: S_n = s (n - 1) / n.
    """
    x = np.asarray(window, dtype=float)
    n, p = x.shape
    xc = x - x.mean(axis=0)
    s_n = s * ((n - 1) / n)
    mu = float(np.trace(s_n)) / p
    d2 = float(np.sum((s_n - mu * np.eye(p)) ** 2))
    if d2 <= 0:
        return 0.0
    norms2 = np.einsum("ti,ti->t", xc, xc)
    b2 = float(norms2 @ norms2) / (n * n) - float(np.sum(s_n * s_n)) / n
    return min(max(b2, 0.0) / d2, 1.0)


def ledoit_wolf(decomp: EigenDecomposition, alpha: float) -> PrecisionEstimate:
    """Precision from the shrunk covariance (1 - alpha) S + alpha sigma2bar I.

    decomp is S's spectrum, whose eigenvectors the shrunk matrix keeps;
    sigma2bar, the mean of diag S, is its mean eigenvalue. The backtest
    takes alpha from ledoit_wolf_intensity; the estimate keeps the shrunk spectrum.
    """
    sigma2bar = float(np.mean(decomp.eigenvalues))
    if sigma2bar <= 0:
        raise DegenerateMatrixError("average variance is zero; nothing to shrink toward")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"shrinkage intensity must lie in [0, 1], got {alpha}")
    lam = (1.0 - alpha) * decomp.eigenvalues + alpha * sigma2bar
    return PrecisionEstimate(spectrum=check_spd(EigenDecomposition(lam, decomp.eigenvectors)))


def pca_precision(decomp: EigenDecomposition, threshold: float = 0.99) -> PrecisionEstimate:
    """Precision V_k diag(1/lambda_k) V_k' from the leading principal components.

    k is the fewest components that explain >= threshold of the variance of
    the sample covariance S whose spectrum is decomp. The estimate's
    spectrum is S's with the p - k dropped eigenvalues set to 0: the rank-k
    covariance that psi pseudo-inverts, so its condition number is infinite
    unless every component is kept.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    lam = decomp.eigenvalues
    positive = np.maximum(lam[::-1], 0.0)
    total = float(positive.sum())
    if total <= 0:
        raise DegenerateMatrixError("window has zero total variance")
    shares = np.cumsum(positive) / total
    k = min(int(np.searchsorted(shares, threshold - 1e-15) + 1), len(lam))
    if lam[-k] <= 0:
        raise DegenerateMatrixError("threshold reaches into the null spectrum")
    kept = lam.copy()
    kept[: len(lam) - k] = 0.0  # ascending order: the dropped ones come first
    return PrecisionEstimate(spectrum=EigenDecomposition(kept, decomp.eigenvectors))


# --------------------------------------------------------------------------
# Penalized QML
# --------------------------------------------------------------------------

def _optimality_residual(
    psi: np.ndarray, inverse: np.ndarray, s: np.ndarray, lam1: float, lam2: float
) -> float:
    """Max entrywise distance of the gradient from the penalty subdifferential.

    The smooth gradient is psi^-1 - S, with psi^-1 (inverse) from the caller,
    who also answers for positive definiteness. Diagonal entries are
    unpenalized, so their residual is the gradient's magnitude; off-diagonals
    subtract the l2 gradient and measure distance to lam1 * [-1, 1] at zeros
    of psi as |g| - lam1, which may be negative there: the diagonal keeps the
    maximum nonnegative, so clipping at 0 would not change it. Entry ij is
    divided by sqrt(S_ii S_jj), which makes this the residual of the
    correlation-scale problem (R = S / dd', psi * dd') that ADMM iterates on.
    """
    grad = inverse - s
    off_grad = grad - 2.0 * lam2 * psi if lam2 else grad
    if lam1:
        dist = np.where(psi != 0.0, np.abs(off_grad - lam1 * np.sign(psi)), np.abs(off_grad) - lam1)
    else:
        dist = np.abs(off_grad)
    np.fill_diagonal(dist, np.abs(np.diagonal(grad)))
    d = np.sqrt(np.diagonal(s))
    return float((dist / np.outer(d, d)).max())


def _stopping_residual(
    psi: np.ndarray, s: np.ndarray, lam1: float, lam2: float, tol: float
) -> float:
    """_optimality_residual with psi^-1 from np.linalg.inv, as ADMM and rho = 0 stop on it.

    A singular psi has residual inf, and so does one that passes tol without
    being positive definite: its Cholesky factorization, the PD test, runs
    only then, since below tol its answer decides convergence.
    """
    try:
        residual = _optimality_residual(psi, np.linalg.inv(psi), s, lam1, lam2)
    except np.linalg.LinAlgError:
        return np.inf
    if residual <= tol and not _positive_definite(psi):
        return np.inf
    return residual


def _positive_definite(psi: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(psi)
    except np.linalg.LinAlgError:
        return False
    return True


class _Anderson:
    """Type-II Anderson acceleration (Walker & Ni 2011) of a fixed-point map G.

    step(g, x) takes g = G(x) and returns the next input: g minus the
    combination of the last ADMM_AA_MEMORY differences of G whose residual
    differences best cancel f = g - x in least squares. The history is
    cleared by reset(), when the Gram solve fails, or when ||f|| exceeds
    twice its least value since the last reset (the safeguard of Zhang,
    O'Donoghue & Boyd 2020).
    """

    def __init__(self):
        self.reset()

    def reset(self):
        self.g_prev, self.f_prev, self.dg, self.df, self.f_min = None, None, [], [], np.inf

    def step(self, g: np.ndarray, x: np.ndarray) -> np.ndarray:
        f = g - x
        f_norm = np.linalg.norm(f)
        if f_norm > 2.0 * self.f_min:
            self.reset()
        self.f_min = min(self.f_min, f_norm)
        if self.g_prev is not None:
            self.dg = (self.dg + [g - self.g_prev])[-ADMM_AA_MEMORY:]
            self.df = (self.df + [f - self.f_prev])[-ADMM_AA_MEMORY:]
        self.g_prev, self.f_prev = g, f
        if self.df:  # type-II step: g - gamma dG, gamma least-squares in f - gamma dF
            dfm = np.array(self.df)
            gram = dfm @ dfm.T
            try:
                gamma = np.linalg.solve(gram + 1e-10 * np.trace(gram) * np.eye(len(dfm)), dfm @ f)
                return g - gamma @ np.array(self.dg)
            except np.linalg.LinAlgError:
                self.dg, self.df = [], []
        return g


def _solve_admm(
    s: np.ndarray,
    lam1: float,
    lam2: float,
    tol: float,
    max_iter: int,
    start: tuple[np.ndarray, float] | None = None,
) -> PrecisionEstimate:
    """Graphical-lasso ADMM (Boyd et al. 2011, sec. 6.5) on the correlation matrix.

    With d = sqrt(diag S), psi = Z / (d d') turns the problem into one on
    R = S / (d d') with off-diagonal penalties lam1 / (d_i d_j) and
    lam2 / (d_i d_j)^2, the same maximizer but conditioned independently of
    asset scale. ADMM's next iterate depends on Theta + U alone, so the
    solver iterates that one symmetric state v, which is Douglas-Rachford
    splitting: Z = prox(v) is the elementwise elastic-net prox of the
    off-diagonals, U = v - Z, the log-det step solves in closed form from
    one eigendecomposition at 2Z - v, and v <- v + Theta - Z. It starts
    from v = I (Z = I, U = 0) or from start, the (v, step) a solve on the
    same S returned. The ADMM step follows residual balancing (sec. 3.4.1);
    a change by a factor sets v <- Z + U / factor, which keeps Z and rescales
    the dual. The v map is Anderson-accelerated (_Anderson, Fu, Zhang & Boyd
    2020), its extrapolation symmetrized and its history also cleared when
    the step changes. The stopping test is the optimality residual of
    psi = Z / (d d') for Z = prox of the plain step's v (never of the
    extrapolated point), with psi^-1 from np.linalg.inv; an iterate that is
    not positive definite is not converged (_stopping_residual). It runs on
    every ADMM_CHECK_EVERY-th iteration until a computed residual is at most
    10 tol, on every iteration after that, and on the last one; the iterates
    do not depend on it. A capped solve whose last iterate is not PD returns
    the PD log-det iterate. Either way the estimate's state is the final
    (v, step).
    """
    p = s.shape[0]
    d = np.sqrt(np.diag(s))
    dd = np.outer(d, d)
    r = symmetrize(s / dd)
    off = ~np.eye(p, dtype=bool)
    kappa1 = np.where(off, lam1 / dd, 0.0)
    kappa2 = np.where(off, 2.0 * lam2 / dd**2, 0.0)

    def prox(v, step):
        return np.sign(v) * np.maximum(np.abs(v) - kappa1 / step, 0.0) / (1.0 + kappa2 / step)

    v, step = (np.eye(p), ADMM_RHO0) if start is None else start
    z = prox(v, step)
    aa = _Anderson()
    near = False  # a computed residual reached 10 tol: check every iteration from here
    for it in range(1, max_iter + 1):
        e, q = np.linalg.eigh(step * (2.0 * z - v) - r)
        theta = symmetrize((q * ((e + np.sqrt(e * e + 4.0 * step)) / (2.0 * step))) @ q.T)
        v_new = v + theta - z
        z_new = prox(v_new, step)
        if near or it % ADMM_CHECK_EVERY == 0 or it == max_iter:
            psi = z_new / dd
            residual = _stopping_residual(psi, s, lam1, lam2, tol)
            if residual <= tol:
                return PrecisionEstimate(psi, it, True, residual, state=(v_new, step))
            near = near or residual <= 10.0 * tol
        primal = np.linalg.norm(theta - z_new)
        dual = step * np.linalg.norm(z_new - z)
        if max(primal, dual) > ADMM_BALANCE * min(primal, dual):  # a new step restarts the history
            factor = ADMM_RHO_STEP if primal > dual else 1.0 / ADMM_RHO_STEP
            step, v, z = step * factor, z_new + (v_new - z_new) / factor, z_new
            aa.reset()
            continue
        v = symmetrize(aa.step(v_new.ravel(), v.ravel()).reshape(p, p))
        z = prox(v, step)
    if not _positive_definite(psi):
        psi, residual = theta / dd, np.inf  # positive definite by construction
    return PrecisionEstimate(psi, max_iter, False, residual, state=(v, step))


def _solve_ridge(
    s: np.ndarray, lam2: float, tol: float, max_iter: int
) -> PrecisionEstimate:
    """The l2 problem as an Anderson-accelerated fixed point in its unpenalized diagonal.

    With only off-diagonals penalized, the optimum solves
    psi^-1 - 2 lam2 psi = S - 2 lam2 Diag(psi). For a fixed diagonal D, write
    S - 2 lam2 Diag(D) = V diag(a) V'; then psi(D) = V diag(phi) V' with phi
    the positive root of 2 lam2 phi^2 + a phi - 1 = 0, positive definite for
    every real D (the Frobenius-ridge closed form of van Wieringen & Peeters
    2016 with target D), and the residual reads psi^-1 = V diag(1/phi) V'.
    The root is taken without cancellation: 2 / (a + sqrt(a^2 + 8 lam2)) for
    a >= 0 and (sqrt(a^2 + 8 lam2) - a) / (4 lam2) below, since the textbook
    form loses digits when one asset's variance dwarfs the others'. The map
    D -> diag(psi(D)) starts from D = 1/diag(S), the lam2 -> inf limit, and
    its contraction rate 2 lam2 psi^2 / (1 + 2 lam2 psi^2) depends on the
    data's scale, so each step's next D is its Anderson extrapolation
    (_Anderson). psi(D) is stationary off the diagonal, and its diagonal
    gradient is 2 lam2 (psi_ii - D_i), which the residual divides by S_ii:
    the residual is 2 lam2 times the step's diagonal move relative to S, and
    a step converges when it passes tol. The estimate carries psi^-1's
    spectrum V diag(1/phi) V', ascending as phi falls when a rises.
    """
    target = 1.0 / np.diag(s)
    aa = _Anderson()
    for it in range(1, max_iter + 1):
        a, v = np.linalg.eigh(s - np.diag(2.0 * lam2 * target))
        root = np.sqrt(a * a + 8.0 * lam2)
        phi = np.where(a >= 0.0, 2.0 / (a + root), (root - a) / (4.0 * lam2))
        psi = symmetrize((v * phi) @ v.T)
        residual = _optimality_residual(psi, (v / phi) @ v.T, s, 0.0, lam2)
        if residual <= tol or it == max_iter:
            return PrecisionEstimate(psi, it, residual <= tol, residual, EigenDecomposition(1.0 / phi, v))
        target = aa.step(np.diag(psi).copy(), target)


def penalized_qml(
    s: np.ndarray,
    t: int,
    penalty: PenaltySpec,
    opts: SolverOptions | None = None,
    *,
    start: tuple[np.ndarray, float] | None = None,
) -> PrecisionEstimate:
    """Maximize the penalized Gaussian quasi-likelihood over PD precisions.

    s is the sample covariance of a window of t observations. With rho = 0
    the problem is unconstrained and requires a nonsingular s; its optimum,
    the plain inverse, is returned with iterations=0 and no solver run,
    converged if its residual passes tol. Any rho > 0 yields a finite
    positive definite maximizer even when s is singular, provided its
    diagonal is positive. A problem with no l1 weight (l2, or elastic with
    alpha = 1) returns _solve_ridge's estimate, any other ADMM's, started
    from start, the state of an earlier ADMM estimate on the same s. A solve
    that exhausts its budget returns its last iterate with converged=False;
    each unconverged estimate is logged once, here, as a warning.
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
    if penalty.rho == 0.0:  # the plain inverse; a singular s raises here
        psi = invert_spd(s)
        residual = _stopping_residual(psi, s, 0.0, 0.0, opts.tol)
        estimate = PrecisionEstimate(psi, 0, residual <= opts.tol, residual)
    elif lam1 == 0.0:
        estimate = _solve_ridge(s, lam2, opts.tol, opts.max_iter)
    else:
        estimate = _solve_admm(s, lam1, lam2, opts.tol, opts.max_iter, start)
    if not estimate.converged:
        logger.warning(
            "penalized_qml (%s, rho=%.4g) not converged: residual %.3e above tol %.3g, %d iterations",
            penalty.kind,
            penalty.rho,
            estimate.residual,
            opts.tol,
            estimate.iterations,
        )
    return estimate


def predictive_loglik(psi: np.ndarray, s_holdout: np.ndarray) -> float:
    """Unpenalized Gaussian score logdet(psi) - trace(S_holdout psi)."""
    sign, logdet = np.linalg.slogdet(psi)
    if sign <= 0:
        return -np.inf
    return logdet - float(np.sum(s_holdout * psi))


def tune_rho(
    in_sample: np.ndarray,
    penalties,
    grid,
    opts: SolverOptions | None = None,
) -> list[tuple[float | None, list[tuple[float, float]]]]:
    """Grid-search rho for each (kind, alpha) penalty by held-out predictive likelihood.

    All penalties fit on the first ceil(TUNE_FIT_SHARE * n) rows of the
    in-sample block and score each fitted precision by
    logdet - trace(S_holdout psi) on the rest (pure in-sample likelihood is
    maximized at rho = 0, so a holdout is forced). Each distinct problem,
    keyed by (rho * l1 share, rho * l2 share), is solved once: rho = 0 is
    one solve for every kind, and an elastic alpha of 0 or 1 reuses the l1
    or l2 solves. Each penalty's grid is walked in descending rho, and an
    ADMM solve starts from the state of the previous converged point
    (Mazumder & Hastie 2012); after a failed or unconverged point the next
    one starts cold. Grid points whose solver fails to converge score -inf.
    Ties break toward the smaller rho. Returns (rho_star, [(rho, score),
    ...]) per penalty in ascending rho, rho_star None when no grid point
    converged.
    """
    block = np.asarray(in_sample, dtype=float)
    if block.ndim != 2 or block.shape[0] < 24:
        raise InsufficientDataError("tuning needs an in-sample block of at least 24 rows")
    grid = [float(g) for g in grid]
    if not grid:
        raise TuningError("empty rho grid")
    if not all(0.0 <= g < math.inf for g in grid):
        raise TuningError(f"rho grid points must be finite and nonnegative, got {grid}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise TuningError("rho grid must be strictly ascending")
    n_fit = math.ceil(TUNE_FIT_SHARE * block.shape[0])  # 24 rows leave 18 to fit, 6 to score
    s_fit = sample_covariance(block[:n_fit])
    s_hold = sample_covariance(block[n_fit:])

    def score(penalty: PenaltySpec, start) -> tuple[float, tuple | None]:
        """The point's score and the solver state to start the next point from."""
        try:
            estimate = penalized_qml(s_fit, n_fit, penalty, opts, start=start)
        except (SingularMatrixError, DegenerateMatrixError) as exc:
            logger.warning("tuning point rho=%.4g failed: %s", penalty.rho, exc)
            return -np.inf, None
        if not estimate.converged:  # penalized_qml has logged it
            return -np.inf, None
        return predictive_loglik(estimate.psi, s_hold), estimate.state

    scores: dict[tuple[float, ...], float] = {}  # per distinct problem
    results = []
    for kind, alpha in penalties:
        specs = [PenaltySpec(kind=kind, rho=rho, alpha=alpha) for rho in grid]
        keys = [tuple(spec.rho * share for share in spec.weights) for spec in specs]
        start = None
        for penalty, key in zip(reversed(specs), reversed(keys)):
            if key not in scores:
                scores[key], start = score(penalty, start)
        curve = [(rho, scores[key]) for rho, key in zip(grid, keys)]
        values = np.asarray([value for _, value in curve])
        best = int(np.argmax(values))  # argmax takes the first (smallest rho) on ties
        results.append((curve[best][0] if np.any(np.isfinite(values)) else None, curve))
    return results
