"""Dense symmetric-matrix primitives.

Covariance, spectral decomposition, SPD inversion, and condition numbers all
route through one eigendecomposition path so that the singularity cutoff and
the condition number are computed from the same factorization.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, NotPSDError, SingularMatrixError, SymmetryError

# Relative cutoff below which an eigenvalue counts as zero (singular matrix).
SINGULARITY_RTOL = 1e-12
# Relative threshold below which a negative eigenvalue is an error, not noise.
PSD_RTOL = 1e-8
# Elementwise symmetry tolerance: |a_ij - a_ji| <= SYM_TOL * max(1, |a_ij|).
SYM_TOL = 1e-10


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization A = U diag(eigenvalues) U^T.

    eigenvalues are sorted ascending; eigenvectors holds the matching
    orthonormal columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def inverse_eigenvalues(self) -> np.ndarray:
        """1 / eigenvalues, with 0 for an exact zero: the spectrum of the (pseudo-)inverse."""
        lam = self.eigenvalues
        return np.divide(1.0, lam, out=np.zeros_like(lam), where=lam != 0.0)


def check_symmetric(a: np.ndarray) -> np.ndarray:
    """Validate elementwise symmetry and return the matrix as float64.

    Raises SymmetryError when any |a_ij - a_ji| exceeds SYM_TOL * max(1, |a_ij|).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SymmetryError(f"expected a square matrix, got shape {a.shape}")
    gap = np.abs(a - a.T)
    bound = SYM_TOL * np.maximum(1.0, np.abs(a))
    if np.any(gap > bound):
        i, j = np.unravel_index(int(np.argmax(gap - bound)), a.shape)
        raise SymmetryError(f"asymmetry {gap[i, j]:.3e} at ({i}, {j}) exceeds tolerance")
    return a


def symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def sample_covariance(window: np.ndarray) -> np.ndarray:
    """Unbiased (n-1 denominator) sample covariance of an n x p return block."""
    window = np.asarray(window, dtype=float)
    if window.ndim != 2:
        raise InsufficientDataError(f"expected an n x p block, got shape {window.shape}")
    n = window.shape[0]
    if n < 2:
        raise InsufficientDataError(f"need at least 2 observations, got {n}")
    centered = window - window.mean(axis=0)
    return symmetrize(centered.T @ centered / (n - 1))


def sym_eigen(a: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending.

    The input is validated against the symmetry tolerance and then
    symmetrized exactly before factorization.
    """
    a = check_symmetric(a)
    if not np.all(np.isfinite(a)):
        raise SymmetryError("matrix contains non-finite entries")
    eigenvalues, eigenvectors = np.linalg.eigh(symmetrize(a))
    return EigenDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def condition_number(a: np.ndarray | EigenDecomposition) -> float:
    """lambda_max / lambda_min of a symmetric PSD matrix; inf when singular.

    The one test of a spectrum: NotPSDError on a negative eigenvalue beyond
    noise, inf when lambda_min <= SINGULARITY_RTOL lambda_max. A matrix and
    its inverse share this value, so callers may pass either.
    """
    decomp = a if isinstance(a, EigenDecomposition) else sym_eigen(a)
    lam_min, lam_max = float(decomp.eigenvalues[0]), float(decomp.eigenvalues[-1])
    scale = max(lam_max, 0.0)
    if lam_min < -(PSD_RTOL * scale + 1e-300):
        raise NotPSDError(f"negative eigenvalue {lam_min:.6e} (max {lam_max:.6e})")
    return np.inf if lam_min <= SINGULARITY_RTOL * scale else lam_max / lam_min


def check_spd(decomp: EigenDecomposition) -> EigenDecomposition:
    """decomp, if its condition_number is finite; else NotPSDError or SingularMatrixError."""
    if condition_number(decomp) == np.inf:
        lam = decomp.eigenvalues
        raise SingularMatrixError(
            f"smallest eigenvalue {lam[0]:.6e} at or below cutoff "
            f"{SINGULARITY_RTOL * max(lam[-1], 0.0):.6e}"
        )
    return decomp


def invert_spd(a: np.ndarray | EigenDecomposition) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via its spectrum; raises as check_spd."""
    decomp = check_spd(a if isinstance(a, EigenDecomposition) else sym_eigen(a))
    u = decomp.eigenvectors
    return symmetrize((u / decomp.eigenvalues) @ u.T)
