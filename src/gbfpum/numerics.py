"""Symmetric linear algebra: eigenpairs, SPD solves and sparse factorisations.

Thin contract layer over LAPACK, SuperLU and ARPACK (via scipy); callers
rely on the error types and tolerances here, not on the backend. Dense
matrices get a full eigendecomposition (`sym_eigen`) and Cholesky solves
(`spd_solve`); sparse ones get an LU factorisation (`sparse_lu`) and their
lowest eigenpairs by shift-invert Lanczos (`low_eigen`), so that no dense
n x n matrix is formed for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.sparse.linalg import SuperLU, eigsh, splu

from .errors import (
    NonFiniteMatrixError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SparseSolverError,
)

SYM_TOL = 1e-12
# Shift-invert pole for `low_eigen`: below the spectrum of a positive
# semidefinite matrix, so M - sigma I stays positive definite.
LOW_EIGEN_SIGMA = -1e-3


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs of a symmetric matrix, eigenvalues ascending."""

    values: np.ndarray
    vectors: np.ndarray  # orthonormal columns, same order as values


def check_positive(name: str, value: float) -> None:
    """Raise ValueError unless `value` is a positive finite number."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite number, got {value}")


def check_symmetric(M, tol: float = SYM_TOL) -> None:
    """Raise NotSymmetricError unless max|M - M^T| <= tol * max(1, max|M|).

    NaN or inf entries raise NonFiniteMatrixError (NaN passes any tolerance
    test). Accepts dense arrays and scipy sparse matrices; O(nnz) when sparse.
    """
    if not sp.issparse(M):
        M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSymmetricError(float("inf"))
    if M.shape[0] == 0:
        return
    peak = float(abs(M).max())  # NaN when any entry is NaN
    if not math.isfinite(peak):
        raise NonFiniteMatrixError()
    asym = float(abs(M - M.T).max())
    if asym > tol * max(1.0, peak):
        raise NotSymmetricError(asym)


def sym_eigen(M: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending."""
    M = np.asarray(M, dtype=np.float64)
    check_symmetric(M)
    values, vectors = eigh(M)
    return EigenDecomposition(values=values, vectors=vectors)


def spd_solve(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve M x = b for symmetric positive definite M via Cholesky."""
    M = np.asarray(M, dtype=np.float64)
    check_symmetric(M)
    b = np.asarray(b, dtype=np.float64)
    c, info = dpotrf(M, lower=1)
    if info != 0:
        raise NotPositiveDefiniteError(pivot=int(info) - 1)
    b2 = b if b.ndim == 2 else b[:, None]
    x, info = dpotrs(c, b2, lower=1)
    if info != 0:
        raise NotPositiveDefiniteError(pivot=int(info) - 1)
    return x if b.ndim == 2 else x[:, 0]


def sparse_lu(M: sp.spmatrix) -> SuperLU:
    """Sparse LU factors of a symmetric nonsingular matrix; `.solve(b)` applies M^-1.

    Pass right-hand sides in Fortran order: SuperLU copies C-ordered ones.
    """
    check_symmetric(M)
    try:
        return splu(M.tocsc())
    except RuntimeError as exc:  # SuperLU's report of an exactly singular factor
        raise SparseSolverError("sparse LU", str(exc)) from None


def low_eigen(M: sp.spmatrix, k: int) -> EigenDecomposition:
    """The k smallest eigenpairs of a sparse symmetric positive semidefinite matrix.

    Shift-invert Lanczos (ARPACK) about LOW_EIGEN_SIGMA to full precision,
    started from a fixed seeded vector: ARPACK's default random start would
    change the eigenvectors in their last bits from call to call. Needs
    1 <= k < order of M.
    """
    check_symmetric(M)
    n = M.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < {n}, got k = {k}")
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        values, vectors = eigsh(
            M.tocsc(), k=k, sigma=LOW_EIGEN_SIGMA, which="LM", tol=0, v0=v0
        )
    except RuntimeError as exc:  # ARPACK non-convergence or a singular shifted factor
        raise SparseSolverError("shift-invert Lanczos", str(exc)) from None
    order = np.argsort(values)
    return EigenDecomposition(values=values[order], vectors=vectors[:, order])
