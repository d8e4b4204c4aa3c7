"""Symmetric linear algebra: eigenpairs, SPD solves and sparse factorisations.

Thin contract layer over LAPACK, SuperLU and ARPACK (via scipy); callers
rely on the error types and tolerances here, not on the backend. Dense
matrices get a full eigendecomposition (`sym_eigen`: LAPACK's divide and
conquer up to order EVD_MAX_ORDER, MRRR above) and Cholesky solves
(`spd_solve`). Both work in a writeable Fortran-ordered float64 matrix
as LAPACK's workspace, as scipy's `overwrite_a=True` does, and copy any
other matrix, which they leave as it was. Sparse ones get a
symmetric-mode LDL^T factorisation with a pivot check (`sparse_lu`),
and their lowest eigenpairs by shift-invert Lanczos about 0 (`low_eigen`,
which inverts through the same factorisation), so that no dense n x n
matrix is formed for them. Every sparse factor in the package
comes from `sparse_lu`, and a sparse matrix that is not positive definite
raises NotPositiveDefiniteError there, as a failed Cholesky does on the
dense route.
"""

from __future__ import annotations

import math
from numbers import Real

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.sparse.linalg import LinearOperator, SuperLU, eigsh, splu

from .errors import (
    NonFiniteMatrixError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SparseSolverError,
)

SYM_TOL = 1e-12
# Entries per row block of the dense symmetry check, which forms no n x n temporary.
SYM_BLOCK = 1 << 16
# Largest order that `sym_eigen` gives to LAPACK's divide and conquer (`syevd`).
# Its workspace is 2 n^2 doubles beside the matrix (4 MiB here), where MRRR
# (`syevr`) writes the n x n eigenvectors beside it and needs O(n) more; above
# this order that extra n x n is what sets a pipeline's peak memory.
EVD_MAX_ORDER = 512


def is_real(value) -> bool:
    """Whether `value` is a real number: a bool, which Python counts as one, is not.

    This is the one rule for a scalar setting (`check_positive`, `DetectionParams`)
    and the first half of the integer rule (`graph.integer_entries`).
    """
    return isinstance(value, Real) and not isinstance(value, (bool, np.bool_))


def shown(value) -> str:
    """`value` as a refusal names it: a real number (`is_real`) by `str`, anything else by `repr`.

    So the text '2' reads '2', not as if the number 2 were refused, and
    np.float64(nan) still reads nan.
    """
    return str(value) if is_real(value) else repr(value)


def check_positive(name: str, value: float) -> None:
    """Raise ValueError naming `value` (`shown`) unless it is a positive finite number (`is_real`)."""
    if not (is_real(value) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite number, got {shown(value)}")


def check_real(a) -> None:
    """TypeError naming the dtype of array `a`, dense or sparse, unless bool, integer or float.

    This is the package's one dtype rule, read from the dtype alone: a
    complex array would lose its imaginary part to a float64 cast, and an
    object or text one would be parsed or reach the solver.
    """
    if a.dtype.kind not in "biuf":
        raise TypeError(f"need bool, integer or float values, got dtype {a.dtype}")


def real_values(values, n: int, flat: str, each: str) -> np.ndarray:
    """`values`, an array or a sequence, as a flat float64 array of n entries.

    This is the one rule for signal and node values, and for `spd_solve`'s
    right-hand side. It raises ValueError "need {flat}, got shape ..." when
    they are not flat, "need {each} (n), got ..." when there are not n of
    them, and TypeError from `check_real` when the dtype is not bool,
    integer or float.
    """
    a = np.asarray(values)
    if a.ndim != 1:
        raise ValueError(f"need {flat}, got shape {a.shape}")
    if len(a) != n:
        raise ValueError(f"need {each} ({n}), got {len(a)}")
    check_real(a)
    return a.astype(np.float64, copy=False)


def check_symmetric(M) -> float:
    """max|M - M^T|, raising NotSymmetricError unless it is <= SYM_TOL * max(1, max|M|).

    NaN or inf entries raise NonFiniteMatrixError (NaN passes any tolerance
    test), and a dtype that is not bool, integer or float TypeError
    (`check_real`). Accepts dense arrays and scipy sparse matrices; O(nnz)
    when sparse.
    A dense M is read in row blocks of about SYM_BLOCK entries. 0.0 means M
    is exactly symmetric.
    """
    if not sp.issparse(M):
        M = np.asarray(M)
    check_real(M)
    M = M.astype(np.float64, copy=False)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSymmetricError(float("inf"))
    n = M.shape[0]
    if n == 0:
        return 0.0
    if sp.issparse(M):
        blocks = [(M, M.T)]
    else:
        step = max(1, SYM_BLOCK // n)
        blocks = ((M[i : i + step], M[:, i : i + step].T) for i in range(0, n, step))
    peak = asym = 0.0
    for rows, rows_t in blocks:  # rows of M and the same rows of M^T
        block_peak = float(abs(rows).max())  # NaN when any entry is NaN
        if not math.isfinite(block_peak):
            raise NonFiniteMatrixError()
        peak = max(peak, block_peak)
        asym = max(asym, float(abs(rows - rows_t).max()))
    if asym > SYM_TOL * max(1.0, peak):
        raise NotSymmetricError(asym)
    return asym


def sym_eigen(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (values, vectors) of a symmetric matrix, as scipy's `eigh` returns them.

    The values ascend, and column j of the orthonormal vectors belongs to value j.

    Up to order EVD_MAX_ORDER the eigensolver is LAPACK's divide and conquer
    `syevd` (Gu and Eisenstat, 1995), above it scipy's default MRRR `syevr`.
    On the connected pieces of road-graph subdomains (orders 150-1,509),
    whose Laplacians have many clustered eigenvalues, divide and conquer
    was 1.3-1.6x faster summed over each size band (one BLAS thread), but
    it holds about three n x n at its peak against MRRR's two: at a
    1,509-vertex piece that extra 18 MB raised the benchmark sweep's peak
    resident memory by 16 %.

    A writeable Fortran-ordered float64 M is LAPACK's workspace (divide and
    conquer returns the eigenvectors in it), so no n x n copy is made; any
    other M is copied and left as it was.
    """
    check_symmetric(M)  # also rejects NaN, inf and a complex, object or text dtype
    M = np.require(M, np.float64, "W")
    routine = "evd" if len(M) <= EVD_MAX_ORDER else "evr"
    return eigh(M, overwrite_a=True, check_finite=False, driver=routine)


def spd_solve(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve M x = b for symmetric positive definite M and one vector b via Cholesky.

    As in `sym_eigen`, a writeable Fortran-ordered float64 M is LAPACK's
    workspace: the factor is made over its lower triangle, also when
    NotPositiveDefiniteError is raised. Any other M is factored from a copy
    and left as it was. Both give the same bits.
    """
    check_symmetric(M)
    M = np.require(M, np.float64, "W")
    b = real_values(b, len(M), "a flat right-hand side", "one value per row")
    c, info = dpotrf(M, lower=1, clean=0, overwrite_a=True)
    if info != 0:
        raise NotPositiveDefiniteError(pivot=int(info) - 1)
    # dpotrs fails only on an illegal argument, and b's length and dtype are checked above
    x, _ = dpotrs(c, b, lower=1)
    return x


def sparse_lu(M: sp.spmatrix) -> SuperLU:
    """Sparse factors of a symmetric positive definite matrix; `.solve(b)` applies M^-1.

    SuperLU in symmetric mode: a minimum-degree ordering of M + M^T (Liu,
    ACM TOMS 1985) applied to rows and columns alike, and diagonal pivots
    only, so L U = P M P^T is an LDL^T with D the diagonal of U. An
    off-diagonal pivot (taken only where a diagonal is exactly zero) or a
    pivot that is not positive raises NotPositiveDefiniteError naming the
    original index of the first such pivot in elimination order; an exactly
    singular factor raises SparseSolverError. Pass right-hand sides in
    Fortran order: SuperLU copies C-ordered ones.
    """
    check_symmetric(M)
    try:
        lu = splu(
            M.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU's report of an exactly singular factor
        raise SparseSolverError("sparse LU", str(exc)) from None
    # perm_c[i] is the elimination position of original index i
    original = np.argsort(lu.perm_c)
    bad = ~(lu.U.diagonal() > 0) | (lu.perm_r[original] != np.arange(len(original)))
    if bad.any():
        raise NotPositiveDefiniteError(pivot=int(original[np.argmax(bad)]))
    return lu


def low_eigen(M: sp.spmatrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k smallest eigenpairs of a sparse symmetric positive definite matrix.

    Returns (values, vectors) as `sym_eigen` does, values ascending, which
    scipy's `eigsh` does not promise.

    Shift-invert Lanczos (ARPACK) about 0 to full precision, with M^-1
    applied by one `sparse_lu` factor of M, which checks M: a matrix that is
    not symmetric raises NotSymmetricError, one that is not positive
    definite NotPositiveDefiniteError, and an exactly singular one
    SparseSolverError. Where the pole sits is the caller's choice, made in
    M (see `pum.synthetic_signal`).
    It starts from a fixed seeded vector: ARPACK's default random start
    would change the eigenvectors in their last bits from call to call.
    Needs 1 <= k < order of M.
    """
    n = M.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < {n}, got k = {k}")
    OPinv = LinearOperator((n, n), matvec=sparse_lu(M).solve, dtype=np.float64)
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        values, vectors = eigsh(M, k=k, sigma=0.0, which="LM", tol=0, v0=v0, OPinv=OPinv)
    except RuntimeError as exc:  # ARPACK non-convergence
        raise SparseSolverError("shift-invert Lanczos", str(exc)) from None
    order = np.argsort(values)
    return values[order], vectors[:, order]
