"""Polyharmonic-spline kernel matrices on graph Laplacians.

K = (eps I + L)^(-s). `kernel_columns` is the entry point and picks one of
two routes:

- integer s: the needed columns K[:, cols] = M^(-s) E_cols with
  M = eps I + L, from one sparse LU of M and s solve passes; no dense
  n x n matrix is formed.
- any other s: the spectral expansion sum_k (eps + lambda_k)^(-s) u_k u_k^T
  of a dense eigendecomposition (`gbf_kernel`), which the tests also use as
  the oracle for the sparse route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NonPositiveShiftError
from .graph import Graph
from .numerics import check_positive, sparse_lu, sym_eigen

SHIFT_TOL = 1e-12


@dataclass(frozen=True)
class KernelParams:
    epsilon: float = 0.01
    s: float = 2.0

    def __post_init__(self):
        check_positive("epsilon", self.epsilon)
        check_positive("s", self.s)


def gbf_kernel(L: np.ndarray, p: KernelParams) -> np.ndarray:
    """Positive definite kernel matrix (eps I + L)^(-s) from the spectrum of L."""
    eig = sym_eigen(L)
    shift = p.epsilon + eig.values[0]
    if shift <= SHIFT_TOL:
        raise NonPositiveShiftError(float(shift))
    w = (p.epsilon + eig.values) ** (-p.s)
    K = (eig.vectors * w) @ eig.vectors.T
    return (K + K.T) / 2.0


def kernel_columns(g: Graph, cols: np.ndarray, p: KernelParams) -> np.ndarray:
    """Columns `cols` (distinct local ids) of K = (eps I + L)^(-s), L the Laplacian of g.

    Returns an (n, len(cols)) array whose rows `cols` form the exactly
    symmetric block K[cols, cols]. Integer s takes the sparse
    factor-and-solve route, any other s the dense spectral one.
    """
    if not float(p.s).is_integer():
        return gbf_kernel(g.laplacian(), p)[:, cols]
    shift = p.epsilon  # + lambda_min, which is 0 for every graph Laplacian
    if shift <= SHIFT_TOL:
        raise NonPositiveShiftError(float(shift))
    lu = sparse_lu(g.sparse_laplacian() + p.epsilon * sp.identity(g.n, format="csr"))
    X = np.zeros((g.n, len(cols)), order="F")
    X[cols, np.arange(len(cols))] = 1.0
    for _ in range(int(p.s)):
        X = lu.solve(X)
    block = X[cols]
    X[cols] = (block + block.T) / 2.0
    return X
