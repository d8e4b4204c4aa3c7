"""Polyharmonic-spline kernels on graph Laplacians.

K = (eps I + L)^(-s) = M^(-s), with M = eps I + L (`Graph.sparse_laplacian(eps)`), where
`KernelParams` holds eps above SHIFT_TOL, as a graph Laplacian's lambda_min is
0. The two interpolation routes of `pum` reach it differently:

- the kernel route (`kernel_block`) forms the block K[W,W] at the nodes W
  and a function that evaluates K[:, W] a. For integer s it uses one sparse
  LDL^T factor (`numerics.sparse_lu`) of M = eps I + L and no dense n x n
  matrix. K[W,W] is built SOLVE_BLOCK columns at a time: a block
  of unit columns at W is solved s times and its rows at W are kept, so no
  n x |W| array is formed. K[:, W] a = M^(-s) a, with a scattered to W,
  takes s single-vector solves. Any other s takes the spectral expansion
  of a dense eigendecomposition (`gbf_kernel`), which the tests also use as
  the oracle for the sparse one; its block K[W,W] is cut from the columns
  K[:, W]. `pum` asks for it per connected piece, so the dense order is a
  piece's. The eigendecomposition works in the storage of L, which
  `kernel_block` hands it in Fortran order; with divide and conquer (orders
  up to `numerics.EVD_MAX_ORDER`) it adds two n x n of workspace, with MRRR
  (above) one n x n for the eigenvectors. On either route the block is
  then averaged with its transpose in place, one panel of SOLVE_BLOCK
  columns at a time, the one place it is made exactly symmetric, and
  returned in Fortran order, so `numerics.spd_solve` leaves its Cholesky
  factor there: one |W| x |W| buffer serves from the block to the solve.
- the native route never forms K: for integer s, K^(-1) = M^s is sparse,
  and `pum` builds from M only the rows of M^s that it solves with.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveShiftError
from .graph import Graph, check_nodes
from .numerics import check_positive, sparse_lu, sym_eigen

SHIFT_TOL = 1e-12
# Largest exponent s. The native route makes int(s) - 1 sparse products of the
# rows it solves with, so a huge s would run for hours; and at eps = 0.01 or 1
# both committed graphs are already not positive definite in floating point by
# s = 32.
S_MAX = 64
# Right-hand-side columns per SuperLU solve in `kernel_block`. With the
# factor of eps I + L on the 2642-vertex road graph, K[W,W] at 800 sample
# columns (each block solved s times) took 0.038 s at s = 2 and 0.062 s at
# s = 3 in blocks of 32, against 0.087 and 0.135 s in one block of 800 and
# 0.046 and 0.064 s in blocks of 8 (median of 9, one BLAS thread), with
# bit-identical output: each column is solved on its own, and a block stays
# in cache. It is also the panel width of the one in-place symmetrisation
# of a dense block K[W,W], there on either route.
SOLVE_BLOCK = 32


@dataclass(frozen=True)
class KernelParams:
    epsilon: float = 0.01
    s: float = 2.0

    def __post_init__(self):
        check_positive("epsilon", self.epsilon)
        check_positive("s", self.s)
        if self.epsilon <= SHIFT_TOL:
            raise ValueError(f"epsilon must exceed {SHIFT_TOL}, got {self.epsilon}")
        if self.s > S_MAX:
            raise ValueError(f"s must be at most {S_MAX}, got {self.s}")


def gbf_kernel(L: np.ndarray, p: KernelParams, cols: np.ndarray) -> np.ndarray:
    """Columns `cols` (distinct) of the kernel (eps I + L)^(-s), from the spectrum of L.

    K[:, cols] = U diag(w) U[cols]^T with w = (eps + lambda)^(-s), formed
    without the full n x n matrix, as computed: K[cols, cols] is symmetric
    to rounding. Pass np.arange(n) for the whole matrix. A writeable
    Fortran-ordered float64 L is the eigensolver's workspace, any other L is
    left as it was (see `sym_eigen`). An id of cols that is no integer,
    lies outside 0..n-1 or repeats is refused first (`graph.check_nodes`).
    """
    cols = check_nodes(cols, len(L))
    lam, U = sym_eigen(L)
    shift = p.epsilon + lam[0]
    if shift <= SHIFT_TOL:
        raise NonPositiveShiftError(float(shift), SHIFT_TOL)
    w = (p.epsilon + lam) ** (-p.s)
    return U @ (w[:, None] * U[cols].T)


def kernel_block(
    g: Graph, cols: np.ndarray, p: KernelParams
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """K[cols, cols] and a -> K[:, cols] a for K = (eps I + L)^(-s), L the Laplacian of g.

    `cols` are distinct local ids. Integer s takes the sparse
    factor-and-solve route (see the module docstring), any other s the dense
    spectral one. Either block is then made exactly symmetric here and
    returned in Fortran order.
    """
    if not float(p.s).is_integer():
        # L is exactly symmetric, so L.T is L in Fortran order: the eigensolver
        # works in its storage, with the same result as on a copy
        Kw = gbf_kernel(g.laplacian().T, p, cols)
        block, evaluate = Kw[cols], lambda a: Kw @ a
    else:
        lu = sparse_lu(g.sparse_laplacian(p.epsilon))
        s = int(p.s)
        block = np.empty((len(cols), len(cols)))
        for j in range(0, len(cols), SOLVE_BLOCK):
            part = cols[j : j + SOLVE_BLOCK]
            X = np.zeros((g.n, len(part)), order="F")
            X[part, np.arange(len(part))] = 1.0
            for _ in range(s):
                X = lu.solve(X)
            block[:, j : j + len(part)] = X[cols]

        def evaluate(a: np.ndarray) -> np.ndarray:
            v = np.zeros(g.n)
            v[cols] = a
            for _ in range(s):
                v = lu.solve(v)
            return v

    # (B + B^T) / 2 in place, one panel of SOLVE_BLOCK columns and the same
    # rows at a time: panel i reads and writes only rows and columns from i on
    for i in range(0, len(cols), SOLVE_BLOCK):
        lo = block[i:, i : i + SOLVE_BLOCK]
        hi = block[i : i + SOLVE_BLOCK, i:]
        avg = (lo + hi.T) / 2.0
        lo[...] = avg
        hi[...] = avg.T
    # the block is exactly symmetric, so its transpose is the same block in
    # Fortran order, which `spd_solve` factors where it was built
    return block.T, evaluate
