"""Independent recomputation of the program's outputs.

Nothing here calls gbfpum. The Laplacian comes from the edge list through
scipy.sparse, kernel columns from a sparse LU (integer exponent) or from
numpy.linalg.eigh (fractional exponent), low Laplacian modes from a
shift-invert Lanczos solve, and modularity from networkx.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh, splu


def read_edges(path) -> tuple[int, np.ndarray]:
    """Vertex count and (m, 2) edge array of an edge-list file."""
    edges = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)
    return int(edges.max()) + 1, edges


def adjacency(n: int, edges: np.ndarray) -> sp.csr_matrix:
    """Binary symmetric adjacency matrix; duplicate edges collapse."""
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    A = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    A.data[:] = 1.0
    return A


def laplacian(A: sp.csr_matrix) -> sp.csr_matrix:
    return (sp.diags(np.asarray(A.sum(axis=1)).ravel()) - A).tocsr()


def kernel_columns(
    A_sub: sp.csr_matrix, cols: np.ndarray, epsilon: float, s: float
) -> np.ndarray:
    """Columns `cols` of (epsilon*I + L)^(-s) for the Laplacian L of A_sub."""
    n = A_sub.shape[0]
    L = laplacian(A_sub)
    if float(s).is_integer():
        lu = splu((epsilon * sp.identity(n) + L).tocsc())
        X = np.zeros((n, len(cols)))
        X[cols, np.arange(len(cols))] = 1.0
        for _ in range(int(s)):
            X = lu.solve(X)
        return X
    values, vectors = np.linalg.eigh(L.toarray())
    return (vectors * (epsilon + values) ** (-s)) @ vectors[cols].T


def pum_approximant(
    A: sp.csr_matrix,
    subdomains: list[np.ndarray],
    W: np.ndarray,
    y: np.ndarray,
    epsilon: float,
    s: float,
) -> np.ndarray:
    """Partition-of-unity interpolant: local kernel fits blended by 1/multiplicity."""
    n = A.shape[0]
    multiplicity = np.zeros(n)
    for sub in subdomains:
        multiplicity[sub] += 1.0
    out = np.zeros(n)
    for sub in subdomains:
        w = np.intersect1d(sub, W)
        w_loc = np.searchsorted(sub, w)
        K_cols = kernel_columns(A[sub][:, sub], w_loc, epsilon, s)
        coef = np.linalg.solve(K_cols[w_loc], y[w])
        out[sub] += (K_cols @ coef) / multiplicity[sub]
    return out


def low_modes(A: sp.csr_matrix, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The `count` lowest Laplacian eigenpairs, eigenvalues ascending."""
    L = laplacian(A)
    values, vectors = eigsh(L.tocsc(), k=count, sigma=-1e-3, which="LM", tol=0)
    order = np.argsort(values)
    return values[order], vectors[:, order]


def signal_defects(A: sp.csr_matrix, y: np.ndarray, n_modes: int = 10) -> tuple[float, float]:
    """(mean component, residual outside the n_modes lowest nonzero modes), both relative to |y|."""
    _, vectors = low_modes(A, n_modes + 1)
    U = vectors[:, 1:]
    norm = float(np.linalg.norm(y))
    mean_part = abs(float(y.sum())) / (np.sqrt(len(y)) * norm)
    outside = float(np.linalg.norm(y - U @ (U.T @ y))) / norm
    return mean_part, outside


def modularity(n: int, edges: np.ndarray, cores: list[np.ndarray]) -> float:
    # imported here: networkx would otherwise add ~20 MB to the peak memory
    # that the benchmark reports for the program
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(edges.tolist())
    return float(nx.community.modularity(G, [set(c.tolist()) for c in cores]))


def rrmse(truth: np.ndarray, approx: np.ndarray) -> float:
    return float(np.linalg.norm(truth - approx) / np.linalg.norm(truth))
