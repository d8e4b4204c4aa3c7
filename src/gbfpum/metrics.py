"""Structural graph measures: Katz centrality, modularity, Jaccard similarity."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import AlphaDivergesError, EmptySetError
from .graph import Graph, as_vertex_set
from .numerics import check_positive, sparse_lu

DEFAULT_ALPHA_CAP = 0.5
DEFAULT_ALPHA_SAFETY = 0.85


def spectral_radius_bound(g: Graph) -> float:
    """Upper bound on the adjacency spectral radius (max degree)."""
    return float(g.degrees().max())


def default_alpha(g: Graph) -> float:
    """Attenuation factor guaranteed to keep the Katz series convergent.

    min(0.5, 0.85 / bound) caps the conventional 0.5 whenever the spectral
    radius makes it diverge.
    """
    return min(DEFAULT_ALPHA_CAP, DEFAULT_ALPHA_SAFETY / spectral_radius_bound(g))


def katz_centrality(g: Graph, alpha: float) -> np.ndarray:
    """Katz centrality: sum over walk lengths k of alpha^k (A^k 1)_i.

    Solves the sparse system (I - alpha A) x = 1 and returns x - 1.
    """
    check_positive("alpha", alpha)
    bound = spectral_radius_bound(g)
    if alpha >= 1.0 / bound:
        raise AlphaDivergesError(alpha, 1.0 / bound)
    M = sp.identity(g.n, format="csr") - alpha * g.adjacency()
    x = sparse_lu(M).solve(np.ones(g.n))
    return x - 1.0


def modularity(g: Graph, membership: np.ndarray) -> float:
    """Newman modularity Q of a disjoint community assignment.

    Per-community aggregate of intra-edge counts and total degrees; equals
    the literal (1/2m) double sum over ordered vertex pairs.
    """
    membership = np.asarray(membership)
    if len(membership) != g.n:
        raise ValueError("membership must assign every vertex")
    n_comm = int(membership.max(initial=-1)) + 1
    deg = g.degrees().astype(np.float64)
    rows = np.repeat(np.arange(g.n), deg.astype(np.int64))
    same = membership[rows] == membership[g.indices]
    intra_halfedges = np.bincount(
        membership[rows][same], minlength=n_comm
    ).astype(np.float64)
    deg_tot = np.bincount(membership, weights=deg, minlength=n_comm)
    return modularity_from_counts(intra_halfedges, deg_tot, g.m)


def modularity_from_counts(intra: np.ndarray, deg: np.ndarray, m: int) -> float:
    """Q from each community's intra half-edge count and degree sum, in community order.

    The one float recipe for Q: `modularity` and the split scorer both end
    here, so their values agree bit for bit.
    """
    if m == 0:
        return 0.0
    return float(np.sum(intra / (2.0 * m) - (deg / (2.0 * m)) ** 2))


def jaccard_communities(g: Graph, U: np.ndarray, V: np.ndarray) -> float:
    """Mean vertex Jaccard similarity over all |U|*|V| ordered pairs."""
    U = as_vertex_set(U, g.n)
    V = as_vertex_set(V, g.n)
    if len(U) == 0 or len(V) == 0:
        raise EmptySetError("community")
    A = g.adjacency()
    inter = (A[U] @ A[V].T).toarray()
    deg = g.degrees().astype(np.float64)
    union = deg[U][:, None] + deg[V][None, :] - inter
    vals = np.where(union > 0, inter / np.where(union > 0, union, 1.0), 0.0)
    return float(vals.mean())
