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

    Solves the sparse system (I - alpha A) x = 1 and returns x - 1, read-only.
    The vector is memoised on g (`Graph.katz_memo`) for its alpha, so pipelines
    that reuse a graph solve once; another alpha solves again and replaces it.
    """
    check_positive("alpha", alpha)
    bound = spectral_radius_bound(g)
    if alpha >= 1.0 / bound:
        raise AlphaDivergesError(alpha, 1.0 / bound)
    if g.katz_memo is not None and g.katz_memo[0] == alpha:
        return g.katz_memo[1]
    M = sp.identity(g.n, format="csr") - alpha * g.adjacency()
    x = sparse_lu(M).solve(np.ones(g.n)) - 1.0
    x.setflags(write=False)
    g.katz_memo = (alpha, x)
    return x


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
    head = membership[g.heads]
    intra_halfedges = np.bincount(
        head[head == membership[g.indices]], minlength=n_comm
    ).astype(np.float64)
    deg_tot = np.bincount(membership, weights=deg, minlength=n_comm)
    if g.m == 0:
        return 0.0
    two_m = 2.0 * g.m
    return float(np.sum(intra_halfedges / two_m - (deg_tot / two_m) ** 2))


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
