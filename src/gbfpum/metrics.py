"""Structural graph measures: Katz centrality, modularity, Jaccard similarity.

Katz centrality is the graph's own: it is solved at `default_alpha(g)`, which
keeps the series convergent, and memoised once per graph.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import EmptySetError
from .graph import Graph, as_vertex_set, integer_entries, intra_edges
from .numerics import sparse_lu

DEFAULT_ALPHA_CAP = 0.5
DEFAULT_ALPHA_SAFETY = 0.85


def default_alpha(g: Graph) -> float:
    """Katz attenuation factor of g: min(0.5, 0.85 / max degree).

    The max degree bounds the adjacency spectral radius, so alpha * max
    degree <= 0.85 keeps the Katz series convergent. A graph with no edge
    takes the cap; its Katz vector is 0 at any alpha.
    """
    d_max = int(g.degrees().max(initial=0))
    return min(DEFAULT_ALPHA_CAP, DEFAULT_ALPHA_SAFETY / d_max) if d_max else DEFAULT_ALPHA_CAP


def katz_centrality(g: Graph) -> np.ndarray:
    """Katz centrality: sum over walk lengths k of alpha^k (A^k 1)_i, alpha = default_alpha(g).

    Solves the sparse system (I - alpha A) x = 1 and returns x - 1, read-only.
    The vector is memoised on g (`Graph.katz_memo`), so pipelines that reuse
    a graph solve once.
    """
    if g.katz_memo is None:
        M = sp.identity(g.n, format="csr") - default_alpha(g) * g.adjacency()
        x = sparse_lu(M).solve(np.ones(g.n)) - 1.0
        x.setflags(write=False)
        g.katz_memo = x
    return g.katz_memo


def modularity(g: Graph, membership: np.ndarray) -> float:
    """Newman modularity Q of a disjoint community assignment.

    Per-community aggregate of intra-edge counts and total degrees; equals
    the literal (1/2m) double sum over ordered vertex pairs. `membership` is
    one label per vertex, a flat array of n; each label goes through
    `graph.integer_entries` (an integral float is read as one), and the
    first vertex whose label is not an integer, else is negative, raises
    ValueError.
    """
    if np.shape(membership) != (g.n,):
        raise ValueError("membership must assign every vertex")
    membership = integer_entries(
        membership, lambda v, labels: f"vertex {v} has label {labels[v]!r}, which is not an integer"
    ).astype(np.int64, copy=False)
    if membership.min(initial=0) < 0:
        v = int(np.argmax(membership < 0))
        raise ValueError(f"vertex {v} has label {membership[v]}, which is negative")
    n_comm = int(membership.max(initial=-1)) + 1
    deg = g.degrees().astype(np.float64)
    u, _ = intra_edges(g, membership)
    intra_halfedges = np.bincount(membership[u], minlength=n_comm).astype(np.float64)
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
