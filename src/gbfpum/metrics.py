"""Structural graph measures: Katz centrality, modularity, Jaccard similarity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import AlphaDivergesError, EmptySetError
from .graph import Graph, as_vertex_set
from .numerics import sparse_lu

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


@dataclass(frozen=True)
class KatzParams:
    alpha: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


def katz_centrality(g: Graph, p: KatzParams) -> np.ndarray:
    """Katz centrality: sum over walk lengths k of alpha^k (A^k 1)_i.

    Solves the sparse system (I - alpha A) x = 1 and returns x - 1.
    """
    bound = spectral_radius_bound(g)
    if p.alpha >= 1.0 / bound:
        raise AlphaDivergesError(p.alpha, 1.0 / bound)
    M = sp.identity(g.n, format="csr") - p.alpha * g.adjacency()
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
    m = g.m
    if m == 0:
        return 0.0
    n_comm = int(membership.max()) + 1
    deg = g.degrees().astype(np.float64)
    rows = np.repeat(np.arange(g.n), deg.astype(np.int64))
    same = membership[rows] == membership[g.indices]
    intra_halfedges = np.bincount(
        membership[rows][same], minlength=n_comm
    ).astype(np.float64)
    deg_tot = np.bincount(membership, weights=deg, minlength=n_comm)
    return float(np.sum(intra_halfedges / (2.0 * m) - (deg_tot / (2.0 * m)) ** 2))


def jaccard_vertices(g: Graph, u: int, v: int) -> float:
    """|N(u) ∩ N(v)| / |N(u) ∪ N(v)| over open neighborhoods."""
    nu = set(g.neighbors(u).tolist())
    nv = set(g.neighbors(v).tolist())
    union = len(nu | nv)
    if union == 0:
        return 0.0
    return len(nu & nv) / union


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
