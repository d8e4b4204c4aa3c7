"""Immutable sparse undirected graph with Laplacian and subgraph services.

Vertices are dense 0-based integers. Graphs are simple (no self-loops, no
duplicate edges) and unweighted; the globally loaded graph must be connected,
induced subgraphs need not be.
"""

from __future__ import annotations

from typing import IO, Iterable

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import (
    DisconnectedError,
    EmptySetError,
    OutOfRangeError,
    ParseError,
    SelfLoopError,
)


class Graph:
    """Undirected simple graph held as one read-only binary CSR adjacency.

    `indptr` and `indices` are the adjacency's own arrays (row v lists the
    sorted neighbors of v); every structural query (degrees, connectivity,
    subgraphs, Laplacians) reads that matrix.
    """

    __slots__ = ("n", "m", "indptr", "indices", "_adj")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray, m: int):
        self.n = n
        self.m = m
        self._adj = sp.csr_matrix(
            (np.ones(len(indices)), indices, indptr), shape=(n, n)
        )
        for arr in (self._adj.data, self._adj.indices, self._adj.indptr):
            arr.setflags(write=False)
        self.indptr = self._adj.indptr
        self.indices = self._adj.indices

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int]], require_connected: bool = True
    ) -> "Graph":
        """Build a graph from undirected edge pairs; duplicates are collapsed.

        The first bad edge in input order raises: a self-loop before a vertex
        out of range.
        """
        u, v = np.array(list(edges), dtype=np.int64).reshape(-1, 2).T
        loop = u == v
        bad = np.flatnonzero(loop | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n))
        if len(bad):
            i = bad[0]
            if loop[i]:
                raise SelfLoopError(int(u[i]))
            raise OutOfRangeError(int(max(u[i], v[i])), n)
        pairs = np.unique(np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1), axis=0)
        rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
        A = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsr()
        A.sort_indices()
        g = cls(n, A.indptr, A.indices, len(pairs))
        if require_connected and not g.is_connected():
            raise DisconnectedError()
        return g

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def is_connected(self) -> bool:
        return csgraph.connected_components(self._adj, directed=False)[0] == 1

    def induced_subgraph(self, vs: np.ndarray) -> tuple["Graph", np.ndarray]:
        """Subgraph on vertex set vs.

        Returns (subgraph, vs) where vs maps local index -> global id.
        The subgraph may be disconnected.
        """
        vs = as_vertex_set(vs, self.n)
        if len(vs) == 0:
            raise EmptySetError()
        S = self._adj[vs][:, vs]
        S.sort_indices()
        return Graph(len(vs), S.indptr, S.indices, S.nnz // 2), vs

    def adjacency(self) -> sp.csr_matrix:
        """Binary adjacency matrix as scipy CSR (shared and read-only)."""
        return self._adj

    def laplacian(self) -> np.ndarray:
        """Dense combinatorial Laplacian L = D - A."""
        L = -self.adjacency().toarray()
        np.fill_diagonal(L, self.degrees().astype(np.float64))
        return L

    def sparse_laplacian(self) -> sp.csr_matrix:
        """Combinatorial Laplacian L = D - A as scipy CSR."""
        return (sp.diags(self.degrees().astype(np.float64)) - self.adjacency()).tocsr()


def as_vertex_set(ids, n: int) -> np.ndarray:
    """Normalize to a sorted, duplicate-free int64 array with ids < n."""
    vs = np.unique(np.asarray(ids, dtype=np.int64))
    if len(vs) and (vs[0] < 0 or vs[-1] >= n):
        bad = vs[0] if vs[0] < 0 else vs[-1]
        raise OutOfRangeError(int(bad), n)
    return vs


def load_graph(stream: IO[str] | str) -> Graph:
    """Parse an edge-list text stream into a connected Graph.

    Lines hold two whitespace-separated 0-based vertex ids; blank lines and
    lines starting with '#' are ignored. The vertex count is 1 + max id seen.
    """
    if isinstance(stream, str):
        lines = stream.splitlines()
    else:
        lines = stream.read().splitlines()
    edges: list[tuple[int, int]] = []
    max_id = -1
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(line_no, raw)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(line_no, raw) from None
        if u < 0 or v < 0:
            raise ParseError(line_no, raw)
        if u == v:
            raise SelfLoopError(u)
        edges.append((u, v))
        max_id = max(max_id, u, v)
    if max_id < 0:
        raise ParseError(0, "<empty edge list>")
    return Graph.from_edges(max_id + 1, edges, require_connected=True)
