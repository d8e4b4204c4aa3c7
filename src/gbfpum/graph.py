"""Immutable sparse undirected graph with Laplacian and neighborhood services.

Vertices are dense 0-based integers. Graphs are simple (no self-loops, no
duplicate edges) and unweighted; the globally loaded graph must be connected,
induced subgraphs need not be.
"""

from __future__ import annotations

from typing import IO, Iterable

import numpy as np
import scipy.sparse as sp

from .errors import (
    DisconnectedError,
    EmptySetError,
    OutOfRangeError,
    ParseError,
    SelfLoopError,
)


class Graph:
    """Undirected simple graph in compressed sparse row form."""

    __slots__ = ("n", "m", "indptr", "indices")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray, m: int):
        self.n = n
        self.m = m
        self.indptr = indptr
        self.indices = indices
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int]], require_connected: bool = True
    ) -> "Graph":
        """Build a graph from undirected edge pairs; duplicates are collapsed."""
        pairs = set()
        for u, v in edges:
            if u == v:
                raise SelfLoopError(u)
            if u < 0 or v < 0 or u >= n or v >= n:
                raise OutOfRangeError(max(u, v), n)
            pairs.add((min(u, v), max(u, v)))
        m = len(pairs)
        if m:
            arr = np.array(sorted(pairs), dtype=np.int64)
            rows = np.concatenate([arr[:, 0], arr[:, 1]])
            cols = np.concatenate([arr[:, 1], arr[:, 0]])
        else:
            rows = np.empty(0, dtype=np.int64)
            cols = np.empty(0, dtype=np.int64)
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        indptr = np.cumsum(indptr)
        g = cls(n, indptr, cols, m)
        if require_connected and not g.is_connected():
            raise DisconnectedError()
        return g

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted adjacency row of v (read-only view)."""
        if not 0 <= v < self.n:
            raise OutOfRangeError(v, self.n)
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise OutOfRangeError(v, self.n)
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighborhood(self, v: int, radius: int = 1) -> np.ndarray:
        """Vertices within `radius` hops of v (radius 1 or 2), excluding v."""
        if radius not in (1, 2):
            raise ValueError("radius must be 1 or 2")
        nb = self.neighbors(v)
        if radius == 1:
            return nb.copy()
        out = set(nb.tolist())
        for u in nb:
            out.update(self.neighbors(u).tolist())
        out.discard(v)
        return np.array(sorted(out), dtype=np.int64)

    def is_connected(self) -> bool:
        if self.n == 0:
            return False
        seen = np.zeros(self.n, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            u = stack.pop()
            for w in self.neighbors(u):
                if not seen[w]:
                    seen[w] = True
                    stack.append(int(w))
        return bool(seen.all())

    def induced_subgraph(self, vs: np.ndarray) -> tuple["Graph", np.ndarray]:
        """Subgraph on vertex set vs.

        Returns (subgraph, vs) where vs maps local index -> global id.
        The subgraph may be disconnected.
        """
        vs = as_vertex_set(vs, self.n)
        if len(vs) == 0:
            raise EmptySetError()
        local = -np.ones(self.n, dtype=np.int64)
        local[vs] = np.arange(len(vs))
        edges = []
        for li, v in enumerate(vs):
            for w in self.neighbors(v):
                lw = local[w]
                if lw > li:
                    edges.append((li, int(lw)))
        sub = Graph.from_edges(len(vs), edges, require_connected=False)
        return sub, vs

    def adjacency(self) -> sp.csr_matrix:
        """Binary adjacency matrix as scipy CSR."""
        data = np.ones(len(self.indices), dtype=np.float64)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

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
