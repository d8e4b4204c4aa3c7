"""Immutable sparse undirected graph with Laplacian and subgraph services.

Vertices are dense 0-based integers. Graphs are simple (no self-loops, no
duplicate edges) and unweighted; the globally loaded graph must be connected,
induced subgraphs need not be.
"""

from __future__ import annotations

from itertools import chain
from numbers import Integral
from typing import IO, Callable, Iterable

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
from .numerics import is_real


class Graph:
    """Undirected simple graph held as one read-only binary CSR adjacency.

    `indptr` and `indices` are the adjacency's own arrays (row v lists the
    sorted neighbors of v), and the order n and edge count m are read from
    them: n = len(indptr) - 1, and m = len(indices) // 2, each edge being
    two entries. `heads` holds each entry's row, so entry i is the edge end
    pair (heads[i], indices[i]); every structural query (degrees,
    connectivity, subgraphs, Laplacians, edges inside a label) reads these.
    `katz_memo` is the one memo: `metrics.katz_centrality` keeps the
    graph's read-only Katz vector there, solved once per graph.
    """

    __slots__ = ("n", "m", "indptr", "indices", "heads", "_adj", "katz_memo")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        n = self.n = len(indptr) - 1
        self.m = len(indices) // 2
        self._adj = sp.csr_matrix(
            (np.ones(len(indices)), indices, indptr), shape=(n, n)
        )
        for arr in (self._adj.data, self._adj.indices, self._adj.indptr):
            arr.setflags(write=False)
        self.indptr = self._adj.indptr
        self.indices = self._adj.indices
        self.heads = np.repeat(np.arange(n), self.degrees())
        self.heads.setflags(write=False)
        self.katz_memo: np.ndarray | None = None

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int]], require_connected: bool = True
    ) -> "Graph":
        """Build a graph from undirected edge pairs; duplicates are collapsed.

        `edges` is an (m, 2) array, taken as it is, or any iterable of (u, v)
        pairs; anything of another shape raises ValueError. Its entries go
        through `integer_entries`, so an end that is not an integer raises
        ValueError, named by its edge. Then the first bad edge in input order
        raises: a self-loop before an end out of range, and of two ends out of
        range, u. A graph that must be connected but has a vertex on no edge
        raises DisconnectedError before any array of order n is made, so an
        edge list with one huge vertex id costs O(m) memory.
        """
        edges = edges if isinstance(edges, np.ndarray) else np.array(list(edges), dtype=object)
        if edges.shape[1:] != (2,) and edges.size:
            raise ValueError(f"edges must be (u, v) pairs, got shape {edges.shape}")
        u, v = integer_entries(
            edges, lambda i, ends: f"edge {i // 2} has end {ends[i]!r}, which is not an integer"
        ).reshape(-1, 2).T
        loop = u == v
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        bad = np.flatnonzero(loop | (lo < 0) | (hi >= n))
        if len(bad):
            i = bad[0]
            if loop[i]:
                raise SelfLoopError(int(u[i]))
            raise OutOfRangeError(int(u[i] if not 0 <= u[i] < n else v[i]), n)
        if require_connected and n > 1 and len(sorted_unique(np.concatenate([u, v]))) < n:
            raise DisconnectedError()  # some vertex has no edge
        # one int64 key per undirected edge, ordered as (lo, hi); n^2 fits below
        # n = 3e9, past which the CSR's row pointers alone would take 24 GB
        lo, hi = lo.astype(np.int64, copy=False), hi.astype(np.int64, copy=False)
        keys = sorted_unique(lo * n + hi)
        lo, hi = keys // n, keys % n
        rows = np.concatenate([lo, hi])
        cols = np.concatenate([hi, lo])
        A = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsr()
        A.sort_indices()
        g = cls(A.indptr, A.indices)
        if require_connected and not g.is_connected():
            raise DisconnectedError()
        return g

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def is_connected(self) -> bool:
        return csgraph.connected_components(self._adj, directed=False)[0] == 1

    def induced_subgraph(self, vs: np.ndarray) -> tuple["Graph", np.ndarray]:
        """Subgraph on vertex set vs: the disjoint union of one part.

        Returns (subgraph, vs) where vs maps local index -> global id.
        The subgraph may be disconnected.
        """
        vs = as_vertex_set(vs, self.n)
        if len(vs) == 0:
            raise EmptySetError()
        return self.disjoint_union([vs]), vs

    def disjoint_union(self, parts: list[np.ndarray]) -> "Graph":
        """Disjoint union of the subgraphs induced by sorted vertex sets `parts`.

        Vertex i of the result is a copy of vertex concat(parts)[i]; two
        copies are adjacent when they come from the same part and their
        originals are adjacent. Read with one numpy gather of the copies'
        CSR rows: each copy keeps the neighbors found in its own part.
        One part holding every vertex gives the graph itself. An id outside
        0..n-1 raises OutOfRangeError (the lowest below 0, else the highest),
        and the first part that is not strictly increasing ValueError.
        """
        vs = np.concatenate(parts)
        check_range(vs, self.n)
        part = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
        key = part * self.n + vs  # strictly increasing when every part is
        bad = np.flatnonzero(np.diff(key) <= 0)
        if len(bad):
            raise ValueError(f"part {part[bad[0]]} is not strictly increasing")
        if len(parts) == 1 and len(vs) == self.n:
            return self
        starts = self.indptr[vs]
        counts = self.indptr[vs + 1] - starts
        row = np.repeat(np.arange(len(vs)), counts)  # the copy each gathered entry belongs to
        flat = np.arange(len(row)) + (starts - np.cumsum(counts) + counts)[row]
        nbr_key = part[row] * self.n + self.indices[flat]
        col = np.minimum(np.searchsorted(key, nbr_key), max(len(vs) - 1, 0))
        hit = key[col] == nbr_key
        indptr = np.concatenate([[0], np.cumsum(np.bincount(row[hit], minlength=len(vs)))])
        return Graph(indptr, col[hit])

    def adjacency(self) -> sp.csr_matrix:
        """Binary adjacency matrix as scipy CSR (shared and read-only)."""
        return self._adj

    def laplacian(self) -> np.ndarray:
        """Dense combinatorial Laplacian L = D - A, written from the CSR arrays into one buffer."""
        L = np.zeros((self.n, self.n))
        L[self.heads, self.indices] = -1.0
        np.fill_diagonal(L, self.degrees())
        return L

    def sparse_laplacian(self, shift: float = 0.0) -> sp.csr_matrix:
        """shift I + L as scipy CSR, L = D - A the combinatorial Laplacian, in one pass.

        With shift = eps this is M = eps I + L, whose -s-th power is the
        kernel of `kernel` and whose s-th power the native route of `pum` solves with.
        """
        return (sp.diags(self.degrees() + float(shift)) - self.adjacency()).tocsr()


def groups(label: np.ndarray) -> list[np.ndarray]:
    """Ascending ids i with label[i] == j, for each label j in 0..max(label)."""
    return np.split(np.argsort(label, kind="stable"), np.cumsum(np.bincount(label))[:-1])


def intra_edges(g: Graph, label: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, v): the CSR entries whose two ends carry the same label >= 0, on
    global vertex ids, read with one mask over `Graph.heads`.

    Each such edge appears twice, once from each end; `u` is ascending, each
    row's `v` in the graph's order. Distinct labels share no edge.
    """
    head = label[g.heads]
    keep = (head >= 0) & (head == label[g.indices])
    return g.heads[keep], g.indices[keep]


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """`np.unique` of integer keys, by a sort and a mask of changes.

    On numpy 2.4 `np.unique` takes a hash route for integers: 5.0-5.2 ms on
    62,500 keys, where this takes 0.7-1.1 ms, and within 2 us of it on a
    handful of keys (2-core host).
    """
    keys = np.sort(keys)
    keep = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def check_range(vs: np.ndarray, n: int) -> None:
    """OutOfRangeError for an id of vs outside 0..n-1: the lowest below 0, else the highest."""
    if len(vs) and (np.min(vs) < 0 or np.max(vs) >= n):
        raise OutOfRangeError(int(np.min(vs) if np.min(vs) < 0 else np.max(vs)), n)


def check_nodes(ids, n: int) -> np.ndarray:
    """`vertex_ids`, then ValueError for the lowest id that repeats; the ids keep their order."""
    vs = vertex_ids(ids, n)
    ordered = np.sort(vs)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if len(repeated):
        raise ValueError(f"vertex {repeated[0]} is repeated")
    return vs


def as_vertex_set(ids, n: int) -> np.ndarray:
    """Normalize vertex ids (`vertex_ids`) to a sorted, duplicate-free int64 array."""
    return sorted_unique(vertex_ids(ids, n))


def integer_entries(values, named: Callable[[int, list], str]) -> np.ndarray:
    """`values` as an array, a list or tuple as an object one, whose entries are all integers.

    This is the one integer rule for vertex ids, edge ends and labels. An
    integer dtype passes with no per-element pass. Any other is read element
    by element, so numpy never coerces [True, 2] to [1, 2] nor "3" to 3: an
    integer or an integral float (a JSON reader's 3.0) passes, and the first
    boolean, text, NaN, inf or fractional entry raises
    ValueError(named(i, entries)), i its position in the flattened array.
    The entries keep their dtype, so a caller checks the range of Python
    ints past 64 bits exactly, before its int64 cast.
    """
    a = np.array(values, dtype=object) if isinstance(values, (list, tuple)) else np.asarray(values)
    entries = [] if a.dtype.kind in "iu" else a.ravel().tolist()
    for i, x in enumerate(entries):
        if not (is_real(x) and (isinstance(x, Integral) or float(x).is_integer())):
            raise ValueError(named(i, entries))
    return a


def vertex_ids(ids, n: int) -> np.ndarray:
    """Vertex ids < n as a flat int64 array, in the caller's order, repeats kept.

    The ids go through `integer_entries`, flattened, so integral floats and
    empty input are accepted and the first entry that is not an integer
    raises ValueError, named by its repr and its position; for booleans
    only, the message says they are a mask, not ids. An id below 0 (the
    lowest), else one of n or more (the highest), raises OutOfRangeError.
    """
    vs = np.ravel(integer_entries(ids, bad_id))
    check_range(vs, n)
    return vs.astype(np.int64, copy=False)


def bad_id(i: int, ids: list) -> str:
    """The message for ids[i], the first vertex id that is not an integer."""
    if all(isinstance(x, (bool, np.bool_)) for x in ids):
        return "vertex ids are booleans; pass the ids of a mask, np.flatnonzero(mask)"
    kind = "a boolean, not an integer" if isinstance(ids[i], (bool, np.bool_)) else "not an integer"
    return f"vertex id {ids[i]!r} at position {i} is {kind}"


def load_graph(stream: IO[str] | str) -> Graph:
    """Parse an edge-list text stream into a connected Graph.

    Lines hold two whitespace-separated 0-based vertex ids, each read as
    `int()` reads it and below 2^63; blank lines and lines starting with '#'
    are ignored. The vertex count is 1 + max id seen. The first bad line in
    file order raises: ParseError (naming the line) for a wrong token count,
    a token that is not an integer, a negative id or one of 2^63 or more;
    SelfLoopError for a line `v v`. The kept lines are converted in one
    numpy call and checked as one array; only when that finds a bad token,
    row or id does `_raise_first_bad_line` read the text line by line to
    name the first bad line.
    """
    text = stream if isinstance(stream, str) else stream.read()
    # tuples, not lists: the cyclic collector stops tracking a tuple of strings
    rows = [tuple(p) for p in map(str.split, text.splitlines()) if p and p[0][0] != "#"]
    try:
        # int() on each token, so the same tokens; one flat sequence converts fastest
        ids = np.array(list(chain.from_iterable(rows)), dtype=np.int64)
    except (ValueError, OverflowError):  # a non-integer, an id past int64
        ids = None
    if ids is None or set(map(len, rows)) != {2} or (ids < 0).any():
        _raise_first_bad_line(text)
    edges = ids.reshape(-1, 2)
    # from_edges raises SelfLoopError at the first self-loop, as the line reading would
    return Graph.from_edges(int(edges.max()) + 1, edges, require_connected=True)


def _raise_first_bad_line(text: str) -> None:
    """Raise the error of the first bad line of an edge list, read one line at a time.

    Raises the empty-list ParseError (line 0) when no line holds an edge.
    """
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2:
            raise ParseError(line_no, raw)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(line_no, raw) from None
        if not (0 <= u < 2**63 and 0 <= v < 2**63):
            raise ParseError(line_no, raw)
        if u == v:
            raise SelfLoopError(u)
    raise ParseError(0, "<empty edge list>")
