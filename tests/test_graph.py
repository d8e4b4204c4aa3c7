import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gbfpum import Graph, load_graph
from gbfpum.errors import (
    DisconnectedError,
    EmptySetError,
    OutOfRangeError,
    ParseError,
    SelfLoopError,
)

from conftest import neighbors, random_connected_graph


class TestLoadGraph:
    def test_path(self):
        g = load_graph("0 1\n1 2")
        assert (g.n, g.m) == (3, 2)

    def test_duplicates_collapse(self):
        g = load_graph("0 1\n1 0\n0 1")
        assert (g.n, g.m) == (2, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            load_graph("0 0")

    def test_comments_and_blanks_ignored(self):
        g = load_graph("# header\n\n0 1\n# mid\n1 2\n")
        assert (g.n, g.m) == (3, 2)

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError) as exc:
            load_graph("0 1\nnot an edge\n")
        assert exc.value.line_no == 2

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            load_graph("0 1\n2 3")

    def test_stream_input(self):
        g = load_graph(io.StringIO("0 1\n1 2"))
        assert g.n == 3


class TestDegreeNeighborhood:
    def test_path_degrees(self, path3):
        assert path3.degrees()[1] == 2
        assert path3.degrees()[0] == 1

    def test_two_triangle_bridge_degree(self, two_triangle):
        # adjacency row of vertex 2 in the 6-vertex fixture: {0, 1, 3}
        assert two_triangle.degrees()[2] == 3


class TestInducedSubgraph:
    def test_edge_kept(self, path3):
        sub, vs = path3.induced_subgraph(np.array([0, 1]))
        assert (sub.n, sub.m) == (2, 1)
        assert vs.tolist() == [0, 1]

    def test_disconnected_allowed(self, path3):
        sub, _ = path3.induced_subgraph(np.array([0, 2]))
        assert (sub.n, sub.m) == (2, 0)

    def test_triangle_from_fixture(self, two_triangle):
        sub, _ = two_triangle.induced_subgraph(np.array([0, 1, 2]))
        assert (sub.n, sub.m) == (3, 3)

    def test_empty_rejected(self, path3):
        with pytest.raises(EmptySetError):
            path3.induced_subgraph(np.array([], dtype=np.int64))

    def test_full_subgraph_identity(self, two_triangle):
        g = two_triangle
        sub, vs = g.induced_subgraph(np.arange(g.n))
        assert vs.tolist() == list(range(g.n))
        assert sub.m == g.m
        for v in range(g.n):
            assert neighbors(sub, v) == neighbors(g, v)


class TestLaplacian:
    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert np.array_equal(g.laplacian(), [[1, -1], [-1, 1]])

    def test_path3(self, path3):
        assert np.array_equal(
            path3.laplacian(), [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
        )

    def test_triangle(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        L = g.laplacian()
        assert np.array_equal(np.diag(L), [2, 2, 2])
        assert (L[~np.eye(3, dtype=bool)] == -1).all()


@given(st.integers(0, 10**6))
def test_graph_invariants(seed):
    g = random_connected_graph(seed)
    # symmetry and degree sum
    A = g.adjacency()
    assert (A != A.T).nnz == 0
    assert g.degrees().sum() == 2 * g.m
    # Laplacian nullspace
    L = g.laplacian()
    assert np.abs(L @ np.ones(g.n)).max() <= 1e-12


@given(
    st.integers(1, 8),
    st.lists(st.tuples(st.integers(-2, 10), st.integers(-2, 10)), max_size=12),
)
def test_from_edges_first_bad_edge_raises(n, edges):
    # the first bad edge in input order decides; a self-loop before the range
    expect = None
    for u, v in edges:
        if u == v:
            expect = (SelfLoopError, u)
        elif min(u, v) < 0 or max(u, v) >= n:
            expect = (OutOfRangeError, max(u, v))
        if expect:
            break
    if expect is None:
        g = Graph.from_edges(n, edges, require_connected=False)
        assert g.m == len({(min(u, v), max(u, v)) for u, v in edges})
    else:
        with pytest.raises(expect[0]) as exc:
            Graph.from_edges(n, edges, require_connected=False)
        assert exc.value.vertex == expect[1]


@given(st.integers(0, 10**6))
def test_csr_queries_match_edge_oracle(seed):
    # per-vertex set oracle for the CSR slice
    g = random_connected_graph(seed)
    rng = np.random.default_rng(seed)
    vs = np.flatnonzero(rng.random(g.n) < 0.5)
    if len(vs):
        sub, _ = g.induced_subgraph(vs)
        keep = set(vs.tolist())
        local = {v: i for i, v in enumerate(vs.tolist())}
        for v in vs.tolist():
            expect = sorted(local[w] for w in neighbors(g, v) if w in keep)
            assert neighbors(sub, local[v]) == expect
        assert 2 * sub.m == sub.degrees().sum()
