import io
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, strategies as st

from gbfpum import Graph, load_graph
from gbfpum.graph import as_vertex_set, integer_entries, sorted_unique
from gbfpum.errors import (
    DisconnectedError,
    EmptySetError,
    OutOfRangeError,
    ParseError,
    SelfLoopError,
)

from conftest import DATA, neighbors, path_graph, random_connected_graph


def reference_load_graph(text: str) -> Graph:
    """Edge-list parser reading one line at a time: the oracle for `load_graph`."""
    edges: list[tuple[int, int]] = []
    max_id = -1
    for line_no, raw in enumerate(text.splitlines(), start=1):
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


DIGITS = ("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
          "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")


def spell(draw, v: int) -> str:
    """Vertex id v as int() may spell it: sign, leading zeros, '_' and non-ASCII digits."""
    digits = draw(st.sampled_from(DIGITS))
    text = "".join(digits[int(c)] for c in "0" * draw(st.integers(0, 2)) + str(abs(v)))
    if len(text) > 1 and draw(st.booleans()):
        text = text[0] + "_" + text[1:]
    return ("-" if v < 0 else draw(st.sampled_from(["", "+"]))) + text


MALFORMED = ["x 1", "1", "1.5 2", "1__0 2", "_1 2", "+-1 2", "0x1 2", "1 2 #", "1 2 3"]


@st.composite
def edge_list_text(draw) -> str:
    """Edge lines on vertices 0-4 mixed with the lines load_graph skips or rejects."""
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 29))
        u = draw(st.integers(0, 4))
        if kind < 20:  # an edge
            ids = [u, (u + draw(st.integers(1, 4))) % 5]
        elif kind == 20:  # a self-loop, its id spelled twice
            ids = [u, u]
        elif kind == 21:  # a negative id
            ids = [draw(st.integers(-3, -1)), u]
        elif kind == 22:  # three ids
            ids = [u, u + 1, u + 2]
        if kind < 23:
            sep = draw(st.sampled_from([" ", "\t", "  "]))
            line = sep.join(spell(draw, v) for v in ids)
        elif kind < 27:
            line = draw(st.sampled_from(["# comment", "#", "", "# 0 0", "#0 1", "#x"]))
        else:
            line = draw(st.sampled_from(MALFORMED))
        pad = st.sampled_from(["", " ", "\t", "  "])
        rows.append(draw(pad) + line + draw(pad))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(rows) + draw(st.sampled_from(["", end]))


@given(edge_list_text())
@example("#0 1\n0 1\n")  # a comment whose '#' touches its first token
@example("0 1\n1 1\nx\n")  # a self-loop before a malformed line
@example("x\n0 -1\n1 1\n")  # a malformed line before a negative id
def test_load_graph_matches_reference_parser(text):
    try:
        expect = reference_load_graph(text)
    except (ParseError, SelfLoopError, DisconnectedError) as exc:
        with pytest.raises(type(exc)) as got:
            load_graph(text)
        assert getattr(got.value, "line_no", None) == getattr(exc, "line_no", None)
        assert getattr(got.value, "vertex", None) == getattr(exc, "vertex", None)
        return
    g = load_graph(text)
    assert (g.n, g.m) == (expect.n, expect.m)
    assert np.array_equal(g.indptr, expect.indptr)
    assert np.array_equal(g.indices, expect.indices)


@given(st.integers(1, 8), st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20))
def test_from_edges_array_equals_pairs(n, pairs):
    pairs = [(u % n, v % n) for u, v in pairs if u % n != v % n]
    from_pairs = Graph.from_edges(n, pairs, require_connected=False)
    array = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    from_array = Graph.from_edges(n, array, require_connected=False)
    assert from_pairs.m == from_array.m == len({(min(e), max(e)) for e in pairs})
    assert np.array_equal(from_pairs.indptr, from_array.indptr)
    assert np.array_equal(from_pairs.indices, from_array.indices)
    assert all(
        set(neighbors(from_array, v)) == {b for a, b in pairs if a == v} | {a for a, b in pairs if b == v}
        for v in range(n)
    )


@given(st.lists(st.integers(-(2**31), 2**31 - 1), max_size=30), st.sampled_from([np.int64, np.int32]))
def test_sorted_unique_is_np_unique(keys, dtype):
    keys = np.array(keys, dtype=dtype)
    got = sorted_unique(keys)
    assert got.dtype == keys.dtype and np.array_equal(got, np.unique(keys))


class TestAsVertexSet:
    def test_non_integral_float_named(self):
        # both were truncated to [1, 2]
        with pytest.raises(ValueError, match=r"^vertex id 2\.9 at position 1 is not an integer$"):
            as_vertex_set([2.0, 2.9, 1.5], 10)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="at position 0 is not an integer"):
                as_vertex_set([bad, 1.0], 10)
        # object arrays, element by element: 1.5 was truncated to 1, NaN raised a bare cast error
        with pytest.raises(ValueError, match=r"^vertex id 1\.5 at position 0 is not an integer$"):
            as_vertex_set(np.array([1.5, 2], dtype=object), 10)
        with pytest.raises(ValueError, match=r"^vertex id nan at position 0 is not an integer$"):
            as_vertex_set(np.array([np.nan, 1], dtype=object), 10)

    @pytest.mark.parametrize(
        "ids, shown",
        [
            (["1", "2"], "'1'"),  # read "vertex id 1", like an integer
            (np.array(["3", "1"]), "'3'"),  # a text array was converted to [1, 3]
            (np.array(["a"]), "'a'"),  # leaked numpy's "invalid literal for int()"
            (np.array([b"2"]), "b'2'"),
        ],
    )
    def test_text_named_by_repr(self, ids, shown):
        with pytest.raises(ValueError, match=f"^vertex id {shown} at position 0 is not an integer$"):
            as_vertex_set(ids, 10)

    def test_boolean_mask_rejected(self):
        # a mask was read as the ids [0, 1]
        with pytest.raises(ValueError, match="booleans"):
            as_vertex_set([True, False], 10)
        with pytest.raises(ValueError, match="booleans"):
            as_vertex_set(np.zeros(10, dtype=bool), 10)
        # each was read as [1, 2]: a list or tuple is checked as an object array is
        with pytest.raises(ValueError, match=r"^vertex id True at position 0 is a boolean, not an integer$"):
            as_vertex_set(np.array([True, 2], dtype=object), 10)
        with pytest.raises(ValueError, match=r"^vertex id True at position 0 is a boolean, not an integer$"):
            as_vertex_set([True, 2], 10)
        with pytest.raises(ValueError, match=r"^vertex id True at position 1 is a boolean, not an integer$"):
            as_vertex_set((2, True), 10)

    def test_integral_floats_and_empty_accepted(self):
        for ids in ([3.0, 1.0, 3.0], np.array([3.0, 1, np.int32(3)], dtype=object)):
            got = as_vertex_set(ids, 10)
            assert got.dtype == np.int64 and got.tolist() == [1, 3]
        for empty in ([], np.zeros(0, dtype=np.float64), np.zeros(0, dtype=np.int32)):
            got = as_vertex_set(empty, 10)
            assert got.dtype == np.int64 and len(got) == 0

    def test_out_of_range_named(self):
        with pytest.raises(OutOfRangeError, match="^vertex -2 out of range"):
            as_vertex_set([5, -1, -2, 12], 10)
        with pytest.raises(OutOfRangeError, match="^vertex 12 out of range"):
            as_vertex_set([5, 12, 10.0], 10)
        with pytest.raises(OutOfRangeError, match="^vertex 1000000000000000019884624838656 out of range"):
            as_vertex_set([1e30], 10)  # not wrapped by the int64 cast
        for big in (2**63, 2**64):  # a uint64 array, then an object array that no cast fits
            with pytest.raises(OutOfRangeError, match=f"^vertex {big} out of range"):
                as_vertex_set([0, big], 10)

    @given(st.lists(st.integers(0, 19), max_size=30), st.sampled_from([np.int64, np.int32, np.uint8, np.float64]))
    def test_matches_np_unique(self, ids, dtype):
        got = as_vertex_set(np.array(ids, dtype=dtype), 20)
        assert got.dtype == np.int64 and np.array_equal(got, np.unique(np.array(ids, dtype=np.int64)))


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

    def test_huge_id_is_disconnected_in_o_m_memory(self):
        # a vertex id of 10^12 leaves most ids on no edge; no array of order n is made
        tracemalloc.start()
        try:
            with pytest.raises(DisconnectedError):
                load_graph("0 1\n1 2\n2 1000000000000\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("big", [2**63 - 1, 10**12])
    def test_huge_id_from_edges_is_disconnected(self, big):
        with pytest.raises(DisconnectedError):
            Graph.from_edges(big + 1, np.array([[0, 1], [1, big]]))

    @pytest.mark.parametrize(
        "text, line_no",
        [("1 99999999999999999999", 1), ("0 1\n1 9223372036854775808\n2 2", 2)],
    )
    def test_id_past_int64_names_its_line(self, text, line_no):
        with pytest.raises(ParseError) as exc:
            load_graph(text)
        assert exc.value.line_no == line_no


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
    def test_dense_equals_sparse_without_negative_zeros(self, seed):
        g = random_connected_graph(seed)
        # an induced subgraph with isolated vertices and empty rows
        sub, _ = g.induced_subgraph(np.arange(0, g.n, 3))
        for graph in (g, sub):
            L = graph.laplacian()
            assert np.array_equal(L, graph.sparse_laplacian().toarray())
            assert not np.signbit(L[L == 0]).any()


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
    # the first bad edge in input order decides; a self-loop before the range,
    # and of two ends out of range, u (the oracle once named max(u, v), an end in range)
    expect = None
    for u, v in edges:
        if u == v:
            expect = (SelfLoopError, u)
        elif min(u, v) < 0 or max(u, v) >= n:
            expect = (OutOfRangeError, u if not 0 <= u < n else v)
        if expect:
            break
    if expect is None:
        g = Graph.from_edges(n, edges, require_connected=False)
        assert g.m == len({(min(u, v), max(u, v)) for u, v in edges})
    else:
        with pytest.raises(expect[0]) as exc:
            Graph.from_edges(n, edges, require_connected=False)
        assert exc.value.vertex == expect[1]


class TestFromEdgesEntries:
    """`from_edges` reads its ends by `integer_entries` and takes (u, v) pairs only."""

    @pytest.mark.parametrize(
        "edges, message",
        [
            # each was built: the edge (0, 1), the edge (0, 1), a graph from text
            ([(0, 1.7), (1, 2)], "edge 0 has end 1.7, which is not an integer"),
            ([(0, True), (1, 2)], "edge 0 has end True, which is not an integer"),
            ([("0", "1"), ("1", "2")], "edge 0 has end '0', which is not an integer"),
            (np.array([[0, 1], [1, np.nan]]), "edge 1 has end nan, which is not an integer"),
            (np.array([[0, 1], [2, 2.5]]), "edge 1 has end 2.5, which is not an integer"),
            # regrouped into the three edges (0, 1), (2, 1), (2, 0)
            ([(0, 1, 2), (1, 2, 0)], "edges must be (u, v) pairs, got shape (2, 3)"),
            ([(0, 1), (2,)], "edges must be (u, v) pairs, got shape (2,)"),
            (np.array([0, 1, 1, 2]), "edges must be (u, v) pairs, got shape (4,)"),
        ],
        ids=["fraction", "boolean", "text", "nan", "fraction array", "triples", "ragged", "flat"],
    )
    def test_bad_entry_or_shape_named(self, edges, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Graph.from_edges(3, edges, require_connected=False)

    @pytest.mark.parametrize(
        "edges, vertex",
        # (-1, 2) named 2, the end in range; 2**64 raised numpy's OverflowError
        [([(0, 1), (-1, 2)], -1), ([(0, 1), (2, -1)], -1), ([(1, 5)], 5), ([(-1, 5)], -1), ([(1, 2**64)], 2**64)],
    )
    def test_out_of_range_end_named(self, edges, vertex):
        with pytest.raises(OutOfRangeError, match=f"^vertex {vertex} out of range for graph of order 3$"):
            Graph.from_edges(3, edges, require_connected=False)

    def test_integral_floats_and_empty_accepted(self):
        ints = Graph.from_edges(3, [(0, 1), (1, 2)])
        for edges in ([(0, 1.0), (1, 2)], np.array([[0.0, 1.0], [1.0, 2.0]]), np.array([[0, 1], [1, 2]], dtype=np.uint8)):
            g = Graph.from_edges(3, edges)
            assert np.array_equal(g.indptr, ints.indptr) and np.array_equal(g.indices, ints.indices)
        for empty in ([], np.zeros((0, 2), dtype=np.int64)):
            assert Graph.from_edges(1, empty).m == 0


def test_integer_entries_passes_integer_dtypes_as_they_are():
    def named(i, entries):
        raise AssertionError("an integer array was read element by element")

    for a in (np.array([[0, 1], [1, 2]]), np.arange(4, dtype=np.int32), np.arange(3, dtype=np.uint64)):
        assert integer_entries(a, named) is a
    # any other dtype keeps its entries as they are, for the caller's range check
    assert integer_entries([3.0, 2**64], named).tolist() == [3.0, 2**64]


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


@given(st.integers(0, 10**6), st.integers(1, 4))
def test_disjoint_union_matches_induced_blocks(seed, k):
    # overlapping, possibly empty parts: one block per part, no edge across parts
    g = random_connected_graph(seed)
    rng = np.random.default_rng(seed)
    parts = [np.flatnonzero(rng.random(g.n) < 0.5) for _ in range(k)]
    union = g.disjoint_union(parts)
    A = g.adjacency()
    blocks = [A[p][:, p] for p in parts if len(p)]
    expect = sp.block_diag(blocks, format="csr") if blocks else sp.csr_matrix((0, 0))
    assert union.n == sum(map(len, parts)) and 2 * union.m == union.degrees().sum()
    assert (union.adjacency() != expect).nnz == 0
    assert all(neighbors(union, i) == sorted(neighbors(union, i)) for i in range(union.n))


@pytest.mark.parametrize(
    "parts, error, message",
    [
        # unchecked, the first two built a wrong graph, the third returned the graph itself
        # in its own vertex order, and the next two raised numpy's errors
        ([[2, 1, 0]], ValueError, "part 0 is not strictly increasing"),
        ([[1, 1, 2]], ValueError, "part 0 is not strictly increasing"),
        ([np.arange(4)[::-1]], ValueError, "part 0 is not strictly increasing"),
        ([[0, 4]], OutOfRangeError, "vertex 4 out of range for graph of order 4"),
        ([[-1, 2]], OutOfRangeError, "vertex -1 out of range for graph of order 4"),
        ([[0, 1], [3, 2]], ValueError, "part 1 is not strictly increasing"),
    ],
    ids=["descending", "repeat", "every vertex reversed", "above n", "negative", "second part"],
)
def test_disjoint_union_checks_its_parts(parts, error, message):
    g = path_graph(4)  # 0-1-2-3
    with pytest.raises(error, match=message):
        g.disjoint_union(parts)


class TestHeads:
    """`heads[i]` is the row of CSR entry i: np.repeat(arange(n), degrees), read-only."""

    @staticmethod
    def check(g: Graph) -> None:
        assert np.array_equal(g.heads, np.repeat(np.arange(g.n), g.degrees()))
        assert not g.heads.flags.writeable
        with pytest.raises(ValueError):
            g.heads[:1] = 0

    def test_loaded_graph(self):
        g = load_graph((DATA / "minnesota_surrogate.edges").read_text())
        self.check(g)
        assert len(g.heads) == len(g.indices) == 2 * g.m

    def test_union_with_shared_vertex(self, two_triangle):
        # vertices 2 and 3 have a copy in each part; copy 4 of 2 keeps one edge
        union = two_triangle.disjoint_union([np.array([0, 1, 2, 3]), np.array([2, 3, 4, 5])])
        self.check(union)
        assert union.heads.tolist() == [0, 0, 1, 1, 2, 2, 2, 3, 4, 5, 5, 5, 6, 6, 7, 7]

    def test_isolated_vertex(self):
        g = Graph.from_edges(4, [(0, 1), (1, 3)], require_connected=False)
        self.check(g)
        assert g.heads.tolist() == [0, 1, 1, 3]

    def test_one_part_is_the_graph(self, two_triangle):
        union = two_triangle.disjoint_union([np.arange(two_triangle.n)])
        assert union is two_triangle
        self.check(union)
