import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gbfpum.metrics
from gbfpum import (
    DetectionParams,
    Graph,
    default_alpha,
    detect_communities,
    katz_centrality,
    modularity,
)
from gbfpum.errors import EmptySetError
from gbfpum.metrics import DEFAULT_ALPHA_CAP, jaccard_communities

from conftest import neighbors, random_connected_graph


def katz_series(g: Graph, alpha: float, terms: int) -> np.ndarray:
    """Katz oracle: the first `terms` powers of sum_k alpha^k A^k 1."""
    A = g.adjacency()
    total = np.zeros(g.n)
    v = np.ones(g.n)
    for _ in range(terms):
        v = alpha * (A @ v)
        total += v
    return total


def modularity_double_sum(g: Graph, membership) -> float:
    """Literal (1/2m) sum over all ordered pairs including i == j."""
    A = g.adjacency().toarray()
    k = g.degrees().astype(float)
    m = g.m
    q = 0.0
    for i in range(g.n):
        for j in range(g.n):
            if membership[i] == membership[j]:
                q += A[i, j] - k[i] * k[j] / (2 * m)
    return q / (2 * m)


def jaccard_vertices(g: Graph, u: int, v: int) -> float:
    """Jaccard oracle: |N(u) ∩ N(v)| / |N(u) ∪ N(v)| over open neighborhoods."""
    nu = set(neighbors(g, u))
    nv = set(neighbors(g, v))
    union = len(nu | nv)
    if union == 0:
        return 0.0
    return len(nu & nv) / union


def katz_terms(g: Graph, tol: float) -> int:
    """Terms of `katz_series` at the graph's alpha that leave a tail below tol.

    Every entry of alpha^k A^k 1 is at most q^k, q = alpha * max degree <= 0.85,
    so the terms after the first T sum to at most q^(T+1) / (1 - q).
    """
    q = default_alpha(g) * float(g.degrees().max())
    terms = int(np.ceil(np.log(tol * (1 - q)) / np.log(q)))
    assert q ** (terms + 1) / (1 - q) < tol
    return terms


class TestKatz:
    def test_path3_closed_form(self, path3):
        # alpha a = 0.425: x - 1 = [a + 2a^2, 2a + 2a^2, a + 2a^2] / (1 - 2a^2)
        got = katz_centrality(path3)
        assert np.allclose(got, [1.230920, 1.896282, 1.230920], atol=1e-6)

    def test_vertex_transitive_equal(self):
        tri = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        got = katz_centrality(tri)
        assert np.ptp(got) <= 1e-12

    def test_truncated_one_term(self, path3):
        got = katz_series(path3, alpha=0.1, terms=1)
        assert np.allclose(got, [0.1, 0.2, 0.1], atol=1e-12)

    def test_default_alpha_capped(self, path3, two_triangle):
        assert default_alpha(path3) == pytest.approx(0.85 / 2)
        assert default_alpha(two_triangle) == pytest.approx(0.85 / 3)

    def test_edgeless_graph_takes_the_cap(self):
        g = Graph.from_edges(1, [])
        assert default_alpha(g) == DEFAULT_ALPHA_CAP
        assert katz_centrality(g).tolist() == [0.0]

    def test_truncated_converges_to_closed_form_from_below(self):
        g = random_connected_graph(123, n_max=50)
        alpha = default_alpha(g)
        exact = katz_centrality(g)
        prev_gap = np.inf
        for terms in (5, 10, 20, 60, katz_terms(g, 1e-9)):
            trunc = katz_series(g, alpha, terms)
            assert (trunc <= exact + 1e-12).all()  # from below
            gap = np.abs(exact - trunc).max()
            assert gap <= prev_gap + 1e-15
            prev_gap = gap
        assert prev_gap < 1e-8


class TestKatzMemo:
    """One sparse solve per graph; the vector is shared read-only."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        original = gbfpum.metrics.sparse_lu

        def counted(M):
            calls.append(M.shape[0])
            return original(M)

        monkeypatch.setattr(gbfpum.metrics, "sparse_lu", counted)
        return calls

    def test_solves_once_per_graph(self, solves):
        g = random_connected_graph(7, n_max=50)
        first = katz_centrality(g)
        assert katz_centrality(g) is first
        assert len(solves) == 1
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0

    def test_covers_identical_with_memo(self, geometric200, solves):
        def fresh() -> Graph:
            g = geometric200
            return Graph(g.indptr, g.indices)

        W = np.arange(0, 200, 7)
        g = fresh()
        reused = [detect_communities(g, W, DetectionParams()).to_json() for _ in range(2)]
        assert reused == [detect_communities(fresh(), W, DetectionParams()).to_json()] * 2
        assert len(solves) == 2  # once per graph


class TestModularity:
    def test_all_in_one_zero(self, two_triangle):
        assert modularity(two_triangle, np.zeros(6, dtype=int)) == pytest.approx(0.0, abs=1e-12)

    def test_two_triangle_split(self, two_triangle):
        member = np.array([0, 0, 0, 1, 1, 1])
        assert modularity(two_triangle, member) == pytest.approx(5 / 14, abs=1e-12)

    def test_singletons_on_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert modularity(g, np.array([0, 1])) == pytest.approx(-0.5, abs=1e-12)

    def test_rebuilt_graph_keeps_order_edges_and_modularity(self, geometric200):
        # n and m come from the CSR arrays, so a rebuilt graph cannot disagree with them
        g = geometric200
        rebuilt = Graph(g.indptr, g.indices)
        member = np.arange(g.n) % 3
        assert (rebuilt.n, rebuilt.m) == (g.n, g.m) == (200, 941)
        assert modularity(rebuilt, member) == modularity(g, member) == pytest.approx(-0.0094, abs=5e-5)

    def test_edgeless_graph_zero(self):
        assert modularity(Graph.from_edges(1, []), [0]) == 0.0

    def test_label_per_vertex(self, two_triangle):
        with pytest.raises(ValueError, match="^membership must assign every vertex$"):
            modularity(two_triangle, np.zeros(5, dtype=int))

    @pytest.mark.parametrize(
        "member, message",
        [
            ([0, -1, 0], "vertex 1 has label -1, which is negative"),
            (np.array([0, 0, -2]), "vertex 2 has label -2, which is negative"),
            ([0.5, 0, 0], "vertex 0 has label 0.5, which is not an integer"),
            ([0, 0, 1.5], "vertex 2 has label 1.5, which is not an integer"),
            (np.array([False, True, False]), "vertex 0 has label False, which is not an integer"),
            (np.array(["0", "0", "1"]), "vertex 0 has label '0', which is not an integer"),
        ],
    )
    def test_refuses_bad_label_by_vertex(self, member, message):
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            modularity(path, member)

    def test_integral_float_labels_read_as_integers(self, two_triangle):
        member = np.array([0, 0, 0, 1, 1, 1])
        assert modularity(two_triangle, member.astype(float)) == modularity(two_triangle, member)
        # unsigned labels raised numpy's TypeError from bincount's cast
        assert modularity(two_triangle, member.astype(np.uint64)) == modularity(two_triangle, member)

    @pytest.mark.parametrize("shape", [(6, 1), (1, 6), (2, 3)])
    def test_labels_not_flat_refused(self, two_triangle, shape):
        # (6, 1) passed the length check, then raised IndexError from the edge mask
        with pytest.raises(ValueError, match="^membership must assign every vertex$"):
            modularity(two_triangle, np.zeros(shape, dtype=int))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_double_sum_oracle(self, seed):
        g = random_connected_graph(seed, n_max=30)
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        member = rng.integers(0, k, g.n)
        member = np.unique(member, return_inverse=True)[1]  # contiguous ids
        assert modularity(g, member) == pytest.approx(
            modularity_double_sum(g, member), abs=1e-12
        )


class TestJaccard:
    def test_triangle_pair(self):
        tri = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert jaccard_vertices(tri, 0, 1) == pytest.approx(1 / 3)

    def test_twins(self):
        # 0 and 1 both adjacent to exactly {2, 3}
        g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert jaccard_vertices(g, 0, 1) == 1.0

    def test_path_endpoints(self, path3):
        assert jaccard_vertices(path3, 0, 2) == 1.0

    def test_single_vertex_communities(self, path3):
        w = np.array([1])
        assert jaccard_communities(path3, w, w) == 1.0

    def test_endpoint_communities(self, path3):
        assert jaccard_communities(path3, np.array([0]), np.array([2])) == 1.0

    def test_empty_community(self, path3):
        with pytest.raises(EmptySetError, match="^empty community$"):
            jaccard_communities(path3, [], [1])

    def test_two_triangle_pairs_mean(self, two_triangle):
        U, V = np.array([0, 1]), np.array([4, 5])
        expect = np.mean(
            [jaccard_vertices(two_triangle, u, v) for u in U for v in V]
        )
        assert jaccard_communities(two_triangle, U, V) == pytest.approx(expect, abs=1e-12)

    @given(st.integers(0, 10**6))
    def test_symmetry(self, seed):
        g = random_connected_graph(seed, n_max=20)
        rng = np.random.default_rng(seed + 1)
        u, v = rng.integers(0, g.n, 2)
        assert jaccard_vertices(g, int(u), int(v)) == jaccard_vertices(g, int(v), int(u))
        U = np.unique(rng.integers(0, g.n, 3))
        V = np.unique(rng.integers(0, g.n, 3))
        assert jaccard_communities(g, U, V) == pytest.approx(
            jaccard_communities(g, V, U), abs=1e-12
        )
