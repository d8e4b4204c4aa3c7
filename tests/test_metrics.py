import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gbfpum import (
    Graph,
    default_alpha,
    jaccard_communities,
    katz_centrality,
    modularity,
)
from gbfpum.errors import AlphaDivergesError

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


class TestKatz:
    def test_path3_closed_form(self, path3):
        got = katz_centrality(path3, 0.1)
        assert np.allclose(got, [0.122449, 0.224490, 0.122449], atol=1e-6)

    def test_vertex_transitive_equal(self):
        tri = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        got = katz_centrality(tri, 0.2)
        assert np.ptp(got) <= 1e-12

    def test_truncated_one_term(self, path3):
        got = katz_series(path3, alpha=0.1, terms=1)
        assert np.allclose(got, [0.1, 0.2, 0.1], atol=1e-12)

    def test_alpha_diverges(self, path3):
        with pytest.raises(AlphaDivergesError):
            katz_centrality(path3, 0.6)  # 1/maxdeg = 0.5

    def test_default_alpha_capped(self, path3, two_triangle):
        assert default_alpha(path3) == pytest.approx(0.85 / 2)
        assert default_alpha(two_triangle) == pytest.approx(0.85 / 3)

    def test_truncated_converges_to_closed_form_from_below(self):
        g = random_connected_graph(123, n_max=50)
        alpha = 0.3 / g.degrees().max()
        exact = katz_centrality(g, alpha)
        prev_gap = np.inf
        for terms in (5, 10, 20, 60, 120):
            trunc = katz_series(g, alpha, terms)
            assert (trunc <= exact + 1e-12).all()  # from below
            gap = np.abs(exact - trunc).max()
            assert gap <= prev_gap + 1e-15
            prev_gap = gap
        assert prev_gap < 1e-8

    def test_bad_params(self, path3):
        for alpha in (-1.0, np.nan):
            with pytest.raises(ValueError):
                katz_centrality(path3, alpha)


class TestModularity:
    def test_all_in_one_zero(self, two_triangle):
        assert modularity(two_triangle, np.zeros(6, dtype=int)) == pytest.approx(0.0, abs=1e-12)

    def test_two_triangle_split(self, two_triangle):
        member = np.array([0, 0, 0, 1, 1, 1])
        assert modularity(two_triangle, member) == pytest.approx(5 / 14, abs=1e-12)

    def test_singletons_on_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert modularity(g, np.array([0, 1])) == pytest.approx(-0.5, abs=1e-12)

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
